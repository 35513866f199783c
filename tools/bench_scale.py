"""Per-call time of ``tensor.Segments`` plans, build plus sum, of
``data.load_dataset``, of an Adam step, of the k-hop build, of dataset
generation and saving, of batchnorm recalibration and of a training step,
in two checkouts.

    python3 tools/bench_scale.py --before DIR --after DIR --out BENCH_21.json

Each DIR is a source checkout of one commit, as for ``tools/bench_pairs.py``.
The plans are those of fixed batches, collated by each checkout's own code
from fixed seeds:

- ``cycles-64``: 64 min-cycle-class graphs, K=3, H=32 (the cycles-gineplus model);
- ``multitask-64`` and ``multitask-256``: random-multitask graphs, K=2, H=100
  (the multitask-score model);
- ``star-1000``: a 1000-leaf star, H=32;
- ``cycle-8000``: one 8000-node cycle, H=32.

The last two are 1-hop only, so they time the arc plans alone: the star's
distance-2 shell holds about a million pairs.

Every index set of a batch is timed (``graph_ids``, ``arc_dst``, ``arc_src``,
the dst and src of each distance-k shell from k = 2, named ``shellk``; the
arcs are distance 1), and so is every embedding-table gradient plan: one
per node field (``node_feats.f``) and per edge field (``arc_feats.f``).
For each plan, ``build_sum_ms`` is one ``Segments(ids, n).sum(values)`` on a
new plan, ``sum_ms`` one more sum on a plan whose table is built, and
``add_at_ms`` the same sums by ``np.add.at`` into a -0.0 fill, which adds
each bucket in ``ids`` order by definition and needs no table, each the
median of at least ``MIN_CALLS`` calls. Plans that keep their layout and
code across the two checkouts show how far identical code reads apart. The
result goes under ``segments_per_call``.

``load_dataset`` is timed on two files, each written by the checkout's own
``save_dataset`` into a temporary directory: ``multitask-4000``, the
4000-graph random-multitask file that the multitask-score workload scores,
and ``large-graphs``, one 8000-node cycle with 40 chords and one 1000-leaf
star. ``load_ms`` is the median of at least ``MIN_LOADS`` calls; the
result goes under ``load_per_call`` in the same way.

``Adam.zero_grad()`` plus ``Adam.step()`` is timed on the parameters of two
models initialised by the checkout's own ``init_params``: ``cycles-gineplus``,
the acceptance gine+ model (K=3, L=3, H=32, three tasks), and
``multitask-score``, that workload's model (gine+, K=2, L=3, H=100, virtual
node). ``zero_grad_step_us`` is the median of at least ``MIN_CALLS`` pairs
of calls, and ``step_peak_bytes`` the ``tracemalloc`` peak of one such pair
after a first; the result goes under ``optimizer_per_call``.

The k-hop shells are timed cold, on graphs whose memo is dropped before each
call (outside the timer), and warm, on the memo the cold call left:
``cycles-64`` and ``multitask-256`` as ``data.collate`` batches (K=3 and
K=2), whose cold minus warm time is the build of one batch's shells, and
``cycle-2000``, one 2000-node cycle with 20 chords, and ``dense-500``, a
500-node graph with each node pair joined with probability 0.3, by
``build_khop_index`` (K=3 and K=2), the one-graph path. The two large graphs
have the lowest and about the highest degree a graph can have, and a sparse
join of each distance's pairs with the arcs takes time that grows with the
pairs times the degree.
``cold_ms`` and ``warm_ms`` are medians of at least ``MIN_CALLS`` calls,
``MIN_BUILDS`` for the large graph, and ``peak_bytes`` the ``tracemalloc``
peak of one cold call; the result goes under ``khop_per_call``.

``synth.gen_synthetic_dataset`` is timed on ``min-cycle-class-600`` and
``random-multitask-4000`` (seed 7, the sizes the two benchmark workloads
generate at every set-up), and ``data.save_dataset`` on the 4000-graph
dataset, written into a temporary directory. ``call_ms`` is the median of at
least ``MIN_LOADS`` calls; the result goes under ``gen_per_call``.

``train.recalibrate_norm_stats`` is timed on the training split of two
models initialised by the checkout's own ``init_params`` (seed 0), each
split drawn by ``random_split`` (0.8/0.1/0.1, seed 7) as the benchmark
workloads draw it: ``cycles-gineplus``, the acceptance model on the
480-graph split of ``min-cycle-class-600``, and ``multitask-score``, that
workload's model on the 256-graph split of the first 320 graphs of
``random-multitask-4000``. ``call_ms`` is the median of at least
``MIN_LOADS`` calls and ``peak_bytes`` the ``tracemalloc`` peak of one call
after a first. ``score_peak_bytes`` is the same peak of one
``train.predict_logits`` scoring pass over the same split with the same
parameters, the peak a recalibration pass is measured against; the result
goes under ``recal_per_call``.

One training step (train-mode forward, masked loss, ``zero_grad``,
``backward`` and Adam's ``step``) is timed on a 64-graph batch of each of
the same two models (seed 0): ``cycles-gineplus`` on the first 64
min-cycle-class graphs and ``multitask-score`` on the first 64
random-multitask graphs. ``step_ms`` is the median of at least ``MIN_CALLS``
steps. After a first step, ``forward_held_bytes`` is what ``tracemalloc``
finds held after one more forward with only its loss bound (the arrays
the tape keeps for backward), and ``step_peak_bytes`` the peak over that
forward plus its backward; the result goes under ``step_per_call``.

Each fixed graph and dataset is built once per process. Each checkout is
measured in its own process, with one BLAS thread, ``ROUNDS`` times, sides
alternating as in ``tools/bench_pairs.py``. Each section holds the rounds'
provenance and, under ``cases``, each case's sizes and, per timing (every one
lower-is-better), ``bench_pairs.compare``'s form: each side's per-round
values, median and quartiles, the change and the rounds won and lost. If
``--out`` exists, the sections are added to it; nothing else in it changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from bench_pairs import SIDES, alternate, compare

ROUNDS = 10  # the same code timed in two processes can read 1.5x apart, so few rounds show little
MIN_CALLS = 20
MIN_SECONDS = 0.2  # per plan and timing, calls go on until both minimums are met
MIN_LOADS = 7  # a load of the 4000-graph file takes 0.1-0.3 s
MIN_BUILDS = 3  # a cold k-hop build of one large graph can take a few tenths of a second


def _median_ms(fn, min_calls: int = MIN_CALLS, setup=None) -> float:
    """Median ms of ``fn()``; ``setup()``, when given, runs untimed before each call."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < MIN_SECONDS:
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _add_at(ids: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
    out = np.full((n,) + values.shape[1:], -0.0, dtype=values.dtype)
    np.add.at(out, ids, values)
    out[np.bincount(ids, minlength=n) == 0] = 0.0
    return out


def _graph(n, edges):
    """A graph with one all-zero node field and one all-zero edge field."""
    from cyclegnn.graph import LabeledGraph

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return LabeledGraph(num_nodes=n, node_feats=np.zeros((n, 1), np.int64), edges=edges, edge_feats=np.zeros((len(edges), 1), np.int64))


def _counts(graphs) -> dict:
    return {"graphs": len(graphs), "nodes": sum(g.num_nodes for g in graphs), "edges": sum(g.num_edges for g in graphs)}


# The fixed inputs that several sections share, built once per process.
@functools.cache
def _star():
    return _graph(1001, [(0, i) for i in range(1, 1001)])


@functools.cache
def _dataset(task: str, size: int):
    from cyclegnn import synth

    return synth.gen_synthetic_dataset(task, size, 7)


def _batches():
    """(name, batched graph, width H) of every fixed batch."""
    from cyclegnn import data, synth

    cycles = _dataset(synth.TASK_MIN_CYCLE, 64).graphs
    multitask = _dataset(synth.TASK_RANDOM_MULTITASK, 256).graphs
    yield "cycles-64", data.collate(cycles, k_max=3), 32
    yield "multitask-64", data.collate(multitask[:64], k_max=2), 100
    yield "multitask-256", data.collate(multitask, k_max=2), 100
    yield "star-1000", data.collate([_star()], k_max=1), 32
    yield "cycle-8000", data.collate([_graph(8000, [(i, (i + 1) % 8000) for i in range(8000)])], k_max=1), 32


def _datasets():
    """(name, dataset) of every fixed dataset file."""
    from cyclegnn import data, synth

    yield "multitask-4000", _dataset(synth.TASK_RANDOM_MULTITASK, 4000)
    n = 8000
    cycle = _graph(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(0, n // 2, 100)])
    manifest = data.DatasetManifest((1,), (1,), ("task",))
    yield "large-graphs", data.Dataset([cycle, _star()], np.full((2, 1), np.nan), manifest)


def measure_segments() -> dict:
    """Per-call medians, in ms, of every plan of every fixed batch, in this process's cyclegnn."""
    from cyclegnn.tensor import Segments

    rng = np.random.default_rng(0)
    out: dict[str, dict] = {}
    for name, batch, width in _batches():
        plans = {"graph_ids": batch.graph_ids, "arc_dst": batch.arc_dst, "arc_src": batch.arc_src}
        for k, (dst, src) in enumerate(batch.shells, start=2):
            plans[f"shell{k}.dst"], plans[f"shell{k}.src"] = dst, src
        for field, ids in [("node_feats", batch.node_feats), ("arc_feats", batch.arc_edge_feats)]:
            for f in range(ids.shape[1]):
                plans[f"{field}.{f}"] = Segments(ids[:, f], int(ids[:, f].max(initial=0)) + 1)
        for plan_name, plan in plans.items():
            values = rng.normal(size=(plan.ids.size, width)).astype(np.float32)
            built = Segments(plan.ids, plan.n)
            built.sum(values)
            sizes = {"entries": int(plan.ids.size), "buckets": int(plan.n), "largest_bucket": int(np.bincount(plan.ids, minlength=1).max())}
            out[f"{name}/{plan_name}"] = sizes, {
                "build_sum_ms": _median_ms(lambda: Segments(plan.ids, plan.n).sum(values)),
                "sum_ms": _median_ms(lambda: built.sum(values)),
                "add_at_ms": _median_ms(lambda: _add_at(plan.ids, plan.n, values)),
            }
    return out


def measure_loads() -> dict:
    """Per-call medians, in ms, of ``load_dataset`` on every fixed dataset file, in this process's cyclegnn."""
    from cyclegnn import data

    out: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, dataset in _datasets():
            path = os.path.join(tmp, name + ".jsonl")
            data.save_dataset(dataset, path)
            sizes = {**_counts(dataset.graphs), "bytes": os.path.getsize(path)}
            out[name] = sizes, {"load_ms": _median_ms(lambda: data.load_dataset(path), MIN_LOADS)}
    return out


def measure_optimizer() -> dict:
    """Per-call medians, in us, of ``zero_grad()`` plus ``step()`` of Adam over
    each fixed model's parameters, in this process's cyclegnn."""
    from cyclegnn import nn
    from cyclegnn.tensor import Adam

    models = {
        "cycles-gineplus": nn.ModelConfig(nn.CONV_GINE_PLUS, (1,), (1,), num_tasks=3, hidden=32, num_layers=3, radius=3, dropout=0.0),
        "multitask-score": nn.ModelConfig(nn.CONV_GINE_PLUS, (5, 3), (4,), num_tasks=4, hidden=100, num_layers=3, radius=2, virtual_node=True),
    }
    out: dict[str, dict] = {}
    for name, config in models.items():
        params = nn.parameters(nn.init_params(config, 0))
        opt = Adam(params)

        def zero_grad_step():
            opt.zero_grad()
            opt.step()

        zero_grad_step()
        tracemalloc.start()
        zero_grad_step()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        sizes = {"tensors": len(params), "scalars": sum(p.data.size for p in params)}
        out[name] = sizes, {"zero_grad_step_us": 1e3 * _median_ms(zero_grad_step), "step_peak_bytes": peak}
    return out


def measure_khop() -> dict:
    """Cold and warm per-call medians, in ms, and the cold ``tracemalloc``
    peak of the k-hop shells of every fixed batch and of one large graph, in
    this process's cyclegnn."""
    from cyclegnn import data, synth
    from cyclegnn.graph import build_khop_index

    n = 2000
    cycle = _graph(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(0, n // 2, n // 40)])
    node_pairs = np.stack(np.triu_indices(500, 1), axis=1)
    dense = _graph(500, node_pairs[np.random.default_rng(0).random(len(node_pairs)) < 0.3])
    cases = [
        ("cycles-64", _dataset(synth.TASK_MIN_CYCLE, 64).graphs, 3, MIN_CALLS),
        ("multitask-256", _dataset(synth.TASK_RANDOM_MULTITASK, 256).graphs, 2, MIN_CALLS),
        ("cycle-2000", [cycle], 3, MIN_BUILDS),
        ("dense-500", [dense], 2, MIN_BUILDS),
    ]
    out: dict[str, dict] = {}
    for name, graphs, k_max, min_calls in cases:
        if len(graphs) > 1:
            call, fn = "collate", lambda: data.collate(graphs, k_max=k_max)
        else:
            call, fn = "build_khop_index", lambda: build_khop_index(graphs[0], k_max)

        def forget():
            for g in graphs:  # the memo, named alike in both checkouts: an instance-dict entry or a slot
                try:
                    object.__delattr__(g, "_khop_pairs")
                except AttributeError:
                    pass

        forget()
        tracemalloc.start()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        timings = {"cold_ms": _median_ms(fn, min_calls, setup=forget), "warm_ms": _median_ms(fn, min_calls), "peak_bytes": peak}
        pairs = sum(int(dst.size) for g in graphs for dst, _ in build_khop_index(g, k_max).pairs)
        out[name] = {"call": call, "graphs": len(graphs), "nodes": sum(g.num_nodes for g in graphs), "k_max": k_max, "pairs": pairs}, timings
    return out


def measure_gen() -> dict:
    """Per-call medians, in ms, of generating each fixed synthetic dataset and
    of saving the multitask one, in this process's cyclegnn."""
    from cyclegnn import data, synth

    out: dict[str, dict] = {}
    for task, size in ((synth.TASK_MIN_CYCLE, 600), (synth.TASK_RANDOM_MULTITASK, 4000)):
        sizes = {"call": "gen_synthetic_dataset", **_counts(_dataset(task, size).graphs)}
        out[f"{task}-{size}"] = sizes, {"call_ms": _median_ms(lambda: synth.gen_synthetic_dataset(task, size, 7), MIN_LOADS)}
    name = f"{synth.TASK_RANDOM_MULTITASK}-4000"
    dataset = _dataset(synth.TASK_RANDOM_MULTITASK, 4000)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name + ".jsonl")
        sizes = {**out[name][0], "call": "save_dataset"}
        out["save-" + name] = sizes, {"call_ms": _median_ms(lambda: data.save_dataset(dataset, path), MIN_LOADS)}
    return out


def _config(dataset, dims: dict):
    """The gine+ model of ``dims`` over ``dataset``'s fields and tasks."""
    from cyclegnn import nn

    manifest = dataset.manifest
    return nn.ModelConfig(nn.CONV_GINE_PLUS, manifest.node_field_cardinalities, manifest.edge_field_cardinalities,
                          num_tasks=manifest.num_tasks, **dims)


def measure_recal() -> dict:
    """Per-call medians, in ms, and ``tracemalloc`` peaks of
    ``recalibrate_norm_stats`` on each fixed model's training split, and the
    peak of scoring that split, in this process's cyclegnn."""
    from cyclegnn import data, nn, synth, train

    cycles = _dataset(synth.TASK_MIN_CYCLE, 600)
    multitask = _dataset(synth.TASK_RANDOM_MULTITASK, 4000).subset(np.arange(320))
    cases = {
        "cycles-gineplus": (cycles, dict(hidden=32, num_layers=3, radius=3, dropout=0.0)),
        "multitask-score": (multitask, dict(hidden=100, num_layers=3, radius=2, virtual_node=True)),
    }
    out: dict[str, dict] = {}
    for name, (dataset, dims) in cases.items():
        config = _config(dataset, dims)
        params = nn.init_params(config, 0)
        train_set = data.random_split(dataset, (0.8, 0.1, 0.1), 7)[0]

        def recal():
            train.recalibrate_norm_stats(config, params, train_set)

        def score():
            train.predict_logits(config, params, train_set)

        peaks = {}
        for key, fn in (("peak_bytes", recal), ("score_peak_bytes", score)):
            fn()  # builds the k-hop memos
            tracemalloc.start()
            fn()
            peaks[key] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        sizes = {**_counts(train_set.graphs), "normalizers": len(nn.norm_states(params))}
        out[name] = sizes, {"call_ms": _median_ms(recal, MIN_LOADS), **peaks}
    return out


def measure_step() -> dict:
    """Per-call medians, in ms, of one training step of each fixed model on
    a 64-graph batch, and ``tracemalloc`` bytes held after its train-mode
    forward and peak over forward plus backward, in this process's cyclegnn."""
    from cyclegnn import data, nn, synth
    from cyclegnn.tensor import TRAIN, Adam, backward, bce_with_logits_masked

    cases = {
        "cycles-gineplus": (_dataset(synth.TASK_MIN_CYCLE, 64), dict(hidden=32, num_layers=3, radius=3, dropout=0.0)),
        "multitask-score": (_dataset(synth.TASK_RANDOM_MULTITASK, 256).subset(np.arange(64)),
                            dict(hidden=100, num_layers=3, radius=2, virtual_node=True)),
    }
    out: dict[str, dict] = {}
    for name, (dataset, dims) in cases.items():
        config = _config(dataset, dims)
        params = nn.init_params(config, 0)
        opt = Adam(nn.parameters(params))
        batch = data.collate(dataset.graphs, k_max=config.required_radius)
        rng = np.random.default_rng(0)

        def forward():
            return bce_with_logits_masked(nn.model_forward(config, params, batch, TRAIN, rng), dataset.labels)

        def step():
            loss = forward()
            opt.zero_grad()
            backward(loss)
            opt.step()

        step()  # builds the plans' tables and the gradient buffers
        tracemalloc.start()
        loss = forward()
        held = tracemalloc.get_traced_memory()[0]
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        sizes = {**_counts(dataset.graphs), "k_max": config.required_radius, "hidden": config.hidden}
        out[name] = sizes, {"step_ms": _median_ms(step), "forward_held_bytes": held, "step_peak_bytes": peak}
    return out


# Each output section's key, and the function that measures its cases: per
# case name, a (sizes, timings) pair of dicts.
SECTIONS = (
    ("segments_per_call", measure_segments),
    ("load_per_call", measure_loads),
    ("optimizer_per_call", measure_optimizer),
    ("khop_per_call", measure_khop),
    ("gen_per_call", measure_gen),
    ("recal_per_call", measure_recal),
    ("step_per_call", measure_step),
)


def _run_side(checkout: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure"], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def _commit(checkout: str) -> str:
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="checkout of the parent commit")
    parser.add_argument("--after", help="checkout of the change")
    parser.add_argument("--out", help="JSON file to write or add to")
    parser.add_argument("--measure", action="store_true", help="measure the cyclegnn on PYTHONPATH and print one JSON line")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps({section: measure_section() for section, measure_section in SECTIONS}))
        return 0
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")
    checkouts = {"before": args.before, "after": args.after}
    rounds = alternate(ROUNDS, lambda side, _: _run_side(checkouts[side]))
    report = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="ascii") as fh:
            report = json.load(fh)
    provenance = {
        "rounds": ROUNDS,
        "commits": {side: _commit(checkouts[side]) for side in SIDES},
        "machine": {"cpu": _cpu(), "nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__, "python": sys.version.split()[0], "blas_threads": 1},
    }
    for section, _ in SECTIONS:
        cases = {}
        for case, (sizes, timings) in rounds["after"][0][section].items():
            cases[case] = dict(sizes)
            for timing in timings:
                before, after = ([round(r[section][case][1][timing], 4) for r in rounds[side]] for side in SIDES)
                c = cases[case][timing] = compare(before, after)
                print(f"{section} {case} {timing}: {c['before']['median']:.4g} -> {c['after']['median']:.4g}, won {c['pairs_won']}/{ROUNDS}")
        report[section] = {**provenance, "cases": cases}
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
