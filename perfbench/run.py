"""cyclegnn benchmark runner.

    python3 perfbench/run.py --workload cycles-gineplus --seed 7 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. ``--trace 0`` measures the end-to-end metrics with tracing
off. ``--trace 1`` runs two untraced reps, then set-up and one rep with a span
around each call into a cyclegnn layer, and reports the per-layer metrics and
the tracing overhead. The last line of standard output is the result as one
JSON object; a full record of the run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = [
    ("train_graphs_per_s", "graphs/s"),
    ("score_graphs_per_s", "graphs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


# One BLAS thread. With two on a 2-CPU machine, any load on the second CPU
# stalls OpenBLAS and cycles-gine training runs 3-5 times slower.
BLAS_THREADS = 1


def _limit_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _git_commit() -> str:
    """The checked-out commit, read from .git without starting a process."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _environment(seed: int, data_seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
        "data_seed": data_seed,
    }


def _median(values) -> float:
    """The median of the operations that succeeded, 0 if none did."""
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup(wl, data_seed: int, workdir: str, clock, setup_s: list):
    state, _, seconds = clock.time(lambda: wl.setup(data_seed, workdir))
    setup_s.append(seconds)
    return state


def _measure(wl, data_seed: int, workdir: str, ops, seconds: float, samples: dict) -> None:
    """Set up afresh ``wl.setups_per_rep`` times and run a rep, while one more
    as long as the last would end less than half of it after ``seconds``.
    Set-ups spread over the run sample the machine's speed as the reps do."""
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        for _ in range(wl.setups_per_rep):
            state = None  # release the inputs before the next set-up
            state = _setup(wl, data_seed, workdir, ops.clock, samples["setup_s"])
        train_rates, score_rates = wl.rep(state, ops)
        state = None
        samples["train"] += train_rates
        samples["score"] += score_rates
        now = time.perf_counter()
        if now - start + (now - rep_start) / 2 >= seconds:
            return


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "cyclegnn", "__init__.py")):
        print(f"error: no cyclegnn sources under {SRC}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, SRC)
    import cyclegnn

    if os.path.dirname(os.path.dirname(os.path.abspath(cyclegnn.__file__))) != SRC:
        print(f"error: imported cyclegnn from {cyclegnn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import fingerprints
    import hostspeed
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    data_seed = seed % fingerprints.SEEDS
    record: dict = {"workload": workload, "trace": trace, "env": _environment(seed, data_seed)}
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=results_dir)
    try:
        samples: dict[str, list] = {"train": [], "score": [], "setup_s": [], "cold_setup_s": []}
        ops = workloads.Operations(hostspeed.HostClock())
        # The first set-up runs cold (imports, allocator growth); it feeds the
        # fingerprint check and is recorded, but setup_s leaves it out.
        state = _setup(wl, data_seed, workdir, ops.clock, samples["cold_setup_s"])
        record["fingerprint"] = wl.fingerprint(state)
        expected = fingerprints.load_table().get(workload, {}).get(str(data_seed))
        wrong = fingerprints.mismatches(expected, record["fingerprint"])
        if wrong:
            print(f"error: {workload} inputs for data seed {data_seed} changed: " + "; ".join(wrong), file=sys.stderr)
            return 1

        if not trace:
            state = None
            _measure(wl, data_seed, workdir, ops, seconds, samples)
            values = {
                "train_graphs_per_s": _median(samples["train"]),
                "score_graphs_per_s": _median(samples["score"]),
                "setup_s": _median(samples["setup_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
            record["samples"] = samples
            record["wall_s"] = ops.wall_s
            record["host_factors"] = ops.clock.factors
        else:
            wl.rep(state, ops)  # warm-up: the first rep of a process runs slower
            untraced = wl.rep(state, ops)
            state = None
            spans = tracing.Tracer()
            with tracing.traced(spans):
                state = wl.setup(data_seed, workdir)
                traced = wl.rep(state, ops)
            metrics = tracing.layer_metrics(spans)
            for (name, unit, _), before, after in zip(tracing.OVERHEAD_METRICS, untraced, traced):
                metrics[name] = _metric(_median(after) - _median(before), unit)
            record["samples"] = {"untraced": untraced, "traced": traced}
            spans.dump(os.path.join(results_dir, f"{workload}-seed{seed}-spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(attempted=ops.attempted, failed=ops.failed, problems=ops.problems, metrics=metrics)
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    for problem in ops.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {ops.failed / max(ops.attempted, 1):.6g} ratio ({ops.failed}/{ops.attempted} operations)")
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cycles-gineplus", "cycles-gine", "multitask-score"))
    parser.add_argument("--seed", type=int, default=7, help="workload seed; 7 is the acceptance seed")
    parser.add_argument("--seconds", type=float, default=55.0, help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
