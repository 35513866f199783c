"""Self-tests of the benchmark's span accounting, host-speed clock,
fingerprint check and metric declarations.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import fingerprints  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer 0..100 holds a 10..40 (which holds b 15..25) and c 50..60
    t = tracer.Tracer(clock=FakeClock(0, 10, 15, 25, 40, 50, 60, 100))
    outer = t.begin("outer")
    a = t.begin("a")
    t.end(t.begin("b"))
    t.end(a)
    t.end(t.begin("c"))
    t.end(outer)
    stats = t.stats()
    assert stats["outer"].self_ns == 100 - 30 - 10
    assert stats["a"].self_ns == 30 - 10
    assert stats["b"].self_ns == 10
    assert stats["c"].self_ns == 10
    assert [stats[n].calls for n in ("outer", "a", "b", "c")] == [1, 1, 1, 1]


def test_wrapped_calls_nest_and_observe_after_the_span():
    t = tracer.Tracer(clock=FakeClock(0, 1, 3, 7))
    seen = []
    inner = t.wrap(lambda x: x + 1, "inner", observe=lambda a, kw, r: seen.append(r))
    outer = t.wrap(lambda x: inner(x) * 2, lambda a, kw: f"outer.{a[0]}")
    assert outer(4) == 10
    assert seen == [5]
    stats = t.stats()
    assert stats["outer.4"].self_ns == 7 - 2
    assert stats["inner"].durations_ns == [2]


def test_percentile_needs_ten_samples_beyond_it():
    stats = tracer.SpanStats()
    stats.durations_ns = [1000 * (i + 1) for i in range(99)]
    assert stats.percentile_us(0.9) == 0.0
    assert stats.percentile_us(0.5) == 50.0
    stats.durations_ns.append(100_000)
    assert stats.percentile_us(0.9) == 90.0


def test_host_clock_divides_wall_time_by_the_bracketing_slowdown():
    clock = hostspeed.HostClock()
    kernel_s = iter([2 * hostspeed.REFERENCE_S, 4 * hostspeed.REFERENCE_S])  # before, after: 3x slower
    clock.kernel = lambda: next(kernel_s)
    result, wall, seconds = clock.time(lambda: time.sleep(0.01) or "done")
    assert result == "done" and wall >= 0.01
    assert abs(seconds - wall / 3.0) < 1e-12
    assert abs(clock.factors[0] - 3.0) < 1e-12


def test_fingerprint_detects_changed_inputs_and_splits():
    from cyclegnn.data import random_split
    from cyclegnn.synth import gen_synthetic_dataset

    dataset = gen_synthetic_dataset("min-cycle-class", 12, seed=3)
    splits = random_split(dataset, (0.8, 0.1, 0.1), seed=3)
    base = fingerprints.fingerprint(dataset, splits, khop_depth=3)
    assert fingerprints.mismatches(base, fingerprints.fingerprint(dataset, splits, 3)) == []
    assert fingerprints.mismatches(None, base) == ["no recorded fingerprint"]
    # same data, same split sizes, other graphs in each split
    resplit = fingerprints.fingerprint(dataset, random_split(dataset, (0.8, 0.1, 0.1), seed=4), 3)
    assert [w.split(":")[0] for w in fingerprints.mismatches(base, resplit)] == ["split_sha256"]
    dataset.labels[0, 0] = 1.0 - dataset.labels[0, 0]
    wrong = fingerprints.mismatches(base, fingerprints.fingerprint(dataset, splits, 3))
    assert any(w.startswith("sha256") for w in wrong)
    assert any(w.startswith("positive_labels") for w in wrong)


def test_fingerprint_table_covers_every_workload_and_data_seed():
    table = fingerprints.load_table()
    assert set(table) == {"cycles-gineplus", "cycles-gine", "multitask-score"}
    for per_seed in table.values():
        assert set(per_seed) == {str(s) for s in range(fingerprints.SEEDS)}


def test_declared_metrics_match_the_emitted_ones():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    emitted = [(n, u, b) for n, u, b, _ in tracer.LAYER_METRICS] + tracer.OVERHEAD_METRICS
    assert declared == emitted
    import workloads

    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_traced_training_counts_every_khop_build_and_restores_the_hooks():
    from cyclegnn import data, nn, train
    from cyclegnn.synth import gen_synthetic_dataset

    original = train.collate
    dataset = gen_synthetic_dataset("min-cycle-class", 30, seed=1)
    train_set, valid_set, _ = data.random_split(dataset, (0.8, 0.1, 0.1), seed=1)
    config = nn.ModelConfig(
        conv_type="gine+", node_field_cards=(1,), edge_field_cards=(1,), num_tasks=3,
        hidden=8, num_layers=3, radius=3, dropout=0.0,
    )
    tc = train.TrainConfig(epochs=2, batch_size=64, patience=0)
    spans = tracer.Tracer()
    with tracer.traced(spans):
        train.train_model(config, train_set, valid_set, tc)
    assert train.collate is original
    metrics = tracer.layer_metrics(spans)
    # per epoch: the training split and one validation pass; then one
    # recalibration pass over the training split per batchnorm (2 per layer)
    builds = 2 * (len(train_set) + len(valid_set)) + 6 * len(train_set)
    assert metrics["graph.build_khop_index.calls"]["value"] == builds
    assert metrics["data.collate.graphs"]["value"] == builds
    assert metrics["graph.khop_useful_ratio"]["value"] == (len(train_set) + len(valid_set)) / builds
    assert metrics["tensor.tape_nodes_per_step"]["value"] == 182
    assert metrics["train.evaluate.calls"]["value"] == 2
    assert metrics["tensor.adam_step.s"]["value"] > 0
