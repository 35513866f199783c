"""The two pair tools, ``tools/bench_pairs.py`` and ``tools/bench_scale.py``,
with their measuring runs replaced by canned rounds; and
``tools/same_outputs.py`` on a shortened recipe."""

import json
import os

import numpy as np
import pytest

from cyclegnn.tensor import save_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUMMARY_KEYS = {"median", "q1", "q3", "runs"}


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import bench_pairs
    import bench_scale

    return bench_pairs, bench_scale


def assert_compared(c, rounds):
    assert set(c) == {"before", "after", "change", "pairs_won", "pairs_lost"}
    for side in ("before", "after"):
        assert set(c[side]) == SUMMARY_KEYS and len(c[side]["runs"]) == rounds


def test_compare_counts_a_lower_after_time_as_a_win(tools):
    bench_pairs, _ = tools
    c = bench_pairs.compare([2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 1.0, 2.0])
    assert (c["pairs_won"], c["pairs_lost"]) == (2, 1)
    assert c["before"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0, 2.0, 2.0, 2.0]}
    assert c["change"] == pytest.approx(1.5 / 2.0 - 1.0)
    higher = bench_pairs.compare([2.0, 2.0], [1.0, 3.0], higher_is_better=True)
    assert (higher["pairs_won"], higher["pairs_lost"]) == (1, 1)


def test_alternate_swaps_the_first_side_every_round(tools):
    bench_pairs, _ = tools
    calls = []
    results = bench_pairs.alternate(3, lambda side, i: calls.append((i, side)) or f"{side}{i}")
    assert calls == [(0, "before"), (0, "after"), (1, "after"), (1, "before"), (2, "before"), (2, "after")]
    assert results == {"before": ["before0", "before1", "before2"], "after": ["after0", "after1", "after2"]}


def test_bench_pairs_writes_every_workload_metric(tools, tmp_path, monkeypatch):
    bench_pairs, _ = tools
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"]]

    def run_once(checkout, workload, seed, seconds):
        value = 100.0 + seed + (1.0 if checkout == "new" else 0.0)  # the after side is higher every pair
        result = {"metrics": {n: {"value": value, "unit": "u"} for n in names}, "failed": 0, "attempted": 2, "correct": True}
        env = {"git_commit": checkout, "cpu": "cpu", "nproc": 2}
        return result, env, {"minor_faults": 10 - (checkout == "new"), "sys_s": 0.5}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--before", "old", "--after", "new", "--out", str(out), "--seed", "5"]) == 0
    report = json.loads(out.read_text())
    assert report["seeds"] == list(range(5, 5 + bench_pairs.PAIRS)) and report["commits"] == {"before": "old", "after": "new"}
    assert set(report["workloads"]) == {w["name"] for w in bench["workloads"]}
    for wl in report["workloads"].values():
        assert wl["correct"] == {"before": True, "after": True}
        assert set(wl["metrics"]) == set(names)
        for m in bench["end_to_end"]:
            c = wl["metrics"][m["name"]]
            assert (c["unit"], c["better"]) == (m["unit"], m["better"])
            assert_compared({k: v for k, v in c.items() if k not in ("unit", "better")}, bench_pairs.PAIRS)
            won = bench_pairs.PAIRS if m["better"] == "higher" else 0
            assert (c["pairs_won"], c["pairs_lost"]) == (won, bench_pairs.PAIRS - won)
        assert set(wl["usage"]) == {"minor_faults", "sys_s"}
        assert_compared(wl["usage"]["sys_s"], bench_pairs.PAIRS)
        assert wl["usage"]["minor_faults"]["pairs_won"] == bench_pairs.PAIRS  # fewer faults after: a win


def test_bench_scale_writes_every_section_case_and_timing(tools, tmp_path, monkeypatch):
    _, bench_scale = tools
    sizes = {"graphs": 3, "call": "collate"}

    def run_side(checkout):
        slower = 2.0 if checkout == "old" else 1.0  # the after side is faster every round
        return {
            section: {f"{section}-a": [sizes, {"x_ms": slower, "y_us": 5.0}], f"{section}-b": [sizes, {"x_ms": slower}]}
            for section, _ in bench_scale.SECTIONS
        }

    monkeypatch.setattr(bench_scale, "_run_side", run_side)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"kept": 1}}))
    assert bench_scale.main(["--before", "old", "--after", "new", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["workloads"] == {"kept": 1}
    assert list(report)[1:] == [section for section, _ in bench_scale.SECTIONS]
    for section, _ in bench_scale.SECTIONS:
        assert report[section]["rounds"] == bench_scale.ROUNDS
        cases = report[section]["cases"]
        assert list(cases) == [f"{section}-a", f"{section}-b"]
        for case in cases.values():
            assert {k: case[k] for k in sizes} == sizes
            assert_compared(case["x_ms"], bench_scale.ROUNDS)
            assert (case["x_ms"]["pairs_won"], case["x_ms"]["change"]) == (bench_scale.ROUNDS, -0.5)
        assert cases[f"{section}-a"]["y_us"]["pairs_won"] == 0 == cases[f"{section}-a"]["y_us"]["pairs_lost"]


def test_bench_scale_sections(tools):
    _, bench_scale = tools
    assert [section for section, _ in bench_scale.SECTIONS] == [
        "segments_per_call", "load_per_call", "optimizer_per_call", "khop_per_call", "gen_per_call", "recal_per_call",
        "step_per_call",
    ]


def test_khop_section_reads_a_cold_peak_per_case(tools, monkeypatch):
    _, bench_scale = tools
    monkeypatch.setattr(bench_scale, "MIN_CALLS", 1)
    monkeypatch.setattr(bench_scale, "MIN_BUILDS", 1)
    monkeypatch.setattr(bench_scale, "MIN_SECONDS", 0.0)
    cases = bench_scale.measure_khop()
    assert list(cases) == ["cycles-64", "multitask-256", "cycle-2000", "dense-500"]
    for sizes, timings in cases.values():
        assert set(timings) == {"cold_ms", "warm_ms", "peak_bytes"} and timings["peak_bytes"] > 0
    (cycle, cycle_timings) = cases["cycle-2000"]
    assert (cycle["call"], cycle["nodes"], cycle["k_max"]) == ("build_khop_index", 2000, 3)
    assert cycle_timings["peak_bytes"] < 2**22  # a dense 2000 x 2000 float32 adjacency alone takes 16 MB
    (dense, dense_timings) = cases["dense-500"]
    assert (dense["call"], dense["nodes"], dense["k_max"]) == ("build_khop_index", 500, 2)
    assert dense["pairs"] == 500 * 499  # diameter 2: every other node lies within two hops
    assert dense_timings["peak_bytes"] < 2**25  # all distance-2 candidates at once take about 285 MiB


def test_recal_section_times_both_workloads_training_splits(tools, monkeypatch):
    _, bench_scale = tools
    monkeypatch.setattr(bench_scale, "MIN_LOADS", 1)
    monkeypatch.setattr(bench_scale, "MIN_SECONDS", 0.0)
    cases = bench_scale.measure_recal()
    assert list(cases) == ["cycles-gineplus", "multitask-score"]
    (cycles, cycles_timings), (multitask, _) = cases["cycles-gineplus"], cases["multitask-score"]
    assert (cycles["graphs"], cycles["normalizers"]) == (480, 6)  # L=3 conv norms and MLP norms
    assert (multitask["graphs"], multitask["normalizers"]) == (256, 9)  # plus one virtual-node MLP norm per layer
    assert set(cycles_timings) == {"call_ms", "peak_bytes"} and cycles_timings["peak_bytes"] > 0


def test_step_section_times_and_weighs_a_step_of_both_workload_models(tools, monkeypatch):
    _, bench_scale = tools
    monkeypatch.setattr(bench_scale, "MIN_CALLS", 1)
    monkeypatch.setattr(bench_scale, "MIN_SECONDS", 0.0)
    cases = bench_scale.measure_step()
    assert list(cases) == ["cycles-gineplus", "multitask-score"]
    for sizes, timings in cases.values():
        assert sizes["graphs"] == 64
        assert set(timings) == {"step_ms", "forward_held_bytes", "step_peak_bytes"}
        assert 0 < timings["forward_held_bytes"] < timings["step_peak_bytes"]
    (cycles, _), (multitask, _) = cases["cycles-gineplus"], cases["multitask-score"]
    assert (cycles["k_max"], cycles["hidden"], multitask["k_max"], multitask["hidden"]) == (3, 32, 2, 100)


@pytest.fixture
def same_outputs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import same_outputs

    return same_outputs


def test_same_outputs_reads_one_checkout_against_itself_identical(same_outputs, monkeypatch, capsys):
    recipe = (
        ("gen", "--task", "min-cycle-class", "--size", "20", "--out", "{run}/cycles.jsonl"),
        ("train", "--data", "{run}/cycles.jsonl", "--out", "{run}/plus", "--conv", "gine+", "--radius", "2",
         "--hidden", "4", "--epochs", "1", "--replicates", "1"),
    )
    monkeypatch.setattr(same_outputs, "RECIPE", recipe)
    assert same_outputs.main(["--before", ROOT, "--after", ROOT]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "cycles.jsonl\tidentical",
        "plus.ckpt\tidentical",
        "plus.ckpt\tckpt_diff: 51 of 51 tensors identical",
        "plus.history.tsv\tidentical",
        "plus.summary.tsv\tidentical",
        "step00.stdout\tidentical",
        "step01.stdout\tidentical",
    ]


def test_same_outputs_names_each_difference(same_outputs, tmp_path):
    sides = tmp_path / "before", tmp_path / "after"
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    for side, last in zip(sides, (5.0, 6.0)):
        side.mkdir()
        (side / "same.tsv").write_text("a\n")
        (side / "other.tsv").write_text(f"{last}\n")
        save_checkpoint({"w": w, "b": np.asarray([1.0, last], np.float32)}, str(side / "run.ckpt"))
    (sides[1] / "extra.tsv").write_text("")
    lines, same = same_outputs.compare_dirs(*map(str, sides))
    assert not same
    assert lines == [
        "extra.tsv\tonly after",
        "other.tsv\tdiffers",
        "run.ckpt\tdiffers",
        "run.ckpt\tckpt_diff: 1 of 2 tensors identical",
        "  b\tmax_abs 1\tmax_ulp 2097152",
        "same.tsv\tidentical",
    ]
