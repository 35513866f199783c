"""Before/after pairs of the benchmark, summarised as one committed JSON file.

    python3 tools/bench_pairs.py --before DIR --after DIR --out BENCH_9.json [--seed 31]

Each DIR is a source checkout of one commit: ``--before`` the change's parent
commit, ``--after`` the change. For every workload in ``BENCHMARK.json``, pair
i of ``PAIRS`` runs ``perfbench/run.py --seed SEED+i --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` once in each checkout, one at a time,
the before side first in even pairs and the after side first in odd ones
(``alternate``). Each run's last stdout line (the result JSON) and its ``env``
line are read, and the run's minor page faults and system CPU seconds are
taken as the change in ``getrusage(RUSAGE_CHILDREN)`` across it. Per workload,
each end-to-end metric and the faults and system seconds (lower-is-better)
get ``compare``'s form: each side's runs, median and quartiles, the change of
the after median and the pairs the after side won and lost. The seeds, run
length, commits and machine (CPU, nproc, numpy, BLAS) are recorded too. It
exits 1 if any run exits non-zero or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("before", "after")
PAIRS = 10  # a gain counts only when the change wins at least 9 of 10 alternating pairs


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """One untraced benchmark run in ``checkout``: its result and env lines,
    and its minor page faults and system CPU seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"minor_faults": after.ru_minflt - before.ru_minflt, "sys_s": round(after.ru_stime - before.ru_stime, 6)}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env, usage


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(before: list[float], after: list[float], higher_is_better: bool = False) -> dict:
    """Each side's summary, the change of the after median, and the pairs
    (same index on both sides) that the after side won and lost."""
    sign = 1 if higher_is_better else -1
    diffs = [sign * (a - b) for a, b in zip(after, before)]
    b, a = summary(before), summary(after)
    return {
        "before": b,
        "after": a,
        "change": a["median"] / b["median"] - 1.0 if b["median"] else None,
        "pairs_won": sum(d > 0 for d in diffs),
        "pairs_lost": sum(d < 0 for d in diffs),
    }


def alternate(rounds: int, run) -> dict[str, list]:
    """``run(side, i)`` for every round i and both sides, the before side first
    in even rounds and the after side first in odd ones; each side's results
    in round order."""
    results: dict[str, list] = {side: [] for side in SIDES}
    for i in range(rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side].append(run(side, i))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="checkout of the parent commit")
    parser.add_argument("--after", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=31, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    checkouts = {"before": args.before, "after": args.after}
    seeds = [args.seed + i for i in range(PAIRS)]
    report = {"seeds": seeds, "seconds": seconds, "pairs": PAIRS, "workloads": {}}
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):

        def run(side: str, i: int) -> tuple[dict, dict]:
            result, env, usage = run_once(checkouts[side], wl, seeds[i], seconds)
            report.setdefault("machine", {k: env.get(k) for k in ("cpu", "nproc", "python", "numpy", "blas", "blas_threads")})
            report.setdefault("commits", {})[side] = env.get("git_commit")
            print(f"{wl} seed {seeds[i]} {side}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
                + f" minor_faults={usage['minor_faults']} sys_s={usage['sys_s']:.3f}", file=sys.stderr)
            return result, usage

        runs = alternate(PAIRS, run)
        results = {side: [r for r, _ in runs[side]] for side in SIDES}
        usages = {side: [u for _, u in runs[side]] for side in SIDES}
        metrics = {}
        for m in bench["end_to_end"]:
            before, after = ([r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES)
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], **compare(before, after, m["better"] == "higher")}
        correct = {side: all(r["correct"] for r in results[side]) for side in SIDES}
        ok &= all(correct.values())
        report["workloads"][wl] = {
            "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
            "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
            "correct": correct,
            "metrics": metrics,
            "usage": {key: compare(*([u[key] for u in usages[side]] for side in SIDES)) for key in ("minor_faults", "sys_s")},
        }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
