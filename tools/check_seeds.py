"""Run each declared benchmark workload once at every data seed, and name the seeds that fail.

    python3 tools/check_seeds.py

A benchmark run at seed s uses data seed s mod ``fingerprints.SEEDS``, so a
data seed whose output check fails makes every run at those seeds fail. For
each workload in ``BENCHMARK.json`` and each data seed from 0 to
``fingerprints.SEEDS - 1``, this sets the workload up, checks its input
fingerprint and runs one rep through ``perfbench/workloads.py``, with one
BLAS thread as ``perfbench/run.py`` uses. It prints each failing seed with
its messages and a count per workload, and exits 1 if any seed failed.

Where a workload checks test accuracy (cycles-gineplus: gine+ must reach
``PASS_ACCURACY``), it also prints each seed's correct label decisions out of
all of them (180 there) and the margin over the count the check needs (171),
then the smallest margin per workload. The accuracy is read by wrapping the
check's ``_accuracy`` for the length of the rep. To compare two checkouts,
run the tool in each.

It is kept out of CI: the output checks sit on training accuracy, which
moves with the machine's BLAS rounding. A full sweep takes about 6 minutes
on a 2-vCPU machine.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASS_ACCURACY = 0.95  # the gine+ output check in perfbench/workloads.py


def check_seed(workloads, wl, seed: int, workdir: str) -> tuple[list[str], list[tuple[int, int]]]:
    """The problems of one set-up, fingerprint check and rep, empty when all
    passed; and (correct, total) label decisions of each accuracy check run."""
    fingerprints = workloads.fingerprints
    state = wl.setup(seed, workdir)
    expected = fingerprints.load_table().get(wl.name, {}).get(str(seed))
    wrong = fingerprints.mismatches(expected, wl.fingerprint(state))
    if wrong:
        return [f"inputs changed: {'; '.join(wrong)}"], []
    ops = workloads.Operations(workloads.hostspeed.HostClock())
    accuracy, decisions = workloads._accuracy, []

    def recorded(config, params, dataset):
        result = accuracy(config, params, dataset)
        decisions.append((round(result[0] * dataset.labels.size), dataset.labels.size))
        return result

    if getattr(wl, "conv", None) == workloads.nn.CONV_GINE_PLUS:  # the check of accuracy >= PASS_ACCURACY
        workloads._accuracy = recorded
    try:
        wl.rep(state, ops)
    finally:
        workloads._accuracy = accuracy
    return ops.problems, decisions


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported, as perfbench/run.py does
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    seeds = range(workloads.fingerprints.SEEDS)
    failed = 0
    for name in names:
        passed, margins = 0, []
        for seed in seeds:
            wl = workloads.WORKLOADS[name]
            wl.reference = {}  # outputs repeat within a seed, not across seeds
            with tempfile.TemporaryDirectory(prefix="check-seeds-") as workdir:
                problems, decisions = check_seed(workloads, wl, seed, workdir)
            for correct, total in decisions:
                needed = next(c for c in range(total + 1) if c / total >= PASS_ACCURACY)
                margins.append((correct - needed, seed))
                print(f"{name} data seed {seed}: {correct}/{total} correct, margin {correct - needed:+d} over {needed}", flush=True)
            if problems:
                print(f"{name} data seed {seed} failed: " + " | ".join(problems), flush=True)
            passed += not problems
        smallest = ", smallest margin {:+d} (data seed {})".format(*min(margins)) if margins else ""
        print(f"{name}: {passed}/{len(seeds)} data seeds pass{smallest}", flush=True)
        failed += len(seeds) - passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
