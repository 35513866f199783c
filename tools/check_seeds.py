"""Run each declared benchmark workload once at every data seed, and name the seeds that fail.

    python3 tools/check_seeds.py

A benchmark run at seed s uses data seed s mod ``fingerprints.SEEDS``, so a
data seed whose output check fails makes every run at those seeds fail. For
each workload in ``BENCHMARK.json`` and each data seed from 0 to
``fingerprints.SEEDS - 1``, this sets the workload up, checks its input
fingerprint and runs one rep through ``perfbench/workloads.py``, with one
BLAS thread as ``perfbench/run.py`` uses. It prints each failing seed with
its messages and a count per workload, and exits 1 if any seed failed.

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


def check_seed(workloads, wl, seed: int, workdir: str) -> list[str]:
    """The problems of one set-up, fingerprint check and rep; empty when all passed."""
    fingerprints = workloads.fingerprints
    state = wl.setup(seed, workdir)
    expected = fingerprints.load_table().get(wl.name, {}).get(str(seed))
    wrong = fingerprints.mismatches(expected, wl.fingerprint(state))
    if wrong:
        return [f"inputs changed: {'; '.join(wrong)}"]
    ops = workloads.Operations(workloads.hostspeed.HostClock())
    wl.rep(state, ops)
    return ops.problems


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
        passed = 0
        for seed in seeds:
            wl = workloads.WORKLOADS[name]
            wl.reference = {}  # outputs repeat within a seed, not across seeds
            with tempfile.TemporaryDirectory(prefix="check-seeds-") as workdir:
                problems = check_seed(workloads, wl, seed, workdir)
            if problems:
                print(f"{name} data seed {seed} failed: " + " | ".join(problems), flush=True)
            passed += not problems
        print(f"{name}: {passed}/{len(seeds)} data seeds pass", flush=True)
        failed += len(seeds) - passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
