"""Run one fixed CLI recipe in two checkouts and compare every output byte.

    python3 tools/same_outputs.py --before DIR --after DIR

Each DIR is a source checkout. ``RECIPE`` is run once per checkout, before
side first, as ``python -m cyclegnn`` processes with that checkout's ``src``
on the path and one BLAS thread. Both sides write to the same paths, since
every output records its run spec, ``--out`` included, and each side's files
are moved aside once its recipe is done. Every step's stdout is kept as a
file beside the outputs. The recipe covers every convolution: ``gine``,
``naive-gine+`` at K=3, ``gine+`` at K=2 and K=3, the same-seed run of CI
(``--patience 1``, so a restore runs), a random-multitask ``gine+`` K=2
virtual-node run with its ``eval``, a random-multitask ``gcn`` run with its
``eval``, and a ``counterexample``.

For each file, one line is printed: its name, a tab, and ``identical`` or
``differs``. For each checkpoint a second line gives ``tools/ckpt_diff.py``'s
verdict over its tensors, followed by ckpt_diff's line for each tensor that
differs. It exits 1 when a step fails, a file is on one side only, or any file
or tensor differs; otherwise 0. ``--before . --after .`` checks that the
recipe is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("before", "after")
SMALL = ("--hidden", "16", "--epochs", "3", "--replicates", "2")
# one argv per step; {run} is the output directory, {edge} the first edge of cycles.jsonl's first graph
RECIPE = (
    ("gen", "--task", "min-cycle-class", "--size", "60", "--out", "{run}/cycles.jsonl"),
    ("train", "--data", "{run}/cycles.jsonl", "--out", "{run}/gine", "--conv", "gine", *SMALL),
    ("train", "--data", "{run}/cycles.jsonl", "--out", "{run}/naive3", "--conv", "naive-gine+", "--radius", "3", *SMALL),
    ("train", "--data", "{run}/cycles.jsonl", "--out", "{run}/plus2", "--conv", "gine+", "--radius", "2", *SMALL),
    ("train", "--data", "{run}/cycles.jsonl", "--out", "{run}/plus3", "--conv", "gine+", "--radius", "3", *SMALL),
    ("train", "--data", "{run}/cycles.jsonl", "--out", "{run}/same_seed", "--conv", "gine+", "--radius", "2",
     "--epochs", "8", "--patience", "1", "--seed", "3", "--replicates", "1"),
    ("gen", "--task", "random-multitask", "--size", "80", "--seed", "1", "--out", "{run}/multitask.jsonl"),
    ("train", "--data", "{run}/multitask.jsonl", "--out", "{run}/multitask", "--conv", "gine+", "--radius", "2",
     "--virtual-node", "--hidden", "16", "--epochs", "2", "--replicates", "1"),
    ("eval", "--checkpoint", "{run}/multitask.ckpt", "--data", "{run}/multitask.jsonl", "--out", "{run}/multitask.eval.tsv"),
    ("train", "--data", "{run}/multitask.jsonl", "--out", "{run}/gcn", "--conv", "gcn", *SMALL),
    ("eval", "--checkpoint", "{run}/gcn.ckpt", "--data", "{run}/multitask.jsonl", "--out", "{run}/gcn.eval.tsv"),
    ("counterexample", "--data", "{run}/cycles.jsonl", "--index", "0", "--edge", "{edge}", "--out", "{run}/ce"),
)


def first_edge(dataset: str) -> str:
    """'u,v' of the first edge of the dataset file's first graph."""
    with open(dataset, encoding="ascii") as fh:
        record = json.loads([line for line in fh if not line.startswith("#")][0])
    return "%d,%d" % tuple(record["edges"][0][:2])


def run_recipe(checkout: str, run: str) -> str | None:
    """Run every step of ``RECIPE`` in ``checkout``, writing into ``run``;
    None, or the first failing step's error."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for step, argv in enumerate(RECIPE):
        edge = first_edge(os.path.join(run, "cycles.jsonl")) if "{edge}" in argv else None
        args = [a.format(run=run, edge=edge) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "cyclegnn", *args], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return f"step {step} ({argv[0]}) exited {proc.returncode}: {proc.stderr.strip()}"
        with open(os.path.join(run, f"step{step:02d}.stdout"), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
    return None


def compare_dirs(before: str, after: str) -> tuple[list[str], bool]:
    """The report lines for the files of two output directories, and whether
    all of them are the same."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ckpt_diff
    from cyclegnn.tensor import load_checkpoint

    lines, same = [], True
    for name in sorted(set(os.listdir(before)) | set(os.listdir(after))):
        a, b = os.path.join(before, name), os.path.join(after, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            lines.append(f"{name}\tonly {'before' if os.path.exists(a) else 'after'}")
            same = False
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            identical = fa.read() == fb.read()
        lines.append(f"{name}\t{'identical' if identical else 'differs'}")
        same &= identical
        if name.endswith(".ckpt"):
            tensors, problems = ckpt_diff.compare(load_checkpoint(a)[0], load_checkpoint(b)[0])
            differ = [t for t in tensors if not t.endswith("\tidentical")]
            lines.append(f"{name}\tckpt_diff: {len(tensors) - len(differ)} of {len(tensors)} tensors identical")
            lines += ["  " + line for line in differ + problems]
            same &= not (differ or problems)
    return lines, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True, help="checkout of the parent commit")
    parser.add_argument("--after", required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs.") as work:
        run = os.path.join(work, "run")
        for side, checkout in zip(SIDES, (args.before, args.after)):
            os.mkdir(run)
            error = run_recipe(checkout, run)
            if error is not None:
                print(f"same_outputs: {side}: {error}", file=sys.stderr)
                return 1
            os.rename(run, os.path.join(work, side))
        lines, same = compare_dirs(*(os.path.join(work, side) for side in SIDES))
    for line in lines:
        print(line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
