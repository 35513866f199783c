"""Compare two checkpoints tensor by tensor.

    python3 tools/ckpt_diff.py a.ckpt b.ckpt

Both files are read with ``tensor.load_checkpoint``. For each tensor, in
the order of ``a.ckpt``, one line is printed: the name, a tab, and either
``identical`` (the same bytes) or the largest absolute difference and the
largest distance in units in the last place (ulps) over its elements. The
ulp distance counts the representable values of the tensor's precision
between the two, so -0.0 and +0.0 read one apart. It exits 1, naming the
difference, when the two files hold different tensor names, or the same
name with a different shape or precision, or when a file cannot be read;
otherwise 0, whether or not the values differ.
"""

from __future__ import annotations

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_UINTS = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _ordered(arr: np.ndarray) -> np.ndarray:
    """The bits of float ``arr`` as unsigned integers in the order of the
    values they encode: one apart for neighbouring floats."""
    uint = _UINTS[arr.dtype]
    bits = arr.view(uint)
    sign = uint(1) << uint(8 * arr.itemsize - 1)
    return np.where(bits & sign, ~bits, bits | sign)


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per element, the number of ulps between float arrays of one shape and precision."""
    ka, kb = _ordered(a), _ordered(b)
    return np.maximum(ka, kb) - np.minimum(ka, kb)


def compare(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> tuple[list[str], list[str]]:
    """The report lines for the tensors of ``a`` and ``b``, and the
    mismatches of names, shapes or precisions between them."""
    problems = [f"{name}: only in the first checkpoint" for name in a if name not in b]
    problems += [f"{name}: only in the second checkpoint" for name in b if name not in a]
    if not problems and list(a) != list(b):
        problems.append("the tensors are stored in a different order")
    lines = []
    for name, x in a.items():
        if name not in b:
            continue
        y = b[name]
        if (x.shape, x.dtype) != (y.shape, y.dtype):
            problems.append(f"{name}: {x.dtype}{list(x.shape)} against {y.dtype}{list(y.shape)}")
        elif x.tobytes() == y.tobytes():
            lines.append(f"{name}\tidentical")
        else:
            max_abs = np.max(np.abs(x.astype(np.float64) - y.astype(np.float64)))
            lines.append(f"{name}\tmax_abs {max_abs:.6g}\tmax_ulp {int(ulp_distance(x, y).max())}")
    return lines, problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: ckpt_diff.py a.ckpt b.ckpt", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cyclegnn.tensor import load_checkpoint

    try:
        (a, _), (b, _) = load_checkpoint(args[0]), load_checkpoint(args[1])
    except (OSError, ValueError) as exc:
        print(f"ckpt_diff: {exc}", file=sys.stderr)
        return 1
    lines, problems = compare(a, b)
    for line in lines:
        print(line)
    for problem in problems:
        print(f"ckpt_diff: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
