"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array and remembers, for results of primitive
operations, which tensors produced it and how to push gradients back to
them. ``backward(loss)`` runs reverse accumulation over that record.
Training code uses float32; gradient checking should use float64.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

TRAIN = "train"
EVAL = "eval"
RECAL = "recal"  # eval-mode behavior while normalizer statistics are rebuilt

_DTYPE_CODES = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}
_DTYPE_NAMES = {"float32": np.float32, "float64": np.float64}


def _check_mode(mode: str) -> None:
    if mode not in (TRAIN, EVAL, RECAL):
        raise ValueError(f"mode must be {TRAIN!r}, {EVAL!r} or {RECAL!r}, got {mode!r}")


class Tensor:
    """A dense floating array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # Arithmetic sugar; the free functions below do the work.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(np.asarray(-1.0, dtype=self.data.dtype)))

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent: float):
        return pow_const(self, exponent)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape of a broadcast operand."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _result(data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0  # subgradient at 0 is 0
    data = np.where(mask, x.data, 0.0).astype(x.data.dtype, copy=False)

    def backward(g):
        _accumulate(x, g * mask)

    return _result(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = _sigmoid_stable(x.data)

    def backward(g):
        _accumulate(x, g * data * (1.0 - data))

    return _result(data, (x,), backward)


def _sigmoid_stable(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def pow_const(x: Tensor, exponent: float) -> Tensor:
    x = _as_tensor(x)
    data = x.data ** exponent

    def backward(g):
        _accumulate(x, g * exponent * x.data ** (exponent - 1.0))

    return _result(data, (x,), backward)


def tsum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False))

    return _result(np.asarray(data), (x,), backward)


def tmean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    scale = np.asarray(1.0 / count, dtype=x.data.dtype)
    return mul(tsum(x, axis=axis, keepdims=keepdims), Tensor(scale))


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows ``x[index]``; duplicates in the index accumulate on backward."""
    x = _as_tensor(x)
    idx = np.asarray(index, dtype=np.int64)
    data = x.data[idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accumulate(x, gx)

    return _result(data, (x,), backward)


def embedding_sum(tables: Sequence[Tensor], index) -> Tensor:
    """Sum per-field embedding lookups: row i is sum_f tables[f][index[i, f]].

    ``index`` is an integer matrix with one column per field; each column is
    checked against its table's row count.
    """
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 2:
        raise ValueError("embedding index must be a 2-d integer matrix")
    if idx.shape[1] != len(tables):
        raise ValueError(f"index has {idx.shape[1]} fields, expected {len(tables)}")
    for f, table in enumerate(tables):
        if idx.shape[0] and (idx[:, f].min() < 0 or idx[:, f].max() >= table.data.shape[0]):
            raise ValueError(
                f"field {f}: index out of range for cardinality {table.data.shape[0]}"
            )
    data = tables[0].data[idx[:, 0]].copy()
    for f in range(1, len(tables)):
        data += tables[f].data[idx[:, f]]

    def backward(g):
        for f, table in enumerate(tables):
            if table.requires_grad:
                gt = np.zeros_like(table.data)
                np.add.at(gt, idx[:, f], g)
                _accumulate(table, gt)

    return _result(data, tuple(tables), backward)


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets; empty segments are zero."""
    values = _as_tensor(values)
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError("segment id out of range")
    data = np.zeros((num_segments,) + values.data.shape[1:], dtype=values.data.dtype)
    np.add.at(data, ids, values.data)

    def backward(g):
        _accumulate(values, g[ids])

    return _result(data, (values,), backward)


def segment_mean(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Per-segment mean; empty segments yield zero rows."""
    values = _as_tensor(values)
    total = segment_sum(values, segment_ids, num_segments)
    counts = np.bincount(np.asarray(segment_ids, dtype=np.int64), minlength=num_segments)
    inv = (1.0 / np.maximum(counts, 1)).astype(values.data.dtype)
    return mul(total, Tensor(inv[:, None]))


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: eval mode and p=0 are exact identities."""
    _check_mode(mode)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if mode != TRAIN or p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    keep /= np.asarray(1.0 - p, dtype=x.data.dtype)
    return mul(x, Tensor(keep))


@dataclass
class BatchNormState:
    """Running statistics for one batchnorm; not trainable parameters.

    The optional float64 accumulators support rebuilding exact population
    statistics at fixed parameters (see ``batchnorm`` with ``momentum=None``).
    """

    running_mean: np.ndarray
    running_var: np.ndarray
    recording: bool = False
    acc_sum: np.ndarray | None = None
    acc_sumsq: np.ndarray | None = None
    acc_count: int = 0

    @classmethod
    def initial(cls, width: int, dtype=np.float32) -> "BatchNormState":
        return cls(np.zeros(width, dtype=dtype), np.ones(width, dtype=dtype))

    def reset(self) -> None:
        self.running_mean = np.zeros_like(self.running_mean)
        self.running_var = np.ones_like(self.running_var)
        self.recording = False
        self.acc_sum = None
        self.acc_sumsq = None
        self.acc_count = 0

    def accumulate(self, x: np.ndarray) -> None:
        """Pool rows into the population-statistics accumulators and refresh
        the running statistics from everything pooled so far."""
        if self.acc_sum is None:
            self.acc_sum = np.zeros(x.shape[1], dtype=np.float64)
            self.acc_sumsq = np.zeros(x.shape[1], dtype=np.float64)
            self.acc_count = 0
        x64 = x.astype(np.float64)
        self.acc_sum += x64.sum(axis=0)
        self.acc_sumsq += (x64 * x64).sum(axis=0)
        self.acc_count += x.shape[0]
        mean = self.acc_sum / self.acc_count
        var = np.maximum(self.acc_sumsq / self.acc_count - mean * mean, 0.0)
        self.running_mean = mean.astype(self.running_mean.dtype)
        self.running_var = var.astype(self.running_var.dtype)


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mode: str,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize over axis 0. Train mode uses batch statistics and updates
    ``state`` with an exponential running average; eval mode uses the running
    statistics only.

    Recal mode behaves like eval, except that a state flagged ``recording``
    first pools the incoming rows into exact float64 population statistics
    and refreshes its running statistics from them. Rebuilding statistics one
    normalizer at a time under eval-mode propagation makes the eval path
    self-consistent even on columns whose variance is zero, where the
    eval normalizer would otherwise amplify stale-mean error by 1/sqrt(eps).
    """
    _check_mode(mode)
    if x.data.shape[0] == 0:
        raise ValueError("batchnorm requires a non-empty batch")
    if mode == TRAIN:
        mu = tmean(x, axis=0)
        centered = x - mu
        var = tmean(mul(centered, centered), axis=0)
        state.running_mean = (1.0 - momentum) * state.running_mean + momentum * mu.data
        state.running_var = (1.0 - momentum) * state.running_var + momentum * var.data
        inv = pow_const(var + _as_tensor(np.asarray(eps, dtype=x.data.dtype)), -0.5)
        normalized = mul(centered, inv)
    else:
        if mode == RECAL and state.recording:
            state.accumulate(x.data)
        inv = (1.0 / np.sqrt(state.running_var + eps)).astype(x.data.dtype)
        mean = state.running_mean.astype(x.data.dtype, copy=False)
        normalized = mul(x - Tensor(mean), Tensor(inv))
    return add(mul(normalized, gamma), beta)


def bce_with_logits_masked(logits: Tensor, targets, mask) -> Tensor:
    """Binary cross-entropy from logits, averaged over mask-selected entries.

    Numerically stable for large logits. An all-zero mask yields loss 0 with
    zero gradients.
    """
    logits = _as_tensor(logits)
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype)
    m = np.asarray(mask, dtype=z.dtype)
    if y.shape != z.shape or m.shape != z.shape:
        raise ValueError("logits, targets and mask must share one shape")
    elem = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    count = float(m.sum())
    denom = max(count, 1.0)
    data = np.asarray((elem * m).sum() / denom, dtype=z.dtype)

    def backward(g):
        _accumulate(logits, g * (_sigmoid_stable(z) - y) * m / denom)

    return _result(data, (logits,), backward)


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss into ``.grad`` of tracked tensors."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


class Adam:
    """Adam with bias correction, updating parameters in place."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def gradcheck(f: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-5) -> float:
    """Worst relative error between backward gradients and central differences.

    ``f`` must be a side-effect-free closure over ``params`` returning a
    scalar Tensor; run it in eval mode and with float64 parameters. The
    relative error uses a unit floor, so tiny gradients are compared
    absolutely.
    """
    for p in params:
        p.zero_grad()
    backward(f())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(f().data)
            flat[i] = orig - step
            f_minus = float(f().data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1.0)
            worst = max(worst, err)
    return worst


def save_checkpoint(arrays: Mapping[str, np.ndarray], path: str, extra: dict | None = None) -> None:
    """Write named float arrays as a text manifest plus a raw little-endian blob.

    The manifest at ``path`` lists names, shapes and precisions in order; the
    values go to ``path + ".bin"``. Round-trips are bit-exact.
    """
    entries = []
    blob = bytearray()
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise ValueError(f"checkpoint tensors must be float32/float64, got {arr.dtype} for {name!r}")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": arr.dtype.name})
        blob.extend(np.ascontiguousarray(arr).astype(code, copy=False).tobytes())
    manifest = {"format": "cyclegnn-checkpoint-v1", "tensors": entries}
    if extra:
        manifest["extra"] = extra
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(path + ".bin", "wb") as fh:
        fh.write(bytes(blob))


def _valid_entry(entry) -> bool:
    """A manifest tensor entry: a string name, a known dtype and a shape of
    non-negative ints."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and entry.get("dtype") in _DTYPE_NAMES
        and isinstance(entry.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in entry["shape"])
    )


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns the named arrays (in manifest order) and the manifest's ``extra``
    dict. A malformed manifest or a data file of the wrong size raises
    ValueError naming the file.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint manifest not found: {path}")
    with open(path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") != "cyclegnn-checkpoint-v1":
        raise ValueError(f"unrecognized checkpoint format in {path}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list) or not all(_valid_entry(e) for e in entries):
        raise ValueError(f"malformed tensor list in checkpoint manifest {path}")
    with open(path + ".bin", "rb") as fh:
        blob = fh.read()
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in entries:
        dtype = _DTYPE_NAMES[entry["dtype"]]
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        code = _DTYPE_CODES[np.dtype(dtype)]
        if offset + nbytes > len(blob):
            raise ValueError(f"checkpoint data truncated in {path}.bin at tensor {entry['name']!r}")
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype=code).astype(dtype).reshape(shape)
        arrays[entry["name"]] = arr
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"checkpoint data size mismatch in {path}.bin")
    return arrays, manifest.get("extra", {})
