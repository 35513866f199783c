"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. A tracked result of a primitive operation also
points at its tape node, which holds no data: only the result's gradient
while backward runs, the nodes of its tracked operands, its shape and dtype,
and the backward closure. Each closure keeps only the arrays that its
gradient reads (``mul`` and ``matmul`` the partner of an operand that needs a
gradient, ``relu`` a boolean mask, ``sigmoid`` its output), so an
intermediate that no gradient reads is freed as soon as the forward drops
its Tensor. A leaf (a tensor made with ``requires_grad=True``) is its own
node and keeps its ``.grad``. ``backward(loss)`` runs reverse accumulation
over the tape and consumes it: each node's gradient, closure and parents are
dropped as soon as its closure has run, so a step's saved arrays are freed
while backward walks the tape, not when the next forward rebinds the loss.
Inside ``with no_grad():`` nothing is recorded: results have no node, save
nothing and have ``requires_grad`` False, so a forward that is never
differentiated (scoring, statistics recalibration) frees each intermediate
as soon as it is used. Training code uses float32; gradient checking should
use float64.

On import the module sets glibc's allocator policy once (``mallopt``; where
the C library has none, nothing is done): free memory at the top of the heap
goes back to the kernel only once it exceeds ``_TRIM_THRESHOLD`` (1 GiB), and
only blocks of ``_MMAP_THRESHOLD`` (32 MiB) and more are mapped and unmapped
on their own. So the pages a training step or a scoring batch frees are
reused by the next one instead of being returned to the kernel and faulted
in again. Arrays of 32 MiB and more still go back to the kernel when freed;
smaller ones stay, so the resident size does not fall back after a peak.
"""

from __future__ import annotations

import ctypes
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ._atomic import atomic_open

TRAIN = "train"
EVAL = "eval"
RECAL = "recal"  # eval-mode behavior while normalizer statistics are rebuilt

_DTYPE_CODES = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}
_DTYPE_NAMES = {"float32": np.float32, "float64": np.float64}
_INT64_MAX = np.iinfo(np.int64).max
_CHECKPOINT_FORMAT = "cyclegnn-checkpoint-v2"

_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8

_recording = True  # False inside no_grad()

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 1 << 30  # free heap top kept; at 32 MiB, training on multitask-score still re-faults
_MMAP_THRESHOLD = 32 << 20  # glibc's largest allowed value on 64-bit


def _set_malloc_policy(libc) -> None:
    """Keep freed heap pages in the process: ``libc.mallopt`` sets the trim
    and mmap thresholds once. A C library without ``mallopt`` is left as is."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


try:
    _set_malloc_policy(ctypes.CDLL(None))
except (OSError, TypeError):  # no process-wide C library handle (Windows)
    pass


def _check_mode(mode: str) -> None:
    if mode not in (TRAIN, EVAL, RECAL):
        raise ValueError(f"mode must be {TRAIN!r}, {EVAL!r} or {RECAL!r}, got {mode!r}")


class Tensor:
    """A dense floating array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._node: _Node | None = None  # set on tracked results only; a leaf is its own node

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        return None if self._node is None else self._node._backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # Arithmetic sugar; the free functions below do the work.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, _as_tensor(np.asarray(-1.0, dtype=self.data.dtype)))

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __pow__(self, exponent: float):
        return pow_const(self, exponent)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape for the operations run inside the block. Nests, and
    restores the previous state on exit, also when the block raises."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class _Node:
    """The tape's record of one tracked result, without its data."""

    __slots__ = ("grad", "shape", "dtype", "_parents", "_backward")
    requires_grad = True

    def __init__(self, data: np.ndarray, parents: tuple, backward: Callable[[np.ndarray], None]):
        self.grad: np.ndarray | None = None
        self.shape, self.dtype = data.shape, data.dtype
        self._parents, self._backward = parents, backward


def _node(t: Tensor) -> _Node | Tensor | None:
    """The node that an operation recorded now would take ``t``'s gradient
    through: its own for a tracked result, ``t`` for a leaf; None when ``t``
    is untracked or inside ``no_grad``."""
    if not _recording:
        return None
    return t._node or (t if t.requires_grad else None)


def _result(data: np.ndarray, nodes: tuple, backward: Callable[[np.ndarray], None]) -> Tensor:
    """A Tensor of ``data``, tracked when any operand node is not None: its
    node's parents are those nodes, and ``backward`` pushes its gradient to them."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad = data, None
    parents = tuple(n for n in nodes if n is not None) if _recording else ()  # all None in no_grad
    out.requires_grad = bool(parents)
    out._node = _Node(data, parents, backward) if parents else None
    return out


def _saved(t: Tensor, reader: _Node | Tensor | None) -> np.ndarray | None:
    """``t.data`` for a backward closure when ``reader``, the node of the
    operand whose gradient reads it, is not None; else None, so nothing is kept."""
    return None if reader is None else t.data


def _accumulate(node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.empty(node.shape, node.dtype)  # every op's result is C-ordered, so this is empty_like(data)
        node.grad[...] = g  # 0 + g up to the sign of a zero, without the zero fill
    else:
        node.grad += g


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
    na, nb = _node(a), _node(b)

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g, na.shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, nb.shape))

    return _result(data, (na, nb), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    na, nb = _node(a), _node(b)
    a_data, b_data = _saved(a, nb), _saved(b, na)

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g * b_data, na.shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g * a_data, nb.shape))

    return _result(data, (na, nb), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    na, nb = _node(a), _node(b)
    a_data, b_data = _saved(a, nb), _saved(b, na)

    def backward(g):
        if na is not None:
            _accumulate(na, g @ b_data.T)
        if nb is not None:
            _accumulate(nb, a_data.T @ g)

    return _result(data, (na, nb), backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); NaN passes through, so non-finite activations stay visible.
    The gradient is 1 where ``x`` > 0 and 0 elsewhere, at 0 and NaN included;
    backward keeps that boolean mask, not ``x``."""
    x = _as_tensor(x)
    data = np.maximum(x.data, 0)
    nx = _node(x)
    mask = None if nx is None else x.data > 0

    def backward(g):
        _accumulate(nx, g * mask)

    return _result(data, (nx,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = _sigmoid_stable(x.data)
    nx = _node(x)

    def backward(g):
        _accumulate(nx, g * data * (1.0 - data))

    return _result(data, (nx,), backward)


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
    nx = _node(x)
    x_data = _saved(x, nx)

    def backward(g):
        _accumulate(nx, g * exponent * x_data ** (exponent - 1.0))

    return _result(data, (nx,), backward)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    data = np.asarray(x.data.sum(axis=axis))
    nx = _node(x)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(nx, np.broadcast_to(g, nx.shape).astype(nx.dtype, copy=False))

    return _result(data, (nx,), backward)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    scale = np.asarray(1.0 / count, dtype=x.data.dtype)
    return mul(tsum(x, axis=axis), Tensor(scale))


# Largest bucket summed by columns. Per call at H=32 blocks win from about 8
# entries on 64 buckets of mixed length (pooling), columns up to about 48
# with one hub among 2000 buckets of 2; the benchmarks' plans are <= 12 or >= 112.
_COLUMN_LIMIT = 32


class Segments:
    """A reusable plan for summing rows into ``n`` buckets by ``ids``.

    The ids are checked against ``n`` once, here; ``counts`` and the table
    are built on first use. Every sum adds each bucket's rows one after
    another in ``ids`` order, so the layout, chosen by the largest bucket,
    changes speed and never a bit. Up to ``_COLUMN_LIMIT`` entries the table
    holds occurrence columns: buckets are ordered by size, largest first
    (``rows``), and column j lists the position in ``ids`` of each bucket's
    j-th entry, so a sum is one gather-add per column,
    ``acc[:len(pos_j)] += v[pos_j]``, and one scatter into ``rows``. Above
    it, where that costs a numpy call per entry of a long bucket (hubs,
    large graphs, embedding-table gradients), it holds the stable sort of
    ``ids`` by (bucket length, bucket): the b buckets of each length L are
    one contiguous (b, L) block of the gathered rows, summed by one
    ``np.add.reduce`` along L from -0.0, the exact additive identity, which
    numpy adds row by row when L is not the last axis. Blocks of scalar rows
    have L last and would be added pairwise, so they take
    ``np.add.accumulate``.
    """

    __slots__ = ("ids", "n", "_counts", "_rows", "_columns", "_blocks")

    def __init__(self, ids, n: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("segment id out of range")
        self.ids = ids
        self.n = n
        self._counts: np.ndarray | None = None
        self._rows: np.ndarray | None = None
        self._columns: list[np.ndarray] | None = None
        self._blocks: list[tuple[int, int]] | None = None  # (b, L) per length; sorted layout only

    @property
    def counts(self) -> np.ndarray:
        """Entries per bucket, ``np.bincount(ids, minlength=n)``."""
        if self._counts is None:
            self._counts = np.bincount(self.ids, minlength=self.n)
        return self._counts

    def _table(self) -> list[np.ndarray]:
        if self._columns is None:
            counts = self.counts
            if counts.max(initial=0) > _COLUMN_LIMIT:
                self._columns = [np.argsort(counts[self.ids] * self.n + self.ids, kind="stable")]
                self._rows = np.argsort(counts, kind="stable")[self.n - np.count_nonzero(counts) :]
                per_length = np.bincount(counts)
                self._blocks = [(int(per_length[length]), int(length)) for length in np.flatnonzero(per_length[1:]) + 1]
            else:
                order, rows = np.argsort(self.ids, kind="stable"), np.argsort(-counts, kind="stable")
                first = (np.cumsum(counts) - counts)[rows]  # where each bucket's run starts in order
                lengths = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]  # buckets with > j entries
                self._columns = [order[first[:r] + j] for j, r in enumerate(lengths)]
                self._rows = rows[: int(lengths[0]) if lengths.size else 0]
        return self._columns

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-bucket sums of the rows of ``values``; empty buckets are zero."""
        columns = self._table()
        out = np.zeros((self.n,) + values.shape[1:], dtype=values.dtype)
        if self._blocks is not None:
            stacked, start, sums = values[columns[0]], 0, []
            scalar = stacked[0].size == 1
            for b, length in self._blocks:
                block = stacked[start : start + b * length].reshape((b, length) + values.shape[1:])
                sums.append(np.add.accumulate(block, axis=1)[:, -1] if scalar else np.add.reduce(block, axis=1, initial=-0.0))
                start += b * length
            out[self._rows] = np.concatenate(sums)
        elif columns:
            acc = values[columns[0]]
            for pos in columns[1:]:
                acc[: pos.size] += values[pos]
            out[self._rows] = acc
        return out


def gather_rows(x: Tensor, plan: Segments) -> Tensor:
    """Select rows ``x[plan.ids]``; duplicates accumulate on backward, which
    sums through ``plan``, a :class:`Segments` over ``x``'s rows."""
    x = _as_tensor(x)
    if plan.n != x.data.shape[0]:
        raise ValueError(f"plan has {plan.n} buckets, expected {x.data.shape[0]}")
    data = x.data[plan.ids]
    nx = _node(x)

    def backward(g):
        _accumulate(nx, plan.sum(g))

    return _result(data, (nx,), backward)


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
    plans = []
    for f, table in enumerate(tables):
        try:
            plans.append(Segments(idx[:, f], table.data.shape[0]))
        except ValueError:
            raise ValueError(f"field {f}: index out of range for cardinality {table.data.shape[0]}") from None
    data = tables[0].data[idx[:, 0]]  # fancy indexing returns a new array
    for f in range(1, len(tables)):
        data += tables[f].data[idx[:, f]]
    nodes = tuple(_node(t) for t in tables)

    def backward(g):
        for node, plan in zip(nodes, plans):
            if node is not None:
                _accumulate(node, plan.sum(g))

    return _result(data, nodes, backward)


def segment_sum(values: Tensor, plan: Segments) -> Tensor:
    """Sum rows of ``values`` into the ``plan.n`` buckets of a :class:`Segments`;
    empty buckets are zero."""
    values = _as_tensor(values)
    data = plan.sum(values.data)
    nv = _node(values)

    def backward(g):
        _accumulate(nv, g[plan.ids])

    return _result(data, (nv,), backward)


def segment_mean(values: Tensor, plan: Segments) -> Tensor:
    """Per-bucket mean; empty buckets yield zero rows. Sums as
    :func:`segment_sum` does and divides by the plan's ``counts``."""
    values = _as_tensor(values)
    inv = (1.0 / np.maximum(plan.counts, 1)).astype(values.data.dtype)
    return mul(segment_sum(values, plan), Tensor(inv[:, None]))


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


@dataclass(eq=False)
class BatchNormState:
    """Running statistics for one batchnorm; not trainable parameters.

    ``pool`` is None except while ``recalibrate_norm_stats`` rebuilds this
    normalizer's statistics: then it is a list that recal-mode ``batchnorm``
    appends each input's float64 column sums, column sums of squares and row
    count to, before it raises ``_Pooled``. The sums are read from the float32
    input with no float64 copy of it, so a recalibration pass holds no more
    than its forward's activations, over one scoring batch at a time.
    """

    running_mean: np.ndarray
    running_var: np.ndarray
    pool: list | None = None

    @classmethod
    def initial(cls, width: int, dtype=np.float32) -> "BatchNormState":
        return cls(np.zeros(width, dtype=dtype), np.ones(width, dtype=dtype))


class _Pooled(Exception):
    """Raised by recal-mode ``batchnorm`` once it has pooled its input: nothing
    later in the forward can change that normalizer's statistics, so
    ``recalibrate_norm_stats`` ends the pass there."""


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, mode: str) -> Tensor:
    """Normalize over axis 0 with eps 1e-5. Train mode uses batch statistics
    and updates ``state`` with an exponential running average of momentum
    0.1; eval mode uses the running statistics only.

    Recal mode behaves like eval, except that a state whose ``pool`` is a
    list appends the input's float64 column sums, column sums of squares and
    row count to it and raises ``_Pooled`` instead of returning;
    ``recalibrate_norm_stats`` turns the pool into exact population
    statistics. The sums are those of a float64 copy of the input, to the
    bit, but on the model's (row-major) inputs no such copy is made.
    """
    _check_mode(mode)
    if x.data.shape[0] == 0:
        raise ValueError("batchnorm requires a non-empty batch")
    if mode != TRAIN:
        if mode == RECAL and state.pool is not None:
            state.pool.append((*_column_moments(x.data), x.data.shape[0]))
            raise _Pooled
        inv = (1.0 / np.sqrt(state.running_var + _BN_EPS)).astype(x.data.dtype)
        mean = state.running_mean.astype(x.data.dtype, copy=False)
        return _affine_norm(x, mean, inv, gamma, beta)
    mu = tmean(x, axis=0)
    centered = x - mu
    var = tmean(mul(centered, centered), axis=0)
    state.running_mean = (1.0 - _BN_MOMENTUM) * state.running_mean + _BN_MOMENTUM * mu.data
    state.running_var = (1.0 - _BN_MOMENTUM) * state.running_var + _BN_MOMENTUM * var.data
    inv = pow_const(var + _as_tensor(np.asarray(_BN_EPS, dtype=x.data.dtype)), -0.5)
    return add(mul(mul(centered, inv), gamma), beta)


def _column_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 column sums and column sums of squares of 2-D ``x``, bit-equal
    to summing ``x.astype(np.float64)`` and its square over axis 0.

    That copy keeps ``x``'s layout, and its layout sets numpy's summation
    order. With columns innermost and more than one of them, each column is
    added one row at a time, and so are both sums here, read from ``x``
    with no copy. Otherwise each column is summed pairwise, which einsum
    does not do, so one float64 copy is squared in place.
    """
    rows, cols = x.strides
    if x.shape[1] > 1 and abs(cols) < abs(rows):
        return np.add.reduce(x, axis=0, dtype=np.float64), np.einsum("ij,ij->j", x, x, dtype=np.float64)
    x64 = x.astype(np.float64)
    col_sums = x64.sum(axis=0)
    x64 *= x64
    return col_sums, x64.sum(axis=0)


def _affine_norm(x: Tensor, mean: np.ndarray, inv: np.ndarray, gamma: Tensor, beta: Tensor) -> Tensor:
    """``((x - mean) * inv) * gamma + beta`` with fixed statistics, as one
    node writing one buffer; the same float operations, in the same order,
    as the ``add``/``mul`` chain it stands for."""
    data = x.data - mean
    data *= inv
    data *= gamma.data
    data += beta.data
    nx, ngamma, nbeta = _node(x), _node(gamma), _node(beta)
    x_data, gamma_data = _saved(x, ngamma), _saved(gamma, nx)

    def backward(g):
        if nbeta is not None:
            _accumulate(nbeta, _unbroadcast(g, nbeta.shape))
        if ngamma is not None:
            normalized = x_data - mean
            normalized *= inv
            _accumulate(ngamma, _unbroadcast(g * normalized, ngamma.shape))
        if nx is not None:
            _accumulate(nx, (g * gamma_data) * inv)

    return _result(data, (nx, ngamma, nbeta), backward)


def bce_with_logits_masked(logits: Tensor, labels) -> Tensor:
    """Binary cross-entropy from logits, averaged over the observed labels;
    NaN marks a missing one, which adds nothing to the loss or gradient.

    Numerically stable for large logits. All-missing labels yield loss 0
    with zero gradients.
    """
    logits = _as_tensor(logits)
    z = logits.data
    labels = np.asarray(labels, dtype=z.dtype)
    if labels.shape != z.shape:
        raise ValueError("logits and labels must share one shape")
    observed = ~np.isnan(labels)
    y, m = np.where(observed, labels, 0.0), observed.astype(z.dtype)
    elem = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    count = float(m.sum())
    denom = max(count, 1.0)
    data = np.asarray((elem * m).sum() / denom, dtype=z.dtype)
    node = _node(logits)

    def backward(g):
        _accumulate(node, g * (_sigmoid_stable(z) - y) * m / denom)

    return _result(data, (node,), backward)


def _consumed(g) -> None:
    raise ValueError("this tape was already consumed by backward; run the forward again")


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss into ``.grad`` of tracked tensors.

    Walks the tape of data-free nodes from ``loss`` and consumes it: once a
    node has pushed its gradient to its parents, its gradient, closure and
    parents are dropped, and with the closure the arrays it saved, so each
    saved array is freed as soon as its last reader is done. Leaves (tensors
    made with ``requires_grad=True``) keep and accumulate their ``.grad``. A
    later backward that reaches a consumed node raises ValueError."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    root = loss._node or loss
    order: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
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
    _accumulate(root, np.ones_like(loss.data))
    while order:
        node = order.pop()  # popped, so the list pins no finished node
        if node._backward is not None:
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _consumed, ()


class Adam:
    """Adam with bias correction, betas (0.9, 0.999) and eps 1e-8, updating
    parameters in place.

    The parameters are packed on construction: per dtype, one data buffer
    and one gradient buffer hold them all in the order given, and each
    parameter's ``data`` and ``grad`` are rebound to reshaped views of them
    (a parameter with no gradient gets a zero one). So ``zero_grad`` is one
    fill per buffer and ``step`` one update per buffer, whose elementwise
    float operations are those of a step one tensor at a time, in the same
    order: the results are bit-identical. Write parameters and gradients in
    place (``p.data[...] = ...``, as ``nn.load_arrays`` does): ``step``
    raises ValueError, naming the parameter's position, when its ``data`` or
    ``grad`` is no longer the view it was given. A tensor listed twice
    raises ValueError here.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("Adam got the same tensor twice; list each parameter once")
        self.lr = lr
        self.step_count = 0
        groups: dict[np.dtype, list[Tensor]] = {}
        for p in self.params:
            groups.setdefault(p.data.dtype, []).append(p)
        self._buffers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []  # data, grad, m, v
        for dtype, group in groups.items():
            data = np.empty(sum(p.data.size for p in group), dtype=dtype)
            grad = np.zeros_like(data)
            start = 0
            for p in group:
                end, shape = start + p.data.size, p.data.shape
                data[start:end] = p.data.reshape(-1)
                if p.grad is not None:
                    grad[start:end] = p.grad.reshape(-1)
                p.data, p.grad = data[start:end].reshape(shape), grad[start:end].reshape(shape)
                start = end
            self._buffers.append((data, grad, np.zeros_like(data), np.zeros_like(data)))
        self._views = [(p.data, p.grad) for p in self.params]

    def zero_grad(self) -> None:
        for _, grad, _, _ in self._buffers:
            grad.fill(0.0)

    def step(self) -> None:
        for i, (p, (data, grad)) in enumerate(zip(self.params, self._views)):
            if p.data is not data or p.grad is not grad:
                raise ValueError(f"parameter {i} was rebound, so Adam no longer updates it; write p.data and p.grad in place")
        self.step_count += 1
        beta1, beta2 = _ADAM_BETAS
        t = self.step_count
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for data, g, m, v in self._buffers:
            # (1 - beta1) g, (1 - beta2) g g and lr (m / bc1) / (sqrt(v / bc2) + eps), each operation
            # in the same order as written so, into two scratch buffers that live for one step
            work, denom = np.empty_like(data), np.empty_like(data)
            m *= beta1
            m += np.multiply(1.0 - beta1, g, out=work)
            v *= beta2
            v += np.multiply(np.multiply(1.0 - beta2, g, out=work), g, out=work)
            np.sqrt(np.divide(v, bc2, out=denom), out=denom)
            denom += _ADAM_EPS
            np.multiply(self.lr, np.divide(m, bc1, out=work), out=work)
            data -= np.divide(work, denom, out=work)


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
    """Write named float arrays to one file: a manifest line, then raw bytes.

    Line 1 is the manifest as one line of ASCII JSON: the format, the names,
    shapes and precisions of the tensors in order, and ``extra`` when it is
    given and not empty. The tensors' little-endian bytes follow the line's
    ``\n`` in that order. Round-trips are bit-exact. The file is replaced
    whole, so a failed or killed save leaves the previous checkpoint.
    """
    arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
    for name, arr in arrays.items():
        if arr.dtype not in _DTYPE_CODES:
            raise ValueError(f"checkpoint tensors must be float32/float64, got {arr.dtype} for {name!r}")
    entries = [{"name": name, "shape": list(arr.shape), "dtype": arr.dtype.name} for name, arr in arrays.items()]
    manifest = {"format": _CHECKPOINT_FORMAT, "tensors": entries}
    if extra:
        manifest["extra"] = extra
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("ascii") + b"\n")
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr).astype(_DTYPE_CODES[arr.dtype], copy=False).tobytes())


def _valid_entry(entry) -> bool:
    """A manifest tensor entry: a string name, a known dtype and a shape of
    non-negative ints within int64."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("dtype"), str)
        and entry["dtype"] in _DTYPE_NAMES
        and isinstance(entry.get("shape"), list)
        and all(type(d) is int and 0 <= d <= _INT64_MAX for d in entry["shape"])
    )


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns the named arrays (in manifest order) and the manifest's ``extra``
    dict. A manifest line that is not JSON, a malformed manifest, an
    ``extra`` that is not an object, or tensor bytes of the wrong length
    raise ValueError naming the file.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        blob = fh.read()
    try:
        manifest = json.loads(line.decode("ascii"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"checkpoint manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {path}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list) or not all(_valid_entry(e) for e in entries):
        raise ValueError(f"malformed tensor list in checkpoint manifest {path}")
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError(f"checkpoint {path}: 'extra' must be a JSON object")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in entries:
        dtype = _DTYPE_NAMES[entry["dtype"]]
        shape = tuple(entry["shape"])
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize  # exact; an int64 product can wrap
        code = _DTYPE_CODES[np.dtype(dtype)]
        if offset + nbytes > len(blob):
            raise ValueError(f"checkpoint data truncated in {path} at tensor {entry['name']!r}")
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype=code).astype(dtype)
        try:
            arrays[entry["name"]] = arr.reshape(shape)
        except ValueError:  # a zero-size shape whose other dimensions overflow
            raise ValueError(f"checkpoint {path}: tensor {entry['name']!r} has an invalid shape {list(shape)}") from None
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"checkpoint data size mismatch in {path}")
    return arrays, extra
