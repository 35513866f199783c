import errno
import itertools
import json

import numpy as np
import pytest

from cyclegnn import _atomic
from cyclegnn.graph import LabeledGraph


def plain(num_nodes, edges):
    """Graph with all-zero single-field features."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return LabeledGraph(
        num_nodes=num_nodes,
        node_feats=np.zeros((num_nodes, 1), dtype=np.int64),
        edges=edges,
        edge_feats=np.zeros((edges.shape[0], 1), dtype=np.int64),
    )


def _scatter_add(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum rows of ``values`` into ``n`` buckets by ``ids``; empty buckets are
    +0. The tests' reference for :class:`cyclegnn.tensor.Segments`.

    ``np.add.at`` adds one row at a time in ``ids`` order into a -0.0 fill
    (-0.0 + x is x, bit for bit), so each bucket is the sequential sum that
    every plan layout must reproduce exactly."""
    ids = np.asarray(ids, dtype=np.int64)
    out = np.full((n,) + values.shape[1:], -0.0, dtype=values.dtype)
    np.add.at(out, ids, values)
    out[np.bincount(ids, minlength=n) == 0] = 0.0
    return out


def assert_same_bits(got: np.ndarray, want: np.ndarray, err_msg: str = "") -> None:
    """Equal dtype, shape and bytes: unlike ``assert_array_equal``, this tells
    -0.0 from +0.0 and one NaN payload from another."""
    assert got.dtype == want.dtype and got.shape == want.shape, (err_msg, got.dtype, got.shape, want.dtype, want.shape)
    if got.tobytes() != want.tobytes():
        np.testing.assert_array_equal(got, want, err_msg=err_msg)  # names the differing entries
        raise AssertionError(f"{err_msg}: equal values with different bits (the sign of a zero)")


def edit_manifest(path, edit) -> None:
    """Call ``edit`` on the manifest of a dataset or checkpoint file, the
    JSON object on its line 1, and write the changed object back there; the
    rest of the file keeps its bytes."""
    with open(path, "rb") as fh:
        first, rest = fh.readline(), fh.read()
    prefix = b"# " if first.startswith(b"# ") else b""
    manifest = json.loads(first[len(prefix) :])
    edit(manifest)
    with open(path, "wb") as fh:
        fh.write(prefix + json.dumps(manifest).encode("ascii") + b"\n" + rest)


def random_graph(rng, n, p=0.3):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return plain(n, edges)


def permute_graph(g: LabeledGraph, perm: np.ndarray) -> LabeledGraph:
    """Relabel nodes so old node i becomes perm[i]."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.num_nodes)
    return LabeledGraph(
        num_nodes=g.num_nodes,
        node_feats=g.node_feats[inv],
        edges=perm[g.edges] if g.num_edges else g.edges,
        edge_feats=g.edge_feats,
    )


class _HalfWriter:
    """A file that passes writes through until the ``fail_at``-th write,
    counted by ``writes`` across every file it wraps; from then on it stores
    half of each write and fails as a full disk does."""

    def __init__(self, fh, writes, fail_at):
        self._fh, self._writes, self._fail_at = fh, writes, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        if next(self._writes) < self._fail_at:
            return self._fh.write(data)
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def fill_disk(monkeypatch):
    """Call the returned function to make later output-file writes fail
    midway: every one, or with ``k``, the k-th and every one after it,
    counted across all output files from the call on."""

    def fill(k=1):
        writes = itertools.count(1)
        monkeypatch.setattr(_atomic, "open", lambda *a, **kw: _HalfWriter(open(*a, **kw), writes, k), raising=False)

    return fill
