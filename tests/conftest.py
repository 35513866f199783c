import errno

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
    zero. The tests' reference for :class:`cyclegnn.tensor.Segments`.

    Rows are stably sorted by bucket, so the summation order does not depend
    on the machine's sort kernel, and each bucket's run is summed by one
    ``np.add.reduceat``, which adds pairwise; float sums can differ from
    sequential accumulation by rounding."""
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    if ids.size:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
        out[sorted_ids[starts]] = np.add.reduceat(values[order], starts, axis=0)
    return out


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
    """A file that stores half of each write, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def fill_disk(monkeypatch):
    """Call the returned function to make every later output-file write
    fail midway."""

    def fill():
        monkeypatch.setattr(_atomic, "open", lambda *a, **k: _HalfWriter(open(*a, **k)), raising=False)

    return fill
