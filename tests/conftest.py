import errno
import itertools
import json
import math

import numpy as np
import pytest

from cyclegnn import _atomic
from cyclegnn.data import DatasetManifest
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


class ReferenceAdam:
    """Adam one tensor at a time, each with its own moments: the tests'
    reference for :class:`cyclegnn.tensor.Adam`, which packs its parameters
    into one buffer per dtype and must update them to the same bits. A
    tensor with no gradient steps with a zero one."""

    def __init__(self, params, lr=1e-3):
        self.params, self.lr, self.step_count = list(params), lr, 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        beta1, beta2 = 0.9, 0.999
        bc1, bc2 = 1.0 - beta1**self.step_count, 1.0 - beta2**self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def assert_packed(opt) -> None:
    """Every parameter of the :class:`cyclegnn.tensor.Adam` ``opt`` still
    holds its data and gradient in the optimizer's buffers of its dtype."""
    for i, p in enumerate(opt.params):
        ((data, grad, _, _),) = [b for b in opt._buffers if b[0].dtype == p.data.dtype]
        assert np.shares_memory(p.data, data) and np.shares_memory(p.grad, grad), f"parameter {i} left the store"


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


def reference_load_dataset(path):
    """Read a dataset file one record at a time, checking each graph on its
    own, as ``load_dataset`` did before it read whole files; the tests'
    reference for :func:`cyclegnn.data.load_dataset`.

    Returns the manifest, a list of ``(num_nodes, node_feats, edges,
    edge_feats)`` int64 arrays per graph, and the label matrix, or raises
    the ValueError that loader raised. Two cases differ on purpose: a file
    with no records fails here, and an edge with more than three entries
    loads here with the extra entries dropped."""
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first.startswith(b"# "):
            raise ValueError(f"dataset {path}: line 1 is not a dataset manifest")
        try:
            raw = json.loads(first[2:].decode("ascii"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"dataset manifest {path} is not valid JSON: {exc}") from None
        expected = {"node_field_cardinalities": int, "edge_field_cardinalities": int, "task_names": str}
        for key, kind in expected.items():
            values = raw.get(key) if isinstance(raw, dict) else None
            if not isinstance(values, list) or not all(type(v) is kind for v in values):
                raise ValueError(f"dataset manifest {path}: {key!r} must be a list of {kind.__name__}")
        try:
            manifest = DatasetManifest(**{key: tuple(raw[key]) for key in expected})
        except ValueError as exc:
            raise ValueError(f"dataset manifest {path}: {exc}") from None
        node_fields = len(manifest.node_field_cardinalities)
        edge_fields = len(manifest.edge_field_cardinalities)
        graphs = []
        rows = []
        for lineno, line in enumerate(fh, start=2):
            try:
                line = line.decode("ascii").strip()
                if not line:
                    continue
                record = json.loads(line)
                nodes = record["nodes"]
                edges = [(e[0], e[1], *e[2]) for e in record["edges"]]
                if not set(map(type, itertools.chain(itertools.chain.from_iterable(nodes), itertools.chain.from_iterable(edges)))) <= {int}:
                    raise ValueError("node features, edge endpoints and edge features must be JSON integers")
                try:
                    nodes = np.asarray(nodes, dtype=np.int64).reshape(len(nodes), node_fields)
                    edges = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2 + edge_fields)
                except OverflowError:
                    raise ValueError("node features, edge endpoints and edge features must fit in int64") from None
                g = (len(nodes), nodes, np.ascontiguousarray(edges[:, :2]), np.ascontiguousarray(edges[:, 2:]))
                _reference_graph_checks(*g)
                labels = record["labels"]
                if not all(x is None or (type(x) is int and x in (0, 1)) for x in labels):
                    raise ValueError("labels must be JSON 0, 1 or null")
                row = [math.nan if x is None else float(x) for x in labels]
            except (KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if len(row) != manifest.num_tasks:
                raise ValueError(f"{path}:{lineno}: expected {manifest.num_tasks} labels, got {len(row)}")
            graphs.append(g)
            rows.append(row)
    try:
        labels = np.asarray(rows, dtype=np.float64).reshape(len(graphs), -1)
        for idx, (n, node_feats, edges, edge_feats) in enumerate(graphs):
            for f, card in enumerate(manifest.node_field_cardinalities):
                if n and int(node_feats[:, f].max()) >= card:
                    raise ValueError(f"graph {idx}: node field {f} value exceeds cardinality {card}")
            for f, card in enumerate(manifest.edge_field_cardinalities):
                if len(edges) and int(edge_feats[:, f].max()) >= card:
                    raise ValueError(f"graph {idx}: edge field {f} value exceeds cardinality {card}")
    except ValueError as exc:
        raise ValueError(f"dataset {path}: {exc}") from None
    return manifest, graphs, labels


def _reference_graph_checks(n, node_feats, edges, edge_feats):
    if node_feats.size and node_feats.min() < 0:
        raise ValueError("node features must be non-negative")
    if edge_feats.size and edge_feats.min() < 0:
        raise ValueError("edge features must be non-negative")
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError("edge endpoint out of range")
        if (edges[:, 0] == edges[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        if len({tuple(sorted(e)) for e in edges.tolist()}) != edges.shape[0]:
            raise ValueError("duplicate undirected edge")


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
