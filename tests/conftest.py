import errno
import itertools
import json
import math
import os

# one BLAS thread, set before numpy is imported, as perfbench/run.py does: a
# second thread only waits on a core that another process keeps busy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from cyclegnn import _atomic
from cyclegnn.data import DatasetManifest
from cyclegnn.graph import LabeledGraph, bfs_distances


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


def reference_model_forward(config, params, graphs, train):
    """The paper's GIN-family model in dense float64 numpy, the tests'
    reference for :func:`cyclegnn.nn.model_forward` on the disjoint union of
    ``graphs``. Block l computes

        MLP((1+eps_0) h_i + (1+eps_1) sum_{j ~ i} relu(h_j + E(e_ij))
            + sum_{k=2..K} (1+eps_k) sum_{d(i,j) = k} relu(h^{(l-k)}_j))

    with the 1-hop sum unscaled under ``gine``, no k >= 2 terms under
    ``gine``, h^{(l-1)} in place of h^{(l-k)} under ``naive-gine+``, and a
    term omitted while l < k under ``gine+``. Then batchnorm, relu except in
    the last block, and the virtual-node update; the logits are the
    classifier of each graph's mean node. Shells come from ``bfs_distances``.
    Train mode uses batch statistics and dropout 0. Returns the logits and,
    in train mode, each batchnorm state's new running statistics keyed by
    ``id(state)``; nothing passed in is changed."""
    sizes = [g.num_nodes for g in graphs]
    n, starts = sum(sizes), np.cumsum([0] + sizes[:-1])
    member = np.repeat(np.eye(len(graphs)), sizes, axis=1)  # (graphs, nodes)
    dist = np.full((n, n), np.inf)
    for g, s in zip(graphs, starts):
        for i in range(g.num_nodes):
            dist[s + i, s : s + g.num_nodes] = bfs_distances(g, i)
    edges = np.concatenate([g.edges + s for g, s in zip(graphs, starts)])
    node_feats = np.concatenate([g.node_feats for g in graphs])
    edge_feats = np.concatenate([g.edge_feats for g in graphs])
    stats = {}

    def relu(x):
        return np.maximum(x, 0.0)

    def embed(tables, feats):
        return sum(t.data[feats[:, f]] for f, t in enumerate(tables))

    def norm(p, x):
        mean, var = p.state.running_mean, p.state.running_var
        if train:
            stats[id(p.state)] = (0.9 * mean + 0.1 * x.mean(axis=0), 0.9 * var + 0.1 * x.var(axis=0))
            mean, var = x.mean(axis=0), x.var(axis=0)
        return (x - mean) / np.sqrt(var + 1e-5) * p.gamma.data + p.beta.data

    def linear(p, x):
        return x @ p.weight.data + p.bias.data

    def mlp(p, x):
        return linear(p.lin_out, relu(norm(p.norm, linear(p.lin_in, x))))

    history = [embed(params.node_tables, node_feats)]
    vn = np.zeros((len(graphs), config.hidden))
    for l, layer in enumerate(params.layers, start=1):
        h, eps = history[-1], [1.0 + e.data for e in layer.eps]
        edge_embed = np.zeros((n, n, config.hidden))
        edge_embed[edges[:, 0], edges[:, 1]] = edge_embed[edges[:, 1], edges[:, 0]] = embed(layer.edge_tables, edge_feats)
        hop1 = ((dist == 1)[:, :, None] * relu(h[None, :, :] + edge_embed)).sum(axis=1)
        pre = eps[0] * h + (hop1 if config.conv_type == "gine" else eps[1] * hop1)
        for k in range(2, len(eps)):
            if config.conv_type == "naive-gine+":
                pre = pre + eps[k] * ((dist == k) @ relu(h))
            elif l >= k:
                pre = pre + eps[k] * ((dist == k) @ relu(history[l - k]))
        z = norm(layer.norm, mlp(layer.mlp, pre))
        z = relu(z) if l < config.num_layers else z
        if config.virtual_node:
            vn = mlp(layer.vn.mlp, (1.0 + layer.vn.eps.data) * vn + member @ z)
            z = z + member.T @ vn
        history.append(z)
    return linear(params.classifier, (member @ history[-1]) / member.sum(axis=1, keepdims=True)), stats


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


# The manifest of the dataset files ``make_file`` writes: two node fields, one
# edge field, two tasks.
RECORDS_MANIFEST = {"node_field_cardinalities": [3, 3], "edge_field_cardinalities": [2], "task_names": ["a", "b"]}


def base_records(rng):
    """Eight small valid records for ``RECORDS_MANIFEST``."""
    records = []
    for _ in range(8):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
        records.append({
            "nodes": [[rng.randrange(3), rng.randrange(3)] for _ in range(n)],
            "edges": [[u, v, [rng.randrange(2)]] for u, v in edges],
            "labels": [rng.choice([0, 1, None]) for _ in range(2)],
        })
    return records


def mutate(rng, record):
    """One fault, or a harmless change, in a copy of ``record``; also
    whether it is an edge of four entries, which only the reference accepts."""
    r = json.loads(json.dumps(record))
    n, edges = len(r["nodes"]), r["edges"]
    bad_ints = [0.5, 1.0, True, False, "0", None, [0], 2**64, -(2**64) - 1, 2**63, -1, -(2**63)]
    kind = rng.choice([
        "node-value", "endpoint", "edge-value", "out-of-range", "self-loop", "duplicate", "node-fields",
        "edge-fields", "edge-shape", "four-entry-edge", "label", "label-count", "labels-shape", "key",
        "record-shape", "nodes-shape", "cardinality", "harmless",
    ])
    if kind == "node-value":
        r["nodes"][rng.randrange(n)][rng.randrange(2)] = rng.choice(bad_ints)
    elif kind in ("endpoint", "edge-value", "out-of-range", "self-loop", "edge-fields", "edge-shape", "four-entry-edge"):
        if not edges:
            edges.append([0, n, [0]])  # out of range: endpoint n
        i = rng.randrange(len(edges))
        e = edges[i]
        if kind == "endpoint":
            e[rng.randrange(2)] = rng.choice(bad_ints)
        elif kind == "edge-value":
            e[2][0] = rng.choice(bad_ints)
        elif kind == "out-of-range":
            e[rng.randrange(2)] = rng.choice([n, n + 3, -1, -n])
        elif kind == "self-loop":
            e[1] = e[0]
        elif kind == "edge-fields":
            e[2] = rng.choice([[], [0, 1], 1, [[0]], {}, ""])
        elif kind == "edge-shape":
            edges[i] = rng.choice([[e[0], e[1]], [e[0]], [], 5, "abc", [e[0], e[1], 1]])
        else:
            e.append(rng.choice([7, [0], None]))
            return r, True
    elif kind == "duplicate":
        if not edges:
            if n < 2:
                r["nodes"].append([0, 0])
            edges.append([0, 1, [0]])
        u, v, feats = rng.choice(edges)
        edges.insert(rng.randrange(len(edges) + 1), [v, u, feats] if rng.random() < 0.5 else [u, v, [1 - feats[0]]])
    elif kind == "node-fields":
        node = r["nodes"][rng.randrange(n)]
        if rng.random() < 0.5:
            node.append(0)
        else:
            node.pop()
        if rng.random() < 0.3:
            r["nodes"] = [node[:] for _ in range(n)]  # every node the same wrong width
    elif kind == "label":
        r["labels"][rng.randrange(2)] = rng.choice([2, -1, 0.5, 1.0, 0.0, True, False, "1", [0]])
    elif kind == "label-count":
        r["labels"] = r["labels"][:1] if rng.random() < 0.5 else r["labels"] + [0]
    elif kind == "labels-shape":
        r["labels"] = rng.choice([0, None, "01", "", {}, {"0": 1}])
    elif kind == "key":
        del r[rng.choice(["nodes", "edges", "labels"])]
    elif kind == "record-shape":
        r = rng.choice([[], 5, "x", None, [r]])
    elif kind == "nodes-shape":
        r["nodes"] = rng.choice([[], {}, "", [0] * n, [[0, 0]] * n + [[0]], [[[0, 0]]] * n, "ab", None])
    elif kind == "cardinality":
        if rng.random() < 0.5:
            r["nodes"][rng.randrange(n)][rng.randrange(2)] = 3
        elif edges:
            rng.choice(edges)[2][0] = 2
    return r, False


def make_file(rng, path):
    """A mutated file of ``base_records``; the line of its first four-entry edge, or None;
    and whether it was cut short."""
    records = base_records(rng)
    lines = [[json.dumps(r).encode("ascii"), False] for r in records]
    for i in sorted(rng.sample(range(len(lines)), rng.choice([0, 1, 1, 2, 3]))):  # faults on up to three lines
        choice = rng.random()
        if choice < 0.1:
            raw = lines[i][0]
            at = rng.randrange(len(raw) + 1)
            lines[i][0] = raw[:at] + rng.choice([b"\xc3\xa9", b"\xff", b"\x80"]) + raw[at:]
        elif choice < 0.15:
            raw = lines[i][0]
            at = rng.randrange(len(raw))
            lines[i][0] = raw[:at] + raw[at + 1 :]  # one byte gone: usually not JSON
        else:
            record, four = mutate(rng, records[i])
            lines[i] = [json.dumps(record).encode("ascii"), four]
    if rng.random() < 0.2:
        lines.insert(rng.randrange(len(lines) + 1), [rng.choice([b"", b"  ", b"\t"]), False])
    data = b"# " + json.dumps(RECORDS_MANIFEST).encode("ascii") + b"\n" + b"".join(line + b"\n" for line, _ in lines)
    four_line = next((i + 2 for i, (_, four) in enumerate(lines) if four), None)
    cut = four_line is None and rng.random() < 0.1
    if cut:  # anywhere, or just after the manifest line
        data = data[: rng.choice([rng.randrange(len(data)), data.index(b"\n") + 1])]
    with open(path, "wb") as fh:
        fh.write(data)
    return four_line, cut


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
