"""Datasets of labeled graphs with first-class missing labels, line-delimited
serialization, random splits, task-union augmentation, and collation into
disjoint-union batches with per-distance neighbor indices."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._atomic import atomic_open
from .graph import LabeledGraph, build_khop_index, build_khop_shells, find_graph_fault, graphs_from_flat
from .tensor import Segments

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class DatasetManifest:
    """Feature-field cardinalities and task names shared by a dataset."""

    node_field_cardinalities: tuple[int, ...]
    edge_field_cardinalities: tuple[int, ...]
    task_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "node_field_cardinalities", tuple(int(c) for c in self.node_field_cardinalities))
        object.__setattr__(self, "edge_field_cardinalities", tuple(int(c) for c in self.edge_field_cardinalities))
        object.__setattr__(self, "task_names", tuple(str(t) for t in self.task_names))
        if not self.task_names:
            raise ValueError("manifest needs at least one task")
        if any(c < 1 for c in self.node_field_cardinalities + self.edge_field_cardinalities):
            raise ValueError("feature cardinalities must be positive")

    @property
    def num_tasks(self) -> int:
        return len(self.task_names)

    def same_features(self, other: "DatasetManifest") -> bool:
        return (
            self.node_field_cardinalities == other.node_field_cardinalities
            and self.edge_field_cardinalities == other.edge_field_cardinalities
        )


def _check_features(graphs: list[LabeledGraph], manifest: DatasetManifest) -> None:
    """Raise for the first graph whose node or edge fields differ in number
    from the manifest's, or hold a value at or above the field's
    cardinality, naming the graph's index and, for a value, the first such
    field; one numpy pass over all the graphs."""
    kinds = (
        ("node", "node_feats", [g.num_nodes for g in graphs], manifest.node_field_cardinalities),
        ("edge", "edge_feats", [g.num_edges for g in graphs], manifest.edge_field_cardinalities),
    )
    faults = [
        next(
            (
                (i, f"expected {len(cards)} {kind} fields")
                for i, g in enumerate(graphs)
                for kind, attr, _, cards in kinds
                if getattr(g, attr).shape[1] != len(cards)
            ),
            (len(graphs), None),
        )
    ]
    checked = faults[0][0]  # the graphs before the first of the wrong shape
    for kind, attr, counts, cards in kinds:
        bounds = np.concatenate([[0], np.cumsum(counts[:checked], dtype=np.int64)])
        feats = [np.empty((0, len(cards)), np.int64)] + [getattr(g, attr) for g in graphs[:checked]]
        over = np.concatenate(feats) >= np.asarray(cards, dtype=np.int64)  # (rows, fields)
        rows = np.flatnonzero(over.any(axis=1))[:1]
        if rows.size:
            idx = int(np.searchsorted(bounds, rows[0], side="right")) - 1
            f = int(np.argmax(over[bounds[idx] : bounds[idx + 1]].any(axis=0)))
            faults.append((idx, f"{kind} field {f} value exceeds cardinality {cards[f]}"))
    idx, message = min(faults, key=lambda fault: fault[0])  # a graph's node fault before its edge fault
    if message is not None:
        raise ValueError(f"graph {idx}: {message}")


@dataclass(eq=False)
class Dataset:
    """Graphs plus a (num_graphs, num_tasks) label matrix; NaN marks missing.

    Construction checks that every label is 0, 1 or missing, and that every
    graph has the manifest's number of node and edge fields with values
    below their cardinalities, in one pass over all the graphs; an error
    names the first bad graph's index.
    """

    graphs: list[LabeledGraph]
    labels: np.ndarray
    manifest: DatasetManifest

    def __post_init__(self):
        target = (len(self.graphs), self.manifest.num_tasks)
        raw = np.asarray(self.labels, dtype=np.float64)
        try:
            self.labels = raw.reshape(target)
        except ValueError:
            raise ValueError(
                f"label matrix {raw.shape} does not match "
                f"{len(self.graphs)} graphs x {self.manifest.num_tasks} tasks"
            ) from None
        observed = self.labels[~np.isnan(self.labels)]
        if observed.size and not np.isin(observed, (0.0, 1.0)).all():
            raise ValueError("labels must be 0, 1 or missing")
        _check_features(self.graphs, self.manifest)

    def __len__(self) -> int:
        return len(self.graphs)

    def subset(self, indices) -> "Dataset":
        """The graphs and label rows at ``indices``; not checked again, since
        this dataset's graphs and labels already were."""
        idx = np.asarray(indices, dtype=np.int64)
        part = copy.copy(self)
        part.graphs = [self.graphs[i] for i in idx]
        part.labels = self.labels[idx]
        return part


def save_dataset(dataset: Dataset, path: str, header: dict | None = None) -> None:
    """Write a manifest line, then one JSON record per graph, to one file.

    Line 1 is ``# `` and one line of JSON: the feature-field cardinalities,
    the task names and, when given, the ``header`` dict. The records follow
    from line 2. Each graph's arrays and the label matrix become Python
    lists with one ``tolist()`` each, not element by element. The file is
    replaced whole, so a failed or killed save leaves the previous dataset.
    """
    manifest = {
        "node_field_cardinalities": list(dataset.manifest.node_field_cardinalities),
        "edge_field_cardinalities": list(dataset.manifest.edge_field_cardinalities),
        "task_names": list(dataset.manifest.task_names),
    }
    if header is not None:
        manifest["header"] = header
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps(..., sort_keys=True) builds per call
    labels = [[None if math.isnan(x) else int(x) for x in row] for row in dataset.labels.tolist()]
    with atomic_open(path) as fh:
        fh.write("# " + encode(manifest) + "\n")
        for g, row in zip(dataset.graphs, labels):
            edges = [[u, v, feats] for (u, v), feats in zip(g.edges.tolist(), g.edge_feats.tolist())]
            fh.write(encode({"nodes": g.node_feats.tolist(), "edges": edges, "labels": row}) + "\n")


def _read_manifest(first: bytes, path: str) -> DatasetManifest:
    """The manifest on a dataset file's line 1, ``first``; a one-line error names ``path``."""
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
        return DatasetManifest(**{key: tuple(raw[key]) for key in expected})
    except ValueError as exc:
        raise ValueError(f"dataset manifest {path}: {exc}") from None


def _int_rows(rows: list, values: list, width: int) -> list[int]:
    """The integers of ``rows``, flattened to ``values``, once each row is
    known to hold ``width`` of them and each fits in int64. Rows that are not
    so go through numpy, which raises what it finds wrong with them."""
    regular = type(rows) is list and set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {width}
    if regular and (not values or (_INT64_MIN <= min(values) and max(values) <= _INT64_MAX)):
        return values
    try:
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), width).ravel().tolist()
    except OverflowError:
        raise ValueError("node features, edge endpoints and edge features must fit in int64") from None


def load_dataset(path: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    A line 1 that is not a manifest line, or a malformed manifest, is
    reported with the path; malformed records with their line number. A
    record is malformed when a node feature, edge endpoint or edge feature
    is not a JSON integer within int64, a node is not a list of the
    manifest's node fields, an edge is not ``[u, v, [edge features]]``, a
    label is not JSON 0, 1 or null, or its graph breaks an invariant of
    :class:`LabeledGraph`. When several lines are malformed, the first is
    named. Feature values are then checked against the manifest
    cardinalities, and a violation names the path and the graph's index. A
    file with no records is a dataset of no graphs.

    The records are read one at a time into flat, file-wide lists of
    integers. The graphs are checked all at once (see
    :func:`find_graph_fault`) and are row slices of the shared arrays (see
    :func:`graphs_from_flat`).
    """
    with open(path, "rb") as fh:
        manifest = _read_manifest(fh.readline(), path)
        node_fields = len(manifest.node_field_cardinalities)
        edge_fields = len(manifest.edge_field_cardinalities)
        node_ints: list[int] = []
        edge_ints: list[int] = []  # (u, v, edge features) per edge
        node_counts: list[int] = []
        edge_counts: list[int] = []
        linenos: list[int] = []  # per graph
        rows: list[list[int | None]] = []
        error = None  # the first malformed line's message; the file is read no further
        for lineno, line in enumerate(fh, start=2):
            try:
                line = line.decode("ascii").strip()
                if not line:
                    continue
                record = json.loads(line)
                nodes = record["nodes"]
                edges = record["edges"]
                flat_edges = [(e[0], e[1], *e[2]) for e in edges]  # endpoints, then features
                if not set(map(len, edges)) <= {3}:
                    raise ValueError("an edge must be [u, v, [edge features]]")
                node_values = list(chain.from_iterable(nodes))
                edge_values = list(chain.from_iterable(flat_edges))
                # np.asarray would turn 0.7, "0" and false into 0
                if not set(map(type, node_values)).union(map(type, edge_values)) <= {int}:
                    raise ValueError("node features, edge endpoints and edge features must be JSON integers")
                node_values = _int_rows(nodes, node_values, node_fields)
                edge_values = _int_rows(flat_edges, edge_values, 2 + edge_fields)
                # the graph is kept before its labels are read, since its checks come before theirs
                node_ints += node_values
                edge_ints += edge_values
                node_counts.append(len(nodes))
                edge_counts.append(len(flat_edges))
                linenos.append(lineno)
                labels = record["labels"]
                # np.array would turn true, "0" and 1.0 into labels; it turns null into NaN, which marks a missing one
                if not (set(map(type, labels)) <= {int, type(None)} and set(labels) <= {0, 1, None}):
                    raise ValueError("labels must be JSON 0, 1 or null")
            except (KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
                error = f"{path}:{lineno}: malformed record: {exc}"
                break
            if len(labels) != manifest.num_tasks:
                error = f"{path}:{lineno}: expected {manifest.num_tasks} labels, got {len(labels)}"
                break
            rows.append(labels)
    node_feats = np.array(node_ints, dtype=np.int64).reshape(sum(node_counts), node_fields)
    edge_rows = np.array(edge_ints, dtype=np.int64).reshape(sum(edge_counts), 2 + edge_fields)
    edges, edge_feats = np.ascontiguousarray(edge_rows[:, :2]), np.ascontiguousarray(edge_rows[:, 2:])
    fault = find_graph_fault(node_counts, node_feats, edge_counts, edges, edge_feats)
    if fault is not None:  # on a line before the malformed one, or on it, where the graph's checks come first
        raise ValueError(f"{path}:{linenos[fault[0]]}: malformed record: {fault[1]}")
    if error is not None:
        raise ValueError(error)
    graphs = graphs_from_flat(node_counts, node_feats, edge_counts, edges, edge_feats)
    try:
        return Dataset(graphs, np.array(rows, dtype=np.float64).reshape(len(rows), manifest.num_tasks), manifest)
    except ValueError as exc:
        raise ValueError(f"dataset {path}: {exc}") from None


def random_split(
    dataset: Dataset, fractions: tuple[float, float, float] = (0.8, 0.1, 0.1), seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffled partition into train/valid/test.

    Valid and test sizes round down; the remainder goes to train.
    """
    if len(dataset) < 3:
        raise ValueError("dataset too small to split three ways")
    f_train, f_valid, f_test = fractions
    if not all(f > 0 for f in fractions) or not abs(sum(fractions) - 1.0) <= 1e-9:  # NaN fails both
        raise ValueError("fractions must be positive and sum to 1")
    n = len(dataset)
    n_valid = int(f_valid * n)
    n_test = int(f_test * n)
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = perm[: n - n_valid - n_test]
    valid_idx = perm[n - n_valid - n_test : n - n_test]
    test_idx = perm[n - n_test :]
    return dataset.subset(train_idx), dataset.subset(valid_idx), dataset.subset(test_idx)


def combine_datasets(a: Dataset, b: Dataset) -> Dataset:
    """Union two datasets over disjoint task lists.

    Graphs from ``a`` get missing labels for ``b``'s tasks and vice versa, so
    the count of observed labels is conserved. Feature manifests must match.
    """
    if not a.manifest.same_features(b.manifest):
        raise ValueError("cannot combine datasets with different feature manifests")
    ta, tb = a.manifest.num_tasks, b.manifest.num_tasks
    labels = np.full((len(a) + len(b), ta + tb), np.nan)
    labels[: len(a), :ta] = a.labels
    labels[len(a) :, ta:] = b.labels
    manifest = DatasetManifest(
        node_field_cardinalities=a.manifest.node_field_cardinalities,
        edge_field_cardinalities=a.manifest.edge_field_cardinalities,
        task_names=a.manifest.task_names + b.manifest.task_names,
    )
    return Dataset(a.graphs + b.graphs, labels, manifest)


@dataclass(eq=False)
class BatchedGraph:
    """Disjoint union of graphs, ready for model evaluation.

    Node ids are offset per graph. Each index set is a :class:`Segments`
    plan, so every sum over it in this batch shares one lazily built table:
    ``graph_ids`` maps each node to its graph (buckets: graphs, so
    ``graph_ids.counts`` are the node counts), and ``arc_dst``/``arc_src``
    hold the two ends of every directed arc, two per edge (buckets: nodes).
    ``shells[k-2]`` pairs the (dst, src) plans of the exact-distance-k
    neighbor index (see :class:`KHopIndex`), for k = 2 .. the radius
    requested at collate time; the arcs are the distance-1 index. Shells
    never cross graph boundaries.
    """

    num_graphs: int
    node_feats: np.ndarray  # (N, node fields)
    graph_ids: Segments  # (N,) over num_graphs
    arc_src: Segments  # (2M,) over N nodes
    arc_dst: Segments  # (2M,) over N nodes
    arc_edge_feats: np.ndarray  # (2M, edge fields)
    shells: tuple[tuple[Segments, Segments], ...]  # empty below radius 2


def collate(graphs: list[LabeledGraph], k_max: int = 1) -> BatchedGraph:
    """Merge graphs into one disjoint union with node ids offset per graph.

    ``k_max`` >= 2 additionally offsets every component's memoised
    exact-distance shells 2..``k_max`` (see :func:`build_khop_index`) into
    one neighbor index per distance. The graphs not yet memoised that deep
    are built first, all together, by one :func:`build_khop_shells` call.
    Every index set becomes a :class:`Segments` plan whose table is built on
    its first sum, so a scoring pass, which never sums over the src side,
    never builds those tables.
    """
    if not graphs:
        raise ValueError("cannot collate an empty batch")
    counts = np.asarray([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total = int(counts.sum())
    node_feats = np.concatenate([g.node_feats for g in graphs], axis=0)
    graph_ids = np.repeat(np.arange(len(graphs), dtype=np.int64), counts)

    edges = np.concatenate([g.edges for g in graphs]) + np.repeat(offsets, [g.num_edges for g in graphs])[:, None]
    # (dst=u, src=v) then (dst=v, src=u), interleaved per edge
    arc_dst = edges.reshape(-1)
    arc_src = edges[:, ::-1].reshape(-1)
    arc_edge_feats = np.repeat(np.concatenate([g.edge_feats for g in graphs]), 2, axis=0)

    shells = ()
    if k_max >= 2:
        build_khop_shells(graphs, k_max)
        per_graph = [build_khop_index(g, k_max).pairs for g in graphs]
        for k in range(1, k_max):  # distances 2..k_max; the arcs are distance 1
            block = np.concatenate([p[k] for p in per_graph], axis=1)  # (2, pairs): each graph's dst and src rows
            dst, src = block + np.repeat(offsets, [p[k].shape[1] for p in per_graph])
            shells += ((Segments(dst, total), Segments(src, total)),)
    return BatchedGraph(
        num_graphs=len(graphs),
        node_feats=node_feats,
        graph_ids=Segments(graph_ids, len(graphs)),
        arc_src=Segments(arc_src, total),
        arc_dst=Segments(arc_dst, total),
        arc_edge_feats=arc_edge_feats,
        shells=shells,
    )
