"""Datasets of labeled graphs with first-class missing labels, line-delimited
serialization, random splits, task-union augmentation, and collation into
disjoint-union batches with per-distance neighbor indices."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graph import KHopIndex, LabeledGraph, build_khop_index

MISSING = math.nan


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


def _check_features(g: LabeledGraph, manifest: DatasetManifest, where: str) -> None:
    if g.node_feats.shape[1] != len(manifest.node_field_cardinalities):
        raise ValueError(f"{where}: expected {len(manifest.node_field_cardinalities)} node fields")
    if g.edge_feats.shape[1] != len(manifest.edge_field_cardinalities):
        raise ValueError(f"{where}: expected {len(manifest.edge_field_cardinalities)} edge fields")
    for f, card in enumerate(manifest.node_field_cardinalities):
        if g.num_nodes and int(g.node_feats[:, f].max()) >= card:
            raise ValueError(f"{where}: node field {f} value exceeds cardinality {card}")
    for f, card in enumerate(manifest.edge_field_cardinalities):
        if g.num_edges and int(g.edge_feats[:, f].max()) >= card:
            raise ValueError(f"{where}: edge field {f} value exceeds cardinality {card}")


@dataclass
class Dataset:
    """Graphs plus a (num_graphs, num_tasks) label matrix; NaN marks missing."""

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
        for idx, g in enumerate(self.graphs):
            _check_features(g, self.manifest, f"graph {idx}")

    def __len__(self) -> int:
        return len(self.graphs)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset([self.graphs[i] for i in idx], self.labels[idx], self.manifest)


def _manifest_path(path: str) -> str:
    return str(path) + ".manifest.json"


def save_dataset(dataset: Dataset, path: str, header: dict | None = None) -> None:
    """Write one JSON record per graph plus a sidecar manifest file.

    An optional ``header`` dict is written as a leading '#' comment line and
    recorded in the manifest.
    """
    with open(path, "w", encoding="ascii") as fh:
        if header is not None:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        for g, row in zip(dataset.graphs, dataset.labels):
            record = {
                "nodes": g.node_feats.tolist(),
                "edges": [[int(u), int(v), feats.tolist()] for (u, v), feats in zip(g.edges, g.edge_feats)],
                "labels": [None if math.isnan(x) else int(x) for x in row],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    manifest = {
        "node_field_cardinalities": list(dataset.manifest.node_field_cardinalities),
        "edge_field_cardinalities": list(dataset.manifest.edge_field_cardinalities),
        "task_names": list(dataset.manifest.task_names),
    }
    if header is not None:
        manifest["header"] = header
    with open(_manifest_path(path), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    A malformed manifest is reported with its path, malformed records with
    their line number; feature values are checked against the manifest
    cardinalities.
    """
    manifest_path = _manifest_path(path)
    with open(manifest_path, "r", encoding="ascii") as fh:
        raw = json.load(fh)
    expected = {"node_field_cardinalities": int, "edge_field_cardinalities": int, "task_names": str}
    for key, kind in expected.items():
        values = raw.get(key) if isinstance(raw, dict) else None
        if not isinstance(values, list) or not all(type(v) is kind for v in values):
            raise ValueError(f"dataset manifest {manifest_path}: {key!r} must be a list of {kind.__name__}")
    try:
        manifest = DatasetManifest(**{key: tuple(raw[key]) for key in expected})
    except ValueError as exc:
        raise ValueError(f"dataset manifest {manifest_path}: {exc}") from None
    graphs: list[LabeledGraph] = []
    rows: list[list[float]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
                num_nodes = len(record["nodes"])
                nodes = np.asarray(record["nodes"], dtype=np.int64)
                nodes = nodes.reshape(num_nodes, len(manifest.node_field_cardinalities))
                edges = np.asarray([[e[0], e[1]] for e in record["edges"]], dtype=np.int64)
                edge_feats = np.asarray([e[2] for e in record["edges"]], dtype=np.int64)
                edges = edges.reshape(-1, 2)
                edge_feats = edge_feats.reshape(edges.shape[0], len(manifest.edge_field_cardinalities))
                g = LabeledGraph(
                    num_nodes=num_nodes, node_feats=nodes, edges=edges, edge_feats=edge_feats
                )
                row = [MISSING if x is None else float(x) for x in record["labels"]]
            except (KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
            try:
                _check_features(g, manifest, "record")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if len(row) != manifest.num_tasks:
                raise ValueError(f"{path}:{lineno}: expected {manifest.num_tasks} labels, got {len(row)}")
            graphs.append(g)
            rows.append(row)
    return Dataset(graphs, np.asarray(rows, dtype=np.float64).reshape(len(graphs), -1), manifest)


def random_split(
    dataset: Dataset, fractions: tuple[float, float, float] = (0.8, 0.1, 0.1), seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffled partition into train/valid/test.

    Valid and test sizes round down; the remainder goes to train.
    """
    if len(dataset) < 3:
        raise ValueError("dataset too small to split three ways")
    f_train, f_valid, f_test = fractions
    if min(fractions) <= 0 or abs(sum(fractions) - 1.0) > 1e-9:
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


@dataclass
class BatchedGraph:
    """Disjoint union of graphs, ready for model evaluation.

    Every undirected edge appears as two directed arcs. ``khop`` holds the
    exact-distance neighbor index up to the radius requested at collate time;
    its pairs never cross graph boundaries.
    """

    num_graphs: int
    num_nodes: int
    node_feats: np.ndarray  # (N, node fields)
    graph_ids: np.ndarray  # (N,)
    node_counts: np.ndarray  # (B,)
    arc_src: np.ndarray  # (2M,)
    arc_dst: np.ndarray  # (2M,)
    arc_edge_feats: np.ndarray  # (2M, edge fields)
    khop: KHopIndex | None
    labels: np.ndarray | None  # (B, T) with NaN replaced by 0
    label_mask: np.ndarray | None  # (B, T) 1.0 where observed


def collate(graphs: list[LabeledGraph], labels: np.ndarray | None = None, k_max: int = 1) -> BatchedGraph:
    """Merge graphs into one disjoint union with node ids offset per graph.

    ``k_max`` >= 2 additionally offsets every component's memoised
    exact-distance shells (see :func:`build_khop_index`) into one neighbor
    index. Labels, when given, are split into a zero-filled matrix and an
    observation mask.
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

    khop = None
    if k_max >= 2:
        shells = [build_khop_index(g, k_max).pairs for g in graphs]
        pairs = []
        for k in range(k_max):
            shift = np.repeat(offsets, [p[k][0].size for p in shells])
            dst = np.concatenate([p[k][0] for p in shells]) + shift
            src = np.concatenate([p[k][1] for p in shells]) + shift
            pairs.append((dst, src))
        khop = KHopIndex(num_nodes=total, k_max=k_max, pairs=tuple(pairs))

    label_matrix = mask = None
    if labels is not None:
        labels = np.asarray(labels, dtype=np.float64).reshape(len(graphs), -1)
        mask = (~np.isnan(labels)).astype(np.float64)
        label_matrix = np.where(np.isnan(labels), 0.0, labels)
    return BatchedGraph(
        num_graphs=len(graphs),
        num_nodes=total,
        node_feats=node_feats,
        graph_ids=graph_ids,
        node_counts=counts,
        arc_src=arc_src,
        arc_dst=arc_dst,
        arc_edge_feats=arc_edge_feats,
        khop=khop,
        labels=label_matrix,
        label_mask=mask,
    )
