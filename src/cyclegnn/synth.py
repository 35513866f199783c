"""Synthetic graph and dataset generators for the cycle-detection benchmarks
and for pipeline tests. Everything is deterministic given the seed."""

from __future__ import annotations

import numpy as np

from .data import Dataset, DatasetManifest
from .graph import LabeledGraph, graphs_from_flat

# Ways to write 12 as a sum of cycle lengths >= 3, keyed by smallest part.
_TWELVE_NODE_PARTITIONS = {
    3: ((3, 9), (3, 3, 6), (3, 4, 5), (3, 3, 3, 3)),
    4: ((4, 8), (4, 4, 4)),
    6: ((6, 6),),
}

TASK_MIN_CYCLE = "min-cycle-class"
TASK_HAS_SMALL_CYCLE = "has-small-cycle"
TASK_RANDOM_MULTITASK = "random-multitask"
TASK_SPECS = (TASK_MIN_CYCLE, TASK_HAS_SMALL_CYCLE, TASK_RANDOM_MULTITASK)


def _featureless(num_nodes: int, edges) -> LabeledGraph:
    """The graph of ``edges`` with all-zero features, not checked: each
    generator's edges join distinct nodes of range(num_nodes), once each, by
    construction once its arguments have been checked."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    node_feats, edge_feats = np.zeros((num_nodes, 1), dtype=np.int64), np.zeros((len(edges), 1), dtype=np.int64)
    (graph,) = graphs_from_flat([num_nodes], node_feats, [len(edges)], edges, edge_feats)
    return graph


def _attachments(first: int, num_nodes: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges joining each node first..num_nodes-1 to a uniformly drawn earlier node."""
    return [(int(rng.integers(0, v)), v) for v in range(first, num_nodes)]


def gen_cycle_union(cycle_lengths) -> LabeledGraph:
    """Disjoint union of simple cycles, each of length >= 3, numbered one
    after another, with one all-zero node field and one all-zero edge field
    (the featureless manifest ``(1,), (1,)``)."""
    lengths = list(cycle_lengths)
    if any(c < 3 for c in lengths):
        raise ValueError("cycle lengths must be at least 3")
    edges = []
    offset = 0
    for c in lengths:
        edges.extend((offset + t, offset + (t + 1) % c) for t in range(c))
        offset += c
    return _featureless(offset, edges)


def _permute_nodes(g: LabeledGraph, rng: np.random.Generator) -> LabeledGraph:
    """``g`` with its nodes renumbered at random; a renumbering keeps every
    invariant of ``g``, so the copy is not checked again."""
    perm = rng.permutation(g.num_nodes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.num_nodes)
    (permuted,) = graphs_from_flat([g.num_nodes], g.node_feats[inv], [g.num_edges], perm[g.edges], g.edge_feats)
    return permuted


def random_tree(num_nodes: int, rng: np.random.Generator) -> LabeledGraph:
    """Uniform random-attachment tree with all-zero features."""
    return _featureless(num_nodes, _attachments(1, num_nodes, rng))


def random_unicyclic(num_nodes: int, cycle_len: int, rng: np.random.Generator) -> LabeledGraph:
    """One cycle of the given length with the remaining nodes attached as a tree."""
    if cycle_len < 3 or cycle_len > num_nodes:
        raise ValueError("cycle_len must lie in 3..num_nodes")
    cycle = [(t, (t + 1) % cycle_len) for t in range(cycle_len)]
    return _featureless(num_nodes, cycle + _attachments(cycle_len, num_nodes, rng))


def _shuffled(graphs: list[LabeledGraph], labels: np.ndarray, task_names, rng: np.random.Generator) -> Dataset:
    """The featureless ``graphs`` and their label rows in one random order."""
    order = rng.permutation(len(graphs))
    manifest = DatasetManifest(
        node_field_cardinalities=(1,), edge_field_cardinalities=(1,), task_names=task_names
    )
    return Dataset([graphs[i] for i in order], labels[order], manifest)


def _gen_min_cycle_class(size: int, rng: np.random.Generator) -> Dataset:
    classes = (3, 4, 6)
    graphs = []
    labels = np.zeros((size, 3))
    for idx in range(size):
        cls = classes[idx % 3]  # round robin keeps the classes balanced
        options = _TWELVE_NODE_PARTITIONS[cls]
        parts = options[int(rng.integers(0, len(options)))]
        graphs.append(_permute_nodes(gen_cycle_union(parts), rng))
        labels[idx, classes.index(cls)] = 1.0
    return _shuffled(graphs, labels, ("min_cycle_3", "min_cycle_4", "min_cycle_6"), rng)


def _gen_has_small_cycle(size: int, rng: np.random.Generator) -> Dataset:
    graphs = []
    labels = np.zeros((size, 1))
    for idx in range(size):
        n = int(rng.integers(10, 17))
        if idx % 2 == 0:
            graphs.append(random_tree(n, rng))
        else:
            graphs.append(random_unicyclic(n, int(rng.integers(3, 7)), rng))
            labels[idx, 0] = 1.0
    return _shuffled(graphs, labels, ("has_small_cycle",), rng)


def _gen_random_multitask(size: int, rng: np.random.Generator) -> Dataset:
    node_cards = (5, 3)
    edge_cards = (4,)
    num_tasks = 4
    node_counts, node_blocks, edge_counts, edge_blocks, feat_blocks = [], [], [], [], []
    labels = np.full((size, num_tasks), np.nan)
    for idx in range(size):
        n = int(rng.integers(6, 13))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = rng.random(len(pairs)) < 0.3
        edges = np.asarray([p for p, k in zip(pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
        node_counts.append(n)
        node_blocks.append(np.stack([rng.integers(0, c, size=n) for c in node_cards], axis=1))
        edge_counts.append(edges.shape[0])
        edge_blocks.append(edges)
        feat_blocks.append(np.stack([rng.integers(0, c, size=edges.shape[0]) for c in edge_cards], axis=1))
        observed = rng.random(num_tasks) >= 0.4
        values = (rng.random(num_tasks) < 0.3).astype(float)
        labels[idx, observed] = values[observed]
    # edges are pairs u < v of range(n) and features lie below their cardinalities, so every
    # graph holds by construction and is not checked on its own
    graphs = graphs_from_flat(
        node_counts, np.concatenate(node_blocks), edge_counts, np.concatenate(edge_blocks), np.concatenate(feat_blocks)
    )
    manifest = DatasetManifest(
        node_field_cardinalities=node_cards,
        edge_field_cardinalities=edge_cards,
        task_names=tuple(f"task_{t}" for t in range(num_tasks)),
    )
    return Dataset(graphs, labels, manifest)


def gen_synthetic_dataset(task_spec: str, size: int, seed: int) -> Dataset:
    """Build one of the shipped synthetic datasets.

    Tasks:
      - ``min-cycle-class``: 12-node 2-regular cycle unions, three one-vs-rest
        tasks for smallest cycle length 3, 4 or 6.
      - ``has-small-cycle``: random trees (0) vs unicyclic graphs whose cycle
        has length at most 6 (1).
      - ``random-multitask``: random graphs with sparse random labels and
        missing entries, for pipeline tests.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    rng = np.random.default_rng(seed)
    if task_spec == TASK_MIN_CYCLE:
        return _gen_min_cycle_class(size, rng)
    if task_spec == TASK_HAS_SMALL_CYCLE:
        return _gen_has_small_cycle(size, rng)
    if task_spec == TASK_RANDOM_MULTITASK:
        return _gen_random_multitask(size, rng)
    raise ValueError(f"unknown task spec {task_spec!r}; expected one of {TASK_SPECS}")
