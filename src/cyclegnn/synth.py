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


def _featureless(node_counts: list[int], edge_blocks) -> list[LabeledGraph]:
    """The graphs whose edges are ``edge_blocks``, one block of (u, v) pairs
    per graph, with all-zero features, built at once as views of one array
    per field (see :func:`graphs_from_flat`). They are not checked: each
    generator's edges join distinct nodes of range(num_nodes), once each, by
    construction once its arguments have been checked."""
    edges = np.concatenate([np.asarray(block, dtype=np.int64).reshape(-1, 2) for block in edge_blocks])
    node_feats, edge_feats = np.zeros((sum(node_counts), 1), dtype=np.int64), np.zeros((len(edges), 1), dtype=np.int64)
    return graphs_from_flat(node_counts, node_feats, [len(block) for block in edge_blocks], edges, edge_feats)


def _attachments(first: int, num_nodes: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges joining each node first..num_nodes-1 to a uniformly drawn earlier node."""
    return [(int(rng.integers(0, v)), v) for v in range(first, num_nodes)]


def _unicyclic_edges(num_nodes: int, cycle_len: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """The edges of one cycle on nodes 0..cycle_len-1 with the remaining nodes attached as a tree."""
    return [(t, (t + 1) % cycle_len) for t in range(cycle_len)] + _attachments(cycle_len, num_nodes, rng)


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
    return _featureless([offset], [edges])[0]


def random_tree(num_nodes: int, rng: np.random.Generator) -> LabeledGraph:
    """Uniform random-attachment tree with all-zero features."""
    return _featureless([num_nodes], [_attachments(1, num_nodes, rng)])[0]


def random_unicyclic(num_nodes: int, cycle_len: int, rng: np.random.Generator) -> LabeledGraph:
    """One cycle of the given length with the remaining nodes attached as a tree."""
    if cycle_len < 3 or cycle_len > num_nodes:
        raise ValueError("cycle_len must lie in 3..num_nodes")
    return _featureless([num_nodes], [_unicyclic_edges(num_nodes, cycle_len, rng)])[0]


def _shuffled(node_counts: list[int], edge_blocks: list, labels: np.ndarray, task_names, rng) -> Dataset:
    """The featureless graphs of ``edge_blocks`` (see :func:`_featureless`)
    and their label rows, in one random order."""
    order = rng.permutation(len(edge_blocks)).tolist()
    graphs = _featureless([node_counts[i] for i in order], [edge_blocks[i] for i in order])
    manifest = DatasetManifest(
        node_field_cardinalities=(1,), edge_field_cardinalities=(1,), task_names=task_names
    )
    return Dataset(graphs, labels[order], manifest)


def _gen_min_cycle_class(size: int, rng: np.random.Generator) -> Dataset:
    classes = (3, 4, 6)
    union_edges = {parts: gen_cycle_union(parts).edges for options in _TWELVE_NODE_PARTITIONS.values() for parts in options}
    blocks = []
    labels = np.zeros((size, 3))
    for idx in range(size):
        cls = classes[idx % 3]  # round robin keeps the classes balanced
        options = _TWELVE_NODE_PARTITIONS[cls]
        parts = options[int(rng.integers(0, len(options)))]
        blocks.append(rng.permutation(12)[union_edges[parts]])  # the union with its nodes renumbered at random
        labels[idx, classes.index(cls)] = 1.0
    return _shuffled([12] * size, blocks, labels, ("min_cycle_3", "min_cycle_4", "min_cycle_6"), rng)


def _gen_has_small_cycle(size: int, rng: np.random.Generator) -> Dataset:
    node_counts, blocks = [], []
    labels = np.zeros((size, 1))
    for idx in range(size):
        n = int(rng.integers(10, 17))
        if idx % 2 == 0:
            edges = _attachments(1, n, rng)
        else:
            edges = _unicyclic_edges(n, int(rng.integers(3, 7)), rng)
            labels[idx, 0] = 1.0
        node_counts.append(n)
        blocks.append(edges)
    return _shuffled(node_counts, blocks, labels, ("has_small_cycle",), rng)


def _gen_random_multitask(size: int, rng: np.random.Generator) -> Dataset:
    node_cards = (5, 3)
    edge_cards = (4,)
    num_tasks = 4
    pair_tables = {n: np.stack(np.triu_indices(n, 1), axis=1).astype(np.int64) for n in range(6, 13)}  # u < v, by u then v
    node_counts, edge_counts, edge_blocks = [], [], []
    node_columns = [[] for _ in node_cards]
    edge_columns = [[] for _ in edge_cards]
    draws = []  # per graph, the uniforms that pick its observed labels, then those of their values
    for _ in range(size):
        n = int(rng.integers(6, 13))
        pairs = pair_tables[n]
        edges = pairs[rng.random(len(pairs)) < 0.3]
        node_counts.append(n)
        for column, c in zip(node_columns, node_cards):
            column.append(rng.integers(0, c, size=n))
        edge_counts.append(len(edges))
        edge_blocks.append(edges)
        for column, c in zip(edge_columns, edge_cards):
            column.append(rng.integers(0, c, size=len(edges)))
        draws.append((rng.random(num_tasks), rng.random(num_tasks)))
    draws = np.array(draws)  # (size, 2, num_tasks)
    labels = np.where(draws[:, 0] >= 0.4, (draws[:, 1] < 0.3).astype(float), np.nan)
    # edges are pairs u < v of range(n) and features lie below their cardinalities, so every
    # graph holds by construction and is not checked on its own
    node_feats = np.stack([np.concatenate(column) for column in node_columns], axis=1)
    edge_feats = np.stack([np.concatenate(column) for column in edge_columns], axis=1)
    graphs = graphs_from_flat(node_counts, node_feats, edge_counts, np.concatenate(edge_blocks), edge_feats)
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

    Each generator makes its random draws in one loop over the graphs and
    then builds the whole dataset at once: every graph is a row slice of
    one array per field (see :func:`graph.graphs_from_flat`). The loop
    stays because each draw's size depends on earlier draws (a graph's edge
    count on its node count), so batching them would change the stream;
    a test pins the bytes of each task's saved files.
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
