"""Labeled undirected graphs, shortest-path neighborhoods, and expressiveness
oracles: color refinement, simple-cycle enumeration, and the doubled-graph
counterexample construction that defeats 1-hop message passing."""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)  # over arrays: compares and hashes by identity
class LabeledGraph:
    """Undirected graph with categorical node and edge feature vectors.

    Each undirected edge is stored once; no self-loops or parallel edges.
    Construction checks these with :func:`find_graph_fault`. Arrays are
    treated as immutable after construction; graphs made by
    :func:`graphs_from_flat` are row slices (views) of arrays they share.
    """

    num_nodes: int
    node_feats: np.ndarray  # (num_nodes, node fields) small non-negative ints
    edges: np.ndarray  # (num_edges, 2) unordered pairs, each stored once
    edge_feats: np.ndarray  # (num_edges, edge fields)

    def __post_init__(self):
        object.__setattr__(self, "node_feats", np.ascontiguousarray(self.node_feats, dtype=np.int64))
        object.__setattr__(self, "edges", np.ascontiguousarray(self.edges, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "edge_feats", np.ascontiguousarray(self.edge_feats, dtype=np.int64))
        n, edges = self.num_nodes, self.edges
        if self.node_feats.ndim != 2 or self.node_feats.shape[0] != n:
            raise ValueError(f"node_feats must be ({n}, fields), got {self.node_feats.shape}")
        if self.edge_feats.ndim != 2 or self.edge_feats.shape[0] != edges.shape[0]:
            raise ValueError("edge_feats must align with edges")
        fault = find_graph_fault([n], self.node_feats, [edges.shape[0]], edges, self.edge_feats)
        if fault is not None:
            raise ValueError(fault[1])

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges.tolist():
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])


_GRAPH_FAULTS = (
    "node features must be non-negative",
    "edge features must be non-negative",
    "edge endpoint out of range",
    "self-loops are not allowed",
    "duplicate undirected edge",
)


def find_graph_fault(node_counts, node_feats, edge_counts, edges, edge_feats) -> tuple[int, str] | None:
    """The index of the first graph that breaks a :class:`LabeledGraph`
    invariant, and the message naming it; None when every graph holds.

    The graphs come as flat int64 arrays: graph i owns the next
    ``node_counts[i]`` rows of ``node_feats`` and the next ``edge_counts[i]``
    rows of ``edges`` (endpoints numbered within graph i) and
    ``edge_feats``. The checks, whose order picks the message for a graph
    that fails several: non-negative node features, non-negative edge
    features, endpoints in range, no self-loops, and no edge stored twice in
    either orientation. Each is one numpy pass over all the graphs;
    duplicates show as equal neighbours among sorted per-graph edge codes.
    """
    node_counts = np.asarray(node_counts, dtype=np.int64)
    total = int(node_counts.sum())
    # per edge, its graph's node count and the number of that graph's first node in the union
    size, first = np.repeat(node_counts, edge_counts), np.repeat(np.cumsum(node_counts) - node_counts, edge_counts)
    u, v = edges[:, 0], edges[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    out = (lo < 0) | (hi >= size)
    # in-range edges coded as (first + lo) * total + (first + hi): the sorted codes fall in graph order
    codes = lo * total + hi + first * (total + 1)
    codes = np.sort(codes[~out] if out.any() else codes)
    faults = (node_feats < 0, edge_feats < 0, out, u == v, codes[1:] == codes[:-1])
    failed = [check for check, mask in enumerate(faults) if mask.any()]
    if not failed:
        return None
    node_ends, edge_ends = np.cumsum(node_counts), np.cumsum(edge_counts)
    culprits = []
    for check in failed:
        at = int(np.argmax(faults[check]))  # the first failing entry, in row-major order
        if check == 0:
            graph = np.searchsorted(node_ends, at // node_feats.shape[1], side="right")
        elif check == 1:
            graph = np.searchsorted(edge_ends, at // edge_feats.shape[1], side="right")
        elif check == 4:
            graph = np.searchsorted(node_ends, codes[at] // total, side="right")
        else:
            graph = np.searchsorted(edge_ends, at, side="right")
        culprits.append((int(graph), _GRAPH_FAULTS[check]))
    return min(culprits, key=lambda culprit: culprit[0])  # a tie keeps the order of the checks


def graphs_from_flat(node_counts, node_feats, edge_counts, edges, edge_feats) -> list[LabeledGraph]:
    """The graphs of flat arrays laid out as for :func:`find_graph_fault`,
    each made of row slices (views) of them and not checked again: the
    caller has checked them all at once with :func:`find_graph_fault`. The
    arrays must be C-contiguous int64 with ``edges`` of shape (M, 2)."""
    graphs = []
    node_start = edge_start = 0
    for n, m in zip(node_counts, edge_counts):
        node_end, edge_end = node_start + n, edge_start + m
        g = object.__new__(LabeledGraph)
        g.__dict__.update(
            num_nodes=n,
            node_feats=node_feats[node_start:node_end],
            edges=edges[edge_start:edge_end],
            edge_feats=edge_feats[edge_start:edge_end],
        )
        graphs.append(g)
        node_start, edge_start = node_end, edge_end
    return graphs


@dataclass(frozen=True, eq=False)
class KHopIndex:
    """For every node, the nodes at shortest-path distance exactly k, k=1..k_max.

    ``pairs[k-1]`` is a pair of aligned int arrays (dst, src): node ``src`` is
    at distance k from node ``dst``. Both are int64 and sorted by dst then
    src; arrays from :func:`build_khop_index` are shared, hence read-only.
    The depth ``k_max`` is the number of shells.
    """

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def k_max(self) -> int:
        return len(self.pairs)

    def neighbors(self, node: int, k: int) -> list[int]:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must lie in 1..{self.k_max}")
        dst, src = self.pairs[k - 1]
        return src[dst == node].tolist()


def bfs_distances(g: LabeledGraph, start: int) -> np.ndarray:
    """Shortest-path distance from ``start`` to every node; unreachable nodes
    get ``inf``."""
    if not 0 <= start < g.num_nodes:
        raise ValueError(f"node id {start} out of range for {g.num_nodes} nodes")
    dist = np.full(g.num_nodes, np.inf)
    dist[start] = 0.0
    queue = deque([start])
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == np.inf:
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


def build_khop_shells(graphs: Sequence[LabeledGraph], k_max: int) -> None:
    """Memoise every graph's exact-distance shells 1..``k_max`` on it.

    Graphs whose memo already reaches ``k_max`` are skipped, a graph listed
    twice is built once, and one with a shallower memo is rebuilt. The rest
    expand over their disjoint union of N nodes, pair (dst, src) coded as
    dst * N + src: the distance-(k-1) pairs joined with the arcs give the
    pairs at distance k, k-1 and k-2; a sort drops the known ones and the
    duplicates. Each join runs in pieces of whole dst runs, under twice
    max(pairs, arcs) candidates each, as one dst's are at most its graph's
    arcs: memory grows with the pairs and arcs, time with the candidates,
    the pairs times their sources' degree, so dense graphs cost most. A
    node that has reached its whole graph is not expanded.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    cold = list(dict.fromkeys(g for g in graphs if len(getattr(g, "_khop_pairs", ())) < k_max))
    if not cold:
        return
    counts = np.asarray([g.num_nodes for g in cold], dtype=np.int64)
    first, n = np.cumsum(counts) - counts, max(1, int(counts.sum()))  # at least 1: codes are divided by n
    edges = np.concatenate([g.edges for g in cold]) + np.repeat(first, [g.num_edges for g in cold])[:, None]
    via, nbr = np.divmod(np.sort(np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]])), n)
    degree = np.bincount(via, minlength=n)
    arc_start = np.cumsum(degree) - degree  # CSR: node i's neighbours are nbr[arc_start[i]:][:degree[i]]
    dst = src = np.arange(counts.sum())
    shell, older = dst * (n + 1), dst[:0]  # distance 0: each node with itself
    unseen = np.repeat(counts - 1, counts)  # per node, the nodes of its graph not yet reached from it
    shells = []  # per distance, each graph's (dst, src) slices
    for _ in range(k_max):
        fan = degree[src] * (unseen[dst] > 0)  # each pair's candidates: (dst, w) for each arc (src, w)
        budget, reach = max(1, len(shell), len(nbr)), np.cumsum(fan)  # a piece ends at the dst run of each budget multiple
        starts = np.searchsorted(dst, dst[np.searchsorted(reach, np.arange(budget, fan.sum(), budget), "right")])
        cuts, lows = [0, *starts.tolist(), len(shell)], [0, *np.searchsorted(older, dst[starts] * n).tolist(), len(older)]
        parts = []
        for a, b, lo, hi in zip(cuts, cuts[1:], lows, lows[1:]):
            f = fan[a:b]
            arc = np.arange(f.sum()) + np.repeat(arc_start[src[a:b]] - (np.cumsum(f) - f), f)
            keys = np.concatenate([(np.repeat(dst[a:b] * n, f) + nbr[arc]) * 2 + 1, shell[a:b] * 2, older[lo:hi] * 2])
            keys.sort()  # codes doubled, a candidate's plus one: it is new unless the key before it holds its code
            fresh = (keys & 1).astype(bool) & (np.diff(keys, prepend=-2) > 1)
            parts.append(keys[fresh] >> 1)
        older, shell = shell, np.concatenate(parts)
        dst, src = np.divmod(shell, n)
        unseen -= np.bincount(dst, minlength=len(unseen))
        cuts = np.searchsorted(shell, np.append(first, n) * n).tolist()
        local = np.stack([dst, src]) - np.repeat(first, np.diff(cuts))  # rows: graph-local dst, src
        local.setflags(write=False)
        shells.append([(local[0, a:b], local[1, a:b]) for a, b in zip(cuts, cuts[1:])])
    for g, pairs in zip(cold, zip(*shells)):
        object.__setattr__(g, "_khop_pairs", pairs)


def build_khop_index(g: LabeledGraph, k_max: int) -> KHopIndex:
    """Per-distance (dst, src) index arrays of every node's exact-distance shells.

    Memoised on the graph at the deepest ``k_max`` requested so far; every
    call shares those read-only arrays, a smaller ``k_max`` a prefix of them.
    A graph without a deep enough memo is built by :func:`build_khop_shells`
    as a batch of one.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    pairs = getattr(g, "_khop_pairs", ())
    if len(pairs) < k_max:
        build_khop_shells([g], k_max)
        pairs = g._khop_pairs
    return KHopIndex(pairs[:k_max])


def enumerate_simple_cycles(g: LabeledGraph, max_len: int) -> list[tuple[int, ...]]:
    """All simple cycles of length 3..max_len, each reported once.

    Canonical form: the smallest node id comes first and of the two walk
    directions the lexicographically smaller one is kept.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    adj = g.adjacency
    cycles: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path = [False] * g.num_nodes

    def extend(root: int, node: int) -> None:
        for nxt in adj[node]:
            if nxt == root and len(path) >= 3:
                # Keep one direction: second node smaller than last.
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif nxt > root and not on_path[nxt] and len(path) < max_len:
                path.append(nxt)
                on_path[nxt] = True
                extend(root, nxt)
                on_path[nxt] = False
                path.pop()

    for root in range(g.num_nodes):
        path = [root]
        extend(root, root)
    cycles.sort()
    return cycles


def _wl_labels(g: LabeledGraph, iterations: int) -> list[list[str]]:
    """Canonical node labels for iterations 0..iterations of color refinement.

    Iteration 0 labels are the feature tuples; each later label is a digest of
    the node's own label plus its sorted neighbor labels. Labels depend on no
    node numbering, so they compare across graphs.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    labels = ["f" + ",".join(map(str, g.node_feats[i])) for i in range(g.num_nodes)]
    history = [labels]
    adj = g.adjacency
    for _ in range(iterations):
        labels = [
            hashlib.sha256(
                (labels[i] + "|" + ";".join(sorted(labels[j] for j in adj[i]))).encode()
            ).hexdigest()
            for i in range(g.num_nodes)
        ]
        history.append(labels)
    return history


def wl_refine(g: LabeledGraph, iterations: int) -> list[np.ndarray]:
    """Color refinement: returns node colors for iterations 0..iterations.

    Each iteration's canonical labels (see :func:`wl_graph_hash`) are numbered
    by first appearance in node order. Iteration 0 colors nodes by their
    feature vectors; each step splits nodes whose own color or multiset of
    neighbor colors differ, so partitions only ever refine.
    """
    history = []
    for labels in _wl_labels(g, iterations):
        intern: dict[str, int] = {}
        history.append(np.asarray([intern.setdefault(s, len(intern)) for s in labels], dtype=np.int64))
    return history


def wl_graph_hash(g: LabeledGraph, iterations: int) -> str:
    """Digest of the refined color histogram, comparable across graphs.

    Hashes the sorted canonical labels of the last iteration, so two graphs
    that color refinement cannot distinguish hash identically, independent of
    node numbering.
    """
    return hashlib.sha256("\n".join(sorted(_wl_labels(g, iterations)[-1])).encode()).hexdigest()


def make_counterexample_pair(g: LabeledGraph, edge: tuple[int, int]) -> LabeledGraph:
    """Double the graph and swap one edge between the two copies.

    The result has two feature-identical copies of ``g`` where edge (i, j)
    and its copy (i', j') are replaced by the crossings (i, j') and (i', j),
    keeping the original edge features. Edge rows keep their order: the first
    copy's edges, then the second's. When ``g`` contains a cycle, 1-hop
    convolutions give every node and both of its copies identical embeddings,
    so the pair is indistinguishable from two plain copies. Raises ValueError
    when (i, j) is not an edge of ``g``.
    """
    i, j = edge
    u, v = g.edges[:, 0], g.edges[:, 1]
    crossed = ((u == i) & (v == j)) | ((u == j) & (v == i))
    if not crossed.any():
        raise ValueError(f"edge ({i}, {j}) not present")
    n = g.num_nodes
    far = np.where(crossed, n, 0)  # the crossed edge's second endpoint moves to the other copy
    return LabeledGraph(
        num_nodes=2 * n,
        node_feats=np.concatenate([g.node_feats, g.node_feats], axis=0),
        edges=np.concatenate([np.stack([u, v + far], axis=1), np.stack([u + n, v + n - far], axis=1)]),
        edge_feats=np.concatenate([g.edge_feats, g.edge_feats], axis=0),
    )
