import dataclasses
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from cyclegnn.graph import (
    KHopIndex,
    LabeledGraph,
    bfs_distances,
    build_khop_index,
    build_khop_shells,
    enumerate_simple_cycles,
    find_graph_fault,
    graphs_from_flat,
    make_counterexample_pair,
    wl_graph_hash,
    wl_refine,
)
from cyclegnn.data import load_dataset, save_dataset
from cyclegnn.synth import TASK_RANDOM_MULTITASK, gen_cycle_union, gen_synthetic_dataset
from conftest import _reference_graph_checks, permute_graph, plain, random_graph


def canonical_cycle(seq) -> tuple:
    """Rotate so the smallest node leads, then keep the smaller direction."""
    pivot = seq.index(min(seq))
    forward = seq[pivot:] + seq[:pivot]
    backward = (forward[0],) + tuple(reversed(forward[1:]))
    return min(forward, backward)


def cycles_by_sequence_enumeration(g: LabeledGraph, max_len: int) -> set[tuple]:
    """Independent oracle: try every vertex sequence of length 3..max_len."""
    adj = {i: set(g.adjacency[i]) for i in range(g.num_nodes)}
    found = set()
    for length in range(3, max_len + 1):
        for seq in permutations(range(g.num_nodes), length):
            if all(seq[(i + 1) % length] in adj[seq[i]] for i in range(length)):
                found.add(canonical_cycle(tuple(seq)))
    return found


class TestFindGraphFault:
    """The whole-file graph check against a per-graph reference."""

    @staticmethod
    def random_flat(rng):
        """Flat arrays of a few small graphs, some of them faulty."""
        counts, nodes, edges = [], [], []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(0, 6))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            chosen = [pairs[i] for i in rng.permutation(len(pairs))[: int(rng.integers(0, len(pairs) + 1))]]
            e = np.asarray(chosen, dtype=np.int64).reshape(-1, 2)
            if rng.random() < 0.3:  # swap some orientations
                e = np.where(rng.random((len(e), 1)) < 0.5, e, e[:, ::-1])
            if rng.random() < 0.5 and len(e) + n:
                fault = rng.integers(5)
                if fault == 0 and n:
                    e = np.concatenate([e, [[int(rng.integers(n)), n + int(rng.integers(3))]]])
                elif fault == 1 and n:
                    e = np.concatenate([e, [[int(rng.integers(n))] * 2]])
                elif fault == 2 and len(e):
                    e = np.concatenate([e, e[rng.integers(len(e))][None, ::-1]])
                elif fault == 3:
                    e = np.concatenate([e, [[-1, 0]]])
            counts.append((n, len(e)))
            nodes.append(rng.integers(-1 if rng.random() < 0.1 else 0, 3, (n, 2)))
            edges.append(np.concatenate([e, rng.integers(-1 if rng.random() < 0.1 else 0, 2, (len(e), 1))], axis=1))
        node_counts, edge_counts = zip(*counts)
        flat_edges = np.concatenate(edges)
        return (list(node_counts), np.concatenate(nodes), list(edge_counts),
                np.ascontiguousarray(flat_edges[:, :2]), np.ascontiguousarray(flat_edges[:, 2:]))

    def test_names_the_graph_and_fault_the_reference_finds_first(self):
        rng = np.random.default_rng(18)
        found = 0
        for _ in range(300):
            node_counts, node_feats, edge_counts, edges, edge_feats = self.random_flat(rng)
            want = None
            n0 = e0 = 0
            for i, (n, m) in enumerate(zip(node_counts, edge_counts)):
                try:
                    _reference_graph_checks(n, node_feats[n0 : n0 + n], edges[e0 : e0 + m], edge_feats[e0 : e0 + m])
                except ValueError as exc:
                    want = (i, str(exc))
                    break
                n0, e0 = n0 + n, e0 + m
            assert find_graph_fault(node_counts, node_feats, edge_counts, edges, edge_feats) == want
            found += want is not None
        assert 50 < found < 250

    def test_graphs_from_flat_are_row_slices(self):
        node_feats = np.arange(10, dtype=np.int64).reshape(5, 2)
        edges = np.asarray([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        edge_feats = np.zeros((3, 1), dtype=np.int64)
        a, b, c = graphs_from_flat([2, 0, 3], node_feats, [1, 0, 2], edges, edge_feats)
        assert (a.num_nodes, b.num_nodes, c.num_nodes) == (2, 0, 3)
        assert np.shares_memory(a.node_feats, node_feats) and np.shares_memory(c.edges, edges)
        np.testing.assert_array_equal(c.node_feats, node_feats[2:])
        np.testing.assert_array_equal(c.edges, [[0, 2], [1, 2]])
        assert b.edges.shape == (0, 2) and b.edge_feats.shape == (0, 1)
        assert c.adjacency == ((2,), (2,), (0, 1))


class TestLabeledGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            plain(2, [(0, 0)])

    def test_rejects_duplicate_unordered_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            plain(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            plain(2, [(0, 5)])

    def test_rejects_negative_features(self):
        with pytest.raises(ValueError, match="node features must be non-negative"):
            LabeledGraph(2, np.array([[0], [-1]]), np.array([[0, 1]]), np.array([[0]]))
        with pytest.raises(ValueError, match="edge features must be non-negative"):
            LabeledGraph(2, np.array([[0], [1]]), np.array([[0, 1]]), np.array([[-1]]))

    def test_adjacency(self):
        g = plain(4, [(0, 1), (0, 2)])
        assert g.adjacency == ((1, 2), (0,), (0,), ())

    @staticmethod
    def made_both_ways():
        edges = np.asarray([[0, 1], [1, 2]], dtype=np.int64)
        direct = LabeledGraph(3, np.zeros((3, 1)), edges, np.zeros((2, 1)))
        (flat,) = graphs_from_flat([3], np.zeros((3, 1), np.int64), [2], edges, np.zeros((2, 1), np.int64))
        return direct, flat

    def test_graphs_have_slots_and_stay_frozen(self):
        for g in self.made_both_ways():
            assert not hasattr(g, "__dict__")
            for name in ("num_nodes", "edges", "_adjacency", "_khop_pairs"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(g, name, None)
            with pytest.raises((AttributeError, TypeError)):  # no such slot; Python 3.11 raises TypeError
                g.other = None
            assert (g._adjacency, g._khop_pairs) == (None, ())

    def test_adjacency_is_built_once_and_kept(self):
        for g in self.made_both_ways():
            adjacency = g.adjacency
            assert adjacency == ((1,), (0, 2), (1,)) and g.adjacency is adjacency


class TestBfs:
    def test_c6_from_zero(self):
        d = bfs_distances(gen_cycle_union([6]), 0)
        np.testing.assert_array_equal(d, [0, 1, 2, 3, 2, 1])

    def test_single_isolated_node(self):
        np.testing.assert_array_equal(bfs_distances(plain(1, []), 0), [0])

    def test_unreachable_is_infinite(self):
        d = bfs_distances(plain(4, [(0, 1), (1, 2)]), 0)
        np.testing.assert_array_equal(d[:3], [0, 1, 2])
        assert np.isinf(d[3])

    def test_node_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(plain(2, []), 2)

    def test_triangle_property_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)))
            for start in range(g.num_nodes):
                d = bfs_distances(g, start)
                for u, v in g.edges:
                    assert d[v] <= d[u] + 1 and d[u] <= d[v] + 1


def khop_by_bfs(g: LabeledGraph, k_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference shells from one BFS per node, in dst-then-src order."""
    pairs = [([], []) for _ in range(k_max)]
    for i in range(g.num_nodes):
        dist = bfs_distances(g, i)
        for k in range(1, k_max + 1):
            shell = np.nonzero(dist == k)[0]
            pairs[k - 1][0].extend([i] * shell.size)
            pairs[k - 1][1].extend(shell.tolist())
    return [(np.asarray(d, dtype=np.int64), np.asarray(s, dtype=np.int64)) for d, s in pairs]


def assert_shells_match_bfs(idx: KHopIndex, g: LabeledGraph, k_max: int) -> None:
    """The index has ``k_max`` shells, each int64, read-only and equal to the BFS oracle's."""
    assert idx.k_max == k_max and len(idx.pairs) == k_max
    for (dst, src), (want_dst, want_src) in zip(idx.pairs, khop_by_bfs(g, k_max)):
        for got, want in ((dst, want_dst), (src, want_src)):
            assert got.dtype == np.int64 and not got.flags.writeable
            np.testing.assert_array_equal(got, want)


class TestKHopIndex:
    def test_c6_shells(self):
        idx = build_khop_index(gen_cycle_union([6]), 3)
        assert idx.neighbors(0, 1) == [1, 5]
        assert idx.neighbors(0, 2) == [2, 4]
        assert idx.neighbors(0, 3) == [3]

    def test_c3_has_empty_second_shell(self):
        idx = build_khop_index(gen_cycle_union([3]), 2)
        assert idx.neighbors(0, 1) == [1, 2]
        assert idx.neighbors(0, 2) == []

    def test_star_shells(self):
        star = plain(4, [(0, 1), (0, 2), (0, 3)])
        idx = build_khop_index(star, 2)
        assert idx.neighbors(0, 1) == [1, 2, 3]
        assert idx.neighbors(0, 2) == []
        assert idx.neighbors(1, 2) == [2, 3]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            build_khop_index(plain(2, []), 0)

    def test_first_shell_is_adjacency_and_shells_partition(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 31)))
            idx = build_khop_index(g, 4)
            for i in range(g.num_nodes):
                assert tuple(idx.neighbors(i, 1)) == g.adjacency[i]
                shells = [set(idx.neighbors(i, k)) for k in range(1, 5)]
                for a in range(4):
                    assert i not in shells[a]
                    for b in range(a + 1, 4):
                        assert not shells[a] & shells[b]

    def test_agrees_with_bfs_distances_exhaustively(self):
        rng = np.random.default_rng(2)
        graphs = [plain(1, []), plain(5, [])]  # edgeless
        for _ in range(25):
            graphs.append(random_graph(rng, int(rng.integers(2, 31))))
        for _ in range(5):
            graphs.append(random_graph(rng, int(rng.integers(4, 16)), p=0.05))  # isolated nodes
            a, b = random_graph(rng, 6), random_graph(rng, 9)
            graphs.append(plain(15, np.concatenate([a.edges, b.edges + 6])))  # disconnected
        for g in graphs:  # one graph at a time
            for k_max in (1, 3, g.num_nodes + 2):  # the last lies beyond the diameter
                assert_shells_match_bfs(build_khop_index(g, k_max), g, k_max)
        deepest = max(g.num_nodes for g in graphs) + 2
        for k_max in (1, 3, deepest):  # the whole mixed-size list as one batch of cold graphs
            batch = [plain(g.num_nodes, g.edges) for g in graphs]
            build_khop_shells(batch, k_max)
            for g in batch:
                assert_shells_match_bfs(KHopIndex(g._khop_pairs), g, k_max)

    def test_batch_rebuilds_only_the_graphs_memoised_too_shallow(self):
        rng = np.random.default_rng(6)
        graphs = [random_graph(rng, int(rng.integers(1, 13))) for _ in range(30)]
        shallow, deep = graphs[::3], graphs[1::3]  # the rest stay cold
        for g in shallow:
            build_khop_index(g, 2)
        for g in deep:
            build_khop_index(g, 4)
        kept = {g: g._khop_pairs for g in deep}
        build_khop_shells(graphs, 3)
        for g in graphs:
            if g in kept:
                assert g._khop_pairs is kept[g]
                assert_shells_match_bfs(KHopIndex(g._khop_pairs), g, 4)
            else:
                assert_shells_match_bfs(KHopIndex(g._khop_pairs), g, 3)

    def test_one_build_over_small_odd_and_large_graphs(self):
        rng = np.random.default_rng(7)
        small = [random_graph(rng, int(rng.integers(6, 13))) for _ in range(8)]
        small += [plain(5, []), plain(0, [])]  # edgeless, and no nodes at all
        n, k_max = 3000, 3
        chords = [(i, i + n // 2) for i in range(0, n // 2, 100)]  # every chord end is a multiple of 100
        cycle = plain(n, [(i, (i + 1) % n) for i in range(n)] + chords)
        batch = small[:3] + [small[0]] + small[3:] + [cycle]  # small[0] listed twice
        tracemalloc.start()
        build_khop_shells(batch, k_max)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * 2**20  # a dense 3000 x 3000 float32 adjacency alone takes 34 MiB
        for g in small:
            assert_shells_match_bfs(KHopIndex(g._khop_pairs), g, k_max)
        idx = KHopIndex(cycle._khop_pairs)
        node = np.arange(n)
        far = np.minimum(node % 100, 100 - node % 100) > k_max  # no chord within reach
        for k, (dst, src) in enumerate(idx.pairs, start=1):
            assert dst.dtype == src.dtype == np.int64 and not dst.flags.writeable and not src.flags.writeable
            keep = far[dst]
            want_dst = np.repeat(node[far], 2)
            want_src = np.sort(np.stack([(node[far] - k) % n, (node[far] + k) % n], axis=1), axis=1).reshape(-1)
            np.testing.assert_array_equal(dst[keep], want_dst)
            np.testing.assert_array_equal(src[keep], want_src)
        for i in np.flatnonzero(~far).tolist():  # nodes with a chord within reach, by BFS
            dist = bfs_distances(cycle, i)
            for k in range(1, k_max + 1):
                assert idx.neighbors(i, k) == np.nonzero(dist == k)[0].tolist()
        # one build: every memo slices one (2, pairs) array per distance, whose pairs are each distinct graph's once
        for k in range(k_max):
            bases = {id(arr.base) for g in small + [cycle] for arr in g._khop_pairs[k]}
            assert len(bases) == 1
            whole = cycle._khop_pairs[k][0].base
            assert whole.shape == (2, sum(g._khop_pairs[k][0].size for g in small + [cycle]))

    def test_dense_graphs_build_in_memory_that_grows_with_pairs_and_arcs(self):
        dense = random_graph(np.random.default_rng(8), 200, p=0.3)  # distance 2 from every node: 720k candidates
        n = 300
        complete = plain(n, [(i, j) for i in range(n) for j in range(i + 1, n)])  # 27M distance-2 candidates
        peaks = []
        for g, k_max in ((dense, 3), (complete, 2)):
            tracemalloc.start()
            build_khop_shells([g], k_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] < 8 * 2**20  # all of the dense graph's distance-2 candidates at once take 46 MiB
        assert peaks[1] < 16 * 2**20  # and the complete graph's 670 MiB
        assert_shells_match_bfs(KHopIndex(dense._khop_pairs), dense, 3)
        (dst, src), (far_dst, far_src) = complete._khop_pairs
        node = np.arange(n)
        np.testing.assert_array_equal(dst, np.repeat(node, n - 1))
        np.testing.assert_array_equal(src, np.tile(node, n)[np.tile(node, n) != np.repeat(node, n)])
        assert far_dst.size == far_src.size == 0

    def test_shallower_request_returns_prefix_of_memoised_shells(self):
        g = random_graph(np.random.default_rng(4), 12)
        deep = build_khop_index(g, 3)
        shallow = build_khop_index(g, 2)
        again = build_khop_index(g, 3)
        assert shallow.k_max == 2 and len(shallow.pairs) == 2 and again.k_max == 3
        for got, want in zip(shallow.pairs + again.pairs, deep.pairs[:2] + deep.pairs):
            assert got is want  # each distance's (2, pairs) block is shared
        batched = [random_graph(np.random.default_rng(4), 12) for _ in range(3)]
        build_khop_shells(batched, 3)
        for h in batched:  # a memo a batch built reads the same way
            for got, want in zip(build_khop_index(h, 2).pairs, h._khop_pairs[:2]):
                assert got is want

    def test_deeper_request_rebuilds_like_a_fresh_graph(self):
        g = random_graph(np.random.default_rng(5), 12)
        build_khop_index(g, 2)
        grown = build_khop_index(g, 3)
        fresh = build_khop_index(plain(g.num_nodes, g.edges), 3)
        assert grown.k_max == 3
        for (dst, src), (want_dst, want_src) in zip(grown.pairs, fresh.pairs):
            np.testing.assert_array_equal(dst, want_dst)
            np.testing.assert_array_equal(src, want_src)

    def test_memo_holds_one_block_per_distance_of_its_build(self):
        graphs = [gen_cycle_union([3, 5]), gen_cycle_union([6]), plain(4, [])]
        build_khop_shells(graphs, 3)
        for k in range(3):
            blocks = [g._khop_pairs[k] for g in graphs]
            for g, block in zip(graphs, blocks):
                assert type(block) is np.ndarray and block.dtype == np.int64 and not block.flags.writeable
                assert block.shape == (2, len(khop_by_bfs(g, 3)[k][0]))
            assert len({id(block.base) for block in blocks}) == 1  # one array per distance for the build
            assert blocks[0].base.shape == (2, sum(block.shape[1] for block in blocks))

    def test_held_bytes_per_memoised_graph(self, tmp_path):
        # slotted graphs, their row views and a K=2 memo of one view per distance hold about 2,050 bytes a
        # graph; an instance dict per graph and two row views per distance would make it about 2,470
        path = str(tmp_path / "multitask.jsonl")
        size = 300
        save_dataset(gen_synthetic_dataset(TASK_RANDOM_MULTITASK, size, 3), path)
        tracemalloc.start()
        dataset = load_dataset(path)
        build_khop_shells(dataset.graphs, 2)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert held / size < 2250

    def test_shared_shells_are_read_only(self):
        idx = build_khop_index(gen_cycle_union([6]), 2)
        for dst, src in idx.pairs:
            for arr in (dst, src):
                with pytest.raises(ValueError):
                    arr[0] = 0


class TestSimpleCycles:
    def test_c6_single_cycle(self):
        assert enumerate_simple_cycles(gen_cycle_union([6]), 6) == [(0, 1, 2, 3, 4, 5)]

    def test_trees_have_none(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 12):
            edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            assert enumerate_simple_cycles(plain(n, edges), 10) == []

    def test_k4_has_seven(self):
        k4 = plain(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        cycles = enumerate_simple_cycles(k4, 4)
        assert len(cycles) == 7
        assert len({c for c in cycles if len(c) == 3}) == 4
        assert len({c for c in cycles if len(c) == 4}) == 3

    def test_max_len_truncates(self):
        k4 = plain(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert all(len(c) == 3 for c in enumerate_simple_cycles(k4, 3))

    def test_max_len_below_three_rejected(self):
        with pytest.raises(ValueError):
            enumerate_simple_cycles(plain(3, []), 2)

    def test_each_cycle_reported_once_canonically(self):
        g = gen_cycle_union([4, 5])
        cycles = enumerate_simple_cycles(g, 10)
        assert len(cycles) == len(set(cycles)) == 2
        for c in cycles:
            assert c[0] == min(c)
            assert c[1] < c[-1]

    def test_matches_vertex_sequence_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 8)), p=0.45)
            assert set(enumerate_simple_cycles(g, 7)) == cycles_by_sequence_enumeration(g, 7)

    def test_triangle_count_matches_trace_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(3, 21)), p=0.3)
            adjacency = np.zeros((g.num_nodes, g.num_nodes))
            for u, v in g.edges:
                adjacency[u, v] = adjacency[v, u] = 1.0
            expected = round(np.trace(adjacency @ adjacency @ adjacency) / 6.0)
            triangles = [c for c in enumerate_simple_cycles(g, 3)]
            assert len(triangles) == expected


class TestWlRefinement:
    def test_two_regular_graphs_are_monochrome_and_equal(self):
        for g in (gen_cycle_union([3, 3]), gen_cycle_union([6])):
            colors = wl_refine(g, 4)
            for level in colors:
                assert len(set(level.tolist())) == 1

    def test_path_splits_by_degree_after_one_iteration(self):
        colors = wl_refine(plain(3, [(0, 1), (1, 2)]), 1)[1]
        assert colors[0] == colors[2] != colors[1]

    def test_iteration_zero_uses_features_only(self):
        g = LabeledGraph(3, np.array([[0], [1], [0]]), np.zeros((0, 2)), np.zeros((0, 1)))
        colors = wl_refine(g, 0)[0]
        assert colors[0] == colors[2] != colors[1]

    def test_partitions_only_refine(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 20)))
            colors = wl_refine(g, 5)
            for prev, nxt in zip(colors, colors[1:]):
                # same color later implies same color earlier
                for i in range(g.num_nodes):
                    for j in range(i + 1, g.num_nodes):
                        if nxt[i] == nxt[j]:
                            assert prev[i] == prev[j]

    def test_histogram_permutation_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng, 10)
            perm = rng.permutation(10)
            a = wl_refine(g, 3)[-1]
            b = wl_refine(permute_graph(g, perm), 3)[-1]
            assert sorted(np.bincount(a).tolist()) == sorted(np.bincount(b).tolist())

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            wl_refine(plain(1, []), -1)


class TestWlHash:
    def test_cycle_union_indistinguishable_from_single_cycle(self):
        for t in range(4):
            assert wl_graph_hash(gen_cycle_union([3, 3]), t) == wl_graph_hash(gen_cycle_union([6]), t)

    def test_cycle_vs_path_distinguished(self):
        c6 = gen_cycle_union([6])
        p6 = plain(6, [(i, i + 1) for i in range(5)])
        assert wl_graph_hash(c6, 0) == wl_graph_hash(p6, 0)  # same feature multiset
        for t in (1, 2, 3):
            assert wl_graph_hash(c6, t) != wl_graph_hash(p6, t)

    def test_isomorphic_copies_hash_equal(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_graph(rng, 9)
            assert wl_graph_hash(g, 3) == wl_graph_hash(permute_graph(g, rng.permutation(9)), 3)

    def test_different_feature_multisets_differ_at_zero(self):
        a = LabeledGraph(2, np.array([[0], [0]]), np.zeros((0, 2)), np.zeros((0, 1)))
        b = LabeledGraph(2, np.array([[0], [1]]), np.zeros((0, 2)), np.zeros((0, 1)))
        assert wl_graph_hash(a, 0) != wl_graph_hash(b, 0)

    def test_deterministic_across_calls(self):
        g = gen_cycle_union([5])
        assert wl_graph_hash(g, 2) == wl_graph_hash(g, 2)


class TestCounterexamplePair:
    def test_c6_becomes_single_c12(self):
        pair = make_counterexample_pair(gen_cycle_union([6]), (0, 1))
        assert pair.num_nodes == 12
        cycles = enumerate_simple_cycles(pair, 12)
        assert len(cycles) == 1 and len(cycles[0]) == 12

    def test_c3_becomes_single_c6(self):
        pair = make_counterexample_pair(gen_cycle_union([3]), (0, 1))
        cycles = enumerate_simple_cycles(pair, 6)
        assert len(cycles) == 1 and len(cycles[0]) == 6

    def test_feature_multiset_doubled(self):
        rng = np.random.default_rng(9)
        g = LabeledGraph(
            5,
            rng.integers(0, 4, (5, 2)),
            np.array([[0, 1], [1, 2], [2, 0], [2, 3], [3, 4]]),
            rng.integers(0, 3, (5, 1)),
        )
        pair = make_counterexample_pair(g, (1, 2))
        want = sorted(map(tuple, np.concatenate([g.node_feats] * 2).tolist()))
        got = sorted(map(tuple, pair.node_feats.tolist()))
        assert want == got
        assert pair.num_edges == 2 * g.num_edges

    def test_edge_features_preserved_on_crossings(self):
        g = LabeledGraph(
            3,
            np.zeros((3, 1), dtype=np.int64),
            np.array([[0, 1], [1, 2], [2, 0]]),
            np.array([[7], [1], [2]]),
        )
        pair = make_counterexample_pair(g, (0, 1))
        crossing_feats = [
            int(f[0])
            for (u, v), f in zip(pair.edges.tolist(), pair.edge_feats)
            if (u < 3) != (v < 3)
        ]
        assert crossing_feats == [7, 7]

    def test_output_satisfies_invariants_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(3, 12)), p=0.4)
            if g.num_edges == 0:
                continue
            e = g.edges[int(rng.integers(0, g.num_edges))]
            pair = make_counterexample_pair(g, (int(e[0]), int(e[1])))  # validates in constructor
            assert pair.num_nodes == 2 * g.num_nodes
            assert pair.num_edges == 2 * g.num_edges

    def test_reversed_edge_orientation_accepted(self):
        pair = make_counterexample_pair(gen_cycle_union([4]), (1, 0))
        assert pair.num_edges == 8

    def test_absent_edge_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            make_counterexample_pair(gen_cycle_union([6]), (0, 3))
