import hashlib

import numpy as np
import pytest

from conftest import assert_same_bits
from cyclegnn.data import load_dataset, save_dataset
from cyclegnn.graph import enumerate_simple_cycles, find_graph_fault
from cyclegnn.synth import (
    TASK_SPECS,
    gen_cycle_union,
    gen_synthetic_dataset,
    random_tree,
    random_unicyclic,
)


class TestCycleUnion:
    def test_two_triangles(self):
        g = gen_cycle_union([3, 3])
        assert g.num_nodes == 6 and g.num_edges == 6
        assert len(enumerate_simple_cycles(g, 6)) == 2

    def test_c6(self):
        g = gen_cycle_union([6])
        assert (g.num_nodes, g.num_edges) == (6, 6)

    def test_mixed_union(self):
        g = gen_cycle_union([3, 4, 6])
        assert (g.num_nodes, g.num_edges) == (13, 13)
        assert min(len(c) for c in enumerate_simple_cycles(g, 13)) == 3

    def test_two_regular(self):
        g = gen_cycle_union([4, 5])
        assert all(g.degree(i) == 2 for i in range(g.num_nodes))

    def test_uniform_zero_features(self):
        g = gen_cycle_union([5])
        assert g.node_feats.shape == (5, 1) and not g.node_feats.any()
        assert g.edge_feats.shape == (5, 1) and not g.edge_feats.any()

    def test_short_cycle_rejected(self):
        with pytest.raises(ValueError):
            gen_cycle_union([3, 2])


class TestMinCycleClass:
    def test_labels_match_cycle_oracle(self):
        ds = gen_synthetic_dataset("min-cycle-class", 60, seed=1)
        classes = (3, 4, 6)
        for g, row in zip(ds.graphs, ds.labels):
            smallest = min(len(c) for c in enumerate_simple_cycles(g, 12))
            expected = np.zeros(3)
            expected[classes.index(smallest)] = 1.0
            np.testing.assert_array_equal(row, expected)

    def test_graphs_are_12_node_2_regular(self):
        ds = gen_synthetic_dataset("min-cycle-class", 30, seed=2)
        for g in ds.graphs:
            assert g.num_nodes == 12
            assert all(g.degree(i) == 2 for i in range(12))

    def test_classes_balanced(self):
        ds = gen_synthetic_dataset("min-cycle-class", 90, seed=3)
        np.testing.assert_array_equal(ds.labels.sum(axis=0), [30, 30, 30])

    def test_deterministic(self):
        a = gen_synthetic_dataset("min-cycle-class", 20, seed=4)
        b = gen_synthetic_dataset("min-cycle-class", 20, seed=4)
        np.testing.assert_array_equal(a.labels, b.labels)
        for ga, gb in zip(a.graphs, b.graphs):
            np.testing.assert_array_equal(ga.edges, gb.edges)


class TestHasSmallCycle:
    def test_labels_by_construction(self):
        ds = gen_synthetic_dataset("has-small-cycle", 40, seed=5)
        for g, row in zip(ds.graphs, ds.labels):
            cycles = enumerate_simple_cycles(g, g.num_nodes)
            if row[0] == 1.0:
                assert len(cycles) == 1 and len(cycles[0]) <= 6
            else:
                assert cycles == []

    def test_balanced(self):
        ds = gen_synthetic_dataset("has-small-cycle", 40, seed=6)
        assert ds.labels.sum() == 20


class TestRandomMultitask:
    def test_has_missing_and_observed(self):
        ds = gen_synthetic_dataset("random-multitask", 50, seed=7)
        assert np.isnan(ds.labels).any()
        assert (~np.isnan(ds.labels)).any()
        assert ds.manifest.num_tasks == 4

    def test_features_respect_manifest(self):
        ds = gen_synthetic_dataset("random-multitask", 30, seed=8)
        for g in ds.graphs:
            for f, card in enumerate(ds.manifest.node_field_cardinalities):
                assert g.node_feats[:, f].max() < card

    def test_deterministic(self):
        a = gen_synthetic_dataset("random-multitask", 25, seed=9)
        b = gen_synthetic_dataset("random-multitask", 25, seed=9)
        np.testing.assert_array_equal(np.nan_to_num(a.labels), np.nan_to_num(b.labels))


class TestHelpers:
    def test_random_tree_is_tree(self):
        rng = np.random.default_rng(10)
        g = random_tree(15, rng)
        assert g.num_edges == 14
        assert enumerate_simple_cycles(g, 15) == []

    def test_unicyclic_has_one_cycle(self):
        rng = np.random.default_rng(11)
        g = random_unicyclic(12, 5, rng)
        cycles = enumerate_simple_cycles(g, 12)
        assert len(cycles) == 1 and len(cycles[0]) == 5

    def test_unknown_task_spec(self):
        with pytest.raises(ValueError, match="unknown task spec"):
            gen_synthetic_dataset("nope", 5, seed=0)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_synthetic_dataset("min-cycle-class", 0, seed=0)


def assert_holds(g):
    """``g`` has the arrays that a checked ``LabeledGraph`` has, and
    ``find_graph_fault`` finds nothing in them."""
    arrays = (g.node_feats, g.edges, g.edge_feats)
    assert all(a.dtype == np.int64 and a.ndim == 2 and a.flags.c_contiguous for a in arrays)
    assert g.node_feats.shape[0] == g.num_nodes and g.edges.shape == (g.num_edges, 2) == (g.edge_feats.shape[0], 2)
    assert find_graph_fault([g.num_nodes], g.node_feats, [g.num_edges], g.edges, g.edge_feats) is None


class TestGeneratedGraphsHold:
    """The generators build their graphs without checking them; every
    graph they make passes the checks."""

    def test_cycle_unions(self):
        for lengths in [(3,), (3, 3), (4, 8), (3, 4, 5), (3, 3, 3, 3), (6, 6), (12,), (7, 3, 100)]:
            assert_holds(gen_cycle_union(lengths))

    @pytest.mark.parametrize("seed", range(4))
    def test_trees_and_unicyclic_graphs(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 4, 7, 16, 50):
            tree = random_tree(n, rng)
            assert_holds(tree)
            assert tree.num_edges == n - 1
            for cycle_len in range(3, n + 1):
                assert_holds(random_unicyclic(n, cycle_len, rng))

    @pytest.mark.parametrize("task", TASK_SPECS)
    def test_every_task(self, task):
        for seed in range(3):
            for g in gen_synthetic_dataset(task, 40, seed).graphs:
                assert_holds(g)

    def test_bad_arguments_are_still_rejected(self):
        rng = np.random.default_rng(0)
        for bad in (lambda: random_unicyclic(5, 2, rng), lambda: random_unicyclic(5, 6, rng), lambda: gen_cycle_union([2])):
            with pytest.raises(ValueError):
                bad()


# SHA-256 of the file that save_dataset writes for gen_synthetic_dataset(task, size, seed),
# recorded from the per-graph generators and per-element save that the flat builds replaced
GOLDEN_SHA256 = {
    ("min-cycle-class", 50, 3): "2a27461b958c1d20290e6cbae526e534c83efd9c5255e7e115893d7198a63993",
    ("min-cycle-class", 7, 0): "3b9e6fa80fc388eee4ac3742e944b4a4cf11518b50fb4b0acb20badf89eb42a8",
    ("has-small-cycle", 50, 3): "fdfb53180efafb17f8f32d8da74104a7d382b1d0fe6affc4c1744f4033b56847",
    ("has-small-cycle", 7, 0): "c2a182ca302d27a49cc21f4c3559d65e7fa1cf2a6286443ff02f3c6c67d9cdf2",
    ("random-multitask", 50, 3): "68d5868f7c5c22a55948c38a2e04396ea3f64ff215c1a2692ab682fbe19ffce0",
    ("random-multitask", 7, 0): "2b361e4683f9af5460178ff15f68dafd5150c9c75ac8a1777ab7f96c5ffca799",
}


class TestGeneratedBytes:
    """Generation plus save keeps its RNG stream and its bytes; the saved
    file loads back to the dataset that was generated."""

    @pytest.mark.parametrize("task, size, seed", sorted(GOLDEN_SHA256))
    def test_saved_file_is_golden_and_round_trips(self, tmp_path, task, size, seed):
        dataset = gen_synthetic_dataset(task, size, seed)
        path = str(tmp_path / "d.jsonl")
        save_dataset(dataset, path)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_SHA256[task, size, seed]
        back = load_dataset(path)
        assert back.manifest == dataset.manifest and len(back) == len(dataset)
        assert_same_bits(back.labels, dataset.labels)
        for a, b in zip(dataset.graphs, back.graphs):
            assert type(a.num_nodes) is int and a.num_nodes == b.num_nodes
            for attr in ("node_feats", "edges", "edge_feats"):
                assert_same_bits(getattr(b, attr), getattr(a, attr), attr)

    def test_every_task_is_covered(self):
        assert {task for task, _, _ in GOLDEN_SHA256} == set(TASK_SPECS)


@pytest.mark.parametrize("task", TASK_SPECS)
def test_generated_datasets_are_flat(task):
    """Each field of every generated graph is a row slice of one array that
    the whole dataset shares, in dataset order, as one flat build makes."""
    graphs = gen_synthetic_dataset(task, 30, 5).graphs
    for attr in ("node_feats", "edges", "edge_feats"):
        base = getattr(graphs[0], attr).base
        assert base is not None, attr
        rows = 0
        for g in graphs:
            a = getattr(g, attr)
            assert a.base is base and np.shares_memory(a, base), attr
            assert a.__array_interface__["data"][0] == base[rows:].__array_interface__["data"][0], attr
            rows += len(a)
        assert rows == len(base), attr
