import collections
import json
import math
import os
import random
import re

import numpy as np
import pytest
from conftest import _scatter_add, assert_same_bits, edit_manifest, make_file, reference_load_dataset

import cyclegnn.data as data_mod
from cyclegnn.data import (
    Dataset,
    DatasetManifest,
    collate,
    combine_datasets,
    load_dataset,
    random_split,
    save_dataset,
)
from cyclegnn.graph import KHopIndex, LabeledGraph, build_khop_index
from cyclegnn.synth import gen_cycle_union, gen_synthetic_dataset
from cyclegnn.tensor import BatchNormState, Tensor, backward, gather_rows, mul, segment_sum, tsum


def small_dataset(n=6, tasks=2, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n):
        k = int(rng.integers(2, 6))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, k)]
        graphs.append(
            LabeledGraph(
                num_nodes=k,
                node_feats=rng.integers(0, 3, (k, 2)),
                edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                edge_feats=rng.integers(0, 2, (len(edges), 1)),
            )
        )
    labels = rng.integers(0, 2, (n, tasks)).astype(float)
    labels[rng.random((n, tasks)) < 0.3] = np.nan
    manifest = DatasetManifest((3, 3), (2,), tuple(f"t{i}" for i in range(tasks)))
    return Dataset(graphs, labels, manifest)


def test_array_records_compare_and_hash_by_identity():
    g, twin = gen_cycle_union([3]), gen_cycle_union([3])
    records = [
        (g, twin),
        (build_khop_index(g, 2), build_khop_index(g, 2)),
        (small_dataset(), small_dataset()),
        (collate([g]), collate([g])),
        (BatchNormState.initial(4), BatchNormState.initial(4)),
    ]
    for a, b in records:
        assert a == a and a != b and a in [b, a] and b not in [a]
        assert len({a, b, a}) == 2


class TestDatasetValidation:
    def test_label_shape_must_match(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            Dataset(d.graphs, d.labels[:, :1], d.manifest)

    def test_labels_must_be_binary_or_missing(self):
        d = small_dataset()
        bad = d.labels.copy()
        bad[0, 0] = 0.5
        with pytest.raises(ValueError, match="0, 1 or missing"):
            Dataset(d.graphs, bad, d.manifest)

    def test_feature_cardinality_checked(self):
        d = small_dataset()
        tight = DatasetManifest((1, 1), (1,), d.manifest.task_names)
        with pytest.raises(ValueError, match="node field"):
            Dataset(d.graphs, d.labels, tight)


    def test_first_bad_graph_and_its_first_bad_field_are_named(self):
        d = small_dataset(n=6)
        graphs = list(d.graphs)

        def with_feats(g, node_feats=None, edge_feats=None):
            return LabeledGraph(
                g.num_nodes,
                g.node_feats if node_feats is None else node_feats,
                g.edges,
                g.edge_feats if edge_feats is None else edge_feats,
            )

        def message(graphs):
            with pytest.raises(ValueError) as info:
                Dataset(graphs, d.labels, d.manifest)
            return str(info.value)

        node_feats = graphs[4].node_feats.copy()
        node_feats[0], node_feats[-1] = [0, 3], [5, 0]  # the first row breaks field 1, a later one field 0
        graphs[4] = with_feats(graphs[4], node_feats=node_feats)
        assert message(graphs) == "graph 4: node field 0 value exceeds cardinality 3"
        graphs[5] = with_feats(graphs[5], node_feats=np.zeros((graphs[5].num_nodes, 3)))
        assert message(graphs) == "graph 4: node field 0 value exceeds cardinality 3"
        graphs[3] = with_feats(graphs[3], edge_feats=np.full((graphs[3].num_edges, 1), 2))
        assert graphs[3].num_edges and message(graphs) == "graph 3: edge field 0 value exceeds cardinality 2"
        graphs[1] = with_feats(graphs[1], edge_feats=np.zeros((graphs[1].num_edges, 2)))
        assert message(graphs) == "graph 1: expected 1 edge fields"


def assert_same_dataset(back, d, err_msg=""):
    assert back.manifest == d.manifest, err_msg
    assert len(back) == len(d), err_msg
    np.testing.assert_array_equal(np.isnan(back.labels), np.isnan(d.labels), err_msg=err_msg)
    np.testing.assert_array_equal(np.nan_to_num(back.labels), np.nan_to_num(d.labels), err_msg=err_msg)
    for a, b in zip(d.graphs, back.graphs):
        assert a.num_nodes == b.num_nodes, err_msg
        np.testing.assert_array_equal(a.node_feats, b.node_feats, err_msg=err_msg)
        np.testing.assert_array_equal(a.edges, b.edges, err_msg=err_msg)
        np.testing.assert_array_equal(a.edge_feats, b.edge_feats, err_msg=err_msg)


def header_of(path):
    with open(path) as fh:
        return json.loads(fh.readline()[2:]).get("header")


class TestSaveLoad:
    def test_round_trip_identity(self, tmp_path):
        d = small_dataset()
        path = str(tmp_path / "d.jsonl")
        save_dataset(d, path)
        assert_same_dataset(load_dataset(path), d)

    def test_dataset_of_no_graphs_round_trips(self, tmp_path):
        d = small_dataset(tasks=3)
        path = str(tmp_path / "d.jsonl")
        save_dataset(d.subset([]), path)
        back = load_dataset(path)
        assert len(back) == 0 and back.manifest == d.manifest
        assert_same_bits(back.labels, np.zeros((0, 3)))

    def test_graphs_are_views_of_shared_arrays(self, tmp_path):
        d = small_dataset(n=5)
        path = str(tmp_path / "d.jsonl")
        save_dataset(d, path)
        graphs = load_dataset(path).graphs
        for attr in ("node_feats", "edges", "edge_feats"):
            arrays = [getattr(g, attr) for g in graphs]
            assert all(a.base is not None and a.base is arrays[0].base for a in arrays), attr
            assert all(a.flags.c_contiguous and a.dtype == np.int64 for a in arrays), attr

    def test_first_bad_line_is_named(self, tmp_path):
        """Faults on several lines name the first, whichever stage finds each;
        a feature over its cardinality is named only when no line is bad."""
        d = small_dataset(n=6)
        path = str(tmp_path / "d.jsonl")
        save_dataset(d, path)
        good = open(path).read().splitlines(keepends=True)
        lines = list(good)

        def edit(lineno, change):
            record = json.loads(lines[lineno - 1])
            change(record)
            lines[lineno - 1] = json.dumps(record) + "\n"

        edge = json.loads(good[2])["edges"][0]
        edit(2, lambda r: r["nodes"][0].__setitem__(0, 3))  # over the cardinality
        edit(3, lambda r: r["edges"].append([edge[1], edge[0], edge[2]]))  # duplicate: the whole-file check
        edit(5, lambda r: r["nodes"][0].__setitem__(0, 0.5))  # not an integer: found while parsing
        edit(6, lambda r: r["labels"].append(0))
        for first in (3, 5, 6):
            open(path, "w").write("".join(lines))
            with pytest.raises(ValueError, match=f"^{re.escape(path)}:{first}: "):
                load_dataset(path)
            lines[first - 1] = good[first - 1]
        open(path, "w").write("".join(lines))
        with pytest.raises(ValueError, match=f"^dataset {re.escape(path)}: graph 0: node field 0 value exceeds cardinality 3$"):
            load_dataset(path)

    def test_missing_labels_survive(self, tmp_path):
        d = small_dataset()
        assert np.isnan(d.labels).any()
        path = str(tmp_path / "d.jsonl")
        save_dataset(d, path)
        assert np.isnan(load_dataset(path).labels).sum() == np.isnan(d.labels).sum()

    def test_malformed_record_reports_line(self, tmp_path):
        d = small_dataset(n=3)
        path = str(tmp_path / "d.jsonl")
        save_dataset(d, path)
        lines = open(path).read().splitlines()
        lines[1] = '{"nodes": [[0, 0]], "edges": "oops"}'
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(path)

    def test_cardinality_violation_names_field(self, tmp_path):
        d = small_dataset(n=2)
        path = str(tmp_path / "d.jsonl")
        save_dataset(d, path)
        edit_manifest(path, lambda manifest: manifest.update(node_field_cardinalities=[1, 1]))
        with pytest.raises(ValueError, match="node field") as info:
            load_dataset(path)
        assert str(info.value).startswith(f"dataset {path}: graph 0: ")

    def test_failed_write_keeps_the_previous_files(self, tmp_path, fill_disk):
        """A save that fails at any one of its writes leaves the previous
        dataset whole: its records with its own header, byte for byte."""
        path = str(tmp_path / "d.jsonl")
        old, new = small_dataset(n=6), small_dataset(n=9, seed=1)
        save_dataset(old, path, header={"run": "A"})
        before = {name: open(tmp_path / name, "rb").read() for name in os.listdir(tmp_path)}
        k = 1
        while True:
            fill_disk(k)
            try:
                save_dataset(new, path, header={"run": "B"})
            except OSError as exc:
                assert "No space left" in str(exc)
                assert_same_dataset(load_dataset(path), old, err_msg=f"write {k} failed")
                assert header_of(path) == {"run": "A"}, f"write {k} failed"
                assert {name: open(tmp_path / name, "rb").read() for name in os.listdir(tmp_path)} == before
                k += 1
            else:
                break
        assert k > 2  # failures came at the manifest and at a record
        assert_same_dataset(load_dataset(path), new)
        assert header_of(path) == {"run": "B"}

    def test_header_is_written_once_in_the_manifest_line(self, tmp_path):
        d = small_dataset(n=2)
        path = str(tmp_path / "d.jsonl")
        save_dataset(d, path, header={"command": "gen"})
        lines = open(path).read().splitlines()
        assert lines[0].startswith("# ") and header_of(path) == {"command": "gen"}
        assert len(lines) == 3 and not any(line.startswith("#") for line in lines[1:])
        assert len(load_dataset(path)) == 2
        save_dataset(d, path)
        assert header_of(path) is None and len(load_dataset(path)) == 2

    @pytest.mark.parametrize("first", [b"", b"\n", b'{"nodes": [], "edges": [], "labels": [0, 1]}\n', b"#{}\n"])
    def test_line_one_that_is_not_a_manifest_line_is_rejected(self, tmp_path, first):
        path = str(tmp_path / "d.jsonl")
        save_dataset(small_dataset(n=2), path)
        records = open(path, "rb").read().split(b"\n", 1)[1]
        open(path, "wb").write(first + records)
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"dataset {path}: line 1 is not a dataset manifest"


class TestRandomSplit:
    def test_sizes_80_10_10(self):
        d = gen_synthetic_dataset("random-multitask", 100, seed=0)
        tr, va, te = random_split(d, (0.8, 0.1, 0.1), seed=1)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)

    def test_union_is_original_multiset(self):
        d = small_dataset(n=11)
        tr, va, te = random_split(d, (0.5, 0.25, 0.25), seed=2)
        assert collections.Counter(tr.graphs + va.graphs + te.graphs) == collections.Counter(d.graphs)

    def test_same_seed_same_split(self):
        d = small_dataset(n=20)
        a = random_split(d, seed=3)
        b = random_split(d, seed=3)
        for x, y in zip(a, b):
            assert x.graphs == y.graphs

    @pytest.mark.parametrize("fractions", [(math.nan, 0.1, 0.1), (0.8, math.nan, 0.1), (0.8, 0.1, math.nan)])
    def test_nan_fraction_rejected(self, fractions):
        with pytest.raises(ValueError, match="fractions must be positive and sum to 1"):
            random_split(small_dataset(n=30), fractions)

    def test_exact_partition_many_trials(self):
        d = small_dataset(n=17)
        rng = np.random.default_rng(4)
        for trial in range(1000):
            f = rng.dirichlet([3, 1, 1])
            # guard against zero-ish fractions the contract rejects
            f = (f + 0.02) / (1.0 + 0.06)
            tr, va, te = random_split(d, (float(f[0]), float(f[1]), float(f[2])), seed=trial)
            assert len(tr) + len(va) + len(te) == 17
            assert len(va) == int(f[1] * 17) and len(te) == int(f[2] * 17)

    def test_parts_are_not_checked_again(self, monkeypatch):
        d = gen_synthetic_dataset("random-multitask", 200, seed=0)
        calls = []
        monkeypatch.setattr(data_mod, "_check_features", lambda *args: calls.append(args))
        parts = random_split(d, seed=5)
        assert calls == []
        for part in parts:
            rows = [next(i for i, g in enumerate(d.graphs) if g is h) for h in part.graphs]
            assert part.manifest is d.manifest
            np.testing.assert_array_equal(part.labels, d.labels[rows])
        assert d.subset([]).labels.shape == (0, d.manifest.num_tasks)

    def test_too_small_dataset_rejected(self):
        d = small_dataset(n=2)
        with pytest.raises(ValueError):
            random_split(d)

    def test_bad_fractions_rejected(self):
        d = small_dataset(n=10)
        with pytest.raises(ValueError):
            random_split(d, (0.5, 0.5, 0.5))


class TestCombine:
    def test_counts_and_missing_fill(self):
        a = small_dataset(n=2, tasks=1, seed=1)
        b = small_dataset(n=3, tasks=2, seed=2)
        out = combine_datasets(a, b)
        assert len(out) == 5
        assert out.manifest.task_names == a.manifest.task_names + b.manifest.task_names
        assert np.isnan(out.labels[:2, 1:]).all()
        assert np.isnan(out.labels[2:, :1]).all()

    def test_label_mass_conserved(self):
        a = small_dataset(n=4, tasks=2, seed=3)
        b = small_dataset(n=5, tasks=3, seed=4)
        out = combine_datasets(a, b)
        observed = (~np.isnan(out.labels)).sum()
        assert observed == (~np.isnan(a.labels)).sum() + (~np.isnan(b.labels)).sum()
        assert (out.labels == 1).sum() == (a.labels == 1).sum() + (b.labels == 1).sum()

    def test_combine_with_empty(self):
        a = small_dataset(n=3, tasks=2, seed=5)
        empty = Dataset([], np.zeros((0, 1)), DatasetManifest((3, 3), (2,), ("extra",)))
        out = combine_datasets(a, empty)
        assert len(out) == 3
        np.testing.assert_array_equal(np.nan_to_num(out.labels[:, :2]), np.nan_to_num(a.labels))
        assert np.isnan(out.labels[:, 2]).all()

    def test_associative_up_to_task_order(self):
        a = small_dataset(n=2, tasks=1, seed=6)
        b = small_dataset(n=2, tasks=2, seed=7)
        c = small_dataset(n=2, tasks=1, seed=8)
        left = combine_datasets(combine_datasets(a, b), c)
        right = combine_datasets(a, combine_datasets(b, c))
        assert left.manifest.task_names == right.manifest.task_names
        np.testing.assert_array_equal(np.isnan(left.labels), np.isnan(right.labels))

    def test_manifest_mismatch_rejected(self):
        a = small_dataset(n=2)
        bad = Dataset([], np.zeros((0, 1)), DatasetManifest((9, 9), (9,), ("x",)))
        with pytest.raises(ValueError, match="manifest"):
            combine_datasets(a, bad)


class TestCollate:
    def test_batch_of_one_keeps_ids(self):
        d = small_dataset(n=1)
        g = d.graphs[0]
        batch = collate([g], k_max=2)
        assert batch.num_graphs == 1 and batch.node_feats.shape[0] == g.num_nodes
        np.testing.assert_array_equal(batch.node_feats, g.node_feats)
        np.testing.assert_array_equal(batch.graph_ids.ids, np.zeros(g.num_nodes))

    def test_totals_are_sums(self):
        d = small_dataset(n=5)
        batch = collate(d.graphs)
        assert batch.node_feats.shape[0] == sum(g.num_nodes for g in d.graphs)
        assert batch.arc_src.ids.size == 2 * sum(g.num_edges for g in d.graphs)

    def test_khop_never_crosses_graphs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = small_dataset(n=int(rng.integers(2, 6)), seed=int(rng.integers(100)))
            batch = collate(d.graphs, k_max=3)
            bounds = np.concatenate([[0], np.cumsum(np.bincount(batch.graph_ids.ids))])
            index = ((batch.arc_dst, batch.arc_src),) + batch.shells  # distance 1 is the arcs
            for k in range(1, 4):
                dst, src = (plan.ids for plan in index[k - 1])
                for a, b in zip(dst, src):
                    ga = int(batch.graph_ids.ids[a])
                    assert bounds[ga] <= b < bounds[ga + 1]

    def test_khop_matches_per_graph_index(self):
        d = small_dataset(n=4, seed=11)
        batch = collate(d.graphs, k_max=3)
        # the shells start at distance 2, so this index's k - 1 is distance k
        khop = KHopIndex(tuple((dst.ids, src.ids) for dst, src in batch.shells))
        offset = 0
        for g in d.graphs:
            local = build_khop_index(g, 3)
            for i in range(g.num_nodes):
                arcs = batch.arc_src.ids[batch.arc_dst.ids == offset + i] - offset
                assert sorted(arcs.tolist()) == local.neighbors(i, 1)
                for k in range(2, 4):
                    got = [v - offset for v in khop.neighbors(offset + i, k - 1)]
                    assert got == local.neighbors(i, k)
            offset += g.num_nodes

    def test_collate_leaves_deep_enough_memos_untouched(self):
        d = small_dataset(n=6, seed=12)
        for g in d.graphs[::2]:
            build_khop_index(g, 3)
        for g in d.graphs[1::2]:
            build_khop_index(g, 2)
        memos = [g._khop_pairs for g in d.graphs]  # tuples: the same tuple holds the same arrays
        collate(d.graphs, k_max=2)  # every memo reaches 2
        for g, memo in zip(d.graphs, memos):
            assert g._khop_pairs is memo
        collate(d.graphs, k_max=3)  # only the depth-2 memos are rebuilt
        for g, memo in zip(d.graphs[::2], memos[::2]):
            assert g._khop_pairs is memo
        for g in d.graphs[1::2]:
            assert len(g._khop_pairs) == 3

    def test_edgeless_batch_has_empty_typed_arcs_and_shells(self):
        graphs = [
            LabeledGraph(num_nodes=n, node_feats=np.zeros((n, 2)), edges=np.zeros((0, 2)), edge_feats=np.zeros((0, 3)))
            for n in (1, 4, 2)
        ]
        batch = collate(graphs, k_max=3)
        assert batch.arc_edge_feats.shape == (0, 3)
        for plan in (batch.arc_src, batch.arc_dst):
            assert plan.ids.shape == (0,) and plan.ids.dtype == np.int64
        assert len(batch.shells) == 2
        for dst, src in batch.shells:
            for plan in (dst, src):
                assert plan.ids.shape == (0,) and plan.ids.dtype == np.int64

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            collate([])


def _plans(batch):
    """Every index-set plan of a batch, by name."""
    plans = {"graph_ids": batch.graph_ids, "arc_dst": batch.arc_dst, "arc_src": batch.arc_src}
    for k, (dst, src) in enumerate(batch.shells, start=2):
        plans[f"shell{k}.dst"], plans[f"shell{k}.src"] = dst, src
    return plans


class TestBatchPlans:
    """Planned sums over collated index sets against the _scatter_add oracle."""

    @staticmethod
    def random_graph(rng):
        n = int(rng.integers(1, 9))  # single-node graphs included
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))  # edgeless graphs included
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [pairs[i] for i in rng.choice(len(pairs), m, replace=False)] if m else []
        return LabeledGraph(
            num_nodes=n,
            node_feats=np.zeros((n, 1)),
            edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            edge_feats=np.zeros((m, 1)),
        )

    def test_sums_and_gather_gradients_match_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            graphs = [self.random_graph(rng) for _ in range(int(rng.integers(1, 12)))]
            batch = collate(graphs, k_max=3)
            for name, plan in _plans(batch).items():
                values = rng.normal(size=(plan.ids.size, 5)).astype(np.float32)
                want = _scatter_add(plan.ids, values, plan.n)
                assert_same_bits(segment_sum(Tensor(values), plan).data, want, err_msg=name)
                x = Tensor(rng.normal(size=(plan.n, 5)).astype(np.float32), requires_grad=True)
                backward(tsum(mul(gather_rows(x, plan), Tensor(values))))
                assert_same_bits(x.grad, want, err_msg=name)

    def test_hub_and_large_graph_sum_exactly(self):
        rng = np.random.default_rng(14)
        leaves = np.arange(1, 1001)
        star = LabeledGraph(
            num_nodes=1001,
            node_feats=np.zeros((1001, 1)),
            edges=np.stack([np.zeros_like(leaves), leaves], axis=1),
            edge_feats=np.zeros((1000, 1)),
        )
        for graph in (star, gen_cycle_union([1000])):
            batch = collate([graph, self.random_graph(rng)], k_max=2)
            for name, plan in _plans(batch).items():
                values = rng.normal(size=(plan.ids.size, 5)).astype(np.float32)
                want = _scatter_add(plan.ids, values, plan.n)
                assert_same_bits(segment_sum(Tensor(values), plan).data, want, err_msg=name)
                x = Tensor(rng.normal(size=(plan.n, 5)).astype(np.float32), requires_grad=True)
                backward(tsum(mul(gather_rows(x, plan), Tensor(values))))
                assert_same_bits(x.grad, want, err_msg=name)

    def test_degree_two_cycle_unions_sum_exactly(self):
        rng = np.random.default_rng(13)
        graphs = [gen_cycle_union(rng.integers(3, 9, size=int(rng.integers(1, 4)))) for _ in range(16)]
        batch = collate(graphs, k_max=3)
        for name, plan in _plans(batch).items():
            assert name == "graph_ids" or np.bincount(plan.ids).max() <= 2
            values = rng.normal(size=(plan.ids.size, 7)).astype(np.float32)
            assert_same_bits(plan.sum(values), _scatter_add(plan.ids, values, plan.n), err_msg=name)

    def test_isolated_nodes_and_empty_shells_sum_to_zero(self):
        g = LabeledGraph(num_nodes=4, node_feats=np.zeros((4, 1)), edges=np.asarray([[0, 1]]), edge_feats=np.zeros((1, 1)))
        batch = collate([g, g], k_max=2)
        for name, plan in _plans(batch).items():
            out = plan.sum(np.ones((plan.ids.size, 2), dtype=np.float32))
            np.testing.assert_array_equal(out[:, 0], np.bincount(plan.ids, minlength=plan.n), err_msg=name)
        assert len(batch.shells) == 1 and batch.shells[0][0].ids.size == 0


class TestLoadAgainstReference:
    """Whole-file loading against the per-record reference loader, on
    seeded mutations of a small file: the same dataset, or the same error."""

    TRIALS = 400

    @staticmethod
    def outcome(load, path):
        try:
            return "loaded", load(path)
        except ValueError as exc:
            return "error", str(exc)

    def test_same_dataset_or_same_error(self, tmp_path):
        rng = random.Random(18)
        path = str(tmp_path / "d.jsonl")
        seen = collections.Counter()
        for trial in range(self.TRIALS):
            four_line, cut = make_file(rng, path)
            kind, want = self.outcome(reference_load_dataset, path)
            got_kind, got = self.outcome(load_dataset, path)
            context = f"trial {trial}: {open(path, 'rb').read()!r}"
            named = re.match(rf"{re.escape(path)}:(\d+): ", want) if kind == "error" else None
            want_line = int(named.group(1)) if named else None
            if four_line is not None and (want_line is None or want_line >= four_line):
                # the reference loads this edge, or names its line or a later one: whole-file loading rejects
                # the edge before it checks anything else on that line
                assert got == f"{path}:{four_line}: malformed record: an edge must be [u, v, [edge features]]", context
                seen["four-entry edge"] += 1
            elif kind == "error" and "cannot reshape array of size 0 into shape (0,newaxis)" in want:
                # a file with no records is a dataset of no graphs
                assert got_kind == "loaded" and len(got) == 0, context
                assert_same_bits(got.labels, np.zeros((0, 2)), err_msg=context)
                seen["no records"] += 1
            elif kind == "error":
                assert got == want, context
                seen["line error" if want_line else "file error"] += 1
            else:
                assert got_kind == "loaded", (context, got)
                manifest, graphs, labels = want
                assert got.manifest == manifest and len(got.graphs) == len(graphs), context
                assert_same_bits(got.labels, labels, err_msg=context)
                for g, (n, node_feats, edges, edge_feats) in zip(got.graphs, graphs):
                    assert g.num_nodes == n, context
                    for a, b in ((g.node_feats, node_feats), (g.edges, edges), (g.edge_feats, edge_feats)):
                        assert_same_bits(a, b, err_msg=context)
                seen["loaded"] += 1
            seen["cut"] += cut
        # every kind of outcome came up often enough to mean something
        assert min(seen[k] for k in ("loaded", "line error", "file error", "four-entry edge", "no records", "cut")) >= 3, seen
