import contextlib
import dataclasses
import itertools
import weakref

import numpy as np
import pytest
from conftest import permute_graph, plain, random_graph, reference_model_forward

import cyclegnn.nn as nn_mod
from cyclegnn import cli
from cyclegnn.data import collate, save_dataset
from cyclegnn.graph import LabeledGraph, bfs_distances
from cyclegnn.nn import (
    CONV_GINE,
    CONV_GINE_PLUS,
    CONV_NAIVE_GINE_PLUS,
    CONV_TYPES,
    LayerParams,
    LinearParams,
    MlpParams,
    ModelConfig,
    NormParams,
    forward_node_embeddings,
    gcn_conv,
    gine_conv,
    gineplus_conv,
    graph_embeddings,
    init_params,
    mlp_forward,
    model_forward,
    naive_gineplus_conv,
    named_parameters,
    norm_states,
    param_count,
    parameters,
    virtual_node_update,
)
from cyclegnn.synth import gen_cycle_union, gen_synthetic_dataset, random_tree
from cyclegnn.tensor import (
    _COLUMN_LIMIT,
    EVAL,
    TRAIN,
    BatchNormState,
    Tensor,
    bce_with_logits_masked,
    gradcheck,
    no_grad,
    segment_mean,
    tsum,
)


def make_config(conv="gine", **kw):
    defaults = dict(
        conv_type=conv,
        node_field_cards=(3,),
        edge_field_cards=(2,),
        num_tasks=2,
        hidden=8,
        num_layers=2,
        radius=1,
        virtual_node=False,
        dropout=0.0,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def features_graph(rng, n, edges, node_cards=(3,), edge_cards=(2,)):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return LabeledGraph(
        num_nodes=n,
        node_feats=np.stack([rng.integers(0, c, n) for c in node_cards], axis=1),
        edges=edges,
        edge_feats=np.stack([rng.integers(0, c, edges.shape[0]) for c in edge_cards], axis=1),
    )


def t64(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def identity_mlp(h: int) -> MlpParams:
    """MLP that maps non-negative inputs through unchanged.

    lin_in embeds x as [x, 0]; the norm is parked at running stats that make
    eval normalization the exact identity; lin_out projects back.
    """
    w_in = np.zeros((h, 2 * h))
    w_in[:, :h] = np.eye(h)
    w_out = np.zeros((2 * h, h))
    w_out[:h, :] = np.eye(h)
    state = BatchNormState(np.zeros(2 * h), np.full(2 * h, 1.0 - 1e-5))
    return MlpParams(
        lin_in=LinearParams(t64(w_in), t64(np.zeros(2 * h))),
        norm=NormParams(t64(np.ones(2 * h)), t64(np.zeros(2 * h)), state),
        lin_out=LinearParams(t64(w_out), t64(np.zeros(h))),
    )


def dummy_norm(h: int) -> NormParams:
    return NormParams(t64(np.ones(h)), t64(np.zeros(h)), BatchNormState.initial(h, np.float64))


def gin_layer(h: int, eps_vectors: int, edge_card: int = 1) -> LayerParams:
    return LayerParams(
        edge_tables=[t64(np.zeros((edge_card, h)))],
        norm=dummy_norm(h),
        mlp=identity_mlp(h),
        eps=[t64(np.zeros(h)) for _ in range(eps_vectors)],
    )


class TestMlp:
    def test_eval_deterministic(self):
        cfg = make_config()
        params = init_params(cfg, 0, dtype=np.float64)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
        a = mlp_forward(params.layers[0].mlp, x, EVAL, 0.0, None).data
        b = mlp_forward(params.layers[0].mlp, x, EVAL, 0.0, None).data
        np.testing.assert_array_equal(a, b)

    def test_zero_weights_give_final_bias(self):
        h = 4
        mlp = identity_mlp(h)
        mlp.lin_in.weight.data[...] = 0.0
        mlp.lin_out.weight.data[...] = 0.0
        mlp.lin_out.bias.data[...] = 2.5
        out = mlp_forward(mlp, t64(np.random.default_rng(1).normal(size=(3, h))), EVAL, 0.0, None)
        np.testing.assert_allclose(out.data, np.full((3, h), 2.5))

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        cfg = make_config(hidden=4)
        params = init_params(cfg, 3, dtype=np.float64)
        mlp = params.layers[0].mlp
        x = t64(rng.normal(size=(5, 4)), grad=True)
        tracked = [x, mlp.lin_in.weight, mlp.lin_in.bias, mlp.norm.gamma, mlp.norm.beta,
                   mlp.lin_out.weight, mlp.lin_out.bias]
        err = gradcheck(lambda: tsum(mlp_forward(mlp, x, EVAL, 0.0, None) ** 2.0), tracked)
        assert err < 1e-4


class TestGineConv:
    def test_isolated_node_sees_only_itself(self):
        layer = gin_layer(2, eps_vectors=1)
        batch = collate([plain(1, [])])
        h = t64([[1.5, 2.0]])
        out = gine_conv(layer, h, batch, EVAL)
        np.testing.assert_allclose(out.data, [[1.5, 2.0]])  # (1+0)h + empty sum, identity MLP

    def test_single_edge_hand_value(self):
        # h0=[1,0], h1=[-2,3], eps=0, E=0: out_0 = h0 + relu(h1) = [1,3]
        layer = gin_layer(2, eps_vectors=1)
        batch = collate([plain(2, [(0, 1)])])
        h = t64([[1.0, 0.0], [-2.0, 3.0]])
        out = gine_conv(layer, h, batch, EVAL)
        np.testing.assert_allclose(out.data[0], [1.0, 3.0])

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        cfg = make_config("gine", num_layers=1)
        params = init_params(cfg, 4, dtype=np.float64)
        g = features_graph(rng, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
        perm = rng.permutation(6)
        h = rng.normal(size=(6, 8))
        out = gine_conv(params.layers[0], t64(h), collate([g]), EVAL).data
        out_p = gine_conv(
            params.layers[0], t64(h[np.argsort(perm)]), collate([permute_graph(g, perm)]), EVAL
        ).data
        np.testing.assert_allclose(out_p, out[np.argsort(perm)], atol=1e-10)


class TestGcnConv:
    def test_isolated_node_is_linear_map(self):
        cfg = make_config("gcn", num_layers=1, node_field_cards=(1,), edge_field_cards=(1,))
        params = init_params(cfg, 5, dtype=np.float64)
        layer = params.layers[0]
        batch = collate([plain(1, [])])
        h = np.random.default_rng(4).normal(size=(1, 8))
        out = gcn_conv(layer, t64(h), batch)
        expected = h @ layer.lin.weight.data + layer.lin.bias.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_two_isolated_nodes_equal_features_equal_outputs(self):
        cfg = make_config("gcn", num_layers=1, node_field_cards=(1,), edge_field_cards=(1,))
        params = init_params(cfg, 6, dtype=np.float64)
        batch = collate([plain(2, [])])
        h = t64(np.tile([[0.3, -1.0, 0.2, 0.4, 1.1, -0.5, 0.0, 2.0]], (2, 1)))
        out = gcn_conv(params.layers[0], h, batch).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        cfg = make_config("gcn", num_layers=1)
        params = init_params(cfg, 8, dtype=np.float64)
        g = features_graph(rng, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        perm = rng.permutation(5)
        h = rng.normal(size=(5, 8))
        out = gcn_conv(params.layers[0], t64(h), collate([g])).data
        out_p = gcn_conv(params.layers[0], t64(h[np.argsort(perm)]), collate([permute_graph(g, perm)])).data
        np.testing.assert_allclose(out_p, out[np.argsort(perm)], atol=1e-10)


class TestWideConvs:
    def test_layer_one_clamps_to_one_hop(self):
        # with history [h0] only the k=0 and k=1 terms exist, so radius 3 == radius 1
        g = gen_cycle_union([6])
        batch = collate([g], k_max=3)
        h0 = t64(np.random.default_rng(8).normal(size=(6, 2)))
        wide = gin_layer(2, eps_vectors=4)
        narrow = gin_layer(2, eps_vectors=2)
        a = gineplus_conv(wide, [h0], batch, EVAL).data
        b = gineplus_conv(narrow, [h0], batch, EVAL).data
        np.testing.assert_array_equal(a, b)

    def test_radius_one_trio_bit_identical(self):
        g = gen_cycle_union([3, 4])
        batch = collate([g], k_max=1)
        h0 = t64(np.random.default_rng(9).normal(size=(7, 2)))
        layer2 = gin_layer(2, eps_vectors=2)
        layer1 = LayerParams(
            edge_tables=layer2.edge_tables, norm=layer2.norm, mlp=layer2.mlp, eps=layer2.eps[:1]
        )
        out_gine = gine_conv(layer1, h0, batch, EVAL).data
        out_plus = gineplus_conv(layer2, [h0], batch, EVAL).data
        out_naive = naive_gineplus_conv(layer2, [h0], batch, EVAL).data
        np.testing.assert_array_equal(out_gine, out_plus)
        np.testing.assert_array_equal(out_plus, out_naive)

    def test_empty_second_shell_contributes_nothing(self):
        c3 = gen_cycle_union([3])
        batch = collate([c3], k_max=2)
        h0 = t64(np.abs(np.random.default_rng(10).normal(size=(3, 2))))
        out_k2 = naive_gineplus_conv(gin_layer(2, 3), [h0], batch, EVAL).data
        out_k1 = naive_gineplus_conv(gin_layer(2, 2), [h0], batch, EVAL).data
        np.testing.assert_array_equal(out_k2, out_k1)

    def test_naive_hand_sum_on_path(self):
        # path 0-1-2, all eps 0, non-negative h, identity MLP, E = 0:
        # out_0 = h0 + (h1) + (h2)   [k=1 and k=2 shells]
        batch = collate([plain(3, [(0, 1), (1, 2)])], k_max=2)
        h0 = t64([[1.0, 2.0], [4.0, 0.5], [0.25, 3.0]])
        out = naive_gineplus_conv(gin_layer(2, 3), [h0], batch, EVAL).data
        np.testing.assert_allclose(out[0], [1.0 + 4.0 + 0.25, 2.0 + 0.5 + 3.0])
        np.testing.assert_allclose(out[1], [4.0 + 1.25, 0.5 + 5.0])

    def test_gineplus_reads_older_layers(self):
        # layer 2 on C6 vs C3+C3: k=2 sum is empty for triangles, non-empty for C6
        wide = gin_layer(2, eps_vectors=3)
        h_prev = t64(np.ones((6, 2)))
        h0 = t64(np.full((6, 2), 0.5))
        out = {}
        for name, g in (("c6", gen_cycle_union([6])), ("c33", gen_cycle_union([3, 3]))):
            batch = collate([g], k_max=2)
            out[name] = gineplus_conv(wide, [h0, h_prev], batch, EVAL).data
        # identical 1-hop environments, so the gap is exactly the k=2 shell sum
        np.testing.assert_allclose(out["c6"] - out["c33"], np.full((6, 2), 1.0))

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("conv", [CONV_GINE, CONV_NAIVE_GINE_PLUS, CONV_GINE_PLUS])
    def test_no_scaled_term_is_alive_when_the_mlp_runs(self, conv, taped, monkeypatch):
        # the (1+eps_k)-scaled terms are the conv's mul outputs; no gradient reads them once summed
        terms, alive = [], []
        mul, mlp = nn_mod.mul, nn_mod.mlp_forward

        def mul_spy(a, b):
            out = mul(a, b)
            terms.append(weakref.ref(out.data))
            return out

        def mlp_spy(*args, **kwargs):
            alive.append((len(terms), sum(ref() is not None for ref in terms)))
            terms.clear()
            return mlp(*args, **kwargs)

        monkeypatch.setattr(nn_mod, "mul", mul_spy)
        monkeypatch.setattr(nn_mod, "mlp_forward", mlp_spy)
        cfg = make_config(conv, num_layers=3, radius=3)
        params = init_params(cfg, 0)
        batch = collate([gen_cycle_union([3, 6])], k_max=3)
        with contextlib.nullcontext() if taped else no_grad():
            out = model_forward(cfg, params, batch, EVAL)
        assert out.requires_grad == taped
        scaled = {CONV_GINE: [1, 1, 1], CONV_NAIVE_GINE_PLUS: [4, 4, 4], CONV_GINE_PLUS: [2, 3, 4]}[conv]
        assert alive == [(n, 0) for n in scaled]

    def test_missing_khop_index_rejected(self):
        batch = collate([gen_cycle_union([6])], k_max=1)
        h0 = t64(np.ones((6, 2)))
        with pytest.raises(ValueError, match="neighbor index"):
            gineplus_conv(gin_layer(2, eps_vectors=3), [h0], batch, EVAL)

    def test_empty_history_rejected(self):
        batch = collate([gen_cycle_union([3])], k_max=2)
        with pytest.raises(ValueError, match="history"):
            gineplus_conv(gin_layer(2, 3), [], batch, EVAL)


class TestVirtualNode:
    def vn_params(self, h, seed=0):
        cfg = make_config("gine", hidden=h, virtual_node=True)
        return init_params(cfg, seed, dtype=np.float64).layers[0].vn

    def test_state_update_and_broadcast(self):
        vn = self.vn_params(8)
        g = plain(3, [(0, 1)])
        batch = collate([g])
        h_hat = t64(np.random.default_rng(11).normal(size=(3, 8)))
        state = t64(np.zeros((1, 8)))
        h_new, state_new = virtual_node_update(vn, h_hat, state, batch, EVAL)
        pooled = h_hat.data.sum(axis=0, keepdims=True)
        expected_state = mlp_forward(vn.mlp, t64(pooled), EVAL, 0.0, None).data
        np.testing.assert_allclose(state_new.data, expected_state, atol=1e-12)
        np.testing.assert_allclose(h_new.data, h_hat.data + expected_state, atol=1e-12)

    def test_graphs_do_not_mix(self):
        vn = self.vn_params(4, seed=1)
        batch = collate([plain(2, [(0, 1)]), plain(3, [(0, 2)])])
        rng = np.random.default_rng(12)
        base = rng.normal(size=(5, 4))
        bumped = base.copy()
        bumped[0] += 10.0  # perturb graph A only
        out_a, _ = virtual_node_update(vn, t64(base), t64(np.zeros((2, 4))), batch, EVAL)
        out_b, _ = virtual_node_update(vn, t64(bumped), t64(np.zeros((2, 4))), batch, EVAL)
        np.testing.assert_array_equal(out_a.data[2:], out_b.data[2:])
        assert not np.array_equal(out_a.data[:2], out_b.data[:2])

    def test_state_invariant_to_node_order(self):
        vn = self.vn_params(4, seed=2)
        batch = collate([plain(3, [])])
        rng = np.random.default_rng(13)
        h = rng.normal(size=(3, 4))
        state0 = t64(rng.normal(size=(1, 4)))
        _, s_a = virtual_node_update(vn, t64(h), state0, batch, EVAL)
        _, s_b = virtual_node_update(vn, t64(h[[2, 0, 1]]), state0, batch, EVAL)
        np.testing.assert_allclose(s_a.data, s_b.data, atol=1e-12)


class TestModelForward:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    @pytest.mark.parametrize("virtual_node", [False, True])
    def test_node_permutation_invariance(self, conv, virtual_node):
        rng = np.random.default_rng(14)
        cfg = make_config(conv, radius=2, num_layers=2, virtual_node=virtual_node)
        params = init_params(cfg, 15, dtype=np.float64)
        g = features_graph(rng, 7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)])
        logits = model_forward(cfg, params, collate([g], 2), EVAL).data
        for _ in range(3):
            perm = rng.permutation(7)
            logits_p = model_forward(
                cfg, params, collate([permute_graph(g, perm)], 2), EVAL
            ).data
            np.testing.assert_allclose(logits_p, logits, atol=1e-5)

    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_batching_transparency(self, conv):
        rng = np.random.default_rng(16)
        cfg = make_config(conv, radius=2, num_layers=2)
        params = init_params(cfg, 17, dtype=np.float64)
        sizes = [int(rng.integers(3, 7)) for _ in range(3)]
        graphs = [features_graph(rng, n, [(i, i + 1) for i in range(n - 1)]) for n in sizes]
        batched = model_forward(cfg, params, collate(graphs, 2), EVAL).data
        singles = np.vstack(
            [model_forward(cfg, params, collate([g], 2), EVAL).data for g in graphs]
        )
        np.testing.assert_allclose(batched, singles, atol=1e-5)

    def test_gine_blind_to_cycle_split(self):
        cfg = make_config("gine", node_field_cards=(1,), edge_field_cards=(1,), num_layers=3)
        params = init_params(cfg, 18, dtype=np.float64)
        a = model_forward(cfg, params, collate([gen_cycle_union([3, 3])]), EVAL).data
        b = model_forward(cfg, params, collate([gen_cycle_union([6])]), EVAL).data
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_gineplus_separates_cycle_split(self):
        hits = 0
        for seed in range(3):
            cfg = make_config(
                "gine+", node_field_cards=(1,), edge_field_cards=(1,), radius=2, num_layers=2
            )
            params = init_params(cfg, seed, dtype=np.float64)
            a = model_forward(cfg, params, collate([gen_cycle_union([3, 3])], 2), EVAL).data
            b = model_forward(cfg, params, collate([gen_cycle_union([6])], 2), EVAL).data
            hits += float(np.linalg.norm(a - b)) > 1e-3
        assert hits == 3

    def test_cardinality_mismatch_rejected(self):
        cfg = make_config("gine", node_field_cards=(2,))
        params = init_params(cfg, 19)
        rng = np.random.default_rng(20)
        g = features_graph(rng, 4, [(0, 1)], node_cards=(3,))
        g.node_feats[0, 0] = 2  # exceeds configured cardinality 2
        with pytest.raises(ValueError, match="cardinality"):
            model_forward(cfg, params, collate([g]), EVAL)

    def test_config_takes_numpy_integers_and_rejects_other_numbers(self):
        cfg = make_config("gine", hidden=np.int64(8), node_field_cards=[np.int32(3)])
        assert cfg.hidden == 8 and cfg.node_field_cards == (3,)
        for field, value in [("hidden", 8.0), ("radius", True), ("num_tasks", np.bool_(True)), ("edge_field_cards", (2.0,)), ("virtual_node", 0)]:
            with pytest.raises(ValueError, match=field):
                make_config("gine", **{field: value})

    def test_train_with_dropout_needs_rng(self):
        cfg = make_config("gine", dropout=0.5)
        params = init_params(cfg, 21)
        with pytest.raises(ValueError, match="rng"):
            model_forward(cfg, params, collate([plain(2, [(0, 1)])]), TRAIN)

    @pytest.mark.parametrize(
        "fault", ["node_field_count", "edge_field_count", "node_value", "edge_value", "khop_depth"]
    )
    def test_bad_batch_rejected_before_batchnorm_state_changes(self, fault):
        wide = fault == "khop_depth"
        cfg = make_config("gine+" if wide else "gine", radius=3 if wide else 1)  # cards (3,), (2,)
        params = init_params(cfg, 23)
        node_cards = (3, 3) if fault == "node_field_count" else (3,)
        edge_cards = (2, 2) if fault == "edge_field_count" else (2,)
        ring = [(i, (i + 1) % 6) for i in range(6)]
        g = features_graph(np.random.default_rng(24), 6, ring, node_cards, edge_cards)
        if fault == "node_value":
            g.node_feats[2, 0] = 3
        if fault == "edge_value":
            g.edge_feats[4, 0] = 2
        batch = collate([g], k_max=2 if wide else 1)
        before = [(s.running_mean.copy(), s.running_var.copy()) for s in norm_states(params)]
        with pytest.raises(ValueError):
            model_forward(cfg, params, batch, TRAIN)
        for (mean, var), state in zip(before, norm_states(params)):
            np.testing.assert_array_equal(state.running_mean, mean)
            np.testing.assert_array_equal(state.running_var, var)


class TestGraphEmbeddings:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_untaped_pooled_eval_embeddings_are_the_classifier_input(self, conv, monkeypatch):
        rng = np.random.default_rng(41)
        cfg = make_config(conv, radius=2, num_layers=2, virtual_node=True)
        params = init_params(cfg, 42, dtype=np.float64)
        graphs = [features_graph(rng, n, random_graph(rng, n).edges) for n in (3, 7, 5)]
        batch = collate(graphs, cfg.required_radius)
        want = segment_mean(forward_node_embeddings(cfg, params, batch, EVAL)[-1], batch.graph_ids)
        assert want.requires_grad  # taped outside graph_embeddings
        pooled, fed, linear = [], [], nn_mod.linear

        def mean_spy(values, plan):
            pooled.append(segment_mean(values, plan))
            return pooled[-1]

        def linear_spy(p, x):
            if p is params.classifier:
                fed.append(x)
            return linear(p, x)

        monkeypatch.setattr(nn_mod, "segment_mean", mean_spy)
        monkeypatch.setattr(nn_mod, "linear", linear_spy)
        got = graph_embeddings(cfg, params, batch)
        np.testing.assert_array_equal(got, want.data)
        assert [t.requires_grad for t in pooled] == [False]
        model_forward(cfg, params, batch, EVAL)
        assert len(fed) == 1
        np.testing.assert_array_equal(fed[0].data, got)


def cycle_partitions(n: int, shortest: int = 3):
    """Every multiset of cycle lengths of at least ``shortest`` that sums to
    ``n``, as an ascending tuple."""
    if n == 0:
        yield ()
    for c in range(shortest, n + 1):
        for rest in cycle_partitions(n - c, c):
            yield (c, *rest)


class TestCycleUnionLaw:
    """Which disjoint unions of cycles, featureless, each conv tells apart.

    A node on a c-cycle has 2 nodes at each distance k < c/2, 1 at k = c/2
    when c is even, and none beyond, so its shells up to distance R are the
    same on every cycle longer than 2R. Layer l of ``gine+`` reads distances
    up to min(K, l), so its radius is R = min(K, L); ``naive-gine+`` reads
    distance K at every layer, R = K; ``gine`` has R = 1. A node's embedding
    depends only on min(c, 2R + 1), and two unions of the same size look
    alike exactly when they hold as many c-cycles for every c <= 2R."""

    @pytest.mark.parametrize("conv, radius, layers, reach", [
        (CONV_GINE, 1, 3, 1),
        (CONV_GINE_PLUS, 2, 3, 2),
        (CONV_GINE_PLUS, 3, 3, 3),
        (CONV_GINE_PLUS, 3, 2, 2),
        (CONV_GINE_PLUS, 3, 1, 1),
        (CONV_GINE_PLUS, 2, 1, 1),
        (CONV_NAIVE_GINE_PLUS, 3, 3, 3),
        (CONV_NAIVE_GINE_PLUS, 3, 1, 3),
    ])
    def test_same_size_unions_look_alike_exactly_when_their_short_cycles_agree(self, conv, radius, layers, reach):
        cfg = make_config(conv, node_field_cards=(1,), edge_field_cards=(1,), num_tasks=1, hidden=16,
                          num_layers=layers, radius=radius)
        params = init_params(cfg, 51, dtype=np.float64)
        rng = np.random.default_rng(52)
        for t in parameters(params):
            t.data[...] = rng.normal(0.0, 0.5, t.data.shape)
        looks = lambda lengths: np.repeat(np.minimum(lengths, 2 * reach + 1), lengths)  # what each node can tell
        pairs = 0
        for n in range(6, 15):
            unions = []
            for lengths in cycle_partitions(n):
                batch = collate([gen_cycle_union(lengths)], cfg.required_radius)
                nodes = forward_node_embeddings(cfg, params, batch, EVAL)[-1].data
                unions.append((lengths, nodes[np.lexsort(nodes.T[::-1])], graph_embeddings(cfg, params, batch)))
            for (a, nodes_a, graph_a), (b, nodes_b, graph_b) in itertools.combinations(unions, 2):
                same = all(a.count(c) == b.count(c) for c in range(3, 2 * reach + 1))
                assert np.array_equal(nodes_a, nodes_b) == same, (a, b)
                if np.array_equal(looks(a), looks(b)):  # mean pooling adds in node order
                    assert np.array_equal(graph_a, graph_b), (a, b)
                pairs += 1
        assert pairs == 195


class TestLocality:
    def probe_embedding(self, cfg, params, g, probe):
        batch = collate([g], cfg.required_radius)
        return forward_node_embeddings(cfg, params, batch, EVAL)[-1].data[probe]

    def test_gineplus_receptive_distance_is_depth(self):
        rng = np.random.default_rng(22)
        cfg = make_config(
            "gine+", node_field_cards=(2,), edge_field_cards=(1,), radius=3, num_layers=2
        )
        params = init_params(cfg, 23, dtype=np.float64)
        found = 0
        while found < 10:
            tree = random_tree(14, rng)
            dist = bfs_distances(tree, 0)
            far = np.nonzero(dist == cfg.num_layers + 1)[0]
            if far.size == 0:
                continue
            found += 1
            perturbed = LabeledGraph(
                tree.num_nodes, tree.node_feats.copy(), tree.edges, tree.edge_feats
            )
            perturbed.node_feats[far[0], 0] = 1
            base = self.probe_embedding(cfg, params, tree, 0)
            after = self.probe_embedding(cfg, params, perturbed, 0)
            np.testing.assert_array_equal(base, after)

    def test_naive_receptive_field_exceeds_depth(self):
        # path graph: a distance-4 perturbation reaches the probe in 2 layers at K=3
        cfg = make_config(
            "naive-gine+", node_field_cards=(2,), edge_field_cards=(1,), radius=3, num_layers=2
        )
        params = init_params(cfg, 24, dtype=np.float64)
        path = plain(5, [(i, i + 1) for i in range(4)])
        perturbed = LabeledGraph(5, path.node_feats.copy(), path.edges, path.edge_feats)
        perturbed.node_feats[4, 0] = 1
        base = self.probe_embedding(cfg, params, path, 0)
        after = self.probe_embedding(cfg, params, perturbed, 0)
        assert np.abs(base - after).max() > 0


def walk_params(node, tensors, states):
    """Collect every Tensor and BatchNormState in a parameter dataclass tree."""
    if isinstance(node, Tensor):
        tensors.append(node)
    elif isinstance(node, BatchNormState):
        states.append(node)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            walk_params(getattr(node, field.name), tensors, states)
    elif isinstance(node, (list, tuple)):
        for item in node:
            walk_params(item, tensors, states)


def built_count(cfg) -> int:
    """The reference for ``param_count``: the scalars of the model ``init_params`` builds."""
    return sum(t.data.size for t in parameters(init_params(cfg, 0)))


class TestParamCount:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    @pytest.mark.parametrize("vn", [False, True])
    def test_closed_form_equals_the_built_model(self, conv, vn):
        fields = [((1,), (1,)), ((3, 2, 5), (1,)), ((1,), (2, 4)), ((4, 1), (3, 2))]
        for h, layers, k, (nodes, edges), tasks in itertools.product((1, 3, 8), (1, 3), (1, 2, 3), fields, (1, 4)):
            cfg = make_config(conv, node_field_cards=nodes, edge_field_cards=edges, num_tasks=tasks, hidden=h,
                              num_layers=layers, radius=k, virtual_node=vn)
            assert param_count(cfg) == built_count(cfg), cfg

    def test_counts_without_building_and_without_wrapping(self, monkeypatch):
        monkeypatch.setattr("cyclegnn.nn.init_params", lambda *args, **kwargs: pytest.fail("the model was built"))
        h, layers = 2**40, 2**63
        huge = make_config("gine+", hidden=h, num_layers=layers, radius=3, virtual_node=True)
        mlp = 4 * h * h + 7 * h
        layer = (mlp + 4 * h) + 2 * h + 2 * h + (h + mlp)  # conv with 4 eps vectors, edge table, norm, virtual node
        assert param_count(huge) == 3 * h + layers * layer + (h + 1) * 2
        # numpy integer fields count as Python ints would, where int64 arithmetic would wrap
        as_numpy = make_config("gine+", hidden=np.int64(h), num_layers=np.int64(2**62), radius=np.int64(3))
        assert param_count(as_numpy) == param_count(make_config("gine+", hidden=h, num_layers=2**62, radius=3))

    def test_bench_builds_each_model_once(self, tmp_path, monkeypatch, capsys):
        data = str(tmp_path / "d.jsonl")
        save_dataset(gen_synthetic_dataset("min-cycle-class", 9, seed=2), data)
        calls = []

        def counted(cfg, *args, **kwargs):
            calls.append((cfg.conv_type, cfg.radius))
            return init_params(cfg, *args, **kwargs)

        monkeypatch.setattr("cyclegnn.nn.init_params", counted)
        assert cli.main(["bench", "--data", data, "--radii", "1,2", "--layers", "1", "--hidden", "4",
                         "--batch-size", "9"]) == 0
        assert calls == [("gine", 1), ("gine+", 1), ("gine+", 2)]

    @pytest.mark.parametrize("conv", CONV_TYPES)
    @pytest.mark.parametrize("vn", [False, True])
    @pytest.mark.parametrize("radius", [1, 3])
    def test_every_tree_entry_is_named_once(self, conv, vn, radius):
        cfg = make_config(conv, node_field_cards=(3, 2), radius=radius, hidden=4, virtual_node=vn)
        params = init_params(cfg, 0)
        tensors, states = [], []
        walk_params(params, tensors, states)
        named = list(named_parameters(params).values())
        assert sorted(map(id, named)) == sorted(map(id, tensors))
        assert len(set(map(id, tensors))) == len(tensors)
        assert sorted(map(id, norm_states(params))) == sorted(map(id, states))
        assert len(set(map(id, states))) == len(states)
        assert param_count(cfg) == sum(t.data.size for t in tensors)

    def test_realized_params_match_count(self):
        for conv in CONV_TYPES:
            for vn in (False, True):
                cfg = make_config(conv, radius=3, num_layers=2, hidden=5, virtual_node=vn)
                realized = sum(p.data.size for p in parameters(init_params(cfg, 0)))
                assert realized == param_count(cfg), (conv, vn)

    def test_wide_conv_adds_exactly_lkh(self):
        for k in (1, 2, 3):
            plus = make_config("gine+", radius=k, num_layers=4, hidden=16)
            gine = make_config("gine", radius=1, num_layers=4, hidden=16)
            assert param_count(plus) - param_count(gine) == 4 * k * 16

    def test_virtual_node_delta(self):
        base = make_config("gine", hidden=6, num_layers=3)
        vn = make_config("gine", hidden=6, num_layers=3, virtual_node=True)
        mlp = 6 * 12 + 12 + 2 * 12 + 12 * 6 + 6
        assert param_count(vn) - param_count(base) == 3 * (6 + mlp)

    def test_doubling_tasks_changes_classifier_only(self):
        a = make_config("gine", num_tasks=4, hidden=10)
        b = make_config("gine", num_tasks=8, hidden=10)
        assert param_count(b) - param_count(a) == 10 * 4 + 4

    def test_fractional_increase_at_scale(self):
        base = make_config(
            "gine",
            node_field_cards=(20, 5),
            edge_field_cards=(4, 3),
            num_tasks=128,
            hidden=400,
            num_layers=5,
            virtual_node=True,
        )
        plus = make_config(
            "gine+",
            node_field_cards=(20, 5),
            edge_field_cards=(4, 3),
            num_tasks=128,
            hidden=400,
            num_layers=5,
            radius=3,
            virtual_node=True,
        )
        delta = param_count(plus) - param_count(base)
        assert delta == 5 * 3 * 400
        assert delta / param_count(base) < 0.005


class TestCheckpointNamespace:
    def test_flat_layer_component_tensor_names(self):
        import re

        from cyclegnn.nn import named_arrays

        cfg = make_config("gine+", radius=2, num_layers=2, virtual_node=True)
        names = named_arrays(init_params(cfg, 0))
        pattern = re.compile(
            r"^(node_embed\.\d+\.weight|classifier\.(weight|bias)|"
            r"layer\d+\.(edge_embed\.\d+\.weight|conv\..+|norm\..+|vn\..+))$"
        )
        for name in names:
            assert pattern.match(name), name
        layer_names = [n for n in names if n.startswith("layer")]
        assert layer_names, "per-layer tensors must use the layer{l} namespace"

    def test_round_trip_through_checkpoint(self, tmp_path):
        from cyclegnn.nn import load_arrays, named_arrays
        from cyclegnn.tensor import load_checkpoint, save_checkpoint

        cfg = make_config("gine+", radius=2, virtual_node=True)
        params = init_params(cfg, 9)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(named_arrays(params), path)
        restored = init_params(cfg, 123)  # different init, then overwritten
        load_arrays(restored, load_checkpoint(path)[0])
        for name, arr in named_arrays(params).items():
            np.testing.assert_array_equal(named_arrays(restored)[name], arr)

    def test_mismatched_checkpoint_rejected(self):
        from cyclegnn.nn import load_arrays, named_arrays

        cfg = make_config("gine")
        arrays = named_arrays(init_params(cfg, 0))
        arrays.pop("classifier.bias")
        with pytest.raises(ValueError, match="does not match"):
            load_arrays(init_params(cfg, 1), arrays)


class TestInit:
    def test_same_seed_identical(self):
        cfg = make_config("gine+", radius=2, virtual_node=True)
        a = named_parameters(init_params(cfg, 42))
        b = named_parameters(init_params(cfg, 42))
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_eps_and_biases_zero(self):
        cfg = make_config("gine+", radius=3)
        named = named_parameters(init_params(cfg, 1))
        for name, tensor in named.items():
            if ".eps" in name or name.endswith(".bias") or name.endswith(".beta"):
                assert not tensor.data.any(), name

    def test_all_finite(self):
        cfg = make_config("gcn", virtual_node=True)
        for name, tensor in named_parameters(init_params(cfg, 2)).items():
            assert np.isfinite(tensor.data).all(), name

    def test_weight_bound_respected(self):
        cfg = make_config("gine", hidden=16)
        named = named_parameters(init_params(cfg, 3))
        w = named["classifier.weight"].data
        assert np.abs(w).max() <= 1.0 / np.sqrt(16)


class TestFullModelGradcheck:
    def test_small_gine_model(self):
        rng = np.random.default_rng(25)
        cfg = make_config("gine", hidden=3, num_layers=2)
        params = init_params(cfg, 26, dtype=np.float64)
        g = features_graph(rng, 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        batch = collate([g])
        targets = rng.integers(0, 2, (1, 2)).astype(float)

        def f():
            return bce_with_logits_masked(model_forward(cfg, params, batch, EVAL), targets)

        assert gradcheck(f, parameters(params)) < 1e-4


def every_reference_setting(test):
    """Parametrize ``test`` over conv, radius, virtual node and mode."""
    for name, values in (("conv", [CONV_GINE, CONV_NAIVE_GINE_PLUS, CONV_GINE_PLUS]), ("radius", [1, 2, 3]),
                         ("virtual_node", [False, True]), ("mode", [TRAIN, EVAL])):
        test = pytest.mark.parametrize(name, values)(test)
    return test


class TestReferenceModel:
    """``model_forward`` against the float64 reference of the paper's update
    rule, with every term live: random nonzero eps, biases, edge tables and
    running statistics, on a batch of graphs of mixed sizes and on one of
    unusual inputs."""

    @staticmethod
    def check(conv, radius, virtual_node, mode, shapes):
        """Compare on the graphs ``shapes(rng)`` yields, each given random
        features as it is drawn; returns the batch."""
        rng = np.random.default_rng(31)
        cfg = make_config(conv, node_field_cards=(3, 2), edge_field_cards=(2, 4), hidden=5, num_layers=3,
                          radius=radius, virtual_node=virtual_node)
        params = init_params(cfg, 32, dtype=np.float64)
        for t in parameters(params):
            t.data[...] = rng.normal(0.0, 0.6, t.data.shape)
        for state in norm_states(params):
            state.running_mean = rng.normal(0.0, 0.5, state.running_mean.shape)
            state.running_var = rng.uniform(0.5, 2.0, state.running_var.shape)
        graphs = [features_graph(rng, g.num_nodes, g.edges, cfg.node_field_cards, cfg.edge_field_cards)
                  for g in shapes(rng)]
        before = {id(s): (s.running_mean, s.running_var) for s in norm_states(params)}
        want, stats = reference_model_forward(cfg, params, graphs, train=mode == TRAIN)
        batch = collate(graphs, cfg.required_radius)
        got = model_forward(cfg, params, batch, mode)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)
        assert np.abs(want).max() > 0.1
        for s in norm_states(params):
            mean, var = stats[id(s)] if mode == TRAIN else before[id(s)]
            np.testing.assert_allclose(s.running_mean, mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(s.running_var, var, rtol=1e-12, atol=1e-12)
        return batch

    @every_reference_setting
    def test_logits_and_running_statistics_match(self, conv, radius, virtual_node, mode):
        self.check(conv, radius, virtual_node, mode, lambda rng: (random_graph(rng, n) for n in (1, 6, 9, 13)))

    @every_reference_setting
    def test_star_clique_and_large_sparse_graph_match(self, conv, radius, virtual_node, mode):
        def shapes(rng):
            yield plain(70, [(0, i) for i in range(1, 70)])
            yield plain(40, list(itertools.combinations(range(40), 2)))
            yield random_graph(rng, 150, p=0.02)

        batch = self.check(conv, radius, virtual_node, mode, shapes)
        assert batch.arc_dst.counts.max() > _COLUMN_LIMIT  # the hub's and the clique's buckets take the sorted layout
