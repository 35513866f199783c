"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime when it holds (run with -s to see them)."""

import time

import numpy as np
from conftest import plain, random_graph
from test_train import prc_auc_threshold_oracle, random_instance, roc_auc_pairwise_oracle

from cyclegnn.data import collate, combine_datasets, random_split
from cyclegnn.graph import LabeledGraph, bfs_distances, make_counterexample_pair
from cyclegnn.nn import (
    ModelConfig,
    forward_node_embeddings,
    graph_embeddings,
    init_params,
    model_forward,
    param_count,
    parameters,
)
from cyclegnn.synth import gen_cycle_union, gen_synthetic_dataset, random_tree
from cyclegnn.tensor import EVAL, Adam, backward, bce_with_logits_masked, gradcheck
from cyclegnn.train import TrainConfig, evaluate, prc_auc, predict_logits, roc_auc, train_model


def report(name: str, started: float, detail: str = "") -> None:
    extra = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE PASS: {name} ({time.perf_counter() - started:.2f}s){extra}")


def uniform_config(conv, layers, radius=1, hidden=16, tasks=2):
    return ModelConfig(
        conv_type=conv,
        node_field_cards=(1,),
        edge_field_cards=(1,),
        num_tasks=tasks,
        hidden=hidden,
        num_layers=layers,
        radius=radius,
        virtual_node=False,
        dropout=0.0,
    )


def pooled(config, params, graph):
    return graph_embeddings(config, params, collate([graph], config.required_radius))


def test_wl_blindness_of_one_hop_convolutions():
    started = time.perf_counter()
    c33, c6 = gen_cycle_union([3, 3]), gen_cycle_union([6])
    for conv in ("gine", "gcn"):
        for layers in (1, 2, 3):
            for seed in range(10):
                cfg = uniform_config(conv, layers)
                params = init_params(cfg, seed, dtype=np.float64)
                gap = np.abs(pooled(cfg, params, c33) - pooled(cfg, params, c6)).max()
                assert gap < 1e-5, (conv, layers, seed, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("WL-blindness (1-hop convs cannot split C3+C3 from C6)", started)


def random_cyclic_connected(rng, n):
    while True:
        tree = random_tree(n, rng)
        extra = []
        present = {tuple(sorted(e)) for e in tree.edges.tolist()}
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
        rng.shuffle(candidates)
        extra = candidates[: int(rng.integers(1, 4))]
        if not extra:
            continue
        edges = np.concatenate([tree.edges, np.asarray(extra, dtype=np.int64)])
        return LabeledGraph(
            n,
            np.zeros((n, 1), dtype=np.int64),
            edges,
            np.zeros((edges.shape[0], 1), dtype=np.int64),
        )


def test_doubled_pair_invariance_for_one_hop_convolutions():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for trial in range(20):
        g = random_cyclic_connected(rng, int(rng.integers(8, 17)))
        u, v = g.edges[int(rng.integers(0, g.num_edges))]
        paired = make_counterexample_pair(g, (int(u), int(v)))
        n = g.num_nodes
        for conv in ("gine", "gcn"):
            cfg = uniform_config(conv, layers=3)
            params = init_params(cfg, 100 + trial, dtype=np.float64)
            h_g = forward_node_embeddings(cfg, params, collate([g]), EVAL)
            h_p = forward_node_embeddings(cfg, params, collate([paired]), EVAL)
            for layer_g, layer_p in zip(h_g, h_p):
                assert np.abs(layer_p.data[:n] - layer_g.data).max() < 1e-5
                assert np.abs(layer_p.data[n:] - layer_g.data).max() < 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("doubled-pair invariance (node embeddings equal in G and its twin)", started)


def test_wide_kernel_distinguishes_cycle_split():
    started = time.perf_counter()
    c33, c6 = gen_cycle_union([3, 3]), gen_cycle_union([6])
    hits = 0
    for seed in range(10):
        cfg = uniform_config("gine+", layers=2, radius=2)
        params = init_params(cfg, seed, dtype=np.float64)
        gap = np.linalg.norm(pooled(cfg, params, c33) - pooled(cfg, params, c6))
        hits += gap > 1e-3
    assert hits >= 9, hits
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("distinguishability (radius-2 kernel splits C3+C3 from C6)", started, f"{hits}/10 seeds")


def per_task_accuracy(config, params, dataset):
    logits = predict_logits(config, params, dataset)
    return float(((logits > 0).astype(float) == dataset.labels).mean())


def majority_rate(dataset):
    freqs = dataset.labels.mean(axis=0)
    return float(np.maximum(freqs, 1.0 - freqs).mean())


def test_cycle_classification_experiment():
    started = time.perf_counter()
    dataset = gen_synthetic_dataset("min-cycle-class", 600, seed=7)
    train_set, valid_set, test_set = random_split(dataset, (0.8, 0.1, 0.1), seed=7)
    tc = TrainConfig(epochs=100, batch_size=64, learning_rate=1e-3, patience=0, metric="roc", seed=0)

    gine_cfg = uniform_config("gine", layers=3, hidden=32, tasks=3)
    gine_params, _ = train_model(gine_cfg, train_set, valid_set, tc)
    gine_acc = per_task_accuracy(gine_cfg, gine_params, test_set)

    plus_cfg = uniform_config("gine+", layers=3, radius=3, hidden=32, tasks=3)
    plus_params, _ = train_model(plus_cfg, train_set, valid_set, tc)
    plus_acc = per_task_accuracy(plus_cfg, plus_params, test_set)

    majority = majority_rate(test_set)
    assert abs(gine_acc - majority) <= 0.02, (gine_acc, majority)
    assert plus_acc >= 0.95, plus_acc
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        "cycle classification (blind baseline at majority rate, wide kernel solves it)",
        started,
        f"gine={gine_acc:.3f} majority={majority:.3f} gine+={plus_acc:.3f}",
    )


def perturbed_copy(g, node):
    out = LabeledGraph(g.num_nodes, g.node_feats.copy(), g.edges, g.edge_feats)
    out.node_feats[node, 0] = 1
    return out


def probe_embedding(cfg, params, g, probe):
    batch = collate([g], cfg.required_radius)
    return forward_node_embeddings(cfg, params, batch, EVAL)[-1].data[probe]


def test_locality_and_antilocality():
    started = time.perf_counter()
    layers = 3
    cfg = ModelConfig(
        conv_type="gine+", node_field_cards=(2,), edge_field_cards=(1,), num_tasks=1,
        hidden=16, num_layers=layers, radius=3, dropout=0.0,
    )
    params = init_params(cfg, 1, dtype=np.float64)
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 50:
        tree = random_tree(int(rng.integers(16, 33)), rng)
        dist = bfs_distances(tree, 0)
        reachable = dist[np.isfinite(dist)]
        if reachable.max() <= 5:  # criterion wants trees of depth > 5
            continue
        far = np.nonzero(dist == layers + 1)[0]
        if far.size == 0:
            continue
        target = int(far[int(rng.integers(0, far.size))])
        base = probe_embedding(cfg, params, tree, 0)
        after = probe_embedding(cfg, params, perturbed_copy(tree, target), 0)
        np.testing.assert_array_equal(base, after)  # exactly zero change
        checked += 1

    naive_cfg = ModelConfig(
        conv_type="naive-gine+", node_field_cards=(2,), edge_field_cards=(1,), num_tasks=1,
        hidden=16, num_layers=2, radius=3, dropout=0.0,
    )
    naive_params = init_params(naive_cfg, 3, dtype=np.float64)
    path = plain(5, [(i, i + 1) for i in range(4)])
    base = probe_embedding(naive_cfg, naive_params, path, 0)
    after = probe_embedding(naive_cfg, naive_params, perturbed_copy(path, 4), 0)
    naive_gap = float(np.abs(base - after).max())
    assert naive_gap > 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        "locality (depth-bounded receptive field; naive widening leaks past it)",
        started,
        f"50 trees exact-zero, naive path gap {naive_gap:.2e}",
    )


def test_parameter_count_increase_is_marginal():
    started = time.perf_counter()
    for layers, hidden, k in ((3, 100, 3), (5, 400, 3), (2, 8, 1)):
        plus = ModelConfig(
            conv_type="gine+", node_field_cards=(20, 5), edge_field_cards=(4, 3),
            num_tasks=128, hidden=hidden, num_layers=layers, radius=k, virtual_node=True,
        )
        gine = ModelConfig(
            conv_type="gine", node_field_cards=(20, 5), edge_field_cards=(4, 3),
            num_tasks=128, hidden=hidden, num_layers=layers, virtual_node=True,
        )
        assert param_count(plus) - param_count(gine) == layers * k * hidden

    big_plus = ModelConfig(
        conv_type="gine+", node_field_cards=(20, 5), edge_field_cards=(4, 3),
        num_tasks=128, hidden=400, num_layers=5, radius=3, virtual_node=True,
    )
    big_gine = ModelConfig(
        conv_type="gine", node_field_cards=(20, 5), edge_field_cards=(4, 3),
        num_tasks=128, hidden=400, num_layers=5, virtual_node=True,
    )
    increase = (param_count(big_plus) - param_count(big_gine)) / param_count(big_gine)
    assert increase < 0.005
    report("parameter economy (extra vectors only)", started, f"relative increase {increase:.5%}")


def test_radius_one_reduces_to_one_hop_exactly():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    for seed in range(100):
        n = int(rng.integers(3, 11))
        g = random_graph(rng, n, p=0.4)
        plus_cfg = uniform_config("gine+", layers=2, radius=1)
        gine_cfg = uniform_config("gine", layers=2)
        plus_params = init_params(plus_cfg, seed, dtype=np.float64)
        gine_params = init_params(gine_cfg, seed, dtype=np.float64)
        # identical draw order, so the shared tensors already match; share them
        # outright so the comparison is about the forward computation
        gine_params.node_tables = plus_params.node_tables
        gine_params.classifier = plus_params.classifier
        for lg, lp in zip(gine_params.layers, plus_params.layers):
            lg.edge_tables = lp.edge_tables
            lg.mlp = lp.mlp
            lg.norm = lp.norm
            lg.eps = lp.eps[:1]  # both initialized to zero
        batch = collate([g], 1)
        out_plus = model_forward(plus_cfg, plus_params, batch, EVAL).data
        out_gine = model_forward(gine_cfg, gine_params, batch, EVAL).data
        assert np.array_equal(out_plus, out_gine), seed
    report("reduction (radius-1 wide kernel is bit-identical to the 1-hop conv)", started)


def test_full_model_gradcheck():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    cfg = ModelConfig(
        conv_type="gine+", node_field_cards=(3,), edge_field_cards=(2,), num_tasks=2,
        hidden=8, num_layers=2, radius=3, dropout=0.0,
    )
    params = init_params(cfg, 6, dtype=np.float64)
    g = LabeledGraph(
        6,
        rng.integers(0, 3, (6, 1)),
        np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 3]]),
        rng.integers(0, 2, (7, 1)),
    )
    batch = collate([g], 3)
    targets = rng.integers(0, 2, (1, 2)).astype(float)

    def loss():
        return bce_with_logits_masked(model_forward(cfg, params, batch, EVAL), targets)

    err = gradcheck(loss, parameters(params))
    assert err < 1e-4, err
    report("full-model gradient check", started, f"max relative error {err:.2e}")


def test_metric_implementations_match_bruteforce_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 200:
        scores, labels = random_instance(rng)
        want_roc = roc_auc_pairwise_oracle(scores, labels)
        want_prc = prc_auc_threshold_oracle(scores, labels)
        if want_roc is None or want_prc is None:
            continue
        assert roc_auc(scores, labels) == want_roc
        assert prc_auc(scores, labels) == want_prc
        checked += 1
    report("metric oracles (exact match on 200 tied instances)", started)


def test_task_union_training_and_reporting():
    started = time.perf_counter()
    primary = gen_synthetic_dataset("has-small-cycle", 60, seed=8)
    auxiliary = gen_synthetic_dataset("min-cycle-class", 90, seed=9)
    combined = combine_datasets(primary, auxiliary)
    observed = lambda d: int((~np.isnan(d.labels)).sum())
    assert observed(combined) == observed(primary) + observed(auxiliary)
    assert len(combined) == len(primary) + len(auxiliary)

    train_a, valid_a, _ = random_split(primary, (0.7, 0.15, 0.15), seed=8)
    combined_train = combine_datasets(train_a, auxiliary)
    combined_valid = combine_datasets(valid_a, auxiliary.subset([]))
    cfg = uniform_config("gine+", layers=2, radius=2, hidden=8, tasks=combined.manifest.num_tasks)
    tc = TrainConfig(epochs=2, batch_size=32, patience=0, seed=0)
    params, _ = train_model(cfg, combined_train, combined_valid, tc)
    rep = evaluate(cfg, params, combined_valid, "roc")
    assert rep.task_names == primary.manifest.task_names + auxiliary.manifest.task_names
    defined = [name for name, v in zip(rep.task_names, rep.per_task) if v is not None]
    assert set(defined) <= set(primary.manifest.task_names)
    assert defined, "the primary task must be scored"
    report("task-union augmentation (labels conserved, eval restricted to first set)", started)


def test_bench_overhead_recorded_not_asserted():
    started = time.perf_counter()
    dataset = gen_synthetic_dataset("min-cycle-class", 48, seed=10)
    times = {}
    for conv, radius in (("gine", 1), ("gine+", 3)):
        cfg = uniform_config(conv, layers=3, radius=radius, hidden=32, tasks=3)
        params = init_params(cfg, 0)
        opt = Adam(parameters(params))
        t0 = time.perf_counter()
        for lo in range(0, len(dataset), 16):
            idx = np.arange(lo, min(lo + 16, len(dataset)))
            batch = collate([dataset.graphs[i] for i in idx], cfg.required_radius)
            loss = bce_with_logits_masked(
                model_forward(cfg, params, batch, "train", np.random.default_rng(0)), dataset.labels[idx]
            )
            opt.zero_grad()
            backward(loss)
            opt.step()
        times[conv] = time.perf_counter() - t0
    ratio = times["gine+"] / times["gine"]
    report("bench (informational)", started, f"gine+ K=3 epoch time ratio vs gine: {ratio:.2f}x")
