import contextlib

import numpy as np
import pytest
from conftest import assert_packed

import cyclegnn.nn as nn_mod
import cyclegnn.tensor as tensor_mod
import cyclegnn.train as train_mod
from cyclegnn.data import combine_datasets, random_split
from cyclegnn.data import collate
from cyclegnn.nn import (
    ModelConfig,
    graph_embeddings,
    init_params,
    load_arrays,
    model_forward,
    named_arrays,
    norm_states,
    parameters,
)
from cyclegnn.synth import gen_synthetic_dataset
from cyclegnn.tensor import EVAL, TRAIN, Adam, Tensor, backward, bce_with_logits_masked, load_checkpoint, save_checkpoint
from cyclegnn.train import (
    TrainConfig,
    evaluate,
    predict_logits,
    prc_auc,
    recalibrate_norm_stats,
    report_from_logits,
    roc_auc,
    run_replicates,
    train_epoch,
    train_model,
)


def roc_auc_pairwise_oracle(scores, labels):
    """O(n^2) comparison count: wins + half-credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


def prc_auc_threshold_oracle(scores, labels):
    """Recount precision/recall from scratch at every distinct threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    total_pos = int((labels == 1).sum())
    if total_pos == 0:
        return None
    ap = 0.0
    prev_tp = 0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        chosen = scores >= threshold
        tp = int(((labels == 1) & chosen).sum())
        fp = int(((labels == 0) & chosen).sum())
        ap += (tp - prev_tp) / total_pos * (tp / (tp + fp))
        prev_tp = tp
    return ap


def random_instance(rng, n=50):
    # mix continuous scores with coarse ones so ties actually occur
    if rng.random() < 0.5:
        scores = rng.choice([0.1, 0.25, 0.5, 0.75], size=n)
    else:
        scores = np.round(rng.random(n), 2)
    labels = rng.integers(0, 2, size=n)
    return scores, labels


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5, 0.5], [1, 0]) == 0.5

    def test_reversed_ranking(self):
        assert roc_auc([0.1, 0.9], [1, 0]) == 0.0

    def test_degenerate_labels_undefined(self):
        assert roc_auc([0.3, 0.4], [1, 1]) is None
        assert roc_auc([0.3, 0.4], [0, 0]) is None

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 200:
            scores, labels = random_instance(rng)
            expected = roc_auc_pairwise_oracle(scores, labels)
            if expected is None:
                continue
            assert roc_auc(scores, labels) == expected
            checked += 1

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores, labels = random_instance(rng)
            if roc_auc(scores, labels) is None:
                continue
            assert roc_auc(np.exp(3.0 * scores), labels) == roc_auc(scores, labels)


class TestPrcAuc:
    def test_perfect_ranking(self):
        assert prc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_tied_is_base_rate(self):
        assert prc_auc([0.4] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]) == pytest.approx(0.3)

    def test_no_positives_undefined(self):
        assert prc_auc([0.1, 0.2], [0, 0]) is None

    def test_matches_threshold_oracle_exactly(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 200:
            scores, labels = random_instance(rng)
            expected = prc_auc_threshold_oracle(scores, labels)
            if expected is None:
                continue
            assert prc_auc(scores, labels) == expected
            checked += 1

    def test_rank_only_dependence(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scores, labels = random_instance(rng)
            if prc_auc(scores, labels) is None:
                continue
            assert prc_auc(5.0 * scores - 2.0, labels) == prc_auc(scores, labels)


class TestReportFromLogits:
    names = ("a", "b", "c")

    def test_perfect_classifier_macro_one(self):
        labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        logits = np.where(labels == 1.0, 4.0, -4.0)
        report = report_from_logits(logits, labels, self.names, "roc")
        assert report.macro == 1.0
        assert report.per_task == (1.0, 1.0, 1.0)

    def test_non_finite_logits_raise_naming_how_many_graphs(self):
        labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, np.nan, 0.0], [0.0, 1.0, 1.0]])
        logits = np.zeros((4, 3))
        logits[1, 2], logits[3, 0] = np.nan, -np.inf
        with pytest.raises(ValueError, match="^2 of 4 graphs have a non-finite logit"):
            report_from_logits(logits, labels, self.names, "roc")

    def test_all_missing_task_undefined_and_excluded(self):
        labels = np.array([[1.0, np.nan], [0.0, np.nan]])
        logits = np.array([[2.0, 0.0], [-2.0, 0.0]])
        report = report_from_logits(logits, labels, ("t0", "t1"), "roc")
        assert report.per_task == (1.0, None)
        assert report.macro == 1.0

    def test_macro_is_hand_average(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(4, 2))
        report = report_from_logits(logits, labels, ("t0", "t1"), "prc")
        expected = np.mean([prc_auc(logits[:, t], labels[:, t]) for t in range(2)])
        assert report.macro == pytest.approx(expected)

    def test_masked_loss_equals_repacked_loss(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, (6, 3)).astype(float)
        labels[rng.random((6, 3)) < 0.4] = np.nan
        logits = rng.normal(size=(6, 3))
        report = report_from_logits(logits, labels, self.names, "roc")
        keep = ~np.isnan(labels)
        packed = float(bce_with_logits_masked(Tensor(logits[keep].reshape(1, -1)), labels[keep].reshape(1, -1)).data)
        assert report.loss == pytest.approx(packed, abs=1e-12)


def quick_config(conv="gine+", radius=3):
    return ModelConfig(
        conv_type=conv,
        node_field_cards=(1,),
        edge_field_cards=(1,),
        num_tasks=1,
        hidden=16,
        num_layers=2,
        radius=radius,
        dropout=0.0,
    )


@pytest.fixture(scope="module")
def small_cycle_splits():
    ds = gen_synthetic_dataset("has-small-cycle", 120, seed=3)
    return random_split(ds, (0.7, 0.15, 0.15), seed=3)


class TestTrainModel:
    def test_loss_strictly_decreases_first_five_epochs(self, small_cycle_splits):
        train_set, valid_set, _ = small_cycle_splits
        tc = TrainConfig(epochs=5, batch_size=32, learning_rate=1e-3, patience=0, seed=0)
        _, history = train_model(quick_config(), train_set, valid_set, tc)
        losses = [h.train_loss for h in history]
        assert len(losses) == 5
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_same_seed_identical_history(self, small_cycle_splits):
        train_set, valid_set, _ = small_cycle_splits
        tc = TrainConfig(epochs=3, batch_size=32, patience=0, seed=7)
        _, h1 = train_model(quick_config(), train_set, valid_set, tc)
        _, h2 = train_model(quick_config(), train_set, valid_set, tc)
        assert h1 == h2

    def test_patience_zero_runs_all_epochs_and_keeps_last(self, small_cycle_splits):
        train_set, valid_set, _ = small_cycle_splits
        tc = TrainConfig(epochs=4, batch_size=32, patience=0, seed=1)
        params4, history = train_model(quick_config(), train_set, valid_set, tc)
        assert len(history) == 4
        tc3 = TrainConfig(epochs=3, batch_size=32, patience=0, seed=1)
        params3, _ = train_model(quick_config(), train_set, valid_set, tc3)
        # one more epoch moved the returned parameters: these are the last, not a frozen best
        assert any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(parameters(params4), parameters(params3))
        )

    def test_early_stopping_counts_stale_epochs(self, small_cycle_splits):
        train_set, _, _ = small_cycle_splits
        # validation split with every label missing: the metric is never defined,
        # so no epoch ever improves and training stops after `patience` epochs
        blind = train_set.subset(range(10))
        blind.labels[:] = np.nan
        tc = TrainConfig(epochs=50, batch_size=32, patience=3, seed=2)
        _, history = train_model(quick_config(), train_set, blind, tc)
        assert len(history) == 3
        assert all(np.isnan(h.valid_metric) for h in history)

    def test_empty_train_split_rejected(self, small_cycle_splits):
        train_set, valid_set, _ = small_cycle_splits
        with pytest.raises(ValueError, match="empty"):
            train_model(quick_config(), train_set.subset([]), valid_set, TrainConfig())

    def test_best_epoch_selection_returns_argmax_epoch(self, small_cycle_splits):
        train_set, valid_set, _ = small_cycle_splits
        tc = TrainConfig(epochs=12, batch_size=32, patience=4, seed=4)
        params, history = train_model(quick_config(), train_set, valid_set, tc)
        metrics = [h.valid_metric for h in history]
        best_epoch = history[int(np.nanargmax(metrics))].epoch
        truncated = TrainConfig(epochs=best_epoch, batch_size=32, patience=0, seed=4)
        params_at_best, _ = train_model(quick_config(), train_set, valid_set, truncated)
        for a, b in zip(parameters(params), parameters(params_at_best)):
            np.testing.assert_array_equal(a.data, b.data)

    def test_parameters_do_not_depend_on_the_summation_layout(self, small_cycle_splits, monkeypatch):
        """Every plan sums in ids order, so moving the column limit, which
        moves plans between occurrence columns and length blocks, moves no bit."""
        train_set, valid_set, _ = small_cycle_splits
        tc = TrainConfig(epochs=2, batch_size=32, patience=0, seed=5)
        checkpoints = []
        for limit in (0, tensor_mod._COLUMN_LIMIT, np.iinfo(np.int64).max):
            monkeypatch.setattr(tensor_mod, "_COLUMN_LIMIT", limit)
            params, _ = train_model(quick_config(), train_set, valid_set, tc)
            checkpoints.append({name: arr.tobytes() for name, arr in named_arrays(params).items()})
        assert checkpoints[0] == checkpoints[1] == checkpoints[2]


class TestTrainEpoch:
    def test_returns_loss_weighted_by_observed_labels(self, small_cycle_splits):
        train_set, _, _ = small_cycle_splits
        data = train_set.subset(range(40))
        data.labels[::3] = np.nan  # batches differ in how many labels they observe
        cfg = quick_config()
        params = init_params(cfg, 0)
        opt = Adam(parameters(params), lr=0.0)  # parameters stay fixed
        order = np.arange(len(data))[::-1]
        mean_loss = train_epoch(cfg, params, opt, data, order, 16, np.random.default_rng(0), 1)
        total = observed = 0.0
        for start in range(0, len(data), 16):
            idx = order[start : start + 16]
            batch, labels = collate([data.graphs[i] for i in idx], cfg.required_radius), data.labels[idx]
            loss = bce_with_logits_masked(model_forward(cfg, params, batch, TRAIN), labels)
            total += float(loss.data) * (~np.isnan(labels)).sum()
            observed += (~np.isnan(labels)).sum()
        assert mean_loss == pytest.approx(total / observed, rel=1e-6)

    def test_divergence_names_epoch_and_batch(self, small_cycle_splits):
        train_set, _, _ = small_cycle_splits
        cfg = quick_config()
        params = init_params(cfg, 0)
        params.classifier.weight.data[:] = np.inf
        opt = Adam(parameters(params))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged at epoch 7, batch 1"):
            train_epoch(cfg, params, opt, train_set, None, 32, np.random.default_rng(0), 7)


class TestParameterStore:
    """Adam's parameters stay views of its buffers through everything that
    writes them; a parameter that left them would silently stop training."""

    def test_a_training_step_keeps_the_store(self, small_cycle_splits):
        train_set, _, _ = small_cycle_splits
        cfg = quick_config()
        params = init_params(cfg, 0)
        opt = Adam(parameters(params))
        before = [p.data.copy() for p in opt.params]
        train_epoch(cfg, params, opt, train_set.subset(range(32)), None, 32, np.random.default_rng(0), 1)
        assert opt.step_count == 1
        assert_packed(opt)
        assert any((p.data != b).any() for p, b in zip(opt.params, before))

    def test_a_best_epoch_restore_keeps_the_store(self, small_cycle_splits, monkeypatch):
        train_set, valid_set, _ = small_cycle_splits
        made, restores = [], []

        class RecordingAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def recording_load(params, arrays):
            restores.append(arrays)
            load_arrays(params, arrays)

        monkeypatch.setattr(train_mod, "Adam", RecordingAdam)
        monkeypatch.setattr(train_mod, "load_arrays", recording_load)
        tc = TrainConfig(epochs=4, batch_size=32, patience=2, seed=0)
        params, _ = train_model(quick_config(), train_set, valid_set, tc)
        ((opt,), (best,)) = made, restores
        assert [id(p) for p in opt.params] == [id(p) for p in parameters(params)]
        assert_packed(opt)
        for name, t in nn_mod.named_parameters(params).items():
            np.testing.assert_array_equal(t.data, best[name])
        opt.step()  # the restored views are still the ones Adam checks

    def test_a_checkpoint_load_keeps_the_store(self, tmp_path):
        cfg = quick_config()
        params = init_params(cfg, 0)
        opt = Adam(parameters(params))
        path = str(tmp_path / "other.ckpt")
        save_checkpoint(named_arrays(init_params(cfg, 1)), path)
        arrays = load_checkpoint(path)[0]
        load_arrays(params, arrays)
        assert_packed(opt)
        for name, arr in named_arrays(params).items():
            np.testing.assert_array_equal(arr, arrays[name])
        opt.step()


class TestEvaluate:
    def test_side_effect_free(self, small_cycle_splits):
        train_set, valid_set, _ = small_cycle_splits
        cfg = quick_config()
        params = init_params(cfg, 0)
        recalibrate_norm_stats(cfg, params, train_set)
        a = evaluate(cfg, params, valid_set, "prc")
        b = evaluate(cfg, params, valid_set, "prc")
        assert a == b

    def test_trained_model_beats_chance(self, small_cycle_splits):
        train_set, valid_set, test_set = small_cycle_splits
        tc = TrainConfig(epochs=25, batch_size=32, learning_rate=3e-3, patience=0, seed=5)
        params, _ = train_model(quick_config(), train_set, valid_set, tc)
        report = evaluate(quick_config(), params, test_set, "roc")
        assert report.macro > 0.9

    def test_augmented_training_reports_first_tasks_only(self, small_cycle_splits):
        # train on a task union, validate on the first dataset's split padded
        # with missing labels for the extra tasks
        train_set, valid_set, _ = small_cycle_splits
        extra = gen_synthetic_dataset("has-small-cycle", 30, seed=9)
        renamed = type(extra)(
            extra.graphs,
            extra.labels,
            type(extra.manifest)(
                extra.manifest.node_field_cardinalities,
                extra.manifest.edge_field_cardinalities,
                ("auxiliary_task",),
            ),
        )
        combined_train = combine_datasets(train_set, renamed)
        empty_aux = renamed.subset([])
        combined_valid = combine_datasets(valid_set, empty_aux)
        cfg = ModelConfig(
            conv_type="gine+",
            node_field_cards=(1,),
            edge_field_cards=(1,),
            num_tasks=2,
            hidden=16,
            num_layers=2,
            radius=3,
            dropout=0.0,
        )
        tc = TrainConfig(epochs=2, batch_size=32, patience=0, seed=6)
        params, _ = train_model(cfg, combined_train, combined_valid, tc)
        report = evaluate(cfg, params, combined_valid, "roc")
        assert report.task_names == ("has_small_cycle", "auxiliary_task")
        assert report.per_task[1] is None  # no auxiliary labels in the validation split
        assert report.per_task[0] is not None
        assert report.macro == report.per_task[0]


class TestRecalibrateNormStats:
    @pytest.mark.parametrize("conv, virtual_node", [("gine+", True), ("gcn", False)])
    def test_running_stats_are_population_stats_of_the_eval_inputs(self, conv, virtual_node, monkeypatch):
        monkeypatch.setattr(train_mod, "_RECAL_BATCH", 7)  # several batches per pass
        ds = gen_synthetic_dataset("random-multitask", 40, seed=2)
        m = ds.manifest
        cfg = ModelConfig(
            conv,
            m.node_field_cardinalities,
            m.edge_field_cardinalities,
            m.num_tasks,
            hidden=8,
            num_layers=2,
            radius=2,
            virtual_node=virtual_node,
        )
        params = init_params(cfg, 0)
        rng = np.random.default_rng(3)
        for state in norm_states(params):  # stale statistics, far from the population ones
            state.running_mean = rng.normal(size=state.running_mean.shape).astype(np.float32)
            state.running_var = rng.uniform(0.1, 5.0, size=state.running_var.shape).astype(np.float32)
        recalibrate_norm_stats(cfg, params, ds)

        seen: dict[int, list[np.ndarray]] = {}
        original = nn_mod.batchnorm

        def spy(x, gamma, beta, state, mode):
            seen.setdefault(id(state), []).append(x.data.astype(np.float64))
            return original(x, gamma, beta, state, mode)

        monkeypatch.setattr(nn_mod, "batchnorm", spy)
        predict_logits(cfg, params, ds)
        states = norm_states(params)
        assert set(seen) == {id(s) for s in states}
        for state in states:
            x = np.concatenate(seen[id(state)])
            np.testing.assert_allclose(state.running_mean, x.mean(axis=0), rtol=1e-5)
            np.testing.assert_allclose(state.running_var, x.var(axis=0), rtol=1e-4)

    @pytest.mark.parametrize("conv, virtual_node", [("gine+", True), ("gcn", False)])
    def test_each_pass_runs_only_up_to_the_normalizer_it_records(self, conv, virtual_node, monkeypatch):
        monkeypatch.setattr(train_mod, "_RECAL_BATCH", 7)
        ds, cfg, params = stale_recal_case(conv, virtual_node)
        states = norm_states(params)
        position = {id(s): i for i, s in enumerate(states)}
        calls = []
        original = nn_mod.batchnorm

        def spy(x, gamma, beta, state, mode):
            calls.append(position[id(state)])
            return original(x, gamma, beta, state, mode)

        monkeypatch.setattr(nn_mod, "batchnorm", spy)
        recalibrate_norm_stats(cfg, params, ds)
        batches = -(-len(ds) // 7)
        assert calls == [j for i in range(len(states)) for _ in range(batches) for j in range(i + 1)]

    @pytest.mark.parametrize("conv, virtual_node", [("gine+", True), ("gcn", False)])
    def test_statistics_are_byte_equal_to_full_pass_statistics(self, conv, virtual_node, monkeypatch):
        monkeypatch.setattr(train_mod, "_RECAL_BATCH", 7)
        ds, cfg, params = stale_recal_case(conv, virtual_node)
        _, _, reference = stale_recal_case(conv, virtual_node)
        recalibrate_norm_stats(cfg, params, ds)

        # Reference: per normalizer, in network order, whole eval forwards
        # over the same batches of 7, pooling its inputs in float64.
        original = nn_mod.batchnorm
        for target in norm_states(reference):
            pooled = []

            def spy(x, gamma, beta, state, mode):
                if state is target:
                    x64 = x.data.astype(np.float64)
                    pooled.append((x64.sum(axis=0), (x64 * x64).sum(axis=0), x.data.shape[0]))
                return original(x, gamma, beta, state, mode)

            monkeypatch.setattr(nn_mod, "batchnorm", spy)
            for start in range(0, len(ds), 7):
                chunk = np.arange(start, min(start + 7, len(ds)))
                batch = collate([ds.graphs[i] for i in chunk], cfg.required_radius)
                model_forward(cfg, reference, batch, EVAL)
            sums, sumsqs, rows = zip(*pooled)
            count = sum(rows)
            mean = sum(sums) / count
            target.running_mean = mean.astype(np.float32)
            target.running_var = np.maximum(sum(sumsqs) / count - mean * mean, 0.0).astype(np.float32)

        for got, want in zip(norm_states(params), norm_states(reference)):
            assert got.running_mean.tobytes() == want.running_mean.tobytes()
            assert got.running_var.tobytes() == want.running_var.tobytes()

    def test_empty_dataset_rejected(self, small_cycle_splits):
        cfg = quick_config()
        with pytest.raises(ValueError, match="non-empty"):
            recalibrate_norm_stats(cfg, init_params(cfg, 0), small_cycle_splits[0].subset([]))


def stale_recal_case(conv, virtual_node):
    """A 40-graph multitask set, a 2-layer model on it, and its parameters
    with running statistics far from the population ones."""
    ds = gen_synthetic_dataset("random-multitask", 40, seed=2)
    m = ds.manifest
    cfg = ModelConfig(
        conv,
        m.node_field_cardinalities,
        m.edge_field_cardinalities,
        m.num_tasks,
        hidden=8,
        num_layers=2,
        radius=2,
        virtual_node=virtual_node,
    )
    params = init_params(cfg, 0)
    rng = np.random.default_rng(3)
    for state in norm_states(params):
        state.running_mean = rng.normal(size=state.running_mean.shape).astype(np.float32)
        state.running_var = rng.uniform(0.1, 5.0, size=state.running_var.shape).astype(np.float32)
    return ds, cfg, params


# scorer -> (module whose no_grad it uses, the module and name of a function
# it calls whose returned tensors are observed, a run returning its output).
# A recalibration pass ends inside the normalizer it records, so its forward
# returns nothing; the normalizers before that one return their outputs.
SCORERS = {
    "predict_logits": (train_mod, train_mod, "model_forward", predict_logits),
    "recalibrate_norm_stats": (train_mod, nn_mod, "batchnorm", recalibrate_norm_stats),
    "graph_embeddings": (
        nn_mod,
        nn_mod,
        "forward_node_embeddings",
        lambda cfg, p, ds: graph_embeddings(cfg, p, collate(ds.graphs, cfg.required_radius)),
    ),
}


class TestScoringRecordsNoTape:
    @staticmethod
    def score(name, monkeypatch, small_cycle_splits):
        """Run one scorer on fresh parameters; returns its output, the
        parameters with their running statistics, and the tensors the
        observed function returned."""
        _, module, forward, run = SCORERS[name]
        seen = []
        original = getattr(module, forward)

        def keep(*args, **kwargs):
            out = original(*args, **kwargs)
            seen.extend(out if isinstance(out, list) else [out])
            return out

        monkeypatch.setattr(module, forward, keep)
        cfg = ModelConfig("gine+", (1,), (1,), 1, hidden=8, num_layers=2, radius=2, virtual_node=True)
        params = init_params(cfg, 0)
        out = run(cfg, params, small_cycle_splits[1])
        return out, params, seen

    @pytest.mark.parametrize("name", SCORERS)
    def test_no_tensor_is_taped_and_no_gradient_moves(self, name, monkeypatch, small_cycle_splits):
        _, params, seen = self.score(name, monkeypatch, small_cycle_splits)
        assert seen and all(not t.requires_grad and t._parents == () and t._backward is None for t in seen)
        assert not any(p.grad.any() for p in parameters(params))

    @pytest.mark.parametrize("name", SCORERS)
    def test_bitwise_equal_to_the_taped_forward(self, name, monkeypatch, small_cycle_splits):
        out, params, _ = self.score(name, monkeypatch, small_cycle_splits)
        monkeypatch.setattr(SCORERS[name][0], "no_grad", contextlib.nullcontext)
        taped_out, taped_params, taped = self.score(name, monkeypatch, small_cycle_splits)
        assert all(t._parents for t in taped)  # the comparison ran with a tape
        assert (out is None and taped_out is None) or out.tobytes() == taped_out.tobytes()
        arrays, taped_arrays = named_arrays(params), named_arrays(taped_params)
        assert all(arrays[k].tobytes() == taped_arrays[k].tobytes() for k in arrays)

    def test_training_step_after_scoring_fills_every_gradient(self, small_cycle_splits):
        train_set, valid_set, _ = small_cycle_splits
        cfg = quick_config(conv="gine")
        batch = collate(train_set.graphs[:32], cfg.required_radius)
        grads = []
        for score_first in (True, False):
            params = init_params(cfg, 0)
            if score_first:
                evaluate(cfg, params, valid_set)
            backward(bce_with_logits_masked(model_forward(cfg, params, batch, TRAIN), train_set.labels[:32]))
            grads.append([p.grad for p in parameters(params)])
        assert all(g.any() for g in grads[0])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*grads))


class TestRunReplicates:
    def test_mean_and_sample_std(self):
        values = iter([0.2, 0.4])
        summary = run_replicates(lambda seed: {"m": next(values)}, seed=0, count=2)
        mean, std = summary["m"]
        assert mean == pytest.approx(0.3)
        assert std == pytest.approx(0.14142135623730953)

    def test_single_replicate_std_zero(self):
        summary = run_replicates(lambda seed: {"m": 0.7}, seed=0, count=1)
        assert summary["m"] == (0.7, 0.0)

    def test_deterministic_runs_have_zero_std(self):
        summary = run_replicates(lambda seed: {"m": 0.42}, seed=3, count=4)
        assert summary["m"][1] == 0.0

    def test_seeds_are_consecutive(self):
        seen = []
        run_replicates(lambda seed: (seen.append(seed), {"m": 0.0})[1], seed=10, count=3)
        assert seen == [10, 11, 12]

    def test_none_values_are_skipped(self):
        values = iter([0.2, None, 0.4])
        summary = run_replicates(lambda seed: {"m": next(values)}, seed=0, count=3)
        assert summary["m"] == pytest.approx((0.3, 0.14142135623730953))

    def test_key_without_values_aggregates_to_none(self):
        summary = run_replicates(lambda seed: {"m": None, "n": 1.0}, seed=0, count=2)
        assert summary == {"m": None, "n": (1.0, 0.0)}
