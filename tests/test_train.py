import numpy as np
import pytest

from cyclegnn.data import combine_datasets, random_split
from cyclegnn.data import collate
from cyclegnn.nn import ModelConfig, init_params, model_forward, parameters
from cyclegnn.synth import gen_synthetic_dataset
from cyclegnn.tensor import TRAIN, Adam, Tensor, bce_with_logits_masked
from cyclegnn.train import (
    TrainConfig,
    evaluate,
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
        packed = float(
            bce_with_logits_masked(
                Tensor(logits[keep].reshape(1, -1)),
                labels[keep].reshape(1, -1),
                np.ones((1, int(keep.sum()))),
            ).data
        )
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
            batch = collate([data.graphs[i] for i in idx], data.labels[idx], cfg.required_radius)
            loss = bce_with_logits_masked(model_forward(cfg, params, batch, TRAIN), batch.labels, batch.label_mask)
            total += float(loss.data) * batch.label_mask.sum()
            observed += batch.label_mask.sum()
        assert mean_loss == pytest.approx(total / observed, rel=1e-6)

    def test_divergence_names_epoch_and_batch(self, small_cycle_splits):
        train_set, _, _ = small_cycle_splits
        cfg = quick_config()
        params = init_params(cfg, 0)
        params.classifier.weight.data[:] = np.inf
        opt = Adam(parameters(params))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged at epoch 7, batch 1"):
            train_epoch(cfg, params, opt, train_set, None, 32, np.random.default_rng(0), 7)


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
