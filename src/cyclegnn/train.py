"""Training with masked multi-task cross-entropy, ranking metrics with tie
handling, early stopping on the validation metric, and replicate summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, collate
from .nn import (
    ModelConfig,
    ModelParams,
    clone_params,
    forward_node_embeddings,
    init_params,
    model_forward,
    norm_states,
    parameters,
)
from .tensor import EVAL, RECAL, TRAIN, Adam, Tensor, backward, bce_with_logits_masked

METRIC_ROC = "roc"
METRIC_PRC = "prc"
METRICS = (METRIC_ROC, METRIC_PRC)


def roc_auc(scores, labels) -> float | None:
    """Probability that a random positive outranks a random negative, with
    midrank tie handling. Returns None when either class is absent."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    if pos == 0 or neg == 0:
        return None
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * ((i + 1) + (j + 1))  # midrank, 1-based
        i = j + 1
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def prc_auc(scores, labels) -> float | None:
    """Average precision with step interpolation over distinct thresholds.

    Returns None when there are no positives.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    total_pos = int((y == 1).sum())
    if total_pos == 0:
        return None
    order = np.argsort(-s, kind="stable")
    sorted_s = s[order]
    sorted_y = y[order]
    ap = 0.0
    tp = fp = 0
    prev_tp = 0
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        tp += int((sorted_y[i : j + 1] == 1).sum())
        fp += int((sorted_y[i : j + 1] == 0).sum())
        precision = tp / (tp + fp)
        ap += (tp - prev_tp) / total_pos * precision
        prev_tp = tp
        i = j + 1
    return ap


_METRIC_FUNCS = {METRIC_ROC: roc_auc, METRIC_PRC: prc_auc}


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings. ``patience`` > 0 stops training after that many
    epochs without validation improvement and restores the best epoch's
    parameters; ``patience`` = 0 runs every epoch and keeps the last."""

    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    patience: int = 20
    metric: str = METRIC_ROC
    seed: int = 0
    replicates: int = 5

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 0 or self.replicates < 1:
            raise ValueError("epochs and batch_size must be >= 1, patience and replicates >= 0/1")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    valid_metric: float  # NaN when undefined on the validation split


@dataclass(frozen=True)
class EvalReport:
    """Per-task metric values (None where the task has no positives or no
    negatives in the split) plus their macro mean and the masked loss."""

    task_names: tuple[str, ...]
    per_task: tuple[float | None, ...]
    macro: float
    loss: float


def _batches(n: int, size: int, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, size):
        yield idx[start : start + size]


def predict_logits(
    config: ModelConfig, params: ModelParams, dataset: Dataset, batch_size: int = 256
) -> np.ndarray:
    """Eval-mode logits for every graph, batched for memory."""
    out = np.zeros((len(dataset), config.num_tasks))
    for idx in _batches(len(dataset), batch_size):
        batch = collate([dataset.graphs[i] for i in idx], None, config.required_radius)
        out[idx] = model_forward(config, params, batch, EVAL).data
    return out


def report_from_logits(
    logits: np.ndarray, labels: np.ndarray, task_names: tuple[str, ...], metric: str
) -> EvalReport:
    """Score one logit matrix against a NaN-masked label matrix.

    Tasks with no positives or no negatives among the observed labels are
    UNDEFINED (None) and excluded from the macro mean.
    """
    metric_fn = _METRIC_FUNCS[metric]
    mask = ~np.isnan(labels)
    targets = np.where(mask, labels, 0.0)
    loss = float(bce_with_logits_masked(Tensor(logits), targets, mask.astype(np.float64)).data)
    per_task: list[float | None] = []
    for t in range(labels.shape[1]):
        observed = mask[:, t]
        y = labels[observed, t]
        if observed.sum() == 0 or (y == 1).sum() == 0 or (y == 0).sum() == 0:
            per_task.append(None)
        else:
            per_task.append(metric_fn(logits[observed, t], y))
    defined = [v for v in per_task if v is not None]
    macro = float(np.mean(defined)) if defined else float("nan")
    return EvalReport(task_names=task_names, per_task=tuple(per_task), macro=macro, loss=loss)


def evaluate(
    config: ModelConfig,
    params: ModelParams,
    dataset: Dataset,
    metric: str = METRIC_ROC,
    batch_size: int = 256,
) -> EvalReport:
    """Side-effect-free eval-mode scoring with per-task missing-label masks."""
    logits = predict_logits(config, params, dataset, batch_size)
    return report_from_logits(logits, dataset.labels, dataset.manifest.task_names, metric)


def recalibrate_norm_stats(
    config: ModelConfig, params: ModelParams, dataset: Dataset, batch_size: int = 512
) -> None:
    """Rebuild every batchnorm's running statistics at fixed parameters.

    The exponential averages tracked during optimization lag behind parameter
    drift, and on features whose within-batch variance is near zero the
    eval-mode normalizer amplifies that lag by 1/sqrt(eps), compounding per
    layer. Normalizers are therefore recalibrated one at a time, in network
    order, each recording exact population statistics of its input while the
    data propagates through the eval path of the already-recalibrated ones.
    The result is a self-consistent eval forward; deterministic, no rng.
    """
    states = norm_states(params)
    for state in states:
        state.reset()
    for state in states:
        state.recording = True
        for idx in _batches(len(dataset), batch_size):
            batch = collate([dataset.graphs[i] for i in idx], None, config.required_radius)
            forward_node_embeddings(config, params, batch, RECAL)
        state.recording = False


def train_model(
    config: ModelConfig,
    train_set: Dataset,
    valid_set: Dataset,
    train_config: TrainConfig,
) -> tuple[ModelParams, list[EpochRecord]]:
    """Minimize masked cross-entropy with Adam over shuffled minibatches.

    Deterministic for a fixed seed. Returns the selected parameters (best
    validation epoch when patience > 0, otherwise the final epoch) and the
    per-epoch history. Raises ValueError, naming the epoch and batch, as soon
    as a step's loss or a batchnorm running variance is not finite.
    """
    if len(train_set) == 0:
        raise ValueError("empty training split")
    params = init_params(config, train_config.seed)
    opt = Adam(parameters(params), lr=train_config.learning_rate, betas=train_config.betas)
    shuffle_seq, drop_seq = np.random.SeedSequence(train_config.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    drop_rng = np.random.default_rng(drop_seq)
    k_max = config.required_radius
    norms = norm_states(params)

    history: list[EpochRecord] = []
    best_metric = -np.inf
    best_params: ModelParams | None = None
    stale = 0
    for epoch in range(1, train_config.epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        loss_sum = 0.0
        observed_sum = 0.0
        for step, idx in enumerate(_batches(len(train_set), train_config.batch_size, order), start=1):
            batch = collate([train_set.graphs[i] for i in idx], train_set.labels[idx], k_max)
            logits = model_forward(config, params, batch, TRAIN, drop_rng)
            loss = bce_with_logits_masked(logits, batch.labels, batch.label_mask)
            # Overflowing activations can leave the loss finite while the
            # batch variance, and so the eval path, is already inf.
            if not (np.isfinite(loss.data) and all(np.isfinite(s.running_var).all() for s in norms)):
                raise ValueError(
                    f"training diverged at epoch {epoch}, batch {step}: non-finite loss or batchnorm variance"
                )
            opt.zero_grad()
            backward(loss)
            opt.step()
            n_observed = float(batch.label_mask.sum())
            loss_sum += float(loss.data) * n_observed
            observed_sum += n_observed
        train_loss = loss_sum / max(observed_sum, 1.0)
        report = evaluate(config, params, valid_set, train_config.metric)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss, valid_metric=report.macro))
        if train_config.patience > 0:
            if np.isfinite(report.macro) and report.macro > best_metric:
                best_metric = report.macro
                best_params = clone_params(params)
                stale = 0
            else:
                stale += 1
                if stale >= train_config.patience:
                    break
    selected = best_params if train_config.patience > 0 and best_params is not None else params
    recalibrate_norm_stats(config, selected, train_set)
    return selected, history


def run_replicates(
    run_fn: Callable[[int], dict[str, float]], seed: int, count: int = 5
) -> dict[str, tuple[float, float]]:
    """Run ``run_fn`` with seeds seed..seed+count-1 and aggregate each reported
    value as (mean, sample std); a single replicate reports std 0."""
    if count < 1:
        raise ValueError("replicate count must be >= 1")
    results = [run_fn(seed + i) for i in range(count)]
    summary: dict[str, tuple[float, float]] = {}
    for key in results[0]:
        values = np.asarray([r[key] for r in results], dtype=np.float64)
        std = float(values.std(ddof=1)) if count > 1 else 0.0
        summary[key] = (float(values.mean()), std)
    return summary
