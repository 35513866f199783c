"""Training with masked multi-task cross-entropy, ranking metrics with tie
handling, early stopping on the validation metric, and replicate summaries."""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, collate
from .nn import (
    ModelConfig,
    ModelParams,
    forward_node_embeddings,
    init_params,
    load_arrays,
    model_forward,
    named_arrays,
    norm_states,
    parameters,
)
from .tensor import EVAL, RECAL, TRAIN, Adam, Tensor, _Pooled, backward, bce_with_logits_masked, no_grad

METRIC_ROC = "roc"
METRIC_PRC = "prc"
METRICS = (METRIC_ROC, METRIC_PRC)

_EVAL_BATCH = 256


def _tie_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """One past the last position of each run of equal values in a sorted
    array."""
    return np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1, sorted_scores.size)


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
    ends = _tie_ends(s[order])
    starts = np.append(0, ends[:-1])
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * ((starts + 1) + ends), ends - starts)  # midrank, 1-based
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
    ends = _tie_ends(s[order]) - 1
    tp = np.cumsum(y[order] == 1)[ends]
    fp = np.cumsum(y[order] == 0)[ends]
    terms = np.diff(tp, prepend=0) / total_pos * (tp / (tp + fp))
    return float(np.cumsum(terms)[-1])  # adds in threshold order; np.sum's pairwise order differs


_METRIC_FUNCS = {METRIC_ROC: roc_auc, METRIC_PRC: prc_auc}


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings. ``patience`` > 0 stops training after that many
    epochs without validation improvement and restores the best epoch's
    parameters; ``patience`` = 0 runs every epoch and keeps the last."""

    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    patience: int = 20
    metric: str = METRIC_ROC
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 0:
            raise ValueError("epochs and batch_size must be >= 1 and patience >= 0")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if not 0.0 <= self.learning_rate < math.inf:  # False for NaN too
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")


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


def _batches(dataset: Dataset, k_max: int, size: int, order=None):
    """Yield (indices, collated batch) over ``dataset`` in ``order``
    (default: dataset order), ``size`` graphs at a time."""
    idx = np.arange(len(dataset)) if order is None else order
    for start in range(0, len(dataset), size):
        chunk = idx[start : start + size]
        yield chunk, collate([dataset.graphs[i] for i in chunk], k_max)


def predict_logits(config: ModelConfig, params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Eval-mode logits for every graph, batched for memory; records no tape."""
    out = np.zeros((len(dataset), config.num_tasks))
    with no_grad():
        for idx, batch in _batches(dataset, config.required_radius, _EVAL_BATCH):
            out[idx] = model_forward(config, params, batch, EVAL).data
    return out


def report_from_logits(
    logits: np.ndarray, labels: np.ndarray, task_names: tuple[str, ...], metric: str
) -> EvalReport:
    """Score one logit matrix against a NaN-masked label matrix.

    Tasks with no positives or no negatives among the observed labels are
    UNDEFINED (None) and excluded from the macro mean. A non-finite logit
    raises ValueError, rather than scoring a diverged model at a ROC of 0.5.
    """
    diverged = int((~np.isfinite(logits)).any(axis=1).sum())
    if diverged:
        raise ValueError(f"{diverged} of {len(logits)} graphs have a non-finite logit: the model has diverged")
    metric_fn = _METRIC_FUNCS[metric]
    loss = float(bce_with_logits_masked(Tensor(logits), labels).data)
    per_task: list[float | None] = []
    for t in range(labels.shape[1]):
        observed = ~np.isnan(labels[:, t])
        y = labels[observed, t]
        per_task.append(metric_fn(logits[observed, t], y) if (y == 1).any() and (y == 0).any() else None)
    defined = [v for v in per_task if v is not None]
    macro = float(np.mean(defined)) if defined else float("nan")
    return EvalReport(task_names=task_names, per_task=tuple(per_task), macro=macro, loss=loss)


def evaluate(
    config: ModelConfig, params: ModelParams, dataset: Dataset, metric: str = METRIC_ROC
) -> EvalReport:
    """Side-effect-free eval-mode scoring with per-task missing-label masks."""
    logits = predict_logits(config, params, dataset)
    return report_from_logits(logits, dataset.labels, dataset.manifest.task_names, metric)


def recalibrate_norm_stats(config: ModelConfig, params: ModelParams, dataset: Dataset) -> None:
    """Rebuild every batchnorm's running statistics at fixed parameters.

    The exponential averages tracked during optimization lag behind parameter
    drift, and on features whose within-batch variance is near zero the
    eval-mode normalizer amplifies that lag by 1/sqrt(eps), compounding per
    layer. Normalizers are therefore recalibrated one at a time, in network
    order: each pools exact float64 statistics of its input over one pass, in
    scoring batches of ``_EVAL_BATCH`` graphs, through the eval path of the
    already-recalibrated ones. Each pass ends at the normalizer it records,
    since nothing after it can change its statistics, so nothing downstream
    is run or needs resetting first. The result is a self-consistent eval
    forward; deterministic, no rng, and no tape is recorded. Raises
    ValueError on an empty dataset.
    """
    if len(dataset) == 0:
        raise ValueError("recalibration needs a non-empty dataset")
    with no_grad():
        for state in norm_states(params):
            state.pool = []
            for _, batch in _batches(dataset, config.required_radius, _EVAL_BATCH):
                with suppress(_Pooled):
                    forward_node_embeddings(config, params, batch, RECAL)
            col_sums, col_sumsqs, rows = zip(*state.pool)
            state.pool = None
            count = sum(rows)
            mean = sum(col_sums) / count  # sum() adds in batch order, so the float64 result is reproducible
            state.running_mean = mean.astype(state.running_mean.dtype)
            state.running_var = np.maximum(sum(col_sumsqs) / count - mean * mean, 0.0).astype(state.running_var.dtype)


def train_epoch(
    config: ModelConfig,
    params: ModelParams,
    opt: Adam,
    dataset: Dataset,
    order,
    batch_size: int,
    rng: np.random.Generator,
    epoch: int,
) -> float:
    """One pass of Adam steps over ``dataset`` in ``order`` (None: dataset
    order), with dropout drawn from ``rng``. Returns the mean loss per
    observed label. Raises ValueError, naming ``epoch`` and the batch, as
    soon as a step's loss or a batchnorm running variance is not finite.
    The forward pass runs with numpy's overflow and invalid-value warnings
    off, since that check reports what overflowed."""
    norms = norm_states(params)
    loss_sum = 0.0
    observed_sum = 0.0
    for step, (idx, batch) in enumerate(_batches(dataset, config.required_radius, batch_size, order), start=1):
        with np.errstate(over="ignore", invalid="ignore"):
            logits = model_forward(config, params, batch, TRAIN, rng)
            loss = bce_with_logits_masked(logits, dataset.labels[idx])
        # Overflowing activations can leave the loss finite while the
        # batch variance, and so the eval path, is already inf.
        if not (np.isfinite(loss.data) and all(np.isfinite(s.running_var).all() for s in norms)):
            raise ValueError(
                f"training diverged at epoch {epoch}, batch {step}: non-finite loss or batchnorm variance"
            )
        opt.zero_grad()
        backward(loss)
        opt.step()
        n_observed = float((~np.isnan(dataset.labels[idx])).sum())
        loss_sum += float(loss.data) * n_observed
        observed_sum += n_observed
    return loss_sum / max(observed_sum, 1.0)


def train_model(
    config: ModelConfig,
    train_set: Dataset,
    valid_set: Dataset,
    train_config: TrainConfig,
) -> tuple[ModelParams, list[EpochRecord]]:
    """Minimize masked cross-entropy with Adam over shuffled minibatches.

    Deterministic for a fixed seed. Returns the selected parameters (best
    validation epoch when patience > 0, otherwise the final epoch) and the
    per-epoch history. Raises ValueError as :func:`train_epoch` and
    :func:`report_from_logits` do when training diverges.
    """
    if len(train_set) == 0:
        raise ValueError("empty training split")
    params = init_params(config, train_config.seed)
    opt = Adam(parameters(params), lr=train_config.learning_rate)
    shuffle_seq, drop_seq = np.random.SeedSequence(train_config.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    drop_rng = np.random.default_rng(drop_seq)

    history: list[EpochRecord] = []
    best_metric = -np.inf
    best_arrays: dict[str, np.ndarray] | None = None
    stale = 0
    for epoch in range(1, train_config.epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        train_loss = train_epoch(
            config, params, opt, train_set, order, train_config.batch_size, drop_rng, epoch
        )
        report = evaluate(config, params, valid_set, train_config.metric)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss, valid_metric=report.macro))
        if train_config.patience > 0:
            if np.isfinite(report.macro) and report.macro > best_metric:
                best_metric = report.macro
                best_arrays = {name: arr.copy() for name, arr in named_arrays(params).items()}
                stale = 0
            else:
                stale += 1
                if stale >= train_config.patience:
                    break
    if best_arrays is not None:
        load_arrays(params, best_arrays)
    recalibrate_norm_stats(config, params, train_set)
    return params, history


def _mean_std(values) -> tuple[float, float] | None:
    """Mean and sample std of the values that are not None (std 0 for one
    value), or None when no value is left."""
    kept = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if kept.size == 0:
        return None
    return float(kept.mean()), float(kept.std(ddof=1)) if kept.size > 1 else 0.0


def run_replicates(
    run_fn: Callable[[int], dict[str, float | None]], seed: int, count: int = 5
) -> dict[str, tuple[float, float] | None]:
    """Run ``run_fn`` with seeds seed..seed+count-1 and aggregate each reported
    value as (mean, sample std) over the replicates that report it (not
    None); a single value has std 0, and a key no replicate reports maps to
    None."""
    if count < 1:
        raise ValueError("replicate count must be >= 1")
    results = [run_fn(seed + i) for i in range(count)]
    return {key: _mean_std([r[key] for r in results]) for key in results[0]}
