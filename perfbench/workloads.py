"""The benchmark's three workloads, driven through cyclegnn's public functions.

Every workload repeats one unit of work, a *rep*, made of one or two
training operations and several scoring operations, and times each on its
own, in reference seconds (``hostspeed.py``).
Operations are counted, and one that raises, exits non-zero or fails its
output check counts as failed.

- ``cycles-gineplus``: the acceptance experiment's paper model (min-cycle-class,
  600 graphs, gine+ K=3, L=3, H=32). Collation with the k-hop build dominates.
- ``cycles-gine``: the same with 1-hop gine. No k-hop index is built; the
  per-op overhead of the tape dominates.
- ``multitask-score``: scoring 4000 random-multitask graphs through the CLI
  ``eval`` with gine+ K=2, L=3, H=100 and a virtual node; scatter and matmul
  work dominate, and it is the one workload that reads and writes dataset and
  checkpoint files. Its training operation is a short run on a 320-graph
  slice, so that it reports training throughput too.

``BENCHMARK.json`` declares cycles-gineplus and multitask-score; cycles-gine
runs by name (README.md says why).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import traceback

import numpy as np

from cyclegnn import cli, data, nn, synth, tensor, train

import fingerprints
import hostspeed

SPLIT = (0.8, 0.1, 0.1)
TRAIN_SEED = 0  # the acceptance experiment's TrainConfig seed


class CheckFailed(Exception):
    pass


class Operations:
    """Counts attempted and failed operations and keeps each failure's message."""

    def __init__(self, clock: hostspeed.HostClock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall_s: dict[str, list[float]] = {}  # wall seconds of each label's successful operations

    def run(self, label: str, fn, check):
        """Time ``fn()``; ``check(result)`` raises CheckFailed on a wrong output.
        Returns (result, reference seconds), or (None, None) when the
        operation failed."""
        self.attempted += 1
        try:
            result, wall, seconds = self.clock.time(fn)
            check(result)
        except Exception as exc:  # any failure of the program under test is counted, not fatal
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None, None
        self.wall_s.setdefault(label, []).append(wall)
        return result, seconds


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _accuracy(config, params, dataset) -> tuple[float, float]:
    """Per-task test accuracy and the majority rate it is compared against."""
    logits = train.predict_logits(config, params, dataset)
    accuracy = float(((logits > 0).astype(float) == dataset.labels).mean())
    freqs = dataset.labels.mean(axis=0)
    return accuracy, float(np.maximum(freqs, 1.0 - freqs).mean())


@dataclasses.dataclass
class State:
    dataset: data.Dataset
    config: nn.ModelConfig
    train_set: data.Dataset
    valid_set: data.Dataset
    test_set: data.Dataset
    paths: dict


class Workload:
    name: str
    epochs: int
    setups_per_rep: int

    def __init__(self):
        self.reference: dict = {}

    def same_as_first(self, key: str, value, what: str) -> None:
        """Outputs of a fixed seed must repeat exactly across reps."""
        _require(self.reference.setdefault(key, value) == value, f"repeated {what} differ")

    def fingerprint(self, state: State) -> dict:
        splits = (state.train_set, state.valid_set, state.test_set)
        return fingerprints.fingerprint(state.dataset, splits, state.config.required_radius)

    def check_history(self, history) -> None:
        losses = [h.train_loss for h in history]
        _require(bool(losses) and all(math.isfinite(x) for x in losses), f"non-finite training loss in {losses}")
        self.same_as_first("losses", losses, "same-seed training losses")

    def train(self, state: State, ops: Operations, check) -> tuple[object, float | None]:
        """One timed train_model call; returns its result and graphs/s."""
        tc = train.TrainConfig(
            epochs=self.epochs, batch_size=64, learning_rate=1e-3, patience=0, seed=TRAIN_SEED
        )
        result, seconds = ops.run(
            "train_model",
            lambda: train.train_model(state.config, state.train_set, state.valid_set, tc),
            check,
        )
        return result, None if seconds is None else self.epochs * len(state.train_set) / seconds


class CyclesWorkload(Workload):
    """train_model on min-cycle-class, then scoring of the whole dataset."""

    size = 600
    epochs = 20
    score_passes = 4  # evaluate() calls per rep, each timed on its own
    setups_per_rep = 5  # a set-up takes 0.03-0.06 s; more samples steady the median

    def __init__(self, name: str, conv: str, radius: int):
        super().__init__()
        self.name, self.conv, self.radius = name, conv, radius

    def setup(self, seed: int, workdir: str) -> State:
        dataset = synth.gen_synthetic_dataset(synth.TASK_MIN_CYCLE, self.size, seed)
        train_set, valid_set, test_set = data.random_split(dataset, SPLIT, seed)
        config = nn.ModelConfig(
            conv_type=self.conv,
            node_field_cards=dataset.manifest.node_field_cardinalities,
            edge_field_cards=dataset.manifest.edge_field_cardinalities,
            num_tasks=dataset.manifest.num_tasks,
            hidden=32,
            num_layers=3,
            radius=self.radius,
            dropout=0.0,
        )
        return State(dataset, config, train_set, valid_set, test_set, {})

    def check_training(self, state: State, result) -> None:
        params, history = result
        self.check_history(history)
        accuracy, majority = _accuracy(state.config, params, state.test_set)
        if self.conv == nn.CONV_GINE:
            _require(abs(accuracy - majority) <= 0.02, f"1-hop accuracy {accuracy:.3f} is not the majority rate {majority:.3f}")
        else:
            _require(accuracy >= 0.95, f"gine+ test accuracy {accuracy:.3f} < 0.95")

    def check_report(self, report) -> None:
        values = list(report.per_task) + [report.macro, report.loss]
        _require(all(v is not None and math.isfinite(v) for v in values), f"undefined or non-finite score in {values}")
        self.same_as_first("report", report, "scoring reports")

    def rep(self, state: State, ops: Operations) -> tuple[list[float], list[float]]:
        """Rates, in graphs/s, of the rep's training and scoring operations that succeeded."""
        result, train_rate = self.train(state, ops, lambda r: self.check_training(state, r))
        if result is None:
            return [], []
        params = result[0]
        score_rates = []
        for _ in range(self.score_passes):
            _, seconds = ops.run(
                "evaluate",
                lambda: train.evaluate(state.config, params, state.dataset),
                self.check_report,
            )
            if seconds is not None:
                score_rates.append(len(state.dataset) / seconds)
        return [train_rate], score_rates


class MultitaskWorkload(Workload):
    """CLI eval of a written dataset and checkpoint, plus a short train_model."""

    name = "multitask-score"
    size = 4000
    train_slice = 320
    epochs = 2
    score_evals = 2  # CLI evals per rep: scoring is this workload's main metric
    train_runs = 2  # train_model calls per rep, so a run has enough of them for a steady median
    setups_per_rep = 2

    def setup(self, seed: int, workdir: str) -> State:
        dataset = synth.gen_synthetic_dataset(synth.TASK_RANDOM_MULTITASK, self.size, seed)
        paths = {
            "data": os.path.join(workdir, "multitask.jsonl"),
            "checkpoint": os.path.join(workdir, "model.ckpt"),
            "report": os.path.join(workdir, "report.tsv"),
        }
        data.save_dataset(dataset, paths["data"])
        config = nn.ModelConfig(
            conv_type=nn.CONV_GINE_PLUS,
            node_field_cards=dataset.manifest.node_field_cardinalities,
            edge_field_cards=dataset.manifest.edge_field_cardinalities,
            num_tasks=dataset.manifest.num_tasks,
            hidden=100,
            num_layers=3,
            radius=2,
            virtual_node=True,
        )
        params = nn.init_params(config, TRAIN_SEED)
        tensor.save_checkpoint(
            nn.named_arrays(params), paths["checkpoint"], extra={"config": dataclasses.asdict(config)}
        )
        train_set, valid_set, test_set = data.random_split(
            dataset.subset(np.arange(self.train_slice)), SPLIT, seed
        )
        return State(dataset, config, train_set, valid_set, test_set, paths)

    def check_cli(self, state: State, result) -> None:
        code, stdout = result
        _require(code == 0, f"eval exited {code}")
        with open(state.paths["report"], "r", encoding="ascii") as fh:
            text = fh.read()
        rows = dict(line.split("\t") for line in text.splitlines()[2:])
        labels = state.dataset.labels
        for t, task in enumerate(state.dataset.manifest.task_names):
            observed = labels[~np.isnan(labels[:, t]), t]
            defined = bool((observed == 1).any() and (observed == 0).any())
            value = rows.get(task)
            if defined:
                _require(value is not None and math.isfinite(float(value)), f"{task}: expected a finite score, got {value!r}")
            else:
                _require(value == "undefined", f"{task}: expected 'undefined', got {value!r}")
        _require(math.isfinite(float(rows["loss"])), f"non-finite loss {rows['loss']!r}")
        _require(f"over {len(state.dataset)} graphs" in stdout, f"unexpected eval output {stdout!r}")
        self.same_as_first("report", text, "eval reports")

    def _eval(self, state: State) -> tuple[int, str]:
        argv = ["eval", "--checkpoint", state.paths["checkpoint"], "--data", state.paths["data"], "--out", state.paths["report"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        return code, out.getvalue()

    def rep(self, state: State, ops: Operations) -> tuple[list[float], list[float]]:
        """Rates, in graphs/s, of the rep's training and scoring operations that succeeded."""
        score_rates = []
        for _ in range(self.score_evals):
            if os.path.exists(state.paths["report"]):
                os.remove(state.paths["report"])
            _, seconds = ops.run("cli eval", lambda: self._eval(state), lambda r: self.check_cli(state, r))
            if seconds is not None:
                score_rates.append(len(state.dataset) / seconds)
        train_rates = []
        for _ in range(self.train_runs):
            _, train_rate = self.train(state, ops, lambda r: self.check_history(r[1]))
            if train_rate is not None:
                train_rates.append(train_rate)
        return train_rates, score_rates


WORKLOADS = {
    wl.name: wl
    for wl in (
        CyclesWorkload("cycles-gineplus", nn.CONV_GINE_PLUS, 3),
        CyclesWorkload("cycles-gine", nn.CONV_GINE, 1),
        MultitaskWorkload(),
    )
}
