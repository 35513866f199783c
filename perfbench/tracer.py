"""In-memory spans around calls into the cyclegnn layers, for the traced run.

The traced run rebinds module attributes so that each call into a layer opens
a span. Modules import names with ``from .x import y``, so a name is rebound
in the module that calls it (``cyclegnn.train.collate``, not
``cyclegnn.data.collate``). The program is single-threaded, so spans nest:
a span's self time is its duration minus the durations of its direct
children. Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

# A percentile is reported only where at least this many samples lie beyond
# it, so p90 needs 100 calls.
MIN_SAMPLES_BEYOND = 10


class Tracer:
    """Records spans as [name_id, parent, start_ns, end_ns, child_ns] rows."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.samples: dict[str, list[float]] = {}

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, parent, self._clock(), 0, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must end in the reverse order they began")
        self._stack.pop()
        span = self.spans[index]
        span[3] = self._clock()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    def record(self, counter: str, value: float) -> None:
        self.samples.setdefault(counter, []).append(value)

    def wrap(self, fn, name, observe=None):
        """Return ``fn`` inside a span. ``name`` is a string or a function of
        (args, kwargs); ``observe(args, kwargs, result)`` runs after the span
        closes, so its cost is not charged to the layer."""

        def traced(*args, **kwargs):
            index = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def stats(self) -> dict[str, "SpanStats"]:
        out: dict[str, SpanStats] = {}
        for name_id, _, start, end, child in self.spans:
            stats = out.setdefault(self.names[name_id], SpanStats())
            stats.durations_ns.append(end - start)
            stats.self_ns += end - start - child
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "spans": self.spans, "samples": self.samples}, fh)


class SpanStats:
    def __init__(self):
        self.durations_ns: list[int] = []
        self.self_ns = 0

    @property
    def calls(self) -> int:
        return len(self.durations_ns)

    @property
    def total_s(self) -> float:
        return sum(self.durations_ns) / 1e9

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9

    def percentile_us(self, q: float) -> float:
        """Nearest-rank percentile of the per-call durations in microseconds,
        or 0 when fewer than MIN_SAMPLES_BEYOND samples lie beyond it."""
        n = len(self.durations_ns)
        rank = max(1, math.ceil(q * n - 1e-9))  # 1-based
        if n - rank < MIN_SAMPLES_BEYOND:
            return 0.0
        return sorted(self.durations_ns)[rank - 1] / 1e3


def _mode_name(prefix: str, position: int):
    def name(args, kwargs):
        return f"{prefix}.{args[position] if len(args) > position else kwargs['mode']}"

    return name


def tape_size(loss) -> int:
    """Tensors that backward() visits from ``loss``: every distinct tracked
    tensor on the tape, parameter leaves included, constants excluded."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@contextmanager
def traced(tracer: Tracer):
    """Trace every layer boundary the benchmark workloads cross."""
    from cyclegnn import cli, data, nn, synth, tensor, train

    built_for: dict[int, object] = {}  # keeps each graph alive so its id stays unique

    def khop_observe(args, kwargs, index):
        built_for[id(args[0])] = args[0]
        tracer.record("graph.khop_graph_ids", id(args[0]))
        tracer.record("graph.khop_pairs", sum(int(dst.size) for dst, _ in index.pairs))

    def collate_observe(args, kwargs, batch):
        tracer.record("data.collate.graphs", batch.num_graphs)

    def loss_observe(args, kwargs, loss):
        if loss.requires_grad:
            tracer.record("tensor.tape_nodes_per_step", tape_size(loss))

    saved: list[tuple[object, str, object]] = []

    def bind(owner, attr: str, name, observe=None) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, observe))

    bind(synth, "gen_synthetic_dataset", "synth.gen_synthetic_dataset")
    bind(data, "build_khop_index", "graph.build_khop_index", khop_observe)
    bind(train, "collate", "data.collate", collate_observe)
    bind(data, "save_dataset", "data.save_dataset")
    bind(cli, "load_dataset", "data.load_dataset")
    bind(train, "model_forward", _mode_name("nn.model_forward", 3))
    bind(train, "forward_node_embeddings", _mode_name("nn.forward_node_embeddings", 3))
    bind(nn, "forward_node_embeddings", _mode_name("nn.forward_node_embeddings", 3))
    for conv in ("gcn_conv", "gine_conv", "gineplus_conv", "naive_gineplus_conv"):
        bind(nn, conv, "nn.conv")
    bind(nn, "mlp_forward", "nn.mlp_forward")
    bind(nn, "virtual_node_update", "nn.virtual_node_update")
    bind(nn, "segment_sum", "tensor.segment_sum")
    bind(tensor, "segment_sum", "tensor.segment_sum")  # reached through segment_mean
    bind(nn, "gather_rows", "tensor.gather_rows")
    bind(nn, "embedding_sum", "tensor.embedding_sum")
    bind(nn, "batchnorm", "tensor.batchnorm")
    bind(train, "bce_with_logits_masked", "tensor.bce_with_logits_masked", loss_observe)
    bind(train, "backward", "tensor.backward")
    bind(tensor.Adam, "step", "tensor.adam_step")
    bind(tensor, "save_checkpoint", "tensor.save_checkpoint")
    bind(cli, "load_checkpoint", "tensor.load_checkpoint")
    bind(train, "train_model", "train.train_model")
    bind(train, "evaluate", "train.evaluate")
    bind(train, "recalibrate_norm_stats", "train.recalibrate_norm_stats")
    bind(train, "predict_logits", "train.predict_logits")
    bind(cli, "main", "cli.main")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return float(ordered[len(ordered) // 2]) if ordered else 0.0


# (metric, unit, better, value from (span stats, tracer samples)). Metrics of
# spans that never opened read 0; so do ratios and percentiles without data.
def _span(name: str, field: str):
    def value(stats, samples):
        s = stats.get(name)
        if s is None:
            return 0.0
        if field == "calls":
            return s.calls
        if field == "s":
            return s.total_s
        if field == "self_s":
            return s.self_s
        return s.percentile_us(0.5 if field == "p50_us" else 0.9)

    return value


def _useful_ratio(stats, samples):
    ids = samples.get("graph.khop_graph_ids", [])
    return len(set(ids)) / len(ids) if ids else 0.0


LAYER_METRICS = [
    ("graph.build_khop_index.calls", "count", "lower", _span("graph.build_khop_index", "calls")),
    ("graph.build_khop_index.s", "s", "lower", _span("graph.build_khop_index", "s")),
    ("graph.build_khop_index.p50_us", "us", "lower", _span("graph.build_khop_index", "p50_us")),
    ("graph.build_khop_index.p90_us", "us", "lower", _span("graph.build_khop_index", "p90_us")),
    ("graph.khop_pairs", "count", "lower", lambda st, sa: sum(sa.get("graph.khop_pairs", []))),
    ("graph.khop_useful_ratio", "ratio", "higher", _useful_ratio),
    ("data.collate.calls", "count", "lower", _span("data.collate", "calls")),
    ("data.collate.graphs", "count", "lower", lambda st, sa: sum(sa.get("data.collate.graphs", []))),
    ("data.collate.s", "s", "lower", _span("data.collate", "s")),
    ("data.collate.self_s", "s", "lower", _span("data.collate", "self_s")),
    ("data.collate.p50_us", "us", "lower", _span("data.collate", "p50_us")),
    ("data.collate.p90_us", "us", "lower", _span("data.collate", "p90_us")),
    ("data.load_dataset.s", "s", "lower", _span("data.load_dataset", "s")),
    ("data.save_dataset.s", "s", "lower", _span("data.save_dataset", "s")),
    ("nn.model_forward.train.s", "s", "lower", _span("nn.model_forward.train", "s")),
    ("nn.model_forward.eval.s", "s", "lower", _span("nn.model_forward.eval", "s")),
    ("nn.forward_node_embeddings.recal.s", "s", "lower", _span("nn.forward_node_embeddings.recal", "s")),
    ("nn.conv.calls", "count", "lower", _span("nn.conv", "calls")),
    ("nn.conv.s", "s", "lower", _span("nn.conv", "s")),
    ("nn.conv.self_s", "s", "lower", _span("nn.conv", "self_s")),
    ("nn.mlp_forward.s", "s", "lower", _span("nn.mlp_forward", "s")),
    ("nn.virtual_node_update.s", "s", "lower", _span("nn.virtual_node_update", "s")),
    ("tensor.backward.s", "s", "lower", _span("tensor.backward", "s")),
    ("tensor.adam_step.s", "s", "lower", _span("tensor.adam_step", "s")),
    ("tensor.tape_nodes_per_step", "count", "lower", lambda st, sa: _median(sa.get("tensor.tape_nodes_per_step", []))),
    ("tensor.segment_sum.calls", "count", "lower", _span("tensor.segment_sum", "calls")),
    ("tensor.segment_sum.s", "s", "lower", _span("tensor.segment_sum", "s")),
    ("tensor.segment_sum.p50_us", "us", "lower", _span("tensor.segment_sum", "p50_us")),
    ("tensor.segment_sum.p90_us", "us", "lower", _span("tensor.segment_sum", "p90_us")),
    ("tensor.gather_rows.s", "s", "lower", _span("tensor.gather_rows", "s")),
    ("tensor.embedding_sum.s", "s", "lower", _span("tensor.embedding_sum", "s")),
    ("tensor.batchnorm.s", "s", "lower", _span("tensor.batchnorm", "s")),
    ("tensor.save_checkpoint.s", "s", "lower", _span("tensor.save_checkpoint", "s")),
    ("tensor.load_checkpoint.s", "s", "lower", _span("tensor.load_checkpoint", "s")),
    ("train.train_model.s", "s", "lower", _span("train.train_model", "s")),
    ("train.evaluate.calls", "count", "lower", _span("train.evaluate", "calls")),
    ("train.evaluate.s", "s", "lower", _span("train.evaluate", "s")),
    ("train.recalibrate_norm_stats.s", "s", "lower", _span("train.recalibrate_norm_stats", "s")),
    ("train.predict_logits.s", "s", "lower", _span("train.predict_logits", "s")),
    ("cli.main.calls", "count", "lower", _span("cli.main", "calls")),
    ("cli.main.self_s", "s", "lower", _span("cli.main", "self_s")),
    ("synth.gen_synthetic_dataset.s", "s", "lower", _span("synth.gen_synthetic_dataset", "s")),
]

# Measured by the runner, not from spans: traced minus untraced throughput.
OVERHEAD_METRICS = [
    ("trace.overhead.train_graphs_per_s", "graphs/s", "higher"),
    ("trace.overhead.score_graphs_per_s", "graphs/s", "higher"),
]


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    stats = tracer.stats()
    return {
        name: {"value": value(stats, tracer.samples), "unit": unit}
        for name, unit, _, value in LAYER_METRICS
    }
