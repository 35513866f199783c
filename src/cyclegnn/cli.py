"""Command-line interface.

Subcommands: ``gen`` (synthetic datasets), ``train``, ``eval``,
``counterexample`` (doubled-graph pair plus verification), ``bench``
(timing/parameter table). Options resolve as flags > config file > defaults,
and every output file records the resolved run spec in its header.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import nn, synth, train as training
from .data import Dataset, collate, load_dataset, random_split, save_dataset
from .graph import make_counterexample_pair
from .tensor import Adam, load_checkpoint, save_checkpoint


class CliError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("split must be three comma-separated fractions")
    return tuple(parts)  # type: ignore[return-value]


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in str(text).split(","))


def _parse_edge(text: str) -> tuple[int, int]:
    parts = [int(p) for p in str(text).split(",")]
    if len(parts) != 2:
        raise ValueError("edge must be two comma-separated node ids")
    return parts[0], parts[1]


@dataclass(frozen=True)
class Option:
    parse: object  # str -> value
    default: object = None  # None with required=True means "must be given"
    required: bool = False
    choices: tuple | None = None
    flag: bool = False  # boolean store-true style
    help: str = ""


_COMMON = {
    "seed": Option(int, 0, help="base random seed"),
}

_MODEL_OPTIONS = {
    "conv": Option(str, required=True, choices=nn.CONV_TYPES, help="convolution type"),
    "radius": Option(int, 1, help="kernel radius K for the wide convolutions"),
    "layers": Option(int, 3, help="number of conv blocks"),
    "hidden": Option(int, 100, help="embedding width H"),
    "virtual_node": Option(_parse_bool, False, flag=True, help="add a per-graph virtual node"),
    "dropout": Option(float, 0.5, help="dropout probability"),
}

OPTIONS: dict[str, dict[str, Option]] = {
    "gen": {
        **_COMMON,
        "task": Option(str, required=True, choices=synth.TASK_SPECS, help="synthetic task"),
        "size": Option(int, required=True, help="number of graphs"),
        "out": Option(str, required=True, help="output dataset path"),
    },
    "train": {
        **_COMMON,
        **_MODEL_OPTIONS,
        "data": Option(str, required=True, help="dataset path"),
        "out": Option(str, required=True, help="output prefix for checkpoint/report files"),
        "metric": Option(str, "roc", choices=training.METRICS, help="validation/test metric"),
        "replicates": Option(int, 5, help="independent runs with consecutive seeds"),
        "epochs": Option(int, 100),
        "batch_size": Option(int, 64),
        "lr": Option(float, 1e-3, help="Adam learning rate"),
        "patience": Option(int, 20, help="early-stopping patience; 0 disables"),
        "split": Option(_parse_fractions, (0.8, 0.1, 0.1), help="train,valid,test fractions"),
    },
    "eval": {
        **_COMMON,
        "checkpoint": Option(str, required=True, help="checkpoint manifest path"),
        "data": Option(str, required=True, help="dataset path"),
        "metric": Option(str, "roc", choices=training.METRICS),
        "out": Option(str, required=True, help="report path"),
    },
    "counterexample": {
        **_COMMON,
        "data": Option(str, required=True, help="dataset path holding the input graph"),
        "index": Option(int, 0, help="graph index within the dataset"),
        "edge": Option(_parse_edge, required=True, help="edge to cross, as 'i,j'"),
        "out": Option(str, required=True, help="output prefix"),
        "layers": Option(int, 3),
        "hidden": Option(int, 32),
        "radius": Option(int, 3, help="wide-conv radius for the separation probe"),
    },
    "bench": {
        **_COMMON,
        "data": Option(str, required=True, help="dataset path"),
        "radii": Option(_parse_int_list, (1, 2, 3), help="wide-conv radii to time"),
        "epochs": Option(int, 1, help="epochs to time per configuration"),
        "layers": Option(int, 3),
        "hidden": Option(int, 100),
        "batch_size": Option(int, 64),
        "out": Option(str, None, help="optional path for the table"),
    },
}


@dataclass(frozen=True)
class RunSpec:
    """A fully resolved subcommand invocation."""

    command: str
    options: dict

    def header(self) -> dict:
        opts = {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(self.options.items())
        }
        return {"command": self.command, "options": opts}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def resolve_runspec(command: str, cli_given: dict, config_path: str | None) -> RunSpec:
    """Merge defaults, config-file entries and explicit flags, in that order."""
    spec = OPTIONS[command]
    resolved = {name: opt.default for name, opt in spec.items()}
    if config_path is not None:
        for key, raw in _read_config_file(config_path).items():
            if key not in spec:
                raise CliError(f"unknown config key {key!r} for command {command!r}")
            try:
                value = spec[key].parse(raw)
            except ValueError as exc:
                raise CliError(f"config key {key!r}: {exc}") from exc
            if spec[key].choices and value not in spec[key].choices:
                raise CliError(f"config key {key!r}: must be one of {spec[key].choices}")
            resolved[key] = value
    resolved.update(cli_given)
    for name, opt in spec.items():
        if opt.required and resolved[name] is None:
            raise CliError(f"missing required option --{name.replace('_', '-')}")
    return RunSpec(command=command, options=resolved)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclegnn",
        description="Graph classifiers with wide-kernel GIN convolutions and expressiveness probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key=value config file")
        for name, opt in spec.items():
            flag = "--" + name.replace("_", "-")
            if opt.flag:
                p.add_argument(flag, dest=name, action="store_true", default=argparse.SUPPRESS, help=opt.help)
            else:
                p.add_argument(
                    flag,
                    dest=name,
                    type=opt.parse,
                    choices=opt.choices,
                    default=argparse.SUPPRESS,
                    help=opt.help,
                )
    return parser


def _write_table(path: str | None, runspec: RunSpec, lines: list[str]) -> None:
    text = "# runspec " + json.dumps(runspec.header(), sort_keys=True) + "\n" + "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def cmd_gen(runspec: RunSpec) -> int:
    o = runspec.options
    dataset = synth.gen_synthetic_dataset(o["task"], o["size"], o["seed"])
    save_dataset(dataset, o["out"], header=runspec.header())
    observed = ~np.isnan(dataset.labels)
    positives = float((dataset.labels == 1.0).sum())
    pos_ratio = positives / max(float(observed.sum()), 1.0)
    missing_ratio = 1.0 - float(observed.mean()) if dataset.labels.size else 0.0
    print(
        f"wrote {o['out']}: graphs={len(dataset)} tasks={dataset.manifest.num_tasks} "
        f"positive_ratio={pos_ratio:.4f} missing_ratio={missing_ratio:.4f}"
    )
    return 0


def _model_config(options: dict, dataset: Dataset) -> nn.ModelConfig:
    return nn.ModelConfig(
        conv_type=options["conv"],
        node_field_cards=dataset.manifest.node_field_cardinalities,
        edge_field_cards=dataset.manifest.edge_field_cardinalities,
        num_tasks=dataset.manifest.num_tasks,
        hidden=options["hidden"],
        num_layers=options["layers"],
        radius=options["radius"],
        virtual_node=options["virtual_node"],
        dropout=options["dropout"],
    )


def cmd_train(runspec: RunSpec) -> int:
    o = runspec.options
    dataset = load_dataset(o["data"])
    config = _model_config(o, dataset)
    train_set, valid_set, test_set = random_split(dataset, o["split"], o["seed"])
    metric_key = "test_" + o["metric"]
    runs = []  # (seed, test report, params, history) per replicate

    def run(seed: int) -> dict[str, float | None]:
        tc = training.TrainConfig(
            epochs=o["epochs"],
            batch_size=o["batch_size"],
            learning_rate=o["lr"],
            patience=o["patience"],
            metric=o["metric"],
            seed=seed,
        )
        params, history = training.train_model(config, train_set, valid_set, tc)
        report = training.evaluate(config, params, test_set, o["metric"])
        runs.append((seed, report, params, history))
        per_task = {"task." + name: value for name, value in zip(report.task_names, report.per_task)}
        return {metric_key: report.macro, "test_loss": report.loss, **per_task}

    summary = training.run_replicates(run, o["seed"], o["replicates"])
    _, _, params, history = runs[0]
    save_checkpoint(
        nn.named_arrays(params),
        o["out"] + ".ckpt",
        extra={"config": dataclasses.asdict(config), "runspec": runspec.header()},
    )
    hist_lines = ["epoch\ttrain_loss\tvalid_metric"]
    hist_lines += [f"{h.epoch}\t{_fmt(h.train_loss)}\t{_fmt(h.valid_metric)}" for h in history]
    _write_table(o["out"] + ".history.tsv", runspec, hist_lines)

    def aggregate_row(name: str, key: str) -> str:
        if summary[key] is None:
            return f"{name}\tundefined\tundefined"
        return f"{name}\t{_fmt(summary[key][0])}\t{_fmt(summary[key][1])}"

    lines = ["replicate\tseed\t" + metric_key + "\ttest_loss"]
    lines += [f"{r}\t{seed}\t{_fmt(rep.macro)}\t{_fmt(rep.loss)}" for r, (seed, rep, _, _) in enumerate(runs)]
    lines += ["# aggregate", "quantity\tmean\tstd"]
    lines += [aggregate_row(metric_key, metric_key), aggregate_row("test_loss", "test_loss")]
    lines += ["# per-task", "task\tmean\tstd"]
    lines += [aggregate_row(name, "task." + name) for name in dataset.manifest.task_names]
    _write_table(o["out"] + ".summary.tsv", runspec, lines)
    mean, std = summary[metric_key]
    print(f"{metric_key} = {mean:.4f} +- {std:.4f} over {len(runs)} replicate(s)")
    return 0


def _load_model(checkpoint_path: str) -> tuple[nn.ModelConfig, nn.ModelParams, dict]:
    arrays, extra = load_checkpoint(checkpoint_path)
    if "config" not in extra:
        raise CliError(f"checkpoint {checkpoint_path} lacks a model config")
    try:
        config = nn.ModelConfig(**extra["config"])
    except (TypeError, ValueError) as exc:
        raise CliError(f"checkpoint {checkpoint_path} has an invalid model config: {exc}") from None
    params = nn.init_params(config, seed=0)
    nn.load_arrays(params, arrays)
    return config, params, extra


def cmd_eval(runspec: RunSpec) -> int:
    o = runspec.options
    config, params, _ = _load_model(o["checkpoint"])
    dataset = load_dataset(o["data"])
    if (
        dataset.manifest.node_field_cardinalities != config.node_field_cards
        or dataset.manifest.edge_field_cardinalities != config.edge_field_cards
        or dataset.manifest.num_tasks != config.num_tasks
    ):
        raise CliError("checkpoint and dataset manifests do not match")
    report = training.evaluate(config, params, dataset, o["metric"])
    lines = ["task\t" + o["metric"]]
    for name, value in zip(report.task_names, report.per_task):
        lines.append(f"{name}\t" + ("undefined" if value is None else _fmt(value)))
    lines.append(f"macro\t{_fmt(report.macro)}")
    lines.append(f"loss\t{_fmt(report.loss)}")
    _write_table(o["out"], runspec, lines)
    print(f"macro {o['metric']} = {report.macro:.4f} over {len(dataset)} graphs")
    return 0


def cmd_counterexample(runspec: RunSpec) -> int:
    o = runspec.options
    dataset = load_dataset(o["data"])
    if not 0 <= o["index"] < len(dataset):
        raise CliError(f"graph index {o['index']} out of range")
    g = dataset.graphs[o["index"]]
    paired = make_counterexample_pair(g, o["edge"])

    manifest = dataset.manifest
    orig = Dataset([g], dataset.labels[o["index"] : o["index"] + 1], manifest)
    twin = Dataset([paired], np.full((1, manifest.num_tasks), np.nan), manifest)
    save_dataset(orig, o["out"] + ".orig.jsonl", header=runspec.header())
    save_dataset(twin, o["out"] + ".pair.jsonl", header=runspec.header())

    def embeddings(conv: str, radius: int, graph) -> list[np.ndarray]:
        config = nn.ModelConfig(
            conv_type=conv,
            node_field_cards=manifest.node_field_cardinalities,
            edge_field_cards=manifest.edge_field_cardinalities,
            num_tasks=1,
            hidden=o["hidden"],
            num_layers=o["layers"],
            radius=radius,
            dropout=0.0,
        )
        params = nn.init_params(config, o["seed"], dtype=np.float64)
        batch = collate([graph], None, config.required_radius)
        return [t.data for t in nn.forward_node_embeddings(config, params, batch, "eval")]

    n = g.num_nodes
    gine_disc = 0.0
    for h_g, h_pair in zip(embeddings("gine", 1, g), embeddings("gine", 1, paired)):
        gine_disc = max(
            gine_disc,
            float(np.abs(h_pair[:n] - h_g).max()),
            float(np.abs(h_pair[n:] - h_g).max()),
        )
    # a cycle of length c needs radius >= c/2 before any shell size differs
    # between the graph and its doubled twin, hence the default radius of 3
    radius = max(o["radius"], 2)
    plus_g = embeddings("gine+", radius, g)[-1].mean(axis=0)
    plus_pair = embeddings("gine+", radius, paired)[-1].mean(axis=0)
    plus_disc = float(np.linalg.norm(plus_pair - plus_g))

    lines = [
        "quantity\tvalue",
        f"nodes_original\t{n}",
        f"nodes_pair\t{paired.num_nodes}",
        f"probe_radius\t{radius}",
        f"gine_max_node_discrepancy\t{gine_disc:.3e}",
        f"gineplus_graph_discrepancy\t{plus_disc:.3e}",
    ]
    _write_table(o["out"] + ".report.tsv", runspec, lines)
    print(
        f"1-hop conv node discrepancy {gine_disc:.3e} (expect < 1e-5); "
        f"radius-{radius} graph discrepancy {plus_disc:.3e} (expect > 1e-3 for cyclic inputs)"
    )
    return 0


def cmd_bench(runspec: RunSpec) -> int:
    o = runspec.options
    dataset = load_dataset(o["data"])
    configs = [("gine", 1)] + [("gine+", k) for k in o["radii"]]
    rows = []
    base_params = None
    base_time = None
    for conv, radius in configs:
        opts = dict(o)
        opts.update({"conv": conv, "radius": radius, "virtual_node": False, "dropout": 0.5})
        config = _model_config(opts, dataset)
        params = nn.init_params(config, o["seed"])
        opt = Adam(nn.parameters(params))
        rng = np.random.default_rng(o["seed"])
        start = time.perf_counter()
        for epoch in range(1, o["epochs"] + 1):
            training.train_epoch(config, params, opt, dataset, None, o["batch_size"], rng, epoch)
        seconds = (time.perf_counter() - start) / o["epochs"]
        count = nn.param_count(config)
        if conv == "gine":
            base_params, base_time = count, seconds
        rows.append(
            f"{conv}\t{radius}\t{count}\t{count - base_params}\t{seconds:.4f}\t{seconds / base_time:.3f}"
        )
    lines = ["conv\tradius\tparams\tparam_delta_vs_gine\tsec_per_epoch\ttime_ratio_vs_gine"] + rows
    _write_table(o.get("out"), runspec, lines)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "counterexample": cmd_counterexample,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        runspec = resolve_runspec(args.command, given, args.config)
        return _COMMANDS[args.command](runspec)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
