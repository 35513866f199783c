import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cyclegnn.cli import main
from cyclegnn.data import load_dataset, random_split, save_dataset
from cyclegnn.nn import ModelConfig
from cyclegnn.synth import gen_cycle_union, gen_synthetic_dataset
from cyclegnn.tensor import load_checkpoint, save_checkpoint
from cyclegnn.train import TrainConfig, evaluate, train_model
from cyclegnn.data import Dataset
import cyclegnn.cli as cli_mod
import cyclegnn.data as data_mod
import cyclegnn.nn as nn_mod
from conftest import edit_manifest


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture()
def cycle_file(tmp_path):
    """Single C6 graph in dataset format, for counterexample runs."""
    g = gen_cycle_union([6])
    ds = Dataset(
        [g],
        np.array([[1.0]]),
        data_mod.DatasetManifest((1,), (1,), ("dummy",)),
    )
    path = str(tmp_path / "c6.jsonl")
    save_dataset(ds, path)
    return path


class TestGen:
    def test_writes_dataset_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "mc.jsonl")
        assert run(["gen", "--task", "min-cycle-class", "--size", "30", "--seed", "7", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "graphs=30" in printed and "tasks=3" in printed
        ds = load_dataset(out)
        assert len(ds) == 30 and ds.manifest.num_tasks == 3
        assert os.listdir(tmp_path) == ["mc.jsonl"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        args = ["gen", "--task", "has-small-cycle", "--size", "20", "--seed", "3"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        content = lambda p: open(p, "rb").read().replace(a.encode(), b"OUT").replace(b.encode(), b"OUT")
        assert content(a) == content(b)

    def test_positive_ratio_matches_recount(self, tmp_path, capsys):
        out = str(tmp_path / "r.jsonl")
        run(["gen", "--task", "random-multitask", "--size", "40", "--seed", "1", "--out", out])
        printed = capsys.readouterr().out
        ratio = float(printed.split("positive_ratio=")[1].split()[0])
        ds = load_dataset(out)
        observed = ~np.isnan(ds.labels)
        assert ratio == pytest.approx((ds.labels == 1).sum() / observed.sum(), abs=1e-4)

    def test_unknown_task_fails_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--task", "nope", "--size", "5", "--out", str(tmp_path / "x")])
        assert exc.value.code != 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny CLI training run shared by the train/eval tests."""
    root = tmp_path_factory.mktemp("train")
    data = str(root / "d.jsonl")
    run(["gen", "--task", "has-small-cycle", "--size", "40", "--seed", "5", "--out", data])
    prefix = str(root / "model")
    code = run(
        [
            "train", "--data", data, "--out", prefix, "--conv", "gine+", "--radius", "2",
            "--layers", "2", "--hidden", "8", "--dropout", "0.0", "--epochs", "2",
            "--batch-size", "16", "--replicates", "1", "--patience", "0", "--seed", "0",
        ]
    )
    return code, data, prefix


class TestTrain:
    def test_writes_all_artifacts(self, trained):
        code, data, prefix = trained
        assert code == 0
        written = sorted(os.path.basename(prefix) + s for s in (".ckpt", ".history.tsv", ".summary.tsv"))
        assert sorted(os.listdir(os.path.dirname(prefix))) == sorted([os.path.basename(data)] + written)

    def test_history_has_one_record_per_epoch(self, trained):
        _, _, prefix = trained
        lines = [l for l in open(prefix + ".history.tsv") if not l.startswith("#")]
        assert lines[0].startswith("epoch\t")
        assert len(lines) == 1 + 2  # header + 2 epochs

    def test_single_replicate_reports_zero_std(self, trained):
        _, _, prefix = trained
        text = open(prefix + ".summary.tsv").read()
        agg = [l for l in text.splitlines() if l.startswith("test_roc\t")][0]
        assert agg.split("\t")[2] == "0"

    def test_summary_contains_runspec_header(self, trained):
        _, _, prefix = trained
        first = open(prefix + ".summary.tsv").readline()
        assert first.startswith("# runspec ")
        spec = json.loads(first[len("# runspec "):])
        assert spec["command"] == "train" and spec["options"]["conv"] == "gine+"

    def test_invalid_conv_name_is_usage_error(self, tmp_path, trained):
        _, data, _ = trained
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", data, "--out", str(tmp_path / "x"), "--conv", "wrong"])
        assert exc.value.code != 0

    def test_missing_required_flag_reported(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_divergence_exits_one_with_one_line_error(self, tmp_path, trained, capsys):
        _, data, _ = trained
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--data", data, "--out", str(tmp_path / "x"), "--conv", "gine+",
                         "--radius", "2", "--layers", "2", "--hidden", "8", "--dropout", "0.0",
                         "--epochs", "2", "--batch-size", "16", "--replicates", "1", "--lr", "1e6"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: training diverged at epoch ")
        assert ", batch " in err
        assert not os.path.exists(str(tmp_path / "x.ckpt"))

    def test_failed_write_never_leaves_tables_of_another_run(self, trained, tmp_path, capsys, fill_disk):
        """A train whose k-th write fails, for every k, leaves no history or
        summary table beside a checkpoint of another run spec."""
        _, data, _ = trained
        prefix = str(tmp_path / "run")
        argv = ["train", "--data", data, "--out", prefix, "--conv", "gine", "--layers", "1", "--hidden", "4",
                "--epochs", "1", "--replicates", "1"]

        def runspecs():
            specs = {".ckpt": load_checkpoint(prefix + ".ckpt")[1]["runspec"]}
            for suffix in (".history.tsv", ".summary.tsv"):
                if os.path.exists(prefix + suffix):
                    first = open(prefix + suffix).readline()
                    specs[suffix] = json.loads(first[len("# runspec "):])
            return specs

        assert run(argv + ["--seed", "0"]) == 0
        k = 1
        while True:
            fill_disk(k)
            if run(argv + ["--seed", "1"]) == 0:
                break
            assert "No space left" in capsys.readouterr().err
            specs = runspecs()
            assert all(spec == specs[".ckpt"] for spec in specs.values()), f"write {k} failed: {specs}"
            k += 1
        assert k > 3  # failures came at the checkpoint, the history and the summary
        specs = runspecs()
        assert len(specs) == 3 and all(spec["options"]["seed"] == 1 for spec in specs.values())

    def test_malformed_dataset_manifest_exits_one_with_one_line(self, trained, tmp_path, capsys):
        _, data, _ = trained
        copy = copy_dataset(data, tmp_path)
        edit_manifest(copy, lambda manifest: manifest.pop("task_names"))
        code = main(["train", "--data", copy, "--out", str(tmp_path / "x"), "--conv", "gine"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"dataset manifest {copy}: " in err and "task_names" in err

    def test_dataset_manifest_not_json_exits_one_naming_it(self, trained, tmp_path, capsys):
        _, data, _ = trained
        copy = copy_dataset(data, tmp_path)
        with open(copy, "r+") as fh:
            fh.truncate(40)
        code = main(["train", "--data", copy, "--out", str(tmp_path / "x"), "--conv", "gine"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"dataset manifest {copy} " in err and "not valid JSON" in err

    def test_dataset_without_a_manifest_line_exits_one_naming_it(self, trained, tmp_path, capsys):
        _, data, _ = trained
        copy = copy_dataset(data, tmp_path)
        lines = open(copy).read().splitlines(keepends=True)
        open(copy, "w").write("".join(lines[1:]))
        code = main(["train", "--data", copy, "--out", str(tmp_path / "x"), "--conv", "gine"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: dataset {copy}: line 1 is not a dataset manifest\n"

    def test_non_ascii_dataset_record_exits_one_naming_it(self, trained, tmp_path, capsys):
        _, data, _ = trained
        copy = copy_dataset(data, tmp_path)
        lines = open(copy, "rb").read().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"nodes"', b'"n\xc3\xb6des"')
        open(copy, "wb").write(b"".join(lines))
        code = main(["train", "--data", copy, "--out", str(tmp_path / "x"), "--conv", "gine"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {copy}:3: ") and "ascii" in err

    def test_non_ascii_dataset_manifest_exits_one_naming_it(self, trained, tmp_path, capsys):
        _, data, _ = trained
        copy = copy_dataset(data, tmp_path)
        write_non_ascii(copy, b'"task_names"', b'"t\xc3\xa4sk_names"')
        code = main(["train", "--data", copy, "--out", str(tmp_path / "x"), "--conv", "gine"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: dataset manifest {copy} ")

    def test_empty_split_exits_one_naming_it(self, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        save_dataset(gen_synthetic_dataset("random-multitask", 8, seed=3), data)
        code = main(["train", "--data", data, "--out", str(tmp_path / "x"), "--conv", "gine"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "valid split" in err and "empty" in err
        assert not os.path.exists(str(tmp_path / "x.ckpt"))

    @pytest.mark.parametrize("lr", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_learning_rate_exits_one(self, tmp_path, trained, capsys, lr):
        _, data, _ = trained
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--data", data, "--out", str(tmp_path / "x"), "--conv", "gine",
                         "--layers", "2", "--hidden", "8", "--epochs", "2", "--batch-size", "16",
                         "--replicates", "1", "--lr", lr])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: learning rate ") and lr in err
        assert not os.path.exists(str(tmp_path / "x.ckpt"))

    @pytest.mark.parametrize(
        "where, value",
        [("node", 0.7), ("node", "0"), ("node", False), ("endpoint", 0.5)],
        ids=["float-feature", "string-feature", "bool-feature", "float-endpoint"],
    )
    def test_record_value_that_is_not_a_json_integer_exits_one(self, trained, tmp_path, capsys, where, value):
        _, data, prefix = trained
        copy = copy_dataset(data, tmp_path)
        lines = open(copy).read().splitlines(keepends=True)
        record = json.loads(lines[2])
        if where == "node":
            record["nodes"][0][0] = value
        else:
            record["edges"][0][1] += value  # truncates back to the same endpoint
        lines[2] = json.dumps(record) + "\n"
        open(copy, "w").write("".join(lines))
        code = main(["eval", "--checkpoint", prefix + ".ckpt", "--data", copy, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {copy}:3: malformed record: ")
        assert "JSON integers" in err

    def test_edge_of_four_entries_exits_one(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        copy = copy_dataset(data, tmp_path)
        lines = open(copy).read().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["edges"][0].append(7)  # once dropped without a word
        lines[2] = json.dumps(record) + "\n"
        open(copy, "w").write("".join(lines))
        code = main(["eval", "--checkpoint", prefix + ".ckpt", "--data", copy, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {copy}:3: malformed record: an edge must be [u, v, [edge features]]\n"

    @pytest.mark.parametrize("value", [True, "0", 1.0], ids=["bool-label", "string-label", "float-label"])
    def test_label_that_is_not_json_0_1_or_null_exits_one(self, trained, tmp_path, capsys, value):
        _, data, prefix = trained
        copy = copy_dataset(data, tmp_path)
        lines = open(copy).read().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["labels"][0] = value
        lines[2] = json.dumps(record) + "\n"
        open(copy, "w").write("".join(lines))
        code = main(["eval", "--checkpoint", prefix + ".ckpt", "--data", copy, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {copy}:3: malformed record: ")
        assert "labels must be JSON 0, 1 or null" in err

    @pytest.mark.parametrize("where", ["node-feature", "edge-endpoint", "edge-feature"])
    def test_record_integer_outside_int64_exits_one(self, trained, tmp_path, capsys, where):
        _, data, prefix = trained
        copy = copy_dataset(data, tmp_path)
        lines = open(copy).read().splitlines(keepends=True)
        record = json.loads(lines[2])
        if where == "node-feature":
            record["nodes"][0][0] = 2**64
        elif where == "edge-endpoint":
            record["edges"][0][1] = 2**64
        else:
            record["edges"][0][2][0] = 2**64
        lines[2] = json.dumps(record) + "\n"
        open(copy, "w").write("".join(lines))
        code = main(["eval", "--checkpoint", prefix + ".ckpt", "--data", copy, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {copy}:3: malformed record: ")
        assert "int64" in err


def train_argv(data, out, flags, replicates):
    argv = ["train", "--data", data, "--out", out, "--replicates", str(replicates)]
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


def rerun_replicates(dataset, flags, count):
    """The test reports of ``count`` replicates that ``cyclegnn train`` with
    these flags runs, trained and scored through the library."""
    o = flags
    train_set, valid_set, test_set = random_split(dataset, (0.8, 0.1, 0.1), o["seed"])
    config = ModelConfig(
        conv_type=o["conv"], node_field_cards=dataset.manifest.node_field_cardinalities,
        edge_field_cards=dataset.manifest.edge_field_cardinalities,
        num_tasks=dataset.manifest.num_tasks, hidden=o["hidden"], num_layers=o["layers"],
        radius=o["radius"],
    )
    reports = []
    for seed in range(o["seed"], o["seed"] + count):
        tc = TrainConfig(epochs=o["epochs"], batch_size=o["batch_size"], patience=o["patience"], seed=seed)
        params, _ = train_model(config, train_set, valid_set, tc)
        reports.append(evaluate(config, params, test_set))
    return reports


class TestReplicateSummary:
    """A multi-replicate summary aggregates the replicates it lists."""

    FLAGS = {"conv": "gine+", "radius": 2, "layers": 2, "hidden": 8, "epochs": 3, "batch_size": 16,
             "patience": 2, "seed": 4}

    @pytest.fixture(scope="class")
    def summary(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("replicates")
        dataset = gen_synthetic_dataset("random-multitask", 60, seed=3)
        dataset.labels[dataset.labels[:, 0] == 1.0, 0] = 0.0  # task_0 has no positives
        data = str(root / "d.jsonl")
        save_dataset(dataset, data)
        assert main(train_argv(data, str(root / "run"), self.FLAGS, 3)) == 0
        sections = {}
        name = "replicates"
        for line in open(str(root / "run.summary.tsv")).read().splitlines()[2:]:
            if line.startswith("# "):
                name = line[2:]
            elif not line.startswith("quantity\t") and not line.startswith("task\t"):
                key, *values = line.split("\t")
                sections.setdefault(name, {})[key] = values
        return dataset, sections

    def replicate_reports(self, dataset):
        return rerun_replicates(dataset, self.FLAGS, 3)

    @staticmethod
    def mean_std(values):
        values = np.asarray(values)
        return [f"{values.mean():.6g}", f"{values.std(ddof=1):.6g}"]

    def test_aggregate_rows_are_mean_and_sample_std_of_replicate_rows(self, summary):
        _, sections = summary
        rows = list(sections["replicates"].values())
        assert len(rows) == 3
        for column, key in ((1, "test_roc"), (2, "test_loss")):
            values = np.asarray([float(r[column]) for r in rows])  # printed to 6 significant digits
            mean, std = (float(v) for v in sections["aggregate"][key])
            assert mean == pytest.approx(values.mean(), rel=1e-5)
            assert std == pytest.approx(values.std(ddof=1), rel=1e-5, abs=1e-5)

    def test_rows_match_replicates_rerun_through_the_library(self, summary):
        dataset, sections = summary
        reports = self.replicate_reports(dataset)
        rows = sections["replicates"]
        assert [rows[str(r)][1] for r in range(3)] == [f"{rep.macro:.6g}" for rep in reports]
        assert sections["aggregate"]["test_roc"] == self.mean_std([rep.macro for rep in reports])
        assert sections["aggregate"]["test_loss"] == self.mean_std([rep.loss for rep in reports])
        per_task = sections["per-task"]
        assert list(per_task) == list(dataset.manifest.task_names)
        assert per_task["task_0"] == ["undefined", "undefined"]
        defined = 0
        for t, name in enumerate(dataset.manifest.task_names[1:], start=1):
            values = [rep.per_task[t] for rep in reports]
            if values[0] is not None:
                defined += 1
                assert per_task[name] == self.mean_std(values)
        assert defined >= 1

    def test_repeated_task_names_each_report_their_own_task(self, tmp_path):
        """Two tasks may share a name; each per-task row still aggregates its
        own task, in manifest order."""
        flags = {**self.FLAGS, "radius": 3, "epochs": 6}
        dataset = gen_synthetic_dataset("min-cycle-class", 100, seed=2)
        manifest = dataclasses.replace(dataset.manifest, task_names=("t", "t", "u"))
        dataset = Dataset(dataset.graphs, dataset.labels, manifest)
        data = str(tmp_path / "d.jsonl")
        save_dataset(dataset, data)
        assert main(train_argv(data, str(tmp_path / "run"), flags, 2)) == 0
        lines = open(str(tmp_path / "run.summary.tsv")).read().splitlines()
        rows = [line.split("\t") for line in lines[lines.index("task\tmean\tstd") + 1 :]]
        reports = rerun_replicates(dataset, flags, 2)
        per_task = [[rep.per_task[t] for rep in reports] for t in range(3)]
        assert None not in per_task[0] + per_task[1] and per_task[0] != per_task[1]
        assert rows == [[name, *self.mean_std(values)] for name, values in zip(manifest.task_names, per_task)]


def copy_dataset(data, tmp_path):
    copy = str(tmp_path / "d.jsonl")
    shutil.copyfile(data, copy)
    return copy


def write_non_ascii(path, old, new):
    """Replace the first ``old`` in the file with ``new``, a non-ASCII byte string."""
    raw = open(path, "rb").read()
    assert old in raw
    open(path, "wb").write(raw.replace(old, new, 1))


def copy_checkpoint(prefix, tmp_path):
    dest = str(tmp_path / "copy.ckpt")
    shutil.copyfile(prefix + ".ckpt", dest)
    return dest


class TestEval:
    def test_eval_twice_identical_file(self, trained, tmp_path):
        _, data, prefix = trained
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        for out in (a, b):
            assert run(["eval", "--checkpoint", prefix + ".ckpt", "--data", data, "--out", out]) == 0
        raw = lambda p: open(p).read().replace(a, "OUT").replace(b, "OUT")
        assert raw(a) == raw(b)

    def test_report_lists_tasks_macro_loss(self, trained, tmp_path):
        _, data, prefix = trained
        out = str(tmp_path / "r.tsv")
        run(["eval", "--checkpoint", prefix + ".ckpt", "--data", data, "--out", out])
        body = open(out).read()
        assert "has_small_cycle\t" in body and "macro\t" in body and "loss\t" in body
        assert os.listdir(tmp_path) == ["r.tsv"]

    def test_failed_report_write_keeps_the_previous_report(self, trained, tmp_path, capsys, fill_disk):
        _, data, prefix = trained
        out = str(tmp_path / "r.tsv")
        argv = ["eval", "--checkpoint", prefix + ".ckpt", "--data", data, "--out", out]
        assert run(argv) == 0
        before = open(out, "rb").read()
        fill_disk()
        assert run(argv + ["--metric", "prc"]) == 1
        assert "No space left" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["r.tsv"] and open(out, "rb").read() == before

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_dataset_with_no_records_exits_one_naming_it(self, trained, tmp_path, capsys, command):
        _, data, prefix = trained
        empty = str(tmp_path / "empty.jsonl")
        save_dataset(load_dataset(data).subset([]), empty)
        out = ["--out", str(tmp_path / "r.tsv")]
        argv = ["eval", "--checkpoint", prefix + ".ckpt"] if command == "eval" else ["bench", "--radii", "2"]
        assert main(argv + ["--data", empty] + out) == 1
        assert capsys.readouterr().err == f"error: dataset {empty} holds no graphs\n"
        assert os.listdir(tmp_path) == ["empty.jsonl"]

    def test_missing_checkpoint_errors(self, trained, tmp_path, capsys):
        _, data, _ = trained
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--data", data,
                     "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_mismatch_errors(self, trained, tmp_path, capsys):
        _, _, prefix = trained
        other = str(tmp_path / "other.jsonl")
        run(["gen", "--task", "random-multitask", "--size", "10", "--seed", "0", "--out", other])
        code = main(["eval", "--checkpoint", prefix + ".ckpt", "--data", other,
                     "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        assert "do not match" in capsys.readouterr().err

    def test_unknown_checkpoint_config_key_errors(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        edit_manifest(ckpt, lambda manifest: manifest["extra"]["config"].update(bogus=1))
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ckpt in err and "bogus" in err

    @pytest.mark.parametrize("key, value", [
        ("hidden", 2.5), ("num_layers", 1.0), ("num_tasks", 3.0), ("radius", True),
        ("node_field_cards", [1.5]), ("edge_field_cards", "12"), ("virtual_node", 1),
    ])
    def test_checkpoint_config_field_of_the_wrong_type_errors(self, trained, tmp_path, capsys, key, value):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        edit_manifest(ckpt, lambda manifest: manifest["extra"]["config"].update({key: value}))
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid model config" in err and key in err

    def test_truncated_checkpoint_data_errors(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        with open(ckpt, "r+b") as fh:
            fh.truncate(os.path.getsize(ckpt) - 6)
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"truncated in {ckpt} at tensor " in err

    @pytest.mark.parametrize("extra", [None, 5, [1], "config"], ids=["null", "number", "list", "string"])
    def test_checkpoint_extra_that_is_not_an_object_exits_one(self, trained, tmp_path, capsys, extra):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        edit_manifest(ckpt, lambda manifest: manifest.update(extra=extra))
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {ckpt}: 'extra' must be a JSON object\n"

    def test_malformed_checkpoint_manifest_exits_one_with_one_line(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        edit_manifest(ckpt, lambda manifest: manifest["tensors"][1].pop("dtype"))
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and ckpt in err

    @pytest.mark.parametrize("dtype", [[], {}, ["float32"]])
    def test_checkpoint_dtype_that_is_not_a_string_exits_one(self, trained, tmp_path, capsys, dtype):
        # found by tests/test_fuzz.py: an unhashable dtype raised TypeError out of ``main``
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        edit_manifest(ckpt, lambda manifest: manifest["tensors"][0].update(dtype=dtype))
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: malformed tensor list in checkpoint manifest {ckpt}\n"

    @pytest.mark.parametrize("key", ["num_layers", "radius", "hidden", "node_field_cards"])
    def test_checkpoint_config_larger_than_its_tensors_exits_one_before_building_it(self, trained, tmp_path, capsys, monkeypatch, key):
        # each edit makes the model far larger than the file's tensors (2**63 is a manifest token tests/test_fuzz.py
        # can write), and building it would take that memory before any tensor's shape failed to match
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        value = {"hidden": 6000, "node_field_cards": [2**63]}.get(key, 2**63)
        edit_manifest(ckpt, lambda manifest: manifest["extra"]["config"].update({key: value}))
        monkeypatch.setattr("cyclegnn.nn.init_params", lambda *args, **kwargs: pytest.fail("the model was built"))
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {ckpt} holds fewer tensor bytes than its model config's weights need\n"

    @pytest.mark.parametrize("conv", nn_mod.CONV_TYPES)
    @pytest.mark.parametrize("radius", [1, 3])
    def test_checkpoint_of_every_conv_type_loads(self, tmp_path, conv, radius):
        # the guard's bytes are exactly the float32 parameters' bytes, virtual-node MLPs included, and the
        # checkpoint holds those plus the running statistics; radius 3 is ignored by gcn and gine
        config = ModelConfig(conv, (3, 2), (2,), 2, hidden=4, num_layers=2, radius=radius, virtual_node=True)
        params = nn_mod.init_params(config, seed=1)
        assert 4 * nn_mod.param_count(config) == sum(t.data.nbytes for t in nn_mod.parameters(params))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(nn_mod.named_arrays(params), ckpt, extra={"config": dataclasses.asdict(config)})
        loaded, loaded_params, _ = cli_mod._load_model(ckpt)
        arrays, loaded_arrays = nn_mod.named_arrays(params), nn_mod.named_arrays(loaded_params)
        assert loaded == config and all(arrays[k].tobytes() == loaded_arrays[k].tobytes() for k in arrays)

    def test_checkpoint_with_non_finite_weights_exits_one(self, trained, tmp_path, capsys):
        # NaN weights make every logit NaN: a diverged model, which must fail rather than score a ROC of 0.5
        _, data, prefix = trained
        arrays, extra = load_checkpoint(prefix + ".ckpt")
        arrays["classifier.weight"][...] = np.nan
        ckpt, out = str(tmp_path / "nan.ckpt"), str(tmp_path / "r.tsv")
        save_checkpoint(arrays, ckpt, extra=extra)
        assert main(["eval", "--checkpoint", ckpt, "--data", data, "--out", out]) == 1
        assert capsys.readouterr().err == "error: 40 of 40 graphs have a non-finite logit: the model has diverged\n"
        assert not os.path.exists(out)

    def test_checkpoint_dimension_outside_int64_exits_one(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        edit_manifest(ckpt, lambda manifest: manifest["tensors"][0].update(shape=[2**64]))
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: malformed tensor list ") and ckpt in err

    def test_checkpoint_tensor_that_cannot_be_reshaped_exits_one_naming_it(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        with open(ckpt, "rb") as fh:
            manifest, blob = json.loads(fh.readline()), fh.read()
        first = manifest["tensors"][0]
        nbytes = math.prod(first["shape"]) * np.dtype(first["dtype"]).itemsize
        first["shape"] = [0, 2**63 - 1]
        with open(ckpt, "wb") as fh:
            fh.write(json.dumps(manifest).encode("ascii") + b"\n" + blob[nbytes:])
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ckpt in err and repr(first["name"]) in err and "invalid shape" in err

    def test_checkpoint_manifest_not_json_exits_one_naming_it(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        with open(ckpt, "r+") as fh:
            fh.truncate(40)
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ckpt in err and "not valid JSON" in err

    def test_non_ascii_checkpoint_manifest_exits_one_naming_it(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        write_non_ascii(ckpt, b'"format"', b'"f\xc3\xb6rmat"')
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and ckpt in err


class TestCounterexample:
    def test_c6_run_reports_small_and_large_discrepancies(self, cycle_file, tmp_path, capsys):
        prefix = str(tmp_path / "pair")
        code = run(["counterexample", "--data", cycle_file, "--edge", "0,1", "--out", prefix])
        assert code == 0
        twin = load_dataset(prefix + ".pair.jsonl")
        assert twin.graphs[0].num_nodes == 12
        report = dict(
            line.split("\t")
            for line in open(prefix + ".report.tsv").read().splitlines()
            if "\t" in line and not line.startswith("#")
        )
        assert float(report["gine_max_node_discrepancy"]) < 1e-5
        assert float(report["gineplus_graph_discrepancy"]) > 1e-3
        assert int(report["nodes_pair"]) == 2 * int(report["nodes_original"])
        assert sorted(os.listdir(tmp_path)) == ["c6.jsonl", "pair.orig.jsonl", "pair.pair.jsonl", "pair.report.tsv"]

    @pytest.mark.parametrize("option", [("--layers", "0"), ("--layers", str(2**63)), ("--radius", str(2**62))])
    def test_rejected_model_leaves_only_the_input(self, option, cycle_file, tmp_path, monkeypatch, capsys):
        # the gine config rejects both --layers values; only the gine+ one, at the probe radius, the --radius
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 2**33)
        code = main(["counterexample", "--data", cycle_file, "--edge", "0,1", *option, "--out", str(tmp_path / "pair")])
        assert code == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert os.listdir(tmp_path) == ["c6.jsonl"]

    def test_absent_edge_errors(self, cycle_file, tmp_path, capsys):
        code = main(["counterexample", "--data", cycle_file, "--edge", "0,3",
                     "--out", str(tmp_path / "p")])
        assert code == 1
        assert "not present" in capsys.readouterr().err


class TestBench:
    def test_table_covers_requested_radii(self, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        run(["gen", "--task", "min-cycle-class", "--size", "12", "--seed", "2", "--out", data])
        capsys.readouterr()  # drop the gen summary
        code = run(["bench", "--data", data, "--radii", "1,2", "--epochs", "1",
                    "--layers", "2", "--hidden", "8", "--batch-size", "6"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [l.split("\t") for l in out.splitlines() if l and not l.startswith("#")]
        header, body = rows[0], rows[1:]
        assert header[:2] == ["conv", "radius"]
        assert [r[0] for r in body] == ["gine", "gine+", "gine+"]
        assert [r[1] for r in body] == ["1", "1", "2"]

    def test_param_delta_column_is_lkh(self, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        run(["gen", "--task", "min-cycle-class", "--size", "9", "--seed", "2", "--out", data])
        capsys.readouterr()  # drop the gen summary
        run(["bench", "--data", data, "--radii", "3", "--epochs", "1",
             "--layers", "2", "--hidden", "8", "--batch-size", "9"])
        out = capsys.readouterr().out
        last = [l for l in out.splitlines() if l.startswith("gine+\t3")][0].split("\t")
        assert int(last[3]) == 2 * 3 * 8  # layers * radius * hidden

    @pytest.mark.parametrize("flag", ["--epochs", "--batch-size"])
    def test_zero_epochs_or_batch_size_exits_one(self, tmp_path, capsys, flag):
        data = str(tmp_path / "d.jsonl")
        run(["gen", "--task", "min-cycle-class", "--size", "9", "--seed", "2", "--out", data])
        capsys.readouterr()  # drop the gen summary
        code = main(["bench", "--data", data, "--radii", "2", "--layers", "2", "--hidden", "8", flag, "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert flag[2:].replace("-", "_") in captured.err


class TestOutDirectory:
    @pytest.mark.parametrize("command, flags", [
        ("gen", ["--task", "min-cycle-class", "--size", "5"]),
        ("train", ["--data", "d.jsonl", "--conv", "gine"]),
        ("eval", ["--checkpoint", "m.ckpt", "--data", "d.jsonl"]),
        ("counterexample", ["--data", "d.jsonl", "--edge", "0,1"]),
        ("bench", ["--data", "d.jsonl"]),
    ])
    def test_missing_directory_exits_one_before_any_work(self, command, flags, tmp_path, monkeypatch, capsys):
        # each of these runs before the first write, so a missing directory must be found before them
        def never(name):
            return lambda *args, **kwargs: pytest.fail(f"{name} ran")

        for name in ("cli.load_dataset", "cli.load_checkpoint", "synth.gen_synthetic_dataset",
                     "train.train_model", "train.train_epoch"):
            monkeypatch.setattr("cyclegnn." + name, never(name))
        missing = str(tmp_path / "missing")
        assert main([command, *flags, "--out", os.path.join(missing, "out")]) == 1
        assert capsys.readouterr().err == f"error: the --out directory {missing} does not exist\n"
        assert os.listdir(tmp_path) == []

    def test_out_without_a_directory_is_written_in_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--task", "min-cycle-class", "--size", "5", "--out", "d.jsonl"]) == 0
        assert os.listdir(tmp_path) == ["d.jsonl"]


class TestConfigFile:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = has-small-cycle\nsize = 8\nseed = 5\n")
        out = str(tmp_path / "d.jsonl")
        assert run(["gen", "--config", str(cfg), "--size", "10", "--out", out]) == 0
        assert len(load_dataset(out)) == 10  # flag beat the file
        spec = json.loads(open(out).readline()[2:])["header"]
        assert spec["options"]["task"] == "has-small-cycle"  # file beat the default
        assert spec["options"]["seed"] == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code = main(["gen", "--config", str(cfg), "--task", "has-small-cycle",
                     "--size", "5", "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_non_ascii_config_line_exits_one_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"task = has-small-cycle\nsize = 8  # gr\xc3\xb6\xc3\x9fe\n")
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {cfg}:2: ") and "ascii" in err


HUGE_HIDDEN = str(2**40)  # one parameter row of this width alone takes terabytes
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_capped(argv, address_space=2 << 30):
    """``python -m cyclegnn argv`` as a child whose address space is capped, so
    a huge allocation fails at once whatever the host's overcommit setting."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cyclegnn", *argv], capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120
    )


class TestOutOfMemory:
    def test_counterexample_too_large_for_memory_exits_one(self, cycle_file, tmp_path):
        proc = run_capped(["counterexample", "--data", cycle_file, "--edge", "0,1", "--hidden", HUGE_HIDDEN,
                           "--out", str(tmp_path / "pair")])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ") and proc.stderr != "error: \n"

    def test_train_too_large_for_memory_exits_one_without_a_checkpoint(self, tmp_path):
        data = str(tmp_path / "d.jsonl")
        save_dataset(gen_synthetic_dataset("min-cycle-class", 30, seed=0), data)
        proc = run_capped(["train", "--data", data, "--out", str(tmp_path / "run"), "--conv", "gine",
                           "--hidden", HUGE_HIDDEN])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ") and proc.stderr != "error: \n"
        assert sorted(os.listdir(tmp_path)) == ["d.jsonl"]

    def test_counterexample_with_more_layers_than_memory_fails_before_building(self, cycle_file, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("init_params ran")

        monkeypatch.setattr(nn_mod, "init_params", fail)
        code = main(["counterexample", "--data", cycle_file, "--edge", "0,1", "--layers", str(2**63),
                     "--out", str(tmp_path / "pair")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: a model of {2**63} layers of width ")

    @pytest.mark.parametrize("conv", nn_mod.CONV_TYPES)
    def test_model_weights_are_bounded_by_physical_memory(self, conv, monkeypatch):
        manifest = data_mod.DatasetManifest((1,), (1,), ("task",))
        dataset = Dataset([gen_cycle_union([3])], np.ones((1, 1)), manifest)
        options = {"conv": conv, "hidden": 64, "layers": 3, "radius": 2, "virtual_node": False, "dropout": 0.0}
        config = ModelConfig(conv, (1,), (1,), 1, hidden=64, num_layers=3, radius=2, dropout=0.0)
        weights = 4 * nn_mod.param_count(config)  # the exact float32 bytes of the model's weights
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: weights)
        assert cli_mod._model_config(options, dataset).num_layers == 3
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: weights - 1)
        with pytest.raises(cli_mod.CliError, match="weights alone"):
            cli_mod._model_config(options, dataset)
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: None)  # unknown: no bound
        assert cli_mod._model_config({**options, "layers": 2**63}, dataset).num_layers == 2**63

    def test_virtual_node_weights_count_against_physical_memory(self, cycle_file, tmp_path, monkeypatch, capsys):
        # 300,000 bytes lies between this model's weights without its virtual-node MLPs counted, 199,424 bytes
        # by a row count of 4·64·(3·(256 + 2 + 1) + 1 + 1), and its exact weights, 409,860 bytes
        config = ModelConfig("gine+", (1,), (1,), 1, hidden=64, num_layers=3, radius=2, virtual_node=True)
        assert 4 * nn_mod.param_count(config) == 409_860
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 300_000)
        monkeypatch.setattr(nn_mod, "init_params", lambda *args, **kwargs: pytest.fail("the model was built"))
        code = main(["train", "--data", cycle_file, "--out", str(tmp_path / "run"), "--conv", "gine+", "--radius", "2",
                     "--layers", "3", "--hidden", "64", "--virtual-node"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "weights alone" in err
        assert os.listdir(tmp_path) == ["c6.jsonl"]

    def test_bare_memory_error_still_prints_a_message(self, cycle_file, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(nn_mod, "init_params", fail)
        code = main(["counterexample", "--data", cycle_file, "--edge", "0,1", "--out", str(tmp_path / "pair")])
        assert code == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
