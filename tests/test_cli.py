import json
import os

import numpy as np
import pytest

from cyclegnn.cli import main
from cyclegnn.data import load_dataset, random_split, save_dataset
from cyclegnn.nn import ModelConfig
from cyclegnn.synth import gen_cycle_union, gen_synthetic_dataset
from cyclegnn.train import TrainConfig, evaluate, train_model
from cyclegnn.data import Dataset
import cyclegnn.data as data_mod


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
        code, _, prefix = trained
        assert code == 0
        for suffix in (".ckpt", ".ckpt.bin", ".history.tsv", ".summary.tsv"):
            assert os.path.exists(prefix + suffix), suffix

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
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["train", "--data", data, "--out", str(tmp_path / "x"), "--conv", "gine+",
                         "--radius", "2", "--layers", "2", "--hidden", "8", "--dropout", "0.0",
                         "--epochs", "2", "--batch-size", "16", "--replicates", "1", "--lr", "1e6"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: training diverged at epoch ")
        assert ", batch " in err
        assert not os.path.exists(str(tmp_path / "x.ckpt"))

    def test_malformed_dataset_manifest_exits_one_with_one_line(self, trained, tmp_path, capsys):
        _, data, _ = trained
        copy = str(tmp_path / "d.jsonl")
        for suffix in ("", ".manifest.json"):
            with open(data + suffix) as src, open(copy + suffix, "w") as out:
                out.write(src.read())
        manifest = json.load(open(copy + ".manifest.json"))
        del manifest["task_names"]
        with open(copy + ".manifest.json", "w") as fh:
            json.dump(manifest, fh)
        code = main(["train", "--data", copy, "--out", str(tmp_path / "x"), "--conv", "gine"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and copy + ".manifest.json" in err and "task_names" in err


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
        argv = ["train", "--data", data, "--out", str(root / "run"), "--replicates", "3"]
        for name, value in self.FLAGS.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
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
        o = self.FLAGS
        train_set, valid_set, test_set = random_split(dataset, (0.8, 0.1, 0.1), o["seed"])
        config = ModelConfig(
            conv_type=o["conv"], node_field_cards=dataset.manifest.node_field_cardinalities,
            edge_field_cards=dataset.manifest.edge_field_cardinalities,
            num_tasks=dataset.manifest.num_tasks, hidden=o["hidden"], num_layers=o["layers"],
            radius=o["radius"],
        )
        reports = []
        for seed in range(o["seed"], o["seed"] + 3):
            tc = TrainConfig(epochs=o["epochs"], batch_size=o["batch_size"], patience=o["patience"], seed=seed)
            params, _ = train_model(config, train_set, valid_set, tc)
            reports.append(evaluate(config, params, test_set))
        return reports

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


def copy_checkpoint(prefix, tmp_path):
    dest = str(tmp_path / "copy.ckpt")
    for suffix in ("", ".bin"):
        with open(prefix + ".ckpt" + suffix, "rb") as src, open(dest + suffix, "wb") as out:
            out.write(src.read())
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
        manifest = json.load(open(ckpt))
        manifest["extra"]["config"]["bogus"] = 1
        with open(ckpt, "w") as fh:
            json.dump(manifest, fh)
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ckpt in err and "bogus" in err

    def test_truncated_checkpoint_data_errors(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        blob = open(ckpt + ".bin", "rb").read()
        with open(ckpt + ".bin", "wb") as fh:
            fh.write(blob[:-6])
        code = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "r.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ckpt + ".bin" in err and "truncated" in err

    def test_malformed_checkpoint_manifest_exits_one_with_one_line(self, trained, tmp_path, capsys):
        _, data, prefix = trained
        ckpt = copy_checkpoint(prefix, tmp_path)
        manifest = json.load(open(ckpt))
        del manifest["tensors"][1]["dtype"]
        with open(ckpt, "w") as fh:
            json.dump(manifest, fh)
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


class TestConfigFile:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = has-small-cycle\nsize = 8\nseed = 5\n")
        out = str(tmp_path / "d.jsonl")
        assert run(["gen", "--config", str(cfg), "--size", "10", "--out", out]) == 0
        assert len(load_dataset(out)) == 10  # flag beat the file
        spec = json.loads(open(out + ".manifest.json").read())["header"]
        assert spec["options"]["task"] == "has-small-cycle"  # file beat the default
        assert spec["options"]["seed"] == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code = main(["gen", "--config", str(cfg), "--task", "has-small-cycle",
                     "--size", "5", "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err
