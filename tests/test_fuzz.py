"""A seeded mutation fuzzer of the command line.

Three inputs are mutated: a small dataset file (``conftest.make_file``: faults
inside records, raw bytes, blank lines, truncation), a checkpoint trained on
the unmutated file (a token of its line-1 manifest replaced, a byte flipped,
or the file cut short), and a ``--config`` file (a malformed value, an
unknown key, a line without ``=``, non-ASCII bytes). Each trial runs
``cli.main`` in-process for ``eval``, ``counterexample`` or ``train``. Every
outcome must be exit 0, or exit 1 with exactly one line on stderr; an
exception that escapes ``main`` fails the test.

Integer mutations use only -1, 0, 2**63 and 2**64, which fail before anything
is allocated (a model of 2**63 layers or shells is rejected by its weight
bound), and the counts a run is asked to repeat (``epochs``, ``replicates``)
get only -1 and 0 from a config file: a large count there is a request for a
long run, not a malformed input.
"""

import collections
import json
import random
import re

import pytest
from conftest import RECORDS_MANIFEST, base_records, make_file

from cyclegnn import cli

TRIALS = 400
BAD_INTS = ["-1", "0", str(2**63), str(2**64)]
BAD_VALUES = ["", "x", "1.5", "-0.5", "nan", "inf", "1e999", "true", "1,2", "0,1,2", "gine++", "[]", "{}"]
COUNTS = {"epochs", "replicates"}
TOKENS = BAD_INTS + ["1.5", "-0.5", "1e999", "null", "true", "false", '"x"', '"gine"', '"float16"', "[]", "{}", "[1]", '""', ""]


def configs(paths):
    """A valid config file's entries for each command, all of it fast to run."""
    model = {"conv": "gine+", "radius": "2", "layers": "1", "hidden": "4", "dropout": "0.0"}
    return {
        "train": {**model, "data": paths["data"], "out": paths["trained"], "epochs": "1", "replicates": "1",
                  "batch_size": "4", "patience": "0", "split": "0.5,0.25,0.25", "seed": "1", "lr": "0.01"},
        "eval": {"checkpoint": paths["ckpt"], "data": paths["data"], "out": paths["report"], "metric": "roc"},
        "counterexample": {"data": paths["data"], "index": "0", "edge": "0,1", "out": paths["pair"],
                           "layers": "2", "hidden": "4", "radius": "2", "seed": "0"},
    }


def write_config(path, entries, extra=b""):
    with open(path, "wb") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in entries.items()).encode("ascii") + extra)


def mutate_config(rng, entries):
    """One fault in a copy of a valid config: the entries and raw bytes to append."""
    entries = dict(entries)
    kind = rng.choice(["value", "value", "int", "unknown-key", "no-equals", "non-ascii"])
    key = rng.choice(sorted(entries))
    if kind == "value":
        entries[key] = rng.choice(BAD_VALUES)
    elif kind == "int":
        entries[key] = rng.choice(BAD_INTS[:2] if key in COUNTS else BAD_INTS)
    elif kind == "unknown-key":
        entries[rng.choice(["colour", "radii", "checkpoint", "size", "task", "Seed", "seed "])] = "1"
    elif kind == "no-equals":
        return entries, rng.choice([b"epochs 3\n", b"=\n", b"conv\n"])
    else:
        return entries, rng.choice([b"# caf\xc3\xa9\n", f"{key} = ".encode() + b"\xff\n", b"\x80 = 1\n"])
    return entries, b""


def mutate_checkpoint(rng, blob):
    """One fault in a copy of a checkpoint's bytes."""
    manifest, _, tensors = blob.partition(b"\n")
    kind = rng.choice(["token", "token", "token", "flip", "cut"])
    if kind == "token":
        spans = [m.span() for m in re.finditer(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|true|false|null|[\[\]{}]', manifest)]
        a, b = rng.choice(spans)
        return manifest[:a] + rng.choice(TOKENS).encode("ascii") + manifest[b:] + b"\n" + tensors
    if kind == "flip":
        at = rng.randrange(len(blob))
        return blob[:at] + bytes([blob[at] ^ (1 << rng.randrange(8))]) + blob[at + 1 :]
    return blob[: rng.randrange(len(blob))]


def run(argv, capsys):
    """``cli.main(argv)``: exit 0, or exit 1 with one stderr line."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and err.count("\n") == 1 and err.startswith("error: ")), (argv, code, err)
    return code


@pytest.fixture
def inputs(tmp_path, capsys, monkeypatch):
    """Paths of the unmutated inputs, with a checkpoint trained on the data file."""
    monkeypatch.chdir(tmp_path)  # a mutated relative path writes in here
    paths = {name: str(tmp_path / name) for name in ("data", "trained", "report", "pair", "config", "mutated")}
    paths["ckpt"] = paths["trained"] + ".ckpt"
    records = base_records(random.Random(0))
    with open(paths["data"], "w", encoding="ascii") as fh:
        fh.write("# " + json.dumps(RECORDS_MANIFEST) + "\n" + "".join(json.dumps(r) + "\n" for r in records))
    write_config(paths["config"], configs(paths)["train"])
    assert run(["train", "--config", paths["config"]], capsys) == 0
    return paths


def test_every_mutated_input_ends_in_exit_0_or_one_line(inputs, capsys):
    rng = random.Random(22)
    with open(inputs["ckpt"], "rb") as fh:
        checkpoint = fh.read()
    outcomes = collections.Counter()
    for _ in range(TRIALS):
        command = rng.choice(["eval", "counterexample", "train"])
        entries, extra = configs(inputs)[command], b""
        target = rng.choice(["data", "checkpoint", "config"] if command == "eval" else ["data", "config"])
        if target == "data":
            make_file(rng, inputs["mutated"])
            entries["data"] = inputs["mutated"]
        elif target == "checkpoint":
            with open(inputs["mutated"], "wb") as fh:
                fh.write(mutate_checkpoint(rng, checkpoint))
            entries["checkpoint"] = inputs["mutated"]
        else:
            entries, extra = mutate_config(rng, entries)
        write_config(inputs["config"], entries, extra)
        outcomes[command, target, run([command, "--config", inputs["config"]], capsys)] += 1
    # every command met every input it reads, and both outcomes came up
    assert all(outcomes[c, t, code] >= 3 for c in ("eval", "counterexample", "train") for t in ("data", "config") for code in (0, 1)), outcomes
    assert outcomes["eval", "checkpoint", 1] >= 3, outcomes
