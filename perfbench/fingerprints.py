"""Input fingerprints: the benchmark refuses to measure inputs it does not know.

A fingerprint records the counts of graphs, nodes, arcs, k-hop pairs per
distance and observed labels of a workload's generated data, the split sizes,
a SHA-256 of the data and one of the splits: which graphs each split holds,
in order. ``fingerprints.json`` holds the expected
fingerprint of every workload for data seeds 0..SEEDS-1; a run whose inputs
differ fails, so a change to ``cyclegnn.synth`` cannot move the benchmark by
changing its inputs.

Regenerate the table only when the inputs are meant to change:

    python3 perfbench/fingerprints.py --write
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Workload seeds map onto data seeds modulo SEEDS, so every seed is checked.
SEEDS = 64
TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")


def _graph_digest(g, label_row) -> bytes:
    digest = hashlib.sha256(np.int64(g.num_nodes).tobytes())
    for arr in (g.node_feats, g.edges, g.edge_feats):
        digest.update(np.int64(arr.shape[0]).tobytes())
        digest.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    digest.update(np.nan_to_num(np.asarray(label_row, dtype="<f8"), nan=-1.0).tobytes())
    return digest.digest()


def _digest(dataset) -> bytes:
    """SHA-256 over the graphs and label rows of a dataset, in order."""
    digest = hashlib.sha256()
    for g, row in zip(dataset.graphs, dataset.labels):
        digest.update(_graph_digest(g, row))
    return digest.digest()


def fingerprint(dataset, splits, khop_depth: int) -> dict:
    """Counts and content hashes of a dataset and of its (train, valid, test)
    splits, using the program's own k-hop index for the shell sizes."""
    from cyclegnn.graph import build_khop_index

    khop_pairs = [0] * khop_depth
    for g in dataset.graphs:
        for k, (dst, _) in enumerate(build_khop_index(g, khop_depth).pairs):
            khop_pairs[k] += int(dst.size)
    split_digest = hashlib.sha256()
    for part in splits:
        split_digest.update(np.int64(len(part)).tobytes())
        split_digest.update(_digest(part))
    observed = ~np.isnan(dataset.labels)
    return {
        "graphs": len(dataset.graphs),
        "nodes": int(sum(g.num_nodes for g in dataset.graphs)),
        "arcs": int(sum(2 * g.num_edges for g in dataset.graphs)),
        "khop_pairs": khop_pairs,
        "observed_labels": int(observed.sum()),
        "positive_labels": int((dataset.labels == 1.0).sum()),
        "split": [len(part) for part in splits],
        "sha256": _digest(dataset).hex(),
        "split_sha256": split_digest.hexdigest(),
    }


def load_table(path: str = TABLE_PATH) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def mismatches(expected: dict | None, actual: dict) -> list[str]:
    """Field-by-field differences; an unrecorded fingerprint is a mismatch."""
    if expected is None:
        return ["no recorded fingerprint"]
    keys = sorted(set(expected) | set(actual))
    return [
        f"{k}: expected {expected.get(k)!r}, got {actual.get(k)!r}"
        for k in keys
        if expected.get(k) != actual.get(k)
    ]


def _write_table() -> None:
    import shutil
    import tempfile

    import workloads

    table: dict[str, dict[str, dict]] = {}
    workdir = tempfile.mkdtemp(prefix="fingerprints-", dir=os.path.dirname(TABLE_PATH))
    try:
        for wl in workloads.WORKLOADS.values():
            table[wl.name] = {}
            for seed in range(SEEDS):
                state = wl.setup(seed, workdir)
                table[wl.name][str(seed)] = wl.fingerprint(state)
                print(wl.name, seed, table[wl.name][str(seed)]["sha256"][:12], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _save_table(table)


def _save_table(table: dict) -> None:
    """One line per workload and seed, so a changed input shows as a one-line diff."""
    lines = []
    for workload in sorted(table):
        rows = [
            f"  {json.dumps(seed)}: {json.dumps(table[workload][seed], sort_keys=True)}"
            for seed in sorted(table[workload], key=int)
        ]
        lines.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(TABLE_PATH, "w", encoding="ascii") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/fingerprints.py --write")
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(TABLE_PATH)), "src"))
    _write_table()
