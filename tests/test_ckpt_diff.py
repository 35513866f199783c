import importlib.util
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cyclegnn.tensor import save_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ckpt_diff.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("ckpt_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(a, b):
    proc = subprocess.run([sys.executable, TOOL, str(a), str(b)], capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def arrays():
    rng = np.random.default_rng(0)
    return {
        "w": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(4,)),
        "empty": np.zeros((0, 2), np.float32),
    }


@pytest.fixture
def ckpt(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(arrays(), str(path), extra={"run": "a"})
    return path


def test_a_checkpoint_against_itself_is_identical(tmp_path, ckpt):
    copy = tmp_path / "copy.ckpt"
    shutil.copy(ckpt, copy)
    for other in (ckpt, copy):
        code, lines, err = run_tool(ckpt, other)
        assert (code, err) == (0, "")
        assert lines == ["w\tidentical", "b\tidentical", "empty\tidentical"]


@pytest.mark.parametrize("name", ["w", "b"])
def test_one_element_moved_by_nextafter_reads_one_ulp(tmp_path, ckpt, name):
    moved = arrays()
    x = moved[name].reshape(-1)
    x[1] = np.nextafter(x[1], np.inf if x[1] < 0 else -np.inf)  # toward zero: still one ulp
    path = tmp_path / "moved.ckpt"
    save_checkpoint(moved, str(path))
    code, lines, err = run_tool(ckpt, path)
    assert (code, err) == (0, "")
    line = next(line for line in lines if line.startswith(name + "\t"))
    fields = line.split("\t")
    assert fields[2] == "max_ulp 1"
    assert float(fields[1].split()[1]) == pytest.approx(abs(float(arrays()[name].reshape(-1)[1]) - float(x[1])), rel=1e-5)
    assert all(line.endswith("\tidentical") for line in lines if not line.startswith(name + "\t"))


@pytest.mark.parametrize(
    "change",
    [
        lambda a: a.pop("b"),
        lambda a: a.update(extra=np.zeros(1)),
        lambda a: a.update(w=a["w"].reshape(4, 3)),
        lambda a: a.update(b=a["b"].astype(np.float32)),
    ],
)
def test_different_names_shapes_or_precisions_exit_1(tmp_path, ckpt, change):
    other = arrays()
    change(other)
    path = tmp_path / "other.ckpt"
    save_checkpoint(other, str(path))
    code, _, err = run_tool(ckpt, path)
    assert code == 1 and err.startswith("ckpt_diff: ")


def test_unreadable_checkpoint_exits_1_with_one_line(tmp_path, ckpt):
    code, lines, err = run_tool(ckpt, tmp_path / "missing.ckpt")
    assert code == 1 and lines == [] and len(err.splitlines()) == 1


def test_ulp_distance_counts_representable_values():
    ulp_distance = load_tool().ulp_distance
    for dtype in (np.float32, np.float64):
        x = np.array([1.0, -1.0, 0.0, -0.0, 1e-30], dtype)
        up = np.nextafter(np.nextafter(x, dtype(np.inf)), dtype(np.inf))
        np.testing.assert_array_equal(ulp_distance(x, up), [2, 2, 2, 3, 2])
        np.testing.assert_array_equal(ulp_distance(x, x), 0)
        assert ulp_distance(np.array([0.0], dtype), np.array([-0.0], dtype))[0] == 1
        tiny = np.array([np.finfo(dtype).smallest_subnormal], dtype)
        assert ulp_distance(tiny, -tiny)[0] == 3  # -tiny, -0.0, +0.0, tiny
