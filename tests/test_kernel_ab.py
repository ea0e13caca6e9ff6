"""tools/kernel_ab.py: its bitwise comparison, and whole runs at scale
0.15 on this checkout against itself, against a copy whose `sym_eigen`
rounds differently and against a copy whose `sym_eigen` raises."""

import dataclasses
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_ab.py"
spec = importlib.util.spec_from_file_location("kernel_ab", TOOL)
kernel_ab = importlib.util.module_from_spec(spec)
with mock.patch.dict(os.environ):  # the tool pins BLAS threads for its own runs
    spec.loader.exec_module(kernel_ab)


def copy_with(tmp_path, old, new):
    """A copy of this checkout's src/ under tmp_path with the one
    occurrence of old in numlin.py replaced by new."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    numlin = tmp_path / "src" / "chainkit" / "numlin.py"
    text = numlin.read_text()
    assert text.count(old) == 1
    numlin.write_text(text.replace(old, new))
    return tmp_path


def table_rows(stdout):
    return {line.split()[0]: line.split() for line in stdout.splitlines()
            if line.startswith(("numlin.", "laplacian."))}


def run(before, after):
    return subprocess.run([sys.executable, str(TOOL), str(before), str(after),
                           "--workload", "spectral", "--seed", "1", "--scale", "0.15"],
                          capture_output=True, text=True, timeout=300)


@dataclasses.dataclass
class Pair:
    values: np.ndarray
    sizes: tuple


class TestBitwiseEqual:
    def test_same_bits(self):
        a = (np.array([1.0, np.nan, -0.0]), Pair(np.eye(2), (1, 1)))
        b = (np.array([1.0, np.nan, -0.0]), Pair(np.eye(2), (1, 1)))
        assert kernel_ab.bitwise_equal(a, b)

    def test_signed_zero_dtype_shape_and_values_differ(self):
        x = np.array([1.0, 0.0])
        for y in (np.array([1.0, -0.0]), x.astype(np.float32), x[None, :],
                  np.array([1.0, 5e-324])):
            assert not kernel_ab.bitwise_equal(x, y)
        assert not kernel_ab.bitwise_equal(Pair(x, (1,)), Pair(x, (2,)))

    def test_first_difference_names_the_leaf_and_entry(self):
        x = np.arange(6.0).reshape(2, 3)
        y = x.copy()
        y[1, 1] = -4.0
        assert kernel_ab.first_difference((np.zeros((0, 3)), x), (np.zeros((0, 3)), x)) is None
        assert kernel_ab.first_difference((np.zeros((0, 3)), x), (np.zeros((0, 3)), y)) == (
            "leaf 1, float64 (2, 3), first at (1, 1): 4.0 before, -4.0 after")
        assert kernel_ab.first_difference(Pair(x, (1,)), Pair(x, (2,))) == (
            "leaf 1: 1 before, 2 after")

    def test_errors_compare_by_text(self):
        assert kernel_ab.bitwise_equal("NoConvergence: budget", "NoConvergence: budget")
        assert not kernel_ab.bitwise_equal("NoConvergence: budget", np.zeros(2))


class TestRuns:
    def test_a_checkout_against_itself(self):
        done = run(ROOT, ROOT)
        assert done.returncode == 0, done.stdout + done.stderr
        rows = table_rows(done.stdout)
        for module, func in kernel_ab.KERNELS:
            name, calls, *_, bitwise = rows[f"{module}.{func}"]
            assert int(calls) > 0 and bitwise == f"{calls}/{calls}"

    def test_one_ulp_apart_fails(self, tmp_path):
        after = copy_with(tmp_path, "return values[order], vt[order].T",
                          "return np.nextafter(values[order], 2.0), vt[order].T")
        done = run(ROOT, after)
        assert done.returncode == 1, done.stdout + done.stderr
        assert "numlin.sym_eigen" in done.stdout and "calls bitwise equal" in done.stdout
        first = [line for line in done.stdout.splitlines()
                 if line.startswith("first difference in numlin.sym_eigen: ")]
        assert len(first) == 1 and "call 0 of the kernel" in first[0]
        assert "leaf 0, float64" in first[0] and "first at (0,)" in first[0]
        assert table_rows(done.stdout)["numlin.sym_eigen"][4] != "n/a"

    def test_an_after_that_raises_is_named_and_not_timed(self, tmp_path):
        # a broken call site, as a name clash would leave it: sym_eigen
        # raises TypeError on every call, and so does smooth_spectrum
        after = copy_with(tmp_path, "vt = _apply_rotations(q.T.copy(), sweeps, cos, sin)",
                          "vt = _apply_rotations(q.T.copy(), sweeps, cos)")
        done = run(ROOT, after)
        assert done.returncode == 1, done.stdout + done.stderr
        rows = table_rows(done.stdout)
        for name in ("numlin.sym_eigen", "laplacian.smooth_spectrum"):
            calls, ratio, bitwise = rows[name][1], rows[name][4], rows[name][5]
            assert ratio == "n/a" and bitwise == f"0/{calls}"
        for name in ("numlin.real_schur", "numlin._hessenberg"):
            assert rows[name][4] != "n/a" and rows[name][5] == f"{rows[name][1]}/{rows[name][1]}"
        first = {line.split(":")[0]: line for line in done.stdout.splitlines()
                 if line.startswith("first difference in ")}
        assert sorted(first) == ["first difference in laplacian.smooth_spectrum",
                                 "first difference in numlin.sym_eigen"]
        line = first["first difference in numlin.sym_eigen"]
        assert "call 0 of the kernel" in line and "arguments (" in line
        assert "before returned; after raised TypeError: " in line
