"""tools/kernel_ab.py: its bitwise comparison, and whole runs at scale
0.15 on this checkout against itself and against a copy whose
`sym_eigen` rounds differently."""

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

    def test_errors_compare_by_text(self):
        assert kernel_ab.bitwise_equal("NoConvergence: budget", "NoConvergence: budget")
        assert not kernel_ab.bitwise_equal("NoConvergence: budget", np.zeros(2))


class TestRuns:
    def test_a_checkout_against_itself(self):
        done = run(ROOT, ROOT)
        assert done.returncode == 0, done.stdout + done.stderr
        rows = {line.split()[0]: line.split() for line in done.stdout.splitlines()}
        for module, func in kernel_ab.KERNELS:
            name, calls, *_, bitwise = rows[f"{module}.{func}"]
            assert int(calls) > 0 and bitwise == f"{calls}/{calls}"

    def test_one_ulp_apart_fails(self, tmp_path):
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        numlin = tmp_path / "src" / "chainkit" / "numlin.py"
        text = numlin.read_text()
        assert text.count("return values[order], vt[order].T") == 1
        numlin.write_text(text.replace("return values[order], vt[order].T",
                                       "return np.nextafter(values[order], 2.0), vt[order].T"))
        done = run(ROOT, tmp_path)
        assert done.returncode == 1, done.stdout + done.stderr
        assert "numlin.sym_eigen" in done.stdout and "calls bitwise equal" in done.stdout
