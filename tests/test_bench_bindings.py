"""The benchmark tracer names only functions that chainkit defines.

bench/tracer.py wraps every (module, function) pair in its TRACED table;
a pair that no longer resolves breaks `bench/run.py --trace 1`. The file
is read as source and its tables taken with ast.literal_eval, so nothing
under bench/ is imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_tables() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("TRACED", "KERNELS")}


TABLES = tracer_tables()


@pytest.mark.parametrize("module, func", TABLES["TRACED"],
                         ids=[f"{m}.{f}" for m, f in TABLES["TRACED"]])
def test_traced_function_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"chainkit.{module}"), func))


def test_every_kernel_is_a_traced_numlin_function():
    assert set(TABLES["KERNELS"]) <= {f for m, f in TABLES["TRACED"] if m == "numlin"}
