"""No public function converts its own arguments to an array.

A module-level function of src/chainkit without a leading underscore
reads a numeric argument through `chain.as_finite`, which refuses
non-numeric and non-finite values and checks a length, not by calling
`np.asarray(p, ...)` or `np.array(p, ...)` on one of its own parameters
p. The dense kernels `numlin` and `gth` keep `gth._as_square` and its
NumericError contract, and are not read.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chainkit"
KERNELS = {"numlin.py", "gth.py"}
CONVERTERS = {"asarray", "array"}


def own_conversions(tree) -> list[tuple[str, str]]:
    """(function, parameter) per `np.asarray(p, ...)` or `np.array(p, ...)`
    in a public module-level function other than as_finite, p being one of
    that function's parameters."""
    found = []
    for func in tree.body:
        if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                or func.name.startswith("_") or func.name == "as_finite"):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in CONVERTERS and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                found.append((func.name, node.args[0].id))
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in KERNELS], ids=lambda p: p.stem)
def test_public_functions_read_arguments_through_as_finite(path):
    assert own_conversions(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_finds_an_own_conversion():
    tree = ast.parse("def f(x, *, w):\n    y = np.asarray(x, dtype=float)\n"
                     "    return np.array(w) @ np.asarray(y)\n"
                     "def _g(x):\n    return np.asarray(x)\n"
                     "def as_finite(values):\n    return np.array(values)\n")
    assert own_conversions(tree) == [("f", "x"), ("f", "w")]
