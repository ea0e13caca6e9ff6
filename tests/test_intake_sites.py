"""No public function converts or range-checks an argument it has not read.

A module-level function of src/chainkit without a leading underscore
reads a numeric argument through `chain.as_finite`, which refuses
non-numeric and non-finite values and checks a length, not by calling
`np.asarray(p, ...)` or `np.array(p, ...)` on one of its own parameters
p. It orders a parameter p against a bound (p as a bare operand of <,
<=, > or >=) only if p is also the first argument of an `as_finite` or
`require_count` call in that function, so a string or NaN never
reaches the comparison. The dense kernels `numlin` and `gth` keep
`gth._as_square` and its NumericError contract, and are not read.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chainkit"
KERNELS = {"numlin.py", "gth.py"}
CONVERTERS = {"asarray", "array"}
READERS = {"as_finite", "require_count"}
ORDERS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def public_functions(tree):
    """(function, its parameter names) per public module-level function
    other than the readers themselves."""
    for func in tree.body:
        if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                or func.name.startswith("_") or func.name in READERS):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        yield func, params


def own_conversions(tree) -> list[tuple[str, str]]:
    """(function, parameter) per `np.asarray(p, ...)` or `np.array(p, ...)`
    in a public function, p being one of that function's parameters."""
    found = []
    for func, params in public_functions(tree):
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in CONVERTERS and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                found.append((func.name, node.args[0].id))
    return found


def unread_comparisons(tree) -> list[tuple[str, str]]:
    """(function, parameter) per comparison in a public function that orders
    one of its parameters p, p not being the first argument of any
    `as_finite` or `require_count` call (by name or attribute) there."""
    found = []
    for func, params in public_functions(tree):
        read = {node.args[0].id for node in ast.walk(func)
                if isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Name)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in READERS}
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            ordered = {x.id for k, op in enumerate(node.ops) if isinstance(op, ORDERS)
                       for x in operands[k:k + 2] if isinstance(x, ast.Name)}
            found += [(func.name, p) for p in sorted(ordered & params - read)]
    return found


SOURCES = [p for p in sorted(SRC.glob("*.py")) if p.name not in KERNELS]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_public_functions_read_arguments_through_as_finite(path):
    assert own_conversions(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_public_functions_range_check_only_what_they_read(path):
    assert unread_comparisons(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_finds_an_own_conversion():
    tree = ast.parse("def f(x, *, w):\n    y = np.asarray(x, dtype=float)\n"
                     "    return np.array(w) @ np.asarray(y)\n"
                     "def _g(x):\n    return np.asarray(x)\n"
                     "def as_finite(values):\n    return np.array(values)\n")
    assert own_conversions(tree) == [("f", "x"), ("f", "w")]


def test_finds_an_unread_comparison():
    tree = ast.parse("def f(a, b, c, n):\n    require_count(n, 'n')\n"
                     "    if not 0 < a < 1 or b >= 2 or n > 3 or a == c:\n        pass\n"
                     "    b = chain.as_finite(b, 'b', 1)\n    return b <= c\n"
                     "def _g(x):\n    return x < 0\n"
                     "def require_count(value):\n    return value < 0\n")
    assert sorted(unread_comparisons(tree)) == [("f", "a"), ("f", "c")]
