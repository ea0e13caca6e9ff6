"""Every check that compares against a report tolerance records it,
and every record names a tolerance its function compares against.

A function of src/chainkit whose own code holds a comparison naming one
of the constants below must also call `applied` with that constant's
key, so that the report being built lists it (errors.applied); and a
function that calls `applied` with a key must compare against its
constant, or the report would list a tolerance that was not applied. Kernel
arithmetic guards (TRIDIAG_RTOL, TINY, RESCALE_LIMIT, PIVOT_RTOL, ...)
bound roundoff, not an answer, and are not report tolerances.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chainkit"

KEYS = {
    "ROW_SUM_ATOL": "row_sum",
    "ENTRY_CLAMP": "entry",
    "STATIONARITY_ATOL": "stationarity",
    "CYCLE_RTOL": "cycle",
    "DEFLATE_RTOL": "deflate",
    "RANK_RTOL": "cluster",
    "CONDITION_LIMIT": "condition",
    "TAXONOMY_EPSILON": "epsilon",
    "SCALING_RTOL": "rel",
    "UNDIRECTED_RTOL": "undirected",
    "BALANCED_RTOL": "balanced",
    "SPECTRAL_RADIUS_SLACK": "radius",
    "FORM_ATOL": "form",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(func):
    """The nodes of func's body, those of nested functions left out."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def constant(node) -> str | None:
    """The name of a KEYS constant that node names: X or module.X."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in KEYS else None


def sites(tree):
    """(function, constants compared, keys recorded) per function."""
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        compared, recorded = set(), set()
        for node in own_nodes(func):
            if isinstance(node, ast.Compare):
                compared |= {c for sub in ast.walk(node) if (c := constant(sub))}
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "applied":
                recorded |= {kw.arg for kw in node.keywords}
        yield func.name, compared, recorded


def unrecorded(tree) -> list[tuple[str, str]]:
    """(function, constant) pairs compared against and not recorded."""
    return [(name, c) for name, compared, recorded in sites(tree)
            for c in sorted(compared) if KEYS[c] not in recorded]


def uncompared(tree) -> list[tuple[str, str]]:
    """(function, key) pairs recorded and not compared against."""
    return [(name, key) for name, compared, recorded in sites(tree)
            for key in sorted(recorded - {KEYS[c] for c in compared})]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_tolerance_compared_is_recorded(path):
    assert unrecorded(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_tolerance_recorded_is_compared(path):
    assert uncompared(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_finds_an_unrecorded_comparison():
    tree = ast.parse("def f(x):\n    applied(row_sum=ROW_SUM_ATOL)\n"
                     "    return x < numlin.RANK_RTOL and x < ROW_SUM_ATOL\n")
    assert unrecorded(tree) == [("f", "RANK_RTOL")]


def test_finds_a_record_without_its_comparison():
    tree = ast.parse("def f(x):\n    applied(row_sum=ROW_SUM_ATOL, cluster=RANK_RTOL)\n"
                     "    return x < ROW_SUM_ATOL\n")
    assert uncompared(tree) == [("f", "cluster")]
