"""Every check that compares against a report tolerance records it.

A function of src/chainkit whose own code holds a comparison naming one
of the constants below must also call `applied` with that constant's
key, so that the report being built lists it (errors.applied). Kernel
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


def unrecorded(tree) -> list[tuple[str, str]]:
    """(function, constant) pairs compared against and not recorded."""
    missing = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        compared, recorded = set(), set()
        for node in own_nodes(func):
            if isinstance(node, ast.Compare):
                compared |= {c for sub in ast.walk(node) if (c := constant(sub))}
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "applied":
                recorded |= {kw.arg for kw in node.keywords}
        missing += [(func.name, c) for c in sorted(compared) if KEYS[c] not in recorded]
    return missing


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_tolerance_compared_is_recorded(path):
    assert unrecorded(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_finds_an_unrecorded_comparison():
    tree = ast.parse("def f(x):\n    applied(row_sum=ROW_SUM_ATOL)\n"
                     "    return x < numlin.RANK_RTOL and x < ROW_SUM_ATOL\n")
    assert unrecorded(tree) == [("f", "RANK_RTOL")]
