"""Self-tests of the benchmark: deterministic generators, family
structure, oracles that reject corrupted reports, and a traced pass
that leaves every binding as it found it.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import KERNELS, TRACED, Tracer  # noqa: E402

import chainkit.cli  # noqa: E402

SMALL = 0.15  # request sizes at 15%, as the warm-up set uses


def _report(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert chainkit.cli.main(list(argv)) == 0
    return buf.getvalue()


def _first_of_each_kind(tmp_path):
    out = {}
    for name in workloads.WORKLOADS:
        folder = tmp_path / name
        folder.mkdir()
        for req in workloads.build(name, 7, str(folder), SMALL, shuffle=False):
            out.setdefault(req.kind, req)
    return out


# ---------------------------------------------------------------------------
# generators

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(tmp_path, name):
    runs = []
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        folder = tmp_path / sub
        folder.mkdir()
        reqs = workloads.build(name, seed, str(folder), SMALL)
        files = sorted(p.name for p in folder.iterdir())
        runs.append(([(r.kind, tuple(a.replace(str(folder), "") for a in r.argv))
                      for r in reqs],
                     [(folder / f).read_bytes() for f in files]))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]
    assert sorted(k for k, _ in runs[0][0]) == sorted(k for k, _ in runs[2][0])


def _period(p: np.ndarray) -> int:
    """gcd of level differences over the edges of a BFS from state 0."""
    n = len(p)
    level = [-1] * n
    level[0] = 0
    queue = [0]
    for u in queue:
        for v in np.nonzero(p[u])[0]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u, v in zip(*np.nonzero(p)):
        g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g)


def _closed(p):
    classes, closed = oracles.closed_classes(p)
    return [c for c, ok in zip(classes, closed) if ok], classes


def test_cycle_is_one_periodic_class():
    p = workloads.cycle_chain(np.random.default_rng(1), 12)
    closed, classes = _closed(p)
    assert len(classes) == 1 and len(closed) == 1
    assert _period(p) == 12


def test_block_periodic_has_period_d():
    p = workloads.block_periodic_chain(np.random.default_rng(1), 24, 4)
    assert len(_closed(p)[1]) == 1
    assert _period(p) == 4


def test_absorbing_family_is_absorbing():
    p = workloads.absorbing_chain(np.random.default_rng(1), 30, 3, 4)
    closed, _ = _closed(p)
    assert len(closed) == 3
    assert all(len(c) == 1 and p[next(iter(c))].max() == 1.0 for c in closed)


@pytest.mark.parametrize("k", [1, 4, 15])
def test_multiclass_has_k_recurrent_classes(k):
    p = workloads.multiclass_chain(np.random.default_rng(1), 15, k)
    closed, classes = _closed(p)
    assert len(closed) == len(classes) == k


def test_sparse_digraph_has_closed_classes_and_transients():
    w = workloads.sparse_digraph(np.random.default_rng(1), 120, 5, 4, 30)
    p = w / w.sum(axis=1, keepdims=True)
    closed, classes = _closed(p)
    assert len(closed) == 4
    assert sum(len(c) for c in closed) == 90


def test_line_and_undirected_families():
    rng = np.random.default_rng(1)
    p = workloads.line_chain(rng, 20)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.count_nonzero(np.triu(p, 2)) == np.count_nonzero(np.tril(p, -2)) == 0
    w = workloads.undirected_graph(rng, 20, 10)
    assert np.array_equal(w, w.T)
    assert len(oracles.closed_classes(w)[0]) == 1


# ---------------------------------------------------------------------------
# oracles


def _bump(*keys, by=1e-3):
    def corrupt(doc):
        node = doc["result"]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] += by
    return corrupt


def _flip_recurrent(doc):
    flags = doc["result"]["recurrent_classes"]
    flags[0] = not flags[0]


def _stall_path(doc):
    path = doc["result"]["path"]
    path[1] = path[0]  # starts are chosen without a self-loop


def _relabel(doc):
    row = doc["result"]["eigenvalues"][0]  # the Perron root, persistent
    row["label"] = "transient_cycle"


def _corrupt_csv(text):
    lines = text.splitlines()
    re, im, mod, label = lines[1].split(",")
    lines[1] = ",".join([repr(float(re) + 1e-3), im, mod, label])
    return "\n".join(lines)


CORRUPT = {
    "spectrum": _bump("eigenvalues", 0, "re"),
    "taxonomy": _relabel,
    "embed": _bump("values", 1),
    "gft": _bump("coefficients", 0),
    "demo-line-chain": _bump("laplacian_values_head", 1),
    "validate": _bump("n", by=1),
    "classify": _flip_recurrent,
    "stationary": _bump("vectors", 0, 0),
    "absorb": _bump("fundamental", 0, 0),
    "reverse": _bump("chain", "P", 0, 0),
    "reversibilize": _bump("chain", "P", 0, 0),
    "kmatrix": _bump("k", 0, 0),
    "laplacian-normalized": _bump("matrix", 0, 0),
    "laplacian-unnormalized": _bump("matrix", 0, 0),
    "laplacian-directed": _bump("matrix", 0, 0),
    "pagerank": _bump("pagerank", 0),
    "evolve": _bump("distribution", 0),
    "simulate-ensemble": _bump("occupancy", -1, 0, by=0.5),
    "simulate-path": _stall_path,
}


def test_every_kind_has_an_oracle_and_a_corruption():
    assert set(CORRUPT) | {"taxonomy-csv"} == set(oracles.CHECKS)


def test_oracles_accept_reports_and_reject_corrupted_ones(tmp_path):
    kinds = _first_of_each_kind(tmp_path)
    assert set(kinds) == set(oracles.CHECKS)
    refs = oracles.References()
    for kind, req in sorted(kinds.items()):
        text = _report(req.argv)
        oracles.check(kind, text, req.ctx, refs)
        if kind == "taxonomy-csv":
            bad = _corrupt_csv(text)
        else:
            doc = json.loads(text)
            CORRUPT[kind](doc)
            bad = json.dumps(doc)
        with pytest.raises(oracles.Mismatch):
            oracles.check(kind, bad, req.ctx, refs)


# ---------------------------------------------------------------------------
# tracing


def test_traced_pass_restores_every_binding(tmp_path):
    folder = tmp_path / "spectral"
    folder.mkdir()
    reqs = workloads.build("spectral", 5, str(folder), SMALL)
    mods = {name: mod for name, mod in sys.modules.items() if name.startswith("chainkit")}
    before = {(name, attr): value for name, mod in mods.items()
              for attr, value in vars(mod).items() if callable(value)}
    tracer = Tracer()
    tracer.install()
    try:
        bound = tracer.bindings()
        assert {f"{m}.{f}" for m, f in TRACED} <= {
            f"{mod.__name__.split('.')[-1]}.{attr}" for mod, attr, _ in bound}
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in bound)
        phase = run.run_phase(reqs, 1, oracles.References(), oracles, tracer)
    finally:
        tracer.restore()
    after = {(name, attr): value for name, mod in mods.items()
             for attr, value in vars(mod).items() if callable(value)}
    assert after == before
    assert all(getattr(mod, attr) is orig for mod, attr, orig in bound)

    assert not phase.failures
    table = tracer.table()
    assert table["cli.main"]["calls"] == len(reqs)
    assert all(table[f"numlin.{k}"]["calls"] > 0 for k in KERNELS)
    own = tracer.self_times()
    assert min(own) > -1e-6
    assert math.isclose(sum(own), tracer.request_time())
