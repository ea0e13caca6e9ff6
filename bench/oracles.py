"""Independent checks of CLI reports.

Each check recomputes the answer from the input file with numpy/scipy
only, never with chainkit, and raises `Mismatch` when the report
disagrees beyond the stated tolerance. References are cached per input
file, so repeated requests pay for them once. Checks run outside the
timed region.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# Report floats carry 12 significant digits, so 1e-9 leaves three
# digits of headroom for the program's own rounding.
TOL = 1e-9
EIG_TOL = 1e-7  # eigenvalues of non-normal inputs lose a few digits
TAXONOMY_EPSILON = 1e-8  # the documented label threshold
# simulate: an occupancy entry may differ from the exact distribution
# by this many binomial standard deviations, plus one count
SAMPLING_SIGMAS = 6.0


class Mismatch(Exception):
    """A report disagrees with its oracle."""


def _require(ok, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    if got.size:
        err = float(np.max(np.abs(got - want)))
        _require(err <= tol, f"{what}: deviation {err:.3e} > {tol:.1e}")


# ---------------------------------------------------------------------------
# inputs, read the way the CLI documents its formats

def read_graph(path: str) -> tuple[list[str], np.ndarray]:
    """Weights of a directive TSV; vertices numbered in first-seen order,
    undirected edges mirrored, self-loops counted once."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    undirected = lines[0].strip() == "#undirected"
    edges = []
    index: dict[str, int] = {}
    for line in lines[1:]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        src, dst, raw = line.split("\t")
        for lab in (src, dst):
            index.setdefault(lab, len(index))
        edges.append((index[src], index[dst], float(raw)))
    w = np.zeros((len(index), len(index)))
    for i, j, x in edges:
        w[i, j] += x
        if undirected and i != j:
            w[j, i] += x
    return list(index), w


def read_chain(path: str) -> tuple[list[str], np.ndarray]:
    """Labels and transition matrix; a graph becomes its random walk."""
    with open(path) as fh:
        head = fh.read(1)
    if head == "{":
        with open(path) as fh:
            doc = json.load(fh)
        labels, p = [str(s) for s in doc["states"]], np.array(doc["P"], dtype=float)
    else:
        labels, w = read_graph(path)
        p = w
    return labels, p / p.sum(axis=1, keepdims=True)


def stationary(p: np.ndarray) -> np.ndarray:
    """Equal-weight stationary distribution: the mean of the extremal
    one of each closed class, each found by a dense least-squares
    null-space solve."""
    classes, closed = closed_classes(p)
    n = len(p)
    total = np.zeros(n)
    for members, is_closed in zip(classes, closed):
        if not is_closed:
            continue
        idx = np.array(sorted(members))
        sub = p[np.ix_(idx, idx)]
        m = len(idx)
        a = np.vstack([sub.T - np.eye(m), np.ones((1, m))])
        b = np.zeros(m + 1)
        b[-1] = 1.0
        total[idx] += np.linalg.lstsq(a, b, rcond=None)[0]
    return total / sum(closed)


def closed_classes(p: np.ndarray) -> tuple[list[frozenset[int]], list[bool]]:
    """Strongly connected components of the positive-entry digraph and
    whether each is closed."""
    count, comp = connected_components(csr_matrix(p > 0), directed=True,
                                       connection="strong")
    classes = [frozenset(np.nonzero(comp == c)[0].tolist()) for c in range(count)]
    rows, cols = np.nonzero(p > 0)
    leaving = np.zeros(count, dtype=bool)
    leaving[comp[rows[comp[rows] != comp[cols]]]] = True
    return classes, [not x for x in leaving]


def laplacian_normalized(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = w.sum(axis=1)
    root = np.sqrt(d)
    return np.eye(len(w)) - w / np.outer(root, root), d


def laplacian_directed(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pi = stationary(p)
    root = np.sqrt(pi)
    s = p * root[:, None] / root[None, :]
    return np.eye(len(p)) - 0.5 * (s + s.T), pi


# ---------------------------------------------------------------------------
# per-input reference cache

class References:
    """Lazily computed references, one entry per (input, quantity)."""

    def __init__(self):
        self._cache: dict[tuple, object] = {}

    def get(self, path: str, what: str, fn):
        key = (path, what)
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def chain(self, path):
        return self.get(path, "chain", lambda: read_chain(path))

    def graph(self, path):
        return self.get(path, "graph", lambda: read_graph(path))

    def pi(self, path):
        return self.get(path, "pi", lambda: stationary(self.chain(path)[1]))

    def eigvals(self, path):
        return self.get(path, "eigvals",
                        lambda: np.linalg.eigvals(self.chain(path)[1]))


# ---------------------------------------------------------------------------
# checks; each takes (report text, request ctx, references)

def _result(text: str, command: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"report is not JSON: {exc}") from None
    _require(doc.get("command") == command,
             f"command {doc.get('command')!r} != {command!r}")
    return doc["result"]


def _label(lam: complex) -> str:
    """The documented six-way taxonomy rule."""
    eps = TAXONOMY_EPSILON
    if abs(lam - 1.0) < eps:
        return "persistent_structure"
    if abs(lam + 1.0) < eps:
        return "persistent_oscillation"
    if abs(abs(lam) - 1.0) < eps and abs(lam.imag) >= eps:
        return "persistent_cycle"
    if abs(lam.imag) < eps and lam.real >= 0:
        return "transient_structure"
    if abs(lam.imag) < eps:
        return "transient_oscillation"
    return "transient_cycle"


def match_eigenvalues(got: np.ndarray, want: np.ndarray):
    """One-to-one pairing of two spectra with the least total distance:
    (got indices, want indices, largest paired distance)."""
    cost = np.abs(got[:, None] - want[None, :])
    ri, ci = linear_sum_assignment(cost)
    return ri, ci, float(cost[ri, ci].max())


def _check_eigen_rows(rows: list[dict], want: np.ndarray) -> None:
    got = np.array([complex(r["re"], r["im"]) for r in rows])
    _require(len(got) == len(want), f"{len(got)} eigenvalues, expected {len(want)}")
    ri, ci, err = match_eigenvalues(got, want)
    _require(err <= EIG_TOL, f"eigenvalue deviation {err:.3e} > {EIG_TOL:.0e}")
    mods = np.array([r["abs"] for r in rows])
    _close(mods, np.abs(got), TOL, "abs column")
    _require(np.all(np.diff(mods) <= TOL), "eigenvalues not sorted by modulus")
    for i, j in zip(ri, ci):
        # a label is checked unless the reported and the reference value
        # fall on different sides of a taxonomy threshold
        expected = _label(want[j])
        if _label(got[i]) == expected:
            _require(rows[i]["label"] == expected,
                     f"label {rows[i]['label']} for {want[j]:.6g}, expected {expected}")


def check_spectrum(text, ctx, refs, command="spectrum"):
    res = _result(text, command)
    _check_eigen_rows(res["eigenvalues"], refs.eigvals(ctx["input"]))
    _, closed = closed_classes(refs.chain(ctx["input"])[1])
    _require(res["perron"]["unit_multiplicity"] == sum(closed),
             "unit eigenvalue multiplicity != number of closed classes")


def check_taxonomy(text, ctx, refs):
    check_spectrum(text, ctx, refs, command="taxonomy")


def check_taxonomy_csv(text, ctx, refs):
    lines = text.strip().splitlines()
    _require(lines and lines[0] == "re,im,abs,label", "missing CSV header")
    rows = []
    for line in lines[1:]:
        re, im, mod, label = line.split(",")
        rows.append({"re": float(re), "im": float(im), "abs": float(mod),
                     "label": label})
    _check_eigen_rows(rows, refs.eigvals(ctx["input"]))


def _spectral_laplacian(ctx, refs):
    """The Laplacian embed/gft use: normalized for an undirected graph
    file, directed (from the stationary vector) otherwise."""
    def build():
        path = ctx["input"]
        if not path.endswith(".json"):
            _, w = refs.graph(path)
            if np.array_equal(w, w.T):
                return laplacian_normalized(w)
        return laplacian_directed(refs.chain(path)[1])
    lap, scale = refs.get(ctx["input"], "spectral_laplacian", build)
    values = refs.get(ctx["input"], "eigvalsh", lambda: np.linalg.eigvalsh(lap))
    return lap, scale, values


def _check_eigvecs(lap, values, vectors, what):
    """Columns are unit eigenvectors of lap for the given values."""
    for j in range(vectors.shape[1]):
        y = vectors[:, j]
        _require(abs(np.linalg.norm(y) - 1.0) <= 1e-7, f"{what} column {j} not unit")
        res = float(np.max(np.abs(lap @ y - values[j] * y)))
        _require(res <= 1e-7, f"{what} column {j} eigen-residual {res:.2e}")


def check_embed(text, ctx, refs):
    res = _result(text, "embed")
    lap, scale, want = _spectral_laplacian(ctx, refs)
    k = len(res["values"])
    _close(res["values"], want[:k], EIG_TOL, "embed values")
    coords = np.array(res["coordinates"])
    _check_eigvecs(lap, want[:k], coords * np.sqrt(scale)[:, None], "embed")


def check_gft(text, ctx, refs):
    res = _result(text, "gft")
    _, scale, want = _spectral_laplacian(ctx, refs)
    _close(res["values"], want, EIG_TOL, "gft values")
    coeffs = np.array(res["coefficients"])
    x = np.asarray(ctx["signal"])
    _require(abs(np.linalg.norm(coeffs) - np.linalg.norm(x)) <= 1e-8 * np.linalg.norm(x),
             "gft breaks Parseval's identity")
    # the smoothest eigenvector is sqrt(scale), sign-normalized positive
    y0 = np.sqrt(scale) / np.linalg.norm(np.sqrt(scale))
    _require(abs(coeffs[0] - y0 @ x) <= 1e-8, "gft coefficient 0 is not <y0, x>")


def check_demo_line_chain(text, ctx, refs):
    res = _result(text, "demo-line-chain")
    n = ctx["n"]
    p = np.array(res["chain"]["P"])
    _require(p.shape == (n, n), f"chain shape {p.shape}")
    _close(p.sum(axis=1), np.ones(n), TOL, "row sums")
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    _require(np.all(p[~band] == 0), "chain is not a line")
    lap, pi = laplacian_directed(p)
    _close(res["stationary"], pi, TOL, "stationary")
    head = res["laplacian_values_head"]
    _close(head, np.linalg.eigvalsh(lap)[:len(head)], EIG_TOL, "Laplacian values")


def check_validate(text, ctx, refs):
    res = _result(text, "validate")
    path = ctx["input"]
    if path.endswith(".json"):
        labels, _ = refs.chain(path)
        _require(res["kind"] == "chain", "kind != chain")
    else:
        labels, w = refs.graph(path)
        _require(res["kind"] == "graph", "kind != graph")
        _close(res["volume"], w.sum(), TOL * w.sum(), "volume")
        _require(res["undirected"] == bool(np.array_equal(w, w.T)), "undirected flag")
    _require(res["n"] == len(labels), "n")


def check_classify(text, ctx, refs):
    res = _result(text, "classify")
    labels, p = refs.chain(ctx["input"])
    classes, closed = closed_classes(p)
    want = {frozenset(labels[i] for i in c): ok for c, ok in zip(classes, closed)}
    got = [frozenset(c) for c in res["classes"]]
    _require(set(got) == set(want), "communicating classes differ")
    _require(list(res["recurrent_classes"]) == [want[c] for c in got],
             "recurrent flags differ")
    _require(res["irreducible"] == (len(classes) == 1), "irreducible flag")
    absorbing = [labels[i] for i in range(len(p)) if p[i, i] >= 1.0 - 1e-12]
    _require(res["absorbing_states"] == absorbing, "absorbing states differ")


def check_stationary(text, ctx, refs):
    res = _result(text, "stationary")
    _, p = refs.chain(ctx["input"])
    classes, closed = closed_classes(p)
    vecs = np.array(res["vectors"])
    _require(len(vecs) == sum(closed), "one vector per closed class")
    for v in vecs:
        _require(np.all(v >= 0), "negative stationary entry")
        _require(abs(v.sum() - 1.0) <= TOL, "stationary vector does not sum to 1")
        _close(v @ p, v, TOL, "pi P = pi")
    _close(res["equal_weight_combination"], vecs.mean(axis=0), TOL, "equal weights")


def check_absorb(text, ctx, refs):
    res = _result(text, "absorb")
    labels, p = refs.chain(ctx["input"])
    absorbing = [i for i in range(len(p)) if p[i, i] >= 1.0 - 1e-12]
    transient = [i for i in range(len(p)) if i not in absorbing]
    _require(res["permutation"] == [labels[i] for i in transient + absorbing],
             "canonical permutation differs")
    q = p[np.ix_(transient, transient)]
    n_ref = np.linalg.inv(np.eye(len(q)) - q)
    scale = max(1.0, float(np.abs(n_ref).max()))
    _close(res["fundamental"], n_ref, 1e-8 * scale, "fundamental matrix")
    _close(res["expected_steps"], n_ref.sum(axis=1), 1e-8 * scale * len(q),
           "expected steps")


def _reverse(p, pi):
    return p.T * pi[None, :] / pi[:, None]


def check_reverse(text, ctx, refs):
    res = _result(text, "reverse")
    _, p = refs.chain(ctx["input"])
    _close(res["chain"]["P"], _reverse(p, refs.pi(ctx["input"])), TOL, "time reversal")


def check_reversibilize(text, ctx, refs):
    res = _result(text, "reversibilize")
    _, p = refs.chain(ctx["input"])
    rev = _reverse(p, refs.pi(ctx["input"]))
    want = 0.5 * (p + rev) if ctx["mode"] == "additive" else p @ rev
    _close(res["chain"]["P"], want / want.sum(axis=1, keepdims=True), TOL,
           "reversibilization")


def check_kmatrix(text, ctx, refs):
    res = _result(text, "kmatrix")
    _, p = refs.chain(ctx["input"])
    pi = refs.pi(ctx["input"])
    root = np.sqrt(pi)
    _close(res["k"], p * root[:, None] / root[None, :], TOL, "K matrix")
    flow = pi[:, None] * p
    _close(res["db_residual"], np.abs(flow - flow.T).max(), TOL, "db residual")


def check_laplacian(text, ctx, refs, variant):
    res = _result(text, "laplacian")
    _require(res["variant"] == variant, "variant")
    path = ctx["input"]
    if variant == "directed":
        lap, pi = laplacian_directed(refs.chain(path)[1])
        _close(res["pi_used"], pi, TOL, "pi used")
    else:
        _, w = refs.graph(path)
        if variant == "normalized":
            lap, d = laplacian_normalized(w)
        else:
            d = w.sum(axis=1)
            lap = np.diag(d) - w
        _close(res["degrees"], d, TOL * max(1.0, d.max()), "degrees")
    _close(res["matrix"], lap, TOL * max(1.0, np.abs(lap).max()), "Laplacian")


def check_pagerank(text, ctx, refs):
    res = _result(text, "pagerank")
    labels, p = refs.chain(ctx["input"])
    _require(res["states"] == labels, "state order")
    alpha = ctx["damping"]
    n = len(p)
    tel = ctx["teleport"] if ctx["teleport"] is not None else np.full(n, 1.0 / n)
    want = np.linalg.solve(np.eye(n) - alpha * p.T, (1.0 - alpha) * tel)
    # power iteration stops at an L1 step of 1e-12; the distance left
    # to the fixed point is at most alpha / (1 - alpha) steps of that
    bound = 1e-12 * alpha / (1.0 - alpha) + TOL
    err = float(np.abs(np.array(res["pagerank"]) - want).sum())
    _require(err <= bound, f"pagerank L1 deviation {err:.2e} > {bound:.1e}")


def _start(labels, ctx):
    mu = np.zeros(len(labels))
    mu[labels.index(ctx["start"])] = 1.0
    return mu


def check_evolve(text, ctx, refs):
    res = _result(text, "evolve")
    labels, p = refs.chain(ctx["input"])
    want = _start(labels, ctx) @ np.linalg.matrix_power(p, res["steps"])
    _close(res["distribution"], want, TOL, "evolved distribution")


def check_simulate_ensemble(text, ctx, refs):
    """Occupancy at each time against the exact distribution mu P^t."""
    res = _result(text, "simulate")
    labels, p = refs.chain(ctx["input"])
    occ = np.array(res["occupancy"])
    steps, trajectories = res["length"], res["trajectories"]
    _require(occ.shape == (steps + 1, len(p)), "occupancy shape")
    exact = np.empty_like(occ)
    exact[0] = _start(labels, ctx)
    for t in range(steps):
        exact[t + 1] = exact[t] @ p
    var = np.maximum(exact * (1.0 - exact), 1.0 / trajectories) / trajectories
    bound = SAMPLING_SIGMAS * np.sqrt(var) + 1.0 / trajectories
    worst = float(np.max(np.abs(occ - exact) - bound))
    _require(worst <= 0, "occupancy outside the sampling bound")


def check_simulate_path(text, ctx, refs):
    res = _result(text, "simulate")
    labels, p = refs.chain(ctx["input"])
    index = {lab: i for i, lab in enumerate(labels)}
    path = [index[s] for s in res["path"]]
    _require(path[0] == index[ctx["start"]], "path does not start at --start")
    steps = np.array(path)
    _require(np.all(p[steps[:-1], steps[1:]] > 0), "path takes a zero-probability step")


CHECKS = {
    "spectrum": check_spectrum,
    "taxonomy": check_taxonomy,
    "taxonomy-csv": check_taxonomy_csv,
    "embed": check_embed,
    "gft": check_gft,
    "demo-line-chain": check_demo_line_chain,
    "validate": check_validate,
    "classify": check_classify,
    "stationary": check_stationary,
    "absorb": check_absorb,
    "reverse": check_reverse,
    "reversibilize": check_reversibilize,
    "kmatrix": check_kmatrix,
    "laplacian-normalized": lambda t, c, r: check_laplacian(t, c, r, "normalized"),
    "laplacian-unnormalized": lambda t, c, r: check_laplacian(t, c, r, "unnormalized"),
    "laplacian-directed": lambda t, c, r: check_laplacian(t, c, r, "directed"),
    "pagerank": check_pagerank,
    "evolve": check_evolve,
    "simulate-ensemble": check_simulate_ensemble,
    "simulate-path": check_simulate_path,
}


def check(kind: str, text: str, ctx: dict, refs: References) -> None:
    CHECKS[kind](text, ctx, refs)
