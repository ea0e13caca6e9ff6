"""Command-line front end.

Two input formats: chain JSON ({"states": [...], "P": [[...]]}) and a
graph edge-list TSV whose first line is the directive "#undirected" or
"#directed", followed by src<TAB>dst<TAB>weight records. Commands that
need a chain accept a graph file too and normalize it into its random
walk first.

Reports are JSON with sorted keys and floats fixed at 12 significant
digits, so identical inputs and flags produce byte-identical output.
`spectrum` and `taxonomy` take `--format csv` to emit rows (re, im, abs,
label) for unit-circle plots instead; `simulate` and `demo-line-chain`
take `--seed` (default: CHAINS_SEED, then 0). There is no row-sum
tolerance flag. Exit codes: 0 success, 2 invalid input, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from functools import cached_property

import numpy as np

from . import __version__, errors
from .absorbing import canonical_form, fundamental_matrix
from .chain import (
    ROW_SUM_ATOL,
    TransitionMatrix,
    as_finite,
    build_chain,
    evolve,
    occupancy,
    point_mass,
    sample,
    validate_distribution,
)
from .demo import line_chain
from .graph import SCALING_RTOL, WeightedDigraph, build_graph, random_walk, same_rw_set
from .laplacian import (
    LaplacianMatrix,
    build_laplacian,
    directed_laplacian,
    gft,
    smooth_spectrum,
)
from .numlin import stationary_gth
from .reversal import DB_ATOL, k_matrix, reversibility, reversibilize, time_reverse
from .spectral import (TAXONOMY_EPSILON, SpectralDecomposition, decompose, perron_report,
                       round12, taxonomy)
from .stationary import STATIONARITY_ATOL, StationaryBasis, equal_weight, stationary_basis
from .structure import ClassStructure, classify
from .surfer import SurferConfig, pagerank_matrix

# the row-sum tolerance build_chain applies, echoed by the reports
ROW_SUM = {"row_sum": ROW_SUM_ATOL}


# ---------------------------------------------------------------------------
# input parsing

def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def parse_chain_json(path: str) -> TransitionMatrix:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise errors.ParseError(exc.lineno, exc.msg) from None
    if not isinstance(doc, dict) or "states" not in doc or "P" not in doc:
        raise errors.ParseError(1, 'chain JSON needs "states" and "P" keys')
    return build_chain(doc["states"], doc["P"])


def parse_graph_tsv(path: str) -> WeightedDigraph:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() not in ("#undirected", "#directed"):
        raise errors.ParseError(1, 'first line must be "#undirected" or "#directed"')
    undirected = lines[0].strip() == "#undirected"
    edges = []
    idx: dict[str, int] = {}  # label -> index, in order of first mention
    for no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise errors.ParseError(no, "expected src<TAB>dst<TAB>weight")
        src, dst, raw = parts
        try:
            weight = float(raw)
        except ValueError:
            raise errors.ParseError(no, f"bad weight {raw!r}") from None
        if not (0 < weight < math.inf):
            raise errors.ParseError(no, "weights must be positive and finite")
        edges.append((no, idx.setdefault(src, len(idx)), idx.setdefault(dst, len(idx)),
                      weight))
    w = np.zeros((len(idx), len(idx)))
    for no, i, j, weight in edges:
        # the set holds a self-loop once: it stays directed, counted once
        for entry in {(i, j), (j, i)} if undirected else {(i, j)}:
            w[entry] = float(w[entry]) + weight  # a float sum overflows silently
            if w[entry] == math.inf:
                raise errors.ParseError(no, "summed edge weight is not finite")
    return build_graph(list(idx), w)


def parse_input(path: str) -> TransitionMatrix | WeightedDigraph:
    """Sniff the format: JSON object for chains, directive TSV for graphs."""
    with open(path) as fh:
        head = fh.read(1024).lstrip()
    if head.startswith("{"):
        return parse_chain_json(path)
    return parse_graph_tsv(path)


# ---------------------------------------------------------------------------
# deterministic serialization

def _jsonable(obj):
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return round12(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": round12(obj.real), "im": round12(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def make_report(command: str, digest: str, result, tolerances: dict) -> str:
    report = {
        "command": command,
        "input_digest": digest,
        "result": _jsonable(result),
        "tolerances": _jsonable(tolerances),
        "tool_version": __version__,
    }
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def chain_document(chain: TransitionMatrix) -> dict:
    return {"states": list(chain.labels), "P": chain.p}


class Analysis:
    """The stages of one report's input, each computed at most once and
    only when a command reads it. Nothing outlives the report."""

    def __init__(self, obj: TransitionMatrix | WeightedDigraph | None):
        self.obj = obj

    @property
    def graph(self) -> WeightedDigraph:
        if not isinstance(self.obj, WeightedDigraph):
            raise errors.ValidationError("this command needs a graph TSV input")
        return self.obj

    @cached_property
    def chain(self) -> TransitionMatrix:
        if isinstance(self.obj, WeightedDigraph):
            return random_walk(self.obj)
        return self.obj

    @cached_property
    def structure(self) -> ClassStructure:
        return classify(self.chain)

    @cached_property
    def basis(self) -> StationaryBasis:
        return stationary_basis(self.chain, self.structure)

    @cached_property
    def decomposition(self) -> SpectralDecomposition:
        return decompose(self.chain)

    @cached_property
    def directed_laplacian(self) -> LaplacianMatrix:
        return directed_laplacian(self.chain, self.basis)

    def smoothing_laplacian(self) -> LaplacianMatrix:
        """Normalized Laplacian of an undirected graph, else directed."""
        if isinstance(self.obj, WeightedDigraph) and self.obj.is_undirected:
            return build_laplacian(self.obj, "normalized")
        return self.directed_laplacian


# ---------------------------------------------------------------------------
# command payloads; each returns (result, tolerances), or (text, None)
# for a CSV report

def _parse_vector(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise errors.ValidationError(f"bad numeric list {text!r}") from None
    return as_finite(values, f"numeric list {text!r}")


def _validate(args, a: Analysis):
    obj = a.obj
    result = {"ok": True, "kind": "chain", "n": obj.n}
    if isinstance(obj, WeightedDigraph):
        result.update(kind="graph", volume=obj.volume, undirected=obj.is_undirected,
                      balanced=obj.is_balanced)
    return result, ROW_SUM


def _classify(args, a: Analysis):
    st, labels = a.structure, a.chain.labels
    result = {
        "classes": [[labels[i] for i in members] for members in st.classes],
        "recurrent_classes": list(st.recurrent),
        "class_periods": list(st.period),
        "condensation_edges": sorted(st.condensation_edges),
        "irreducible": st.irreducible,
        "recurrent": st.recurrent_chain,
        "periodicity": st.periodicity,
        "period": st.chain_period,
        "ergodic": st.ergodic,
        "absorbing_states": [labels[i] for i in st.absorbing_states],
        "absorbing": st.absorbing_chain,
    }
    return result, ROW_SUM


def _stationary(args, a: Analysis):
    basis = a.basis
    result = {
        "unique": basis.unique,
        "class_ids": list(basis.class_ids),
        "vectors": basis.vectors,
        "equal_weight_combination": equal_weight(basis),
    }
    return result, {"stationarity": STATIONARITY_ATOL}


def _spectrum(args, a: Analysis):
    """`spectrum` and `taxonomy`: the eigenvalues in sorted order with
    their taxonomy labels, as JSON with a Perron summary or as CSV."""
    dec = a.decomposition
    labels = taxonomy(dec)
    rows = []
    for j in dec.order:
        lam = dec.values[j]
        rows.append({"re": lam.real, "im": lam.imag, "abs": abs(lam),
                     "label": labels[j]})
    if args.format == "csv":
        lines = ["re,im,abs,label"]
        for r in rows:
            lines.append(f"{round12(r['re'])!r},{round12(r['im'])!r},"
                         f"{round12(r['abs'])!r},{r['label']}")
        return "\n".join(lines), None
    n_rec = sum(a.structure.recurrent)
    result = {"eigenvalues": rows,
              "diagonalizable": dec.pairs.diagonalizable,
              "perron": perron_report(dec, recurrent_classes=n_rec)}
    return result, {"epsilon": TAXONOMY_EPSILON}


def _evolve(args, a: Analysis):
    chain = a.chain
    if args.start is not None:
        mu = point_mass(chain, args.start)
    elif args.mu is not None:
        mu = validate_distribution(_parse_vector(args.mu), chain.n)
    else:
        raise errors.ValidationError("evolve needs --start or --mu")
    out = evolve(chain, mu, args.steps)
    result = {"steps": args.steps, "distribution": out,
              "states": list(chain.labels)}
    return result, ROW_SUM


def _simulate(args, a: Analysis):
    chain = a.chain
    if args.trajectories != 1:  # occupancy refuses fewer than one
        occ = occupancy(chain, args.start, args.length, args.seed,
                        args.trajectories)
        result = {"seed": args.seed, "trajectories": args.trajectories,
                  "length": args.length, "states": list(chain.labels),
                  "occupancy": occ}
    else:
        path = sample(chain, args.start, args.length, args.seed)
        result = {"seed": args.seed, "path": path}
    return result, ROW_SUM


def _reverse(args, a: Analysis):
    out = time_reverse(a.chain, a.structure, a.basis)
    return {"chain": chain_document(out)}, {"db": DB_ATOL}


def _reversibilize(args, a: Analysis):
    out = reversibilize(a.chain, a.basis, args.mode)
    return {"mode": args.mode, "chain": chain_document(out)}, {"db": DB_ATOL}


def _kmatrix(args, a: Analysis):
    kern = k_matrix(a.chain, a.basis)
    rep = reversibility(a.chain, a.structure, a.basis)
    result = {"k": kern.k,
              "symmetric": bool(np.max(np.abs(kern.k - kern.k.T)) <= 1e-10),
              "reversible": rep.reversible,
              "semi_reversible": rep.semi_reversible,
              "db_residual": rep.db_residual,
              "witness": rep.witness}
    return result, {"db": DB_ATOL}


def _laplacian(args, a: Analysis):
    if args.variant == "directed":
        lap = a.directed_laplacian
        result = {"variant": "directed", "matrix": lap.m, "pi_used": lap.pi_used}
    else:
        lap = build_laplacian(a.graph, args.variant)
        result = {"variant": args.variant, "matrix": lap.m, "degrees": lap.scale}
    return result, ROW_SUM


def _embed(args, a: Analysis):
    spec = smooth_spectrum(a.smoothing_laplacian(), args.k)
    return {"values": spec.values, "coordinates": spec.right_transformed}, ROW_SUM


def _gft(args, a: Analysis):
    if args.signal is None:
        raise errors.ValidationError("gft needs --signal v1,v2,...")
    spec = smooth_spectrum(a.smoothing_laplacian())
    coeffs = gft(spec, _parse_vector(args.signal))
    return {"coefficients": coeffs, "values": spec.values}, ROW_SUM


def _pagerank(args, a: Analysis):
    chain = a.chain
    tel = None if args.teleport is None else _parse_vector(args.teleport)
    gm = pagerank_matrix(chain, SurferConfig(alpha=args.damping, teleport=tel))
    pi = stationary_gth(gm.p)
    result = {"damping": args.damping, "pagerank": pi,
              "states": list(chain.labels),
              "residual_l1": float(np.sum(np.abs(pi @ gm.p - pi)))}
    if chain.n <= 16:
        result["google_matrix"] = gm.p
    return result, ROW_SUM


def _absorb(args, a: Analysis):
    dec = canonical_form(a.chain, a.structure)
    fm = fundamental_matrix(dec)
    result = {
        "permutation": [a.chain.labels[i] for i in dec.permutation],
        "transient_count": dec.t,
        "absorbing_count": dec.a,
        "q": dec.q,
        "r": dec.r,
        "fundamental": fm.n,
        "expected_steps": fm.expected_steps,
    }
    return result, ROW_SUM


def _rwset(args, a: Analysis):
    g1 = a.graph
    g2 = Analysis(parse_input(args.other)).graph
    scaling = same_rw_set(g1.w, g2.w)
    return {"same_random_walk_set": scaling is not None,
            "scaling": scaling}, {"rel": SCALING_RTOL}


def _demo_line_chain(args, _):
    a = Analysis(line_chain(n=args.n, p_right=args.p_right,
                            perturb=args.perturb, seed=args.seed))
    chain = a.chain
    pi = equal_weight(a.basis)
    spec = smooth_spectrum(a.directed_laplacian)
    y0 = spec.vectors[:, 0]
    rt0 = spec.right_transformed[:, 0]
    rt0 = rt0 / rt0[0]
    p_residuals = [
        float(np.max(np.abs(chain.p @ spec.right_transformed[:, j]
                            - (1.0 - spec.values[j]) * spec.right_transformed[:, j])))
        for j in range(min(args.n, 8))
    ]
    result = {
        "chain": chain_document(chain),
        "stationary": pi,
        "stationary_strictly_increasing": bool(np.all(np.diff(pi) > 0)),
        "laplacian_values_head": spec.values[:8],
        "lambda0_vector": y0,
        "lambda0_right_transformed": rt0,
        "walk_eigen_residuals_head": p_residuals,
    }
    return result, ROW_SUM


COMMANDS = {
    "validate": _validate,
    "classify": _classify,
    "stationary": _stationary,
    "spectrum": _spectrum,
    "taxonomy": _spectrum,
    "evolve": _evolve,
    "simulate": _simulate,
    "reverse": _reverse,
    "reversibilize": _reversibilize,
    "kmatrix": _kmatrix,
    "laplacian": _laplacian,
    "embed": _embed,
    "gft": _gft,
    "pagerank": _pagerank,
    "absorb": _absorb,
    "rwset": _rwset,
    "demo-line-chain": _demo_line_chain,
}


def run_command(args: argparse.Namespace) -> str:
    """Execute one subcommand and return its report text."""
    if args.input is None:  # demo-line-chain builds its own chain
        obj, digest = None, "-"
    else:
        obj = parse_input(args.input)
        digest = _sha256(args.input)
    result, tolerances = COMMANDS[args.command](args, Analysis(obj))
    if tolerances is None:
        return result
    return make_report(args.command, digest, result, tolerances)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainkit",
        description="Analyze finite Markov chains and random walks on "
                    "weighted directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_input=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_input:
            p.add_argument("input", help="chain JSON or graph TSV file")
        else:
            p.set_defaults(input=None)
        return p

    def add_seed(p):
        # argparse converts a string default with `type`, so a malformed
        # CHAINS_SEED is a usage error
        p.add_argument("--seed", type=int, default=os.environ.get("CHAINS_SEED", "0"),
                       help="RNG seed (falls back to CHAINS_SEED, then 0)")

    add("validate", help="parse and validate an input file")
    add("classify", help="communicating classes, recurrence, periodicity")
    add("stationary", help="stationary distribution basis")
    for p in (add("spectrum", help="eigenvalues with taxonomy labels"),
              add("taxonomy", help="eigenvalue taxonomy (alias view of spectrum)")):
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("evolve", help="push a distribution forward k steps")
    p.add_argument("--start", help="start state label (point mass)")
    p.add_argument("--mu", help="comma-separated start distribution")
    p.add_argument("--steps", type=int, default=1)

    p = add("simulate", help="sample trajectories / ensemble occupancy")
    p.add_argument("--start", required=True)
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--trajectories", type=int, default=1)
    add_seed(p)

    add("reverse", help="time-reversed chain")
    p = add("reversibilize", help="additive or multiplicative reversibilization")
    p.add_argument("--mode", choices=["additive", "multiplicative"],
                   default="additive")
    add("kmatrix", help="symmetrized kernel and reversibility report")

    p = add("laplacian", help="graph Laplacian matrix")
    p.add_argument("--variant", choices=["normalized", "unnormalized", "directed"],
                   default="normalized")

    p = add("embed", help="smoothest Laplacian eigenvector coordinates")
    p.add_argument("--k", type=int, default=2)

    p = add("gft", help="graph Fourier transform of a signal")
    p.add_argument("--signal", help="comma-separated signal values")

    p = add("pagerank", help="teleporting-walk stationary distribution")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--teleport", help="comma-separated teleport distribution")

    add("absorb", help="canonical form and fundamental matrix")

    p = add("rwset", help="compare two graphs for random-walk equivalence")
    p.add_argument("--other", required=True, help="second graph TSV file")

    p = add("demo-line-chain", needs_input=False,
            help="generate a biased line chain and its Laplacian tables")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--p-right", type=float, default=0.52)
    p.add_argument("--perturb", type=float, default=0.0)
    add_seed(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = run_command(args)
    except (errors.ValidationError, errors.NotRecurrent, errors.NotAbsorbing,
            FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
