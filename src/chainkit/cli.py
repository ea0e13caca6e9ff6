"""Command-line front end.

Two input formats: chain JSON ({"states": [...], "P": [[...]]}) and a
graph edge-list TSV whose first line is the directive "#undirected" or
"#directed", followed by src<TAB>dst<TAB>weight records. Commands that
need a chain accept a graph file too and normalize it into its random
walk first. Both are UTF-8 text. Chain JSON is strict RFC 8259, decoded
by orjson (see parse_chain_json).

Reports are JSON with sorted keys and floats fixed at 12 significant
digits, so identical inputs and flags produce byte-identical output.
`spectrum` and `taxonomy` take `--format csv` to emit rows (re, im, abs,
label) for unit-circle plots instead; `simulate` and `demo-line-chain`
take a non-negative `--seed` (default: CHAINS_SEED, then 0). No flag
sets a tolerance. A report's `tolerances` are those its checks compared
against while it was built, as each check records them (errors.applied).
Exit codes: 0 success, 2 invalid input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from functools import cache, cached_property

import numpy as np

# Every command needs errors and chain. The other modules run on first
# use (see chainkit/__init__.py), so they are reached by attribute when a
# command calls them, and a command runs only its own.
from . import (
    __version__,
    absorbing,
    demo,
    errors,
    graph,
    laplacian,
    reversal,
    spectral,
    stationary,
    structure,
    surfer,
)
from .chain import (
    TransitionMatrix,
    as_labels,
    build_chain,
    evolve,
    occupancy,
    point_mass,
    sample,
)

# ---------------------------------------------------------------------------
# input parsing

# the most "[" and "{" a chain JSON text may hold (a dense chain of n
# states has n + 3); it bounds the depth, which orjson recurses natively
# with no limit: 6.5e4 levels of {"a": overflow an 8 MB C stack, 1e4 need
# 1-2 MB. So `main` runs on the main thread, or on one started after
# threading.stack_size(2 * 2**20) or more (1 MB segfaults at 1e4 levels).
MAX_BRACKETS = 10_000


def parse_chain_json(text: str) -> TransitionMatrix:
    """A chain from strict RFC 8259 JSON, decoded by orjson: NaN,
    Infinity, a number beyond a double's range, a byte order mark and an
    unpaired surrogate escape are parse errors, and so is a text with more
    than MAX_BRACKETS "[" and "{" in all, refused before it is decoded."""
    if text.count("[") + text.count("{") > MAX_BRACKETS:
        raise errors.ParseError(1, f'chain JSON holds more than {MAX_BRACKETS} "[" and "{{"')
    import orjson  # 3-8 ms with its zoneinfo; TSV and demo-line-chain runs skip it

    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise errors.ParseError(exc.lineno, exc.msg) from None
    if not isinstance(doc, dict) or "states" not in doc or "P" not in doc:
        raise errors.ParseError(1, 'chain JSON needs "states" and "P" keys')
    return build_chain(doc["states"], doc["P"])


def _refuse_first_bad_record(records: list[tuple[int, str]]) -> None:
    """Raise the ParseError of the first (line number, text) record that
    a whole-file check refused."""
    for no, record in records:
        parts = record.split("\t")
        if len(parts) != 3:
            raise errors.ParseError(no, "expected src<TAB>dst<TAB>weight")
        try:
            weight = float(parts[2])
        except ValueError:
            raise errors.ParseError(no, f"bad weight {parts[2]!r}") from None
        if not (0 < weight < math.inf):
            raise errors.ParseError(no, "weights must be positive and finite")


def parse_graph_tsv(text: str) -> graph.WeightedDigraph:
    """A graph from a directive TSV, every record checked and summed at once.

    Labels are numbered in order of first mention. An undirected record
    adds its weight at (i, j) and at (j, i), a self-loop once. Entries
    listed more than once are summed in file order, which one weighted
    np.bincount over the flat cells keeps: it adds in index order, and
    each record's (i, j) and (j, i) sit side by side. Every weight and
    sum is checked here, so W is frozen without `build_graph`'s scans.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() not in ("#undirected", "#directed"):
        raise errors.ParseError(1, 'first line must be "#undirected" or "#directed"')
    undirected = lines[0].strip() == "#undirected"
    records = [(no, s) for no, s in enumerate(map(str.strip, lines[1:]), start=2)
               if s and s[0] != "#"]
    m = len(records)
    # No line holds "\n", so a "\n" field is a separator: the records have
    # three fields each iff the separators sit at every fourth field.
    fields = "\t\n\t".join(["", *(s for _, s in records)]).split("\t")
    weight = None
    if len(fields) == 4 * m + 1 and fields[1::4].count("\n") == m:
        try:
            weight = np.fromiter(map(float, fields[4::4]), dtype=float, count=m)
        except ValueError:
            pass
    if weight is None or not np.all((weight > 0) & (weight < math.inf)):
        _refuse_first_bad_record(records)
    ends = [""] * (2 * m)
    ends[0::2], ends[1::2] = fields[2::4], fields[3::4]
    idx = {label: k for k, label in enumerate(dict.fromkeys(ends))}
    cells = np.fromiter(map(idx.__getitem__, ends), dtype=np.intp,
                        count=2 * m).reshape(m, 2)
    record = np.arange(m)
    if undirected:  # each record's (i, j), then its (j, i) unless i == j
        keep = np.stack([np.ones(m, dtype=bool), cells[:, 0] != cells[:, 1]], 1).ravel()
        cells = np.stack([cells, cells[:, ::-1]], 1).reshape(-1, 2)[keep]
        record = np.repeat(record, 2)[keep]
    n = len(idx)
    i, j, x = cells[:, 0], cells[:, 1], weight[record]
    w = np.bincount(i * n + j, weights=x, minlength=n * n).reshape(n, n)
    if not np.all(w[i, j] < math.inf):  # name the line where a sum first overflows
        sums: dict[tuple[int, int], float] = {}
        for r, cell, value in zip(record.tolist(), zip(i.tolist(), j.tolist()),
                                  x.tolist()):
            sums[cell] = total = sums.get(cell, 0.0) + value
            if total == math.inf:
                raise errors.ParseError(records[r][0], "summed edge weight is not finite")
    w.setflags(write=False)
    return graph.WeightedDigraph(labels=as_labels(list(idx)), w=w)


# a byte order mark before the "{" sends the text to the JSON decoder,
# which names it as the parse error
JSON_OBJECT = re.compile(r"\ufeff?\s*\{")


def parse_input(path: str) -> tuple[TransitionMatrix | graph.WeightedDigraph, str]:
    """Read the file once; return its parse and the sha256 of its bytes.
    The text must be UTF-8. A text whose first non-whitespace character
    is "{" (after a byte order mark, which is then refused) is chain JSON
    for parse_chain_json, anything else a directive TSV graph."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise errors.ParseError(data.count(b"\n", 0, exc.start) + 1,
                                "input is not UTF-8 text") from None
    if "\r" in text:  # newlines as a text-mode read gives them; JSON error lines count "\n"
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    digest = hashlib.sha256(data).hexdigest()
    if JSON_OBJECT.match(text):
        return parse_chain_json(text), digest
    return parse_graph_tsv(text), digest


# ---------------------------------------------------------------------------
# deterministic serialization

# the double nearest 10**k, exact up to 10**22
_POW10 = np.array([float(10 ** k) for k in range(111)])


def round12(x: float) -> float:
    """x at the 12 significant digits reports print (and -0.0 as 0.0)."""
    if x == 0:
        return 0.0
    return float(f"{x:.12g}")


def _jsonable(obj):
    if isinstance(obj, str):
        return obj
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


def _float_text(a: np.ndarray) -> str:
    """json.dumps(_jsonable(a)) for a non-empty 1-D or 2-D float64 array,
    byte for byte, written by orjson in one call.

    repr(round12(x)) is the one shortest decimal of the double round12(x),
    which orjson writes too, in another layout below 1e-4 (0.00001, not
    1e-05). So numpy finds each 12-digit mantissa r and exponent e and
    writes r / 10**(11-e) from e = -4 up, else r / 10**21: one rounding
    each, giving round12(|x|) or its mantissa at e-10, whose exponent
    digits are then set in place. Entries rint may round wrongly (m near
    a half: m carries under 2**-12 of error) or that numpy cannot place
    are read off repr. NaN, infinities and magnitudes from 1e15 take the
    _jsonable path, as does an output with an unexpected count of "e"."""
    import orjson  # 3-8 ms on first use; see parse_chain_json

    x = a.ravel()
    v = np.abs(x)
    if not (np.isfinite(v).all() and v.max() < 1e15):
        return json.dumps(_jsonable(a), separators=(",", ":"))
    nz = np.flatnonzero(x)
    v = v[nz]
    e = np.floor(np.log10(v))
    m = v * np.take(_POW10, (11 - e).astype(np.intp), mode="clip")
    r = np.rint(m)
    slow = (m < 1e11) | (r >= 1e12) | (np.abs(m - r) > 0.5 - 2 ** -10) | (e < -99)
    y = r / np.take(_POW10, np.where(e >= -4, 11 - e, 21).astype(np.intp), mode="clip")
    for i in np.flatnonzero(slow).tolist():
        mantissa, _, exponent = repr(round12(v[i])).partition("e")
        e[i] = int(exponent or 0)
        if exponent:
            mantissa += "e-10" if e[i] > -100 else "e-100"
        y[i] = float(mantissa)
    out = np.zeros(x.size)
    out[nz] = np.copysign(y, x[nz])
    text = orjson.dumps(out.reshape(a.shape), option=orjson.OPT_SERIALIZE_NUMPY)
    e = -e[e < -4].astype(np.int64)
    at = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("e"))
    if at.size != e.size:
        return json.dumps(_jsonable(a), separators=(",", ":"))
    if e.size:
        text = bytearray(text)
        buf = np.frombuffer(text, np.uint8)
        wide = e >= 100  # "e-100" holds three digits, "e-10" two
        buf[at + 2] = 48 + np.where(wide, e // 100, e // 10)
        buf[at + 3] = 48 + np.where(wide, e // 10 % 10, e % 10)
        buf[at[wide] + 4] = 48 + e[wide] % 10
    return text.decode()


class _StrText(dict):
    """The JSON text of each str looked up, encoded on first sight by
    json's own ASCII string encoder, the one json.dumps applies. A first
    sight of anything but an exact str raises TypeError, and so does an
    unhashable item. An item equal to a str already seen (a str subclass
    such as numpy.str_ with the same characters) gets that str's text,
    which is also what json.dumps writes for it."""

    __slots__ = ()

    def __missing__(self, key):
        if type(key) is not str:
            raise TypeError(type(key).__name__)
        self[key] = text = json.encoder.encode_basestring_ascii(key)
        return text


def _native(items) -> bool:
    """Whether a list or tuple holds only str, int and bool (exactly), in
    lists and tuples at any depth: json.dumps writes those as _jsonable.
    _report_text asks only about lists that are not all str."""
    while (kinds := set(map(type, items))) <= {str, int, bool, list, tuple}:
        if kinds <= {str, int, bool}:
            return True
        items = [y for x in items if type(x) in (list, tuple) for y in x]
    return False


def _report_text(obj) -> str:
    """json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":")),
    with dicts walked here and float arrays written by _float_text. A
    list or tuple of str (a path's labels, a chain's states) is joined
    from _StrText, so each distinct label is escaped once, however often
    it repeats; any other native list or tuple (a classification's
    edges) is passed to json.dumps as it is."""
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        return "{" + ",".join(f"{json.dumps(k)}:{_report_text(items[k])}"
                              for k in sorted(items)) + "}"
    if (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2)
            and obj.size):
        return _float_text(obj)
    if type(obj) in (list, tuple):
        try:
            return "[" + ",".join(map(_StrText().__getitem__, obj)) + "]"
        except TypeError:  # not all str: the first item that is not stops the join
            pass
        if _native(obj):
            return json.dumps(obj, separators=(",", ":"))
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def make_report(command: str, digest: str, result, tolerances: dict) -> str:
    return _report_text({
        "command": command,
        "input_digest": digest,
        "result": result,
        "tolerances": tolerances,
        "tool_version": __version__,
    })


def chain_document(chain: TransitionMatrix) -> dict:
    return {"states": list(chain.labels), "P": chain.p}


class Analysis:
    """The stages of one report's input, each computed at most once and
    only when a command reads it. Nothing outlives the report."""

    def __init__(self, obj: TransitionMatrix | graph.WeightedDigraph | None):
        self.obj = obj

    @property
    def graph(self) -> graph.WeightedDigraph:
        if isinstance(self.obj, TransitionMatrix):
            raise errors.ValidationError("this command needs a graph TSV input")
        return self.obj

    @cached_property
    def chain(self) -> TransitionMatrix:
        if isinstance(self.obj, TransitionMatrix):
            return self.obj
        return graph.random_walk(self.obj)

    @cached_property
    def structure(self) -> structure.ClassStructure:
        return structure.classify(self.chain)

    @cached_property
    def basis(self) -> stationary.StationaryBasis:
        return stationary.stationary_basis(self.chain, self.structure)

    @cached_property
    def decomposition(self) -> spectral.SpectralDecomposition:
        return spectral.decompose(self.chain, self.structure)

    @cached_property
    def directed_laplacian(self) -> laplacian.LaplacianMatrix:
        return laplacian.directed_laplacian(self.chain, self.basis)

    def smoothing_laplacian(self) -> laplacian.LaplacianMatrix:
        """Normalized Laplacian of an undirected graph, else directed."""
        if not isinstance(self.obj, TransitionMatrix) and self.obj.is_undirected:
            return laplacian.build_laplacian(self.obj, "normalized")
        return self.directed_laplacian


# ---------------------------------------------------------------------------
# command payloads; each returns its result, or the text of a CSV report

def _parse_vector(text: str) -> list[float]:
    """A comma-separated option's fields as floats; the library reads them."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise errors.ValidationError(f"bad numeric list {text!r}") from None


def _validate(args, a: Analysis):
    obj = a.obj
    result = {"ok": True, "kind": "chain", "n": obj.n}
    if not isinstance(obj, TransitionMatrix):
        result.update(kind="graph", volume=obj.volume, undirected=obj.is_undirected,
                      balanced=obj.is_balanced)
    return result


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
    return result


def _stationary(args, a: Analysis):
    basis = a.basis
    result = {
        "unique": basis.unique,
        "class_ids": list(basis.class_ids),
        "vectors": basis.vectors,
        "equal_weight_combination": stationary.equal_weight(basis),
    }
    return result


def _spectrum(args, a: Analysis):
    """`spectrum` and `taxonomy`: the eigenvalues in sorted order with
    their taxonomy labels, as JSON with a Perron summary or as CSV."""
    dec = a.decomposition
    labels = spectral.taxonomy(dec)
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
        return "\n".join(lines)
    n_rec = sum(a.structure.recurrent)
    return {"eigenvalues": rows,
            "diagonalizable": dec.pairs.diagonalizable,
            "perron": spectral.perron_report(dec, recurrent_classes=n_rec)}


def _evolve(args, a: Analysis):
    chain = a.chain
    if args.start is not None:
        mu = point_mass(chain, args.start)
    elif args.mu is not None:
        mu = _parse_vector(args.mu)  # evolve validates it
    else:
        raise errors.ValidationError("evolve needs --start or --mu")
    out = evolve(chain, mu, args.steps)
    return {"steps": args.steps, "distribution": out, "states": list(chain.labels)}


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
    return result


def _reverse(args, a: Analysis):
    out = reversal.time_reverse(a.chain, a.basis)
    return {"chain": chain_document(out)}


def _reversibilize(args, a: Analysis):
    out = reversal.reversibilize(a.chain, a.basis, args.mode)
    return {"mode": args.mode, "chain": chain_document(out)}


def _kmatrix(args, a: Analysis):
    k = reversal.k_matrix(a.chain, a.basis)
    rep = reversal.reversibility(a.chain, a.structure, a.basis)
    return {"k": k,
            "symmetric": rep.reversible,  # K_ij / K_ji = pi_i P_ij / (pi_j P_ji)
            "reversible": rep.reversible,
            "semi_reversible": rep.semi_reversible,
            "db_residual": rep.db_residual,
            "witness": rep.witness}


def _laplacian(args, a: Analysis):
    if args.variant == "directed":
        lap = a.directed_laplacian
        result = {"variant": "directed", "matrix": lap.m, "pi_used": lap.scale}
    else:
        lap = laplacian.build_laplacian(a.graph, args.variant)
        result = {"variant": args.variant, "matrix": lap.m, "degrees": lap.scale}
    return result


def _embed(args, a: Analysis):
    spec = laplacian.smooth_spectrum(a.smoothing_laplacian(), args.k)
    return {"values": spec.values, "coordinates": spec.right_transformed}


def _gft(args, a: Analysis):
    if args.signal is None:
        raise errors.ValidationError("gft needs --signal v1,v2,...")
    spec = laplacian.smooth_spectrum(a.smoothing_laplacian())
    coeffs = laplacian.gft(spec, _parse_vector(args.signal))
    return {"coefficients": coeffs, "values": spec.values}


def _pagerank(args, a: Analysis):
    chain = a.chain
    tel = None if args.teleport is None else _parse_vector(args.teleport)
    pi, google = surfer.pagerank(chain, args.damping, tel)
    result = {"damping": args.damping, "pagerank": pi,
              "states": list(chain.labels),
              "residual_l1": float(np.sum(np.abs(pi @ google.p - pi)))}
    if chain.n <= 16:
        result["google_matrix"] = google.p
    return result


def _absorb(args, a: Analysis):
    dec = absorbing.canonical_form(a.chain, a.structure)
    fm = absorbing.fundamental_matrix(dec)
    return {
        "permutation": [a.chain.labels[i] for i in dec.permutation],
        "transient_count": dec.t,
        "absorbing_count": dec.a,
        "q": dec.q,
        "r": dec.r,
        "fundamental": fm.n,
        "expected_steps": fm.expected_steps,
    }


def _rwset(args, a: Analysis):
    g1 = a.graph
    g2 = Analysis(parse_input(args.other)[0]).graph
    stray = set(g1.labels) ^ set(g2.labels)
    if stray:
        raise errors.ValidationError(f"vertex {min(stray)!r} is in only one of the graphs")
    index = dict(zip(g2.labels, range(g2.n)))  # each TSV's first-mention order
    order = [index[label] for label in g1.labels]
    scaling = graph.same_rw_set(g1.w, g2.w[np.ix_(order, order)])
    return {"same_random_walk_set": scaling is not None, "scaling": scaling}


def _demo_line_chain(args, _):
    a = Analysis(demo.line_chain(n=args.n, p_right=args.p_right,
                                 perturb=args.perturb, seed=args.seed))
    chain = a.chain
    pi = stationary.equal_weight(a.basis)
    spec = laplacian.smooth_spectrum(a.directed_laplacian)
    y0 = spec.vectors[:, 0]
    rt0 = spec.right_transformed[:, 0]
    rt0 = rt0 / rt0[0]
    p_residuals = [
        float(np.max(np.abs(chain.p @ spec.right_transformed[:, j]
                            - (1.0 - spec.values[j]) * spec.right_transformed[:, j])))
        for j in range(min(args.n, 8))
    ]
    return {
        "chain": chain_document(chain),
        "stationary": pi,
        "stationary_strictly_increasing": bool(np.all(np.diff(pi) > 0)),
        "laplacian_values_head": spec.values[:8],
        "lambda0_vector": y0,
        "lambda0_right_transformed": rt0,
        "walk_eigen_residuals_head": p_residuals,
    }


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
    """Execute one subcommand and return its report text, whose
    tolerances are those the checks recorded while it ran."""
    tolerances = {}
    token = errors.TOLERANCES.set(tolerances)
    try:
        if args.input is None:  # demo-line-chain builds its own chain
            obj, digest = None, "-"
        else:
            obj, digest = parse_input(args.input)
        result = COMMANDS[args.command](args, Analysis(obj))
    finally:
        errors.TOLERANCES.reset(token)
    if isinstance(result, str):  # a CSV report
        return result
    return make_report(args.command, digest, result, tolerances)


def _seed(text: str) -> int:
    """The --seed value. Its default, "$CHAINS_SEED", is read when the
    arguments are parsed, so the one cached parser sees the environment
    of each call; a malformed or negative value is a usage error."""
    if text == "$CHAINS_SEED":
        text = os.environ.get("CHAINS_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


@cache
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
        # argparse converts a string default with `type` at parse time
        p.add_argument("--seed", type=_seed, default="$CHAINS_SEED",
                       help="RNG seed (falls back to CHAINS_SEED, then 0)")

    add("validate", help="parse and validate an input file")
    add("classify", help="communicating classes, recurrence, periodicity")
    add("stationary", help="stationary distribution basis")
    for p in (add("spectrum", help="eigenvalues with taxonomy labels"),
              add("taxonomy", help="eigenvalue taxonomy (alias view of spectrum)")):
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("evolve", help="push a distribution forward k steps")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--start", help="start state label (point mass)")
    start.add_argument("--mu", help="comma-separated start distribution")
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
    except (errors.ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a request too large for this machine is refused, as input
        print(f"error: not enough memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except errors.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
