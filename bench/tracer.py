"""Per-layer tracing from outside the program.

`Tracer` replaces each listed public function at every chainkit module
that binds it with a wrapper that records a span (name, start, end,
parent, request id). Nothing under src/ changes; `restore()` puts every
original function object back. Self time is a span's duration minus the
time its direct children cover; the one client is single-threaded, so
children never overlap.

For the numlin kernels the wrapper also keeps the shapes of every call
and the arguments of the largest few, which `reference.py` times
against numpy/scipy after the traced pass.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from dataclasses import dataclass

import numpy as np

# (module, function) pairs whose spans the traced run records; the
# request root span is cli.main.
TRACED = (
    ("cli", "main"),
    ("cli", "parse_input"),
    ("cli", "make_report"),
    ("chain", "build_chain"),
    ("chain", "sample"),
    ("chain", "occupancy"),
    ("chain", "evolve"),
    ("graph", "random_walk"),
    ("structure", "classify"),
    ("stationary", "stationary_basis"),
    ("numlin", "solve_linear"),
    ("numlin", "sym_eigen"),
    ("numlin", "real_schur"),
    ("numlin", "eigen_from_schur"),
    ("spectral", "decompose"),
    ("spectral", "taxonomy"),
    ("laplacian", "build_laplacian"),
    ("laplacian", "directed_laplacian"),
    ("laplacian", "smooth_spectrum"),
    ("reversal", "time_reverse"),
    ("reversal", "reversibilize"),
    ("reversal", "k_matrix"),
    ("reversal", "reversibility"),
    ("absorbing", "canonical_form"),
    ("absorbing", "fundamental_matrix"),
    ("surfer", "google_matrix"),
    ("surfer", "pagerank"),
)

KERNELS = ("solve_linear", "sym_eigen", "real_schur", "eigen_from_schur")
KEPT_CALLS = 3  # largest calls per kernel kept for the reference timing

# analyses whose repetition on the same matrix within one report counts
# toward cli.repeat_analysis_frac
ANALYSES = ("classify", "stationary_basis", "decompose", "real_schur")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a request root
    request: int
    error: bool = False


@dataclass
class KernelCall:
    span: int
    args: tuple
    result: object
    size: int


def _matrix_of(args: tuple) -> np.ndarray:
    """The matrix an analysis works on: chain.p, or the array itself."""
    first = args[0]
    return first if isinstance(first, np.ndarray) else first.p


def _digest(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(a)
    return hashlib.blake2b(a.data, digest_size=16).digest() + repr(a.shape).encode()


class Tracer:
    """Install with `install()`, call `request(i)` before each request,
    then `restore()`. Spans stay in memory until the caller writes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kernel_calls: dict[str, list[KernelCall]] = {k: [] for k in KERNELS}
        self.kernel_shapes: dict[str, list[tuple]] = {k: [] for k in KERNELS}
        self.analysis_calls = 0
        self.analysis_repeats = 0
        self._stack: list[int] = []
        self._request = -1
        self._seen: set = set()
        self._overhead: dict[int, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "chainkit" or name.startswith("chainkit.")}
        for module, func in TRACED:
            original = getattr(mods[f"chainkit.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", func, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def bindings(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original) of every replaced binding."""
        return list(self._patched)

    def request(self, index: int) -> None:
        """Attribute the spans that follow to request `index`."""
        self._request = index
        self._seen = set()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, func: str, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if func in ANALYSES:
                # hashing is tracer work: keep it out of the caller's self time
                began = clock()
                self._count_analysis(func, args)
                if stack:
                    self._overhead[stack[-1]] = (self._overhead.get(stack[-1], 0.0)
                                                 + clock() - began)
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self._request)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.error = True
                stack.pop()
                raise
            span.end = clock()
            stack.pop()
            if func in KERNELS:
                self._keep_kernel_call(func, index, args, result)
            return result

        return wrapper

    def _count_analysis(self, func: str, args: tuple) -> None:
        key = (func, _digest(_matrix_of(args)))
        self.analysis_calls += 1
        if key in self._seen:
            self.analysis_repeats += 1
        self._seen.add(key)

    def _keep_kernel_call(self, func: str, index: int, args: tuple, result) -> None:
        first = args[0]
        a = first.t if func == "eigen_from_schur" else np.asarray(first)
        rhs = 1
        if func == "solve_linear":
            b = np.asarray(args[1])
            rhs = 1 if b.ndim == 1 else b.shape[1]
        self.kernel_shapes[func].append((a.shape[0], rhs))
        kept = self.kernel_calls[func]
        call = KernelCall(index, args, result, a.shape[0])
        if len(kept) < KEPT_CALLS:
            kept.append(call)
        elif call.size > min(c.size for c in kept):
            kept.remove(min(kept, key=lambda c: c.size))
            kept.append(call)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        for index, spent in self._overhead.items():
            out[index] -= spent
        return out

    def table(self, factors=None) -> dict[str, dict[str, float]]:
        """calls, self_s and errors per traced function; factors[r], when
        given, scales the self time of request r's spans."""
        table = {f"{m}.{f}": {"calls": 0, "self_s": 0.0, "errors": 0}
                 for m, f in TRACED}
        for span, own in zip(self.spans, self.self_times()):
            row = table[span.name]
            row["calls"] += 1
            row["self_s"] += own * (factors[span.request] if factors else 1.0)
            row["errors"] += span.error
        return table

    def request_time(self, factors=None) -> float:
        """Time inside requests, less the tracer's own hashing."""
        return sum(row["self_s"] for row in self.table(factors).values())

    def repeat_analysis_frac(self) -> float:
        if not self.analysis_calls:
            return 0.0
        return self.analysis_repeats / self.analysis_calls

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "request": s.request, "error": s.error} for s in self.spans]
