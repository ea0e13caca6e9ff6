"""Time the eigen kernels of two checkouts on one benchmark pass's inputs,
and check that they return the same bits.

    python3 tools/kernel_ab.py BEFORE AFTER --workload spectral --seed 1

BEFORE and AFTER are checkout directories with chainkit under `src/`.
chainkit is imported from BEFORE, and one pass of the workload's
requests (built by bench/workloads.py of the checkout this file sits in,
inputs in a temporary directory) runs through its `cli.main` in process,
while every call of a kernel in KERNELS records a copy of its
arguments. Nested calls are recorded too: `_hessenberg` runs inside
`sym_eigen` and `real_schur`, `sym_eigen` inside `smooth_spectrum`.
Then chainkit is imported again, from AFTER, and every recorded call is
replayed on both sides, interleaved, REPEATS times, each time on a
fresh copy of its arguments. The minimum per call is kept, and the
per-kernel totals and their ratio AFTER / BEFORE are printed; the
ratio reads n/a when some call raised on one side only, since the two
times then measure different work. For each kernel whose results
differ anywhere, the first such call is named: its index among the
kernel's calls and in the pass, the shapes of its arguments, and the
first differing leaf of the result or the error text. BLAS is pinned
to one thread. Nothing under bench/ is changed.

The exit status is 1 unless, for every call, both sides return arrays
of the same dtype, shape and bytes (or raise the same error), and 0
otherwise.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, so BLAS sums in one order

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
KERNELS = (("numlin", "sym_eigen"), ("numlin", "real_schur"), ("numlin", "_hessenberg"),
           ("laplacian", "smooth_spectrum"))
REPEATS = 7


def load(checkout: Path) -> dict:
    """chainkit's modules, by name, freshly imported from checkout/src."""
    src = (checkout / "src").resolve()
    for name in [m for m in sys.modules if m == "chainkit" or m.startswith("chainkit.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("chainkit.cli")
    finally:
        sys.path.remove(str(src))
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "chainkit" or name.startswith("chainkit.")}
    origin = Path(mods["chainkit"].__file__).resolve()
    if src not in origin.parents:
        raise RuntimeError(f"chainkit came from {origin}, not from {src}")
    # A chainkit that loads its modules on first use resolves its relative
    # imports in sys.modules then, so run each one while this checkout's
    # modules are the ones there; vars() is an attribute access that does.
    for mod in mods.values():
        vars(mod)
    return mods


def kernels(mods: dict) -> dict:
    return {f"{m}.{f}": getattr(mods[f"chainkit.{m}"], f) for m, f in KERNELS}


def record(mods: dict, workload: str, seed: int, scale: float) -> tuple[list, int]:
    """(name, args, kwargs) of every kernel call in one pass of the
    workload's requests, in call order, and the number of requests."""
    calls = []
    patched = []

    def recorder(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, copy.deepcopy(args), copy.deepcopy(kwargs)))
            return original(*args, **kwargs)
        return wrapper

    for name, original in kernels(mods).items():
        wrapper = recorder(name, original)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
        with tempfile.TemporaryDirectory() as tmp:
            requests = workloads.build(workload, seed, tmp, scale=scale)
            for req in requests:
                with contextlib.redirect_stdout(io.StringIO()):
                    mods["chainkit.cli"].main(list(req.argv))
    finally:
        sys.path.remove(str(ROOT / "bench"))
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
    return calls, len(requests)


class Raised(str):
    """The type and text of the error a call raised, as its result."""


def _call(func, args, kwargs):
    """func's result, or the Raised text of the error it raised."""
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - an error is a result to compare
        return Raised(f"{type(exc).__name__}: {exc}")


def _leaves(x):
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _leaves(y)
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            yield from _leaves(getattr(x, f.name))
    else:
        yield x


def _brief(x, width=60) -> str:
    text = repr(x)
    return text if len(text) <= width else text[:width - 3] + "..."


def first_difference(a, b) -> str | None:
    """Where two results first differ, in words, or None when they hold
    the same leaves: arrays of the same dtype, shape and bytes, and
    equal other values. An error differs from every value."""
    if isinstance(a, Raised) or isinstance(b, Raised):
        if isinstance(a, Raised) and isinstance(b, Raised) and a == b:
            return None
        return "; ".join(f"{side} {'raised ' + x if isinstance(x, Raised) else 'returned'}"
                         for side, x in (("before", a), ("after", b)))
    la, lb = list(_leaves(a)), list(_leaves(b))
    if len(la) != len(lb):
        return f"{len(la)} leaves before, {len(lb)} after"
    for i, (x, y) in enumerate(zip(la, lb)):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            x, y = np.asarray(x), np.asarray(y)
            if x.dtype != y.dtype or x.shape != y.shape:
                return f"leaf {i}: {x.dtype} {x.shape} before, {y.dtype} {y.shape} after"
            if x.tobytes() != y.tobytes():
                bx, by = (np.frombuffer(z.tobytes(), np.uint8).reshape(z.size, -1) for z in (x, y))
                k = int(np.flatnonzero((bx != by).any(axis=1))[0])
                at = tuple(int(j) for j in np.unravel_index(k, x.shape))
                return (f"leaf {i}, {x.dtype} {x.shape}, first at {at}: "
                        f"{x.flat[k].item()!r} before, {y.flat[k].item()!r} after")
        elif type(x) is not type(y) or x != y:
            return f"leaf {i}: {_brief(x)} before, {_brief(y)} after"
    return None


def bitwise_equal(a, b) -> bool:
    """Whether two results hold the same leaves (see first_difference)."""
    return first_difference(a, b) is None


def _shapes(args, kwargs) -> str:
    """The arguments of a call: an array by its shape, a value by its type."""
    def brief(x):
        return str(x.shape) if isinstance(x, np.ndarray) else type(x).__name__
    return ", ".join([brief(x) for x in args] + [f"{k}={brief(x)}" for k, x in kwargs.items()])


class Row:
    """One kernel's replay: calls, summed minimum seconds of each side,
    calls with bitwise equal results, whether some call raised on one
    side only (its times then measure different work), and the first
    call that differed, in words."""

    def __init__(self):
        self.calls, self.before_s, self.after_s, self.same = 0, 0.0, 0.0, 0
        self.one_side_raised, self.first = False, None


def replay(calls: list, before: dict, after: dict) -> dict:
    """A Row per kernel, from every recorded call replayed on both
    sides, interleaved, REPEATS times."""
    clock = time.perf_counter
    table = {name: Row() for name in before}
    for index, (name, args, kwargs) in enumerate(calls):
        best, results = [float("inf")] * 2, [None] * 2
        for _ in range(REPEATS):
            for i, f in enumerate((before[name], after[name])):
                a, kw = copy.deepcopy(args), copy.deepcopy(kwargs)
                began = clock()
                results[i] = _call(f, a, kw)
                best[i] = min(best[i], clock() - began)
        row = table[name]
        diff = first_difference(*results)
        if diff is None:
            row.same += 1
        elif row.first is None:
            row.first = (f"call {row.calls} of the kernel ({index} of the pass), "
                         f"arguments {_shapes(args, kwargs)}: {diff}")
        row.one_side_raised |= isinstance(results[0], Raised) != isinstance(results[1], Raised)
        row.calls += 1
        row.before_s += best[0]
        row.after_s += best[1]
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", default="spectral")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input sizes relative to the benchmark's (default 1)")
    args = parser.parse_args(argv)
    for checkout in (args.before, args.after):
        if not (checkout / "src" / "chainkit" / "__init__.py").is_file():
            parser.error(f"no chainkit sources under {checkout / 'src'}")

    before_mods = load(args.before)
    calls, requests = record(before_mods, args.workload, args.seed, args.scale)
    before = kernels(before_mods)
    after = kernels(load(args.after))
    table = replay(calls, before, after)

    print(f"{args.workload} seed {args.seed} scale {args.scale:g}: {requests} requests, "
          f"{len(calls)} kernel calls, min of {REPEATS} interleaved runs per call")
    print(f"{'kernel':28s} {'calls':>5s} {'before_s':>10s} {'after_s':>10s} "
          f"{'ratio':>7s} {'bitwise':>9s}")
    for name, row in table.items():
        ratio = ("n/a" if row.one_side_raised else "-" if row.before_s == 0
                 else f"{row.after_s / row.before_s:.3f}")
        print(f"{name:28s} {row.calls:5d} {row.before_s:10.4f} {row.after_s:10.4f} "
              f"{ratio:>7s} {f'{row.same}/{row.calls}':>9s}")
    for name, row in table.items():
        if row.first is not None:
            print(f"first difference in {name}: {row.first}")
    equal = sum(row.same for row in table.values())
    print(f"{equal} of {len(calls)} calls bitwise equal")
    return 0 if equal == len(calls) else 1


if __name__ == "__main__":
    sys.exit(main())
