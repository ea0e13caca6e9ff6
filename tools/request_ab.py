"""Time every report of one benchmark pass on two checkouts, and check
that they print the same bytes.

    python3 tools/request_ab.py BEFORE AFTER --workload structural --seed 1
    python3 tools/request_ab.py BEFORE AFTER --workload walks --kind simulate-path

BEFORE and AFTER are checkout directories with chainkit under `src/`.
Both chainkits are imported, one after the other (see kernel_ab.load),
and every request of one pass of the workload (built by
bench/workloads.py of the checkout this file sits in, inputs in a
temporary directory) runs through each side's `cli.main` in process,
interleaved: request by request, REPEATS times, the side that goes
first alternating, keeping each side's minimum time per request. Unlike
tools/kernel_ab.py, which replays the eigen kernels alone, this times
whole reports: parsing, analysis and writing. BLAS is pinned to one
thread. Nothing under bench/ is changed. --kind KIND (repeatable) keeps
only the requests of the named kinds, in pass order.

It prints each request's minima, their ratio AFTER / BEFORE and whether
its stdout and exit code agree; then the sums and ratio per request
kind, and the median of the per-request minima of each side. The exit
status is 1 when some request's stdout or exit code differs between the
two sides, 0 otherwise; both cover the kept requests alone.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, so BLAS sums in one order

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from kernel_ab import ROOT, load  # noqa: E402

REPEATS = 7


def _run(main, argv) -> tuple[int, str, float]:
    """Exit code, stdout and seconds of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        began = time.perf_counter()
        rc = main(list(argv))
        took = time.perf_counter() - began
    return rc, out.getvalue(), took


def compare(requests, mains, repeats: int) -> list[tuple[str, float, float, bool]]:
    """(kind, before minimum, after minimum, same output) per request."""
    rows = []
    for req in requests:
        best = [float("inf")] * 2
        outputs = [set(), set()]  # every (exit code, stdout) a side printed
        for r in range(repeats):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                rc, stdout, took = _run(mains[side], req.argv)
                best[side] = min(best[side], took)
                outputs[side].add((rc, stdout))
        rows.append((req.kind, best[0], best[1],
                     len(outputs[0]) == 1 and outputs[0] == outputs[1]))
    return rows


def report(rows, title: str) -> None:
    print(title)
    print(f"{'#':>3s} {'kind':24s} {'before_s':>9s} {'after_s':>9s} {'ratio':>6s} same")
    for i, (kind, before, after, same) in enumerate(rows):
        print(f"{i:3d} {kind:24s} {before:9.5f} {after:9.5f} {after / before:6.3f} "
              f"{'yes' if same else 'NO'}")
    kinds: dict[str, list[float]] = {}
    for kind, before, after, _ in rows:
        total = kinds.setdefault(kind, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += before
        total[2] += after
    print(f"\n{'kind':24s} {'requests':>8s} {'before_s':>9s} {'after_s':>9s} {'ratio':>6s}")
    for kind, (count, before, after) in sorted(kinds.items()):
        print(f"{kind:24s} {count:8d} {before:9.4f} {after:9.4f} {after / before:6.3f}")
    before = statistics.median(row[1] for row in rows)
    after = statistics.median(row[2] for row in rows)
    print(f"median of per-request minima: before {before:.5f} s, after {after:.5f} s, "
          f"ratio {after / before:.3f}")
    same = sum(row[3] for row in rows)
    print(f"{same} of {len(rows)} requests with the same stdout and exit code")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", default="structural")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input sizes relative to the benchmark's (default 1)")
    parser.add_argument("--kind", action="append", metavar="KIND",
                        help="time only requests of this kind (repeatable; default all)")
    args = parser.parse_args(argv)
    for checkout in (args.before, args.after):
        if not (checkout / "src" / "chainkit" / "__init__.py").is_file():
            parser.error(f"no chainkit sources under {checkout / 'src'}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    mains = [load(checkout)["chainkit.cli"].main for checkout in (args.before, args.after)]
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
        with tempfile.TemporaryDirectory() as tmp:
            requests = workloads.build(args.workload, args.seed, tmp, scale=args.scale)
            if args.kind:
                missing = set(args.kind) - {req.kind for req in requests}
                if missing:
                    parser.error(f"no {args.workload} request of kind "
                                 f"{', '.join(sorted(missing))}")
                requests = [req for req in requests if req.kind in args.kind]
            rows = compare(requests, mains, args.repeats)
    finally:
        sys.path.remove(str(ROOT / "bench"))
    report(rows, f"{args.workload} seed {args.seed} scale {args.scale:g}: "
                 f"{len(rows)} requests, min of {args.repeats} interleaved runs each")
    return 0 if all(row[3] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
