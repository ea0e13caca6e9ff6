"""Dump the stdout of every benchmark report, or compare two dumps.

    python3 tools/report_digests.py --out after.jsonl
    python3 tools/report_digests.py --compare before.jsonl after.jsonl

--out runs every request of the spectral, structural and walks workloads
at seeds 1-3 through `chainkit.cli.main` in process, with the inputs
that bench/workloads.py builds, and writes one JSON line per report: its
key, argv, exit code, stdout and the sha256 of the stdout. A first line
records the python, numpy and orjson versions, since report bytes depend
on orjson's float layout as well as on numpy's arithmetic. chainkit is
imported from `src/` of the checkout this file sits in, with BLAS pinned
to one thread, so a dump of one checkout against a dump of another
shows exactly which reports a change moved.

--compare warns first when the two dumps record different versions (a
dump without that line records none). Then it lists each report whose
digest changed, with its largest numeric deviation |y - x| and that
deviation over max(1, |x|), x being the number in the first dump. A report that differs in more than its
numbers is listed with where it first does: the key path and the two
values for a JSON report, the text around it for another. It exits 1 when the dumps hold different
requests, or when a changed report differs in anything but its numbers
or by more than TOLERANCE * max(1, |x|) in one of them; 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import re
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectral", "structural", "walks")
SEEDS = (1, 2, 3)
TOLERANCE = 1e-11
WORKDIR = "<workdir>"  # stands for the input directory in argv and stdout
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def dump(out: Path) -> int:
    """Run every report and write its record to `out`; returns the count."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, so BLAS sums in one order
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy
    import orjson
    import workloads
    from chainkit import cli

    count = 0
    with out.open("w", encoding="utf-8") as f, tempfile.TemporaryDirectory() as tmp:
        f.write(json.dumps({"versions": {"python": platform.python_version(),
                                         "numpy": numpy.__version__,
                                         "orjson": orjson.__version__}}) + "\n")
        for workload in WORKLOADS:
            for seed in SEEDS:
                workdir = os.path.join(tmp, f"{workload}-{seed}")
                os.mkdir(workdir)
                for i, req in enumerate(workloads.build(workload, seed, workdir)):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = cli.main(list(req.argv))
                    stdout = buf.getvalue().replace(workdir, WORKDIR)
                    record = {
                        "key": f"{workload} seed {seed} #{i:02d} {req.kind}",
                        "argv": [a.replace(workdir, WORKDIR) for a in req.argv],
                        "rc": rc,
                        "stdout": stdout,
                        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                    }
                    f.write(json.dumps(record) + "\n")
                    count += 1
    return count


def deviation(a: str, b: str) -> tuple[float, float, str] | None:
    """Largest |y - x| and |y - x| / max(1, |x|) over the numbers of two
    texts that agree everywhere else, and where the largest scaled one
    sits: the text just before it and its two values; None when the
    texts differ elsewhere."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return None
    dev, scaled, where = 0.0, 0.0, ""
    for i in range(1, len(pa), 2):
        x, y = float(pa[i]), float(pb[i])
        d = abs(y - x)
        dev = max(dev, d)
        if d / max(1.0, abs(x)) > scaled:
            scaled = d / max(1.0, abs(x))
            where = f"{''.join(pa[max(0, i - 3):i])[-24:]!r}: {pa[i]} -> {pb[i]}"
    return dev, scaled, where


def _first_difference(x, y, path: str) -> str | None:
    """The key path of the first place two parsed JSON documents differ in
    anything but the value of a number, with what each holds there; None
    when they differ nowhere else."""
    if isinstance(x, dict) and isinstance(y, dict):
        for k in sorted(x.keys() | y.keys()):
            if k not in x or k not in y:
                return f"{path}.{k}: only in the {'second' if k in y else 'first'} dump"
            found = _first_difference(x[k], y[k], f"{path}.{k}")
            if found:
                return found
        return None
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            return f"{path}: length {len(x)} -> {len(y)}"
        for i, (u, v) in enumerate(zip(x, y)):
            found = _first_difference(u, v, f"{path}[{i}]")
            if found:
                return found
        return None
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
        return None
    if type(x) is type(y) and x == y:
        return None
    return f"{path or '.'}: {json.dumps(x)[:60]} -> {json.dumps(y)[:60]}"


def where(a: str, b: str) -> str:
    """Where two report texts first differ in more than their numbers: a
    JSON key path, or, for text that is not JSON, about 20 characters
    either side of the first difference, each number shown as #."""
    try:
        found = _first_difference(json.loads(a), json.loads(b), "")
    except ValueError:
        found = None
    if found:
        return found
    ma, mb = NUMBER.sub("#", a), NUMBER.sub("#", b)
    i = next((k for k, (u, v) in enumerate(zip(ma, mb)) if u != v), min(len(ma), len(mb)))
    return f"text {ma[max(0, i - 20):i + 20]!r} -> {mb[max(0, i - 20):i + 20]!r}"


def read_dump(f) -> tuple[dict | None, Iterable[str]]:
    """The versions an open dump records (None when it has no such line)
    and its report lines, read as they are iterated."""
    first = f.readline()
    if first and "versions" in json.loads(first):
        return json.loads(first)["versions"], f
    return None, itertools.chain([first] if first else [], f)


def compare(before: Path, after: Path) -> int:
    """Print each changed report and a summary; the exit status above."""
    total = changed = 0
    ok = True
    worst = 0.0
    with before.open(encoding="utf-8") as fa, after.open(encoding="utf-8") as fb:
        (va, lines_a), (vb, lines_b) = read_dump(fa), read_dump(fb)
        if va != vb:
            print(f"warning: the dumps were written with different versions: {va} -> {vb}")
        for la, lb in itertools.zip_longest(lines_a, lines_b, fillvalue='{"key": null}'):
            ra, rb = json.loads(la), json.loads(lb)
            if ra["key"] != rb["key"] or ra.get("argv") != rb.get("argv"):
                print(f"different requests: {ra['key']!r} against {rb['key']!r}")
                return 1
            total += 1
            if ra["sha256"] == rb["sha256"] and ra["rc"] == rb["rc"]:
                continue
            changed += 1
            if ra["rc"] != rb["rc"]:
                ok = False
                print(f"changed  {ra['key']}: exit code {ra['rc']} -> {rb['rc']}")
                continue
            dev = deviation(ra["stdout"], rb["stdout"])
            if dev is None:
                ok = False
                print(f"changed  {ra['key']}: differs in more than its numbers, first at "
                      f"{where(ra['stdout'], rb['stdout'])}")
                continue
            worst = max(worst, dev[1])
            ok = ok and dev[1] <= TOLERANCE
            print(f"changed  {ra['key']}: max |dx| {dev[0]:.3g}, "
                  f"max |dx|/max(1,|x|) {dev[1]:.3g} after {dev[2]}")
    print(f"{total} reports, {total - changed} byte-identical, {changed} changed; "
          f"largest scaled deviation {worst:.3g} (tolerance {TOLERANCE:g})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, metavar="FILE")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.out:
        print(f"{dump(args.out)} reports written to {args.out}")
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
