"""chainkit benchmark: drives `chainkit.cli.main(argv)` in-process.

    python3 bench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

One client, one thread, closed loop: each report is requested only after
the previous one returned. The workload's request list (a "pass", fixed
by the seed) is repeated whole for about --seconds calibrated seconds,
and every report is checked against an independent oracle outside the
timed region. --trace 0 prints the end-to-end metrics; --trace 1 spends
half the time untraced and half traced and prints the per-layer metrics.
The last line of stdout is the JSON result; see bench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads: threaded OpenBLAS makes
# the small-matrix kernels here an order of magnitude slower.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
WARMUP_SCALE = 0.15  # warm-up inputs: each request kind at 15% of its size
TAIL_BEYOND = 10  # report_tail_s keeps at least this many samples beyond it
# Guard for a core far slower than usual: a run stops at a pass boundary
# when its next pass would likely end past WALL_CAP * --seconds of wall
# time, which keeps every run well inside a few minutes.
WALL_CAP = 2.0


@dataclass
class Phase:
    """Outcome of running whole passes of the request list."""

    wall: list[float] = field(default_factory=list)  # per report, seconds
    factors: list[float] = field(default_factory=list)  # per report, probe.factor
    kinds: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def passed(self) -> int:
        return self.attempted - len(self.failures)

    @property
    def latencies(self) -> list[float]:
        """Calibrated seconds per report."""
        return [w * f for w, f in zip(self.wall, self.factors)]

    @property
    def busy_s(self) -> float:
        """Calibrated time spent inside cli.main."""
        return sum(self.latencies)


def _purge_chainkit() -> None:
    for name in [m for m in sys.modules if m == "chainkit" or m.startswith("chainkit.")]:
        del sys.modules[name]


def _call(argv) -> tuple[int | None, str, float, str]:
    """One timed report: (exit code, stdout, seconds, error)."""
    cli = sys.modules["chainkit.cli"]
    buf = io.StringIO()
    error = ""
    rc = None
    began = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # a failed report, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), time.perf_counter() - began, error


def setup(warmups) -> list[float]:
    """Import chainkit and make one warm-up report of each request kind,
    SETUP_REPEATS times from a fresh import; the first repeat is the
    process's first import. Calibrated seconds, like report latencies."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe.probe()
        _purge_chainkit()
        began = time.perf_counter()
        importlib.import_module("chainkit.cli")
        for req in warmups:
            rc, _, _, error = _call(req.argv)
            if rc != 0:
                raise RuntimeError(f"warm-up {req.kind} failed: rc={rc} {error}")
        elapsed = time.perf_counter() - began
        times.append(elapsed * probe.factor(before, probe.probe()))
    return times


def run_phase(requests, passes: int, refs, oracles, tracer=None,
              deadline: float = float("inf")) -> Phase:
    """`passes` whole passes of the request list, fewer if the next pass
    would likely end more than `deadline` wall seconds after the start."""
    phase = Phase()
    began = time.perf_counter()
    for _ in range(passes):
        elapsed = time.perf_counter() - began
        if phase.passes and elapsed * (phase.passes + 1) / phase.passes > deadline:
            break
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request(phase.passes * len(requests) + i)
            before = probe.probe()
            rc, text, dt, error = _call(req.argv)
            phase.factors.append(probe.factor(before, probe.probe()))
            if not error and rc != 0:
                error = f"exit code {rc}"
            if not error:
                try:
                    oracles.check(req.kind, text, req.ctx, refs)
                except oracles.Mismatch as exc:
                    error = f"oracle: {exc}"
            if error:
                phase.failures.append(f"{req.kind} {' '.join(req.argv)[:120]}: {error}")
            phase.wall.append(dt)
            phase.kinds.append(req.kind)
        phase.passes += 1
    return phase


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it, and a description of which percentile that is."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n} reports ({TAIL_BEYOND} beyond it)"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setups: list[float]) -> tuple[dict, str]:
    tail_s, tail_note = tail(phase.latencies)
    metrics = {
        "reports_per_s": _metric(phase.passed / phase.busy_s, "1/s"),
        "report_p50_s": _metric(statistics.median(phase.latencies), "s"),
        "report_tail_s": _metric(tail_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    return metrics, tail_note


def per_layer(untraced: Phase, traced: Phase, tracer, kernel_metrics: dict) -> dict:
    """Per-pass counts and calibrated self times, kernel references,
    ratios."""
    metrics = {}
    passes = traced.passes
    for name, row in tracer.table(traced.factors).items():
        metrics[f"{name}.calls"] = _metric(row["calls"] / passes, "count")
        metrics[f"{name}.self_s"] = _metric(row["self_s"] / passes, "s")
        metrics[f"{name}.errors"] = _metric(row["errors"] / passes, "count")
    for name, value in kernel_metrics.items():
        unit = {"numpy_ratio": "ratio", "max_dev": "abs",
                "gflops_nominal": "GFLOP/s"}[name.rsplit(".", 1)[1]]
        metrics[name] = _metric(value, unit)
    metrics["cli.repeat_analysis_frac"] = _metric(tracer.repeat_analysis_frac(), "ratio")
    rate_untraced = untraced.passed / untraced.busy_s
    rate_traced = traced.passed / traced.busy_s
    metrics["trace.overhead_frac"] = _metric(1.0 - rate_traced / rate_untraced, "ratio")
    metrics["trace.request_s"] = _metric(tracer.request_time(traced.factors) / passes, "s")
    return metrics


def _summary(phase: Phase, label: str) -> None:
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(phase.kinds, phase.latencies):
        by_kind.setdefault(kind, []).append(dt)
    speed = statistics.median(phase.factors)
    print(f"{label}: {phase.attempted} reports in {phase.passes} passes, "
          f"{len(phase.failures)} failed, failed_frac "
          f"{len(phase.failures) / phase.attempted:.4f}; wall {sum(phase.wall):.2f} s "
          f"= {phase.busy_s:.2f} calibrated s (median factor {speed:.3f}); "
          f"raw wall p50 {statistics.median(phase.wall):.4f} s")
    for kind in sorted(by_kind):
        values = by_kind[kind]
        print(f"  {kind:24s} n={len(values):4d}  p50 {statistics.median(values):.4f} s")
    for failure in phase.failures[:10]:
        print(f"  FAILED {failure}")


def _write_trace(args, env: dict, tracer, metrics: dict) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"env": env, "metrics": metrics, "spans": tracer.span_records()}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chainkit" / "__init__.py").is_file():
        print(f"error: no chainkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import oracles

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        requests = workloads.build(args.workload, args.seed, workdir)
        warm_dir = os.path.join(workdir, "warmup")
        os.mkdir(warm_dir)
        first_of_kind = {}
        for req in workloads.build(args.workload, args.seed, warm_dir, WARMUP_SCALE,
                                   shuffle=False):
            first_of_kind.setdefault(req.kind, req)
        setups = setup(list(first_of_kind.values()))
        refs = oracles.References()

        nominal = workloads.NOMINAL_PASS_S[args.workload]
        if not args.trace:
            passes = max(1, round(args.seconds / nominal))
            phase = run_phase(requests, passes, refs, oracles,
                              deadline=WALL_CAP * args.seconds)
            _summary(phase, "measured")
            metrics, tail_note = end_to_end(phase, setups)
            phases = [phase]
            print(f"report_tail_s is {tail_note}")
            print(f"setup_s is the median of {SETUP_REPEATS}: "
                  + ", ".join(f"{s:.4f}" for s in setups))
        else:
            import reference
            from tracer import Tracer

            passes = max(1, round(args.seconds / 2 / nominal))
            deadline = WALL_CAP * args.seconds / 2
            untraced = run_phase(requests, passes, refs, oracles, deadline=deadline)
            _summary(untraced, "untraced")
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(requests, passes, refs, oracles, tracer, deadline)
            finally:
                tracer.restore()
            _summary(traced, "traced")
            metrics = per_layer(untraced, traced, tracer, reference.kernel_metrics(tracer, traced.factors))
            phases = [untraced, traced]
            print(f"trace written to {_write_trace(args, env, tracer, metrics)}")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
