"""numpy/scipy beside our numlin kernels, on the inputs the traced pass
kept (the largest few calls per kernel).

numpy_ratio is our traced self time over the reference time on the same
inputs, both in calibrated seconds (probe.py); max_dev is how far our
eigenvalues or solution sit from the reference. gflops_nominal divides the textbook operation count of every
traced call (Golub & Van Loan, Matrix Computations) by the kernel's
total self time: a computed rate for a nominal count, not a hardware
counter. A kernel the workload never calls reports 0 for all three.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

import probe
from oracles import match_eigenvalues
from tracer import KERNELS, Tracer

REPEAT_S = 0.05  # time each reference at least this long, then take the median


def _flops(kernel: str, n: int, rhs: int) -> float:
    if kernel == "solve_linear":  # LU plus two triangular solves per column
        return 2.0 * n ** 3 / 3.0 + 2.0 * n * n * rhs
    if kernel == "sym_eigen":  # symmetric QR, values and vectors
        return 9.0 * n ** 3
    if kernel == "real_schur":  # Hessenberg + Francis QR, T and Q
        return 25.0 * n ** 3
    # left and right eigenvectors: triangular solves plus back-transform
    return 14.0 * n ** 3 / 3.0


def _time(fn) -> float:
    """Median calibrated seconds of fn()."""
    samples = []
    began = time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - began < REPEAT_S:
        before = probe.probe()
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        samples.append(elapsed * probe.factor(before, probe.probe()))
    return statistics.median(samples)


def _reference(kernel: str, args: tuple, ours) -> tuple[float, float]:
    """(reference seconds, deviation of ours from the reference)."""
    if kernel == "solve_linear":
        a, b = args[0], args[1]
        ref = np.linalg.solve(a, b)
        dev = np.max(np.abs(ours - ref)) / max(1.0, float(np.max(np.abs(ref))))
        return _time(lambda: np.linalg.solve(a, b)), float(dev)
    if kernel == "sym_eigen":
        a = args[0]
        ref = np.linalg.eigh(a)[0]
        return _time(lambda: np.linalg.eigh(a)), float(np.max(np.abs(ours[0] - ref)))
    if kernel == "real_schur":
        a = args[0]
        t_ref = scipy.linalg.schur(a, output="real")[0]
        dev = match_eigenvalues(np.linalg.eigvals(ours.t), np.linalg.eigvals(t_ref))[2]
        return _time(lambda: scipy.linalg.schur(a, output="real")), dev
    schur = args[0]
    a = schur.q @ schur.t @ schur.q.T
    dev = match_eigenvalues(ours.values, np.linalg.eigvals(a))[2]
    return _time(lambda: np.linalg.eig(a)), dev


def kernel_metrics(tracer: Tracer, factors: list[float]) -> dict[str, float]:
    """numpy_ratio, max_dev and gflops_nominal per kernel; factors[r]
    calibrates the spans of traced request r."""
    own = tracer.self_times()
    table = tracer.table(factors)
    out = {}
    for kernel in KERNELS:
        ours = ref = dev = 0.0
        for call in tracer.kernel_calls[kernel]:
            seconds, d = _reference(kernel, call.args, call.result)
            ours += own[call.span] * factors[tracer.spans[call.span].request]
            ref += seconds
            dev = max(dev, d)
        busy = table[f"numlin.{kernel}"]["self_s"]
        flops = sum(_flops(kernel, n, rhs) for n, rhs in tracer.kernel_shapes[kernel])
        out[f"numlin.{kernel}.numpy_ratio"] = ours / ref if ref else 0.0
        out[f"numlin.{kernel}.max_dev"] = dev
        out[f"numlin.{kernel}.gflops_nominal"] = flops / busy / 1e9 if busy else 0.0
    return out
