"""Dense linear-algebra kernels used by the rest of the package.

Everything here operates on plain numpy arrays. The routines are
deliberately self-contained: partial-pivoted elimination for linear
systems, Householder tridiagonalization plus implicit Wilkinson-shift
QR for symmetric eigenproblems (off-diagonal entries deflate below
TRIDIAG_RTOL, machine epsilon, relative to their diagonal neighbours),
and a Hessenberg + Francis double-shift QR iteration for the real Schur
form of general (non-symmetric) matrices (subdiagonal entries deflate
below DEFLATE_RTOL). Eigenpairs of general matrices are recovered from
the Schur form by back-substitution. Stationary vectors come from
Grassmann-Taksar-Heyman (GTH) elimination, which raises SingularMatrix
only on a reducible input. Every kernel rejects non-finite input with
NumericError before it starts iterating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotSymmetric,
    NumericError,
    SingularMatrix,
)

# relative pivot / deflation / symmetry thresholds
PIVOT_RTOL = 1e-13
DEFLATE_RTOL = 1e-12
TRIDIAG_RTOL = float(np.finfo(float).eps)
RANK_RTOL = 1e-8
GTH_RESCALE = 1e150  # stationary_gth rescales x once an entry passes this


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} has non-finite entries")


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a, "matrix")
    return a


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting.

    b may be a vector or a matrix of stacked right-hand sides. Raises
    SingularMatrix when the best available pivot falls below
    PIVOT_RTOL * ||a||_F.
    """
    a = _as_square(a)
    n = a.shape[0]
    b = np.asarray(b, dtype=float)
    _require_finite(b, "right-hand side")
    vector = b.ndim == 1
    rhs = b.reshape(n, -1) if vector else b
    if rhs.shape[0] != n:
        raise DimensionMismatch("right-hand side rows do not match matrix order")

    aug = np.hstack([a.copy(), rhs.astype(float, copy=True)])
    scale = np.linalg.norm(a)
    floor = PIVOT_RTOL * (scale if scale > 0 else 1.0)
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[p, k]) < floor:
            raise SingularMatrix(f"pivot {aug[p, k]:.3e} below threshold at column {k}")
        if p != k:
            aug[[k, p]] = aug[[p, k]]
        factors = aug[k + 1:, k] / aug[k, k]
        aug[k + 1:, k:] -= np.outer(factors, aug[k, k:])
    x = np.zeros_like(aug[:, n:])
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n:] - aug[k, k + 1: n] @ x[k + 1:]) / aug[k, k]
    return x[:, 0] if vector else x


def stationary_gth(a) -> np.ndarray:
    """Stationary row vector of an irreducible nonnegative square matrix.

    Grassmann-Taksar-Heyman elimination (Oper. Res. 33(5), 1985): state
    k = m-1, ..., 1 is censored out by one rank-1 update scaled by its
    off-diagonal row sum s = sum_{j<k} a[k, j]; then back-substitution
    from x[0] = 1 and one normalization. The diagonal is never read and
    nothing is subtracted, so every entry, however small, has a small
    relative error (O'Cinneide, Numer. Math. 65, 1993). Raises
    SingularMatrix when some s is not positive: the input is reducible.
    """
    a = _as_square(a).copy()
    m = a.shape[0]
    for k in range(m - 1, 0, -1):
        s = a[k, :k].sum()
        if not s > 0:
            raise SingularMatrix(f"state {k} cannot reach states 0..{k - 1}: "
                                 "matrix is reducible")
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    x = np.zeros(m)
    x[0] = 1.0
    for k in range(1, m):
        x[k] = x[:k] @ a[:k, k]
        if x[k] > GTH_RESCALE:  # keep x[:k+1] finite when pi spans > 1e308
            x[:k + 1] /= x[k]
    return x / x.sum()


def sym_eigen(a, max_iters: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Householder reduction to tridiagonal form (the Hessenberg reduction
    of a symmetric matrix), then implicit symmetric QR with Wilkinson
    shifts (Golub & Van Loan, Matrix Computations, 8.3). An off-diagonal
    entry e_i is flushed to zero once |e_i| <= TRIDIAG_RTOL * (|d_i| +
    |d_i+1|), with ||a||_F standing in when both diagonal entries are 0.
    Returns (values, vectors) with values ascending and vectors as
    orthonormal columns; raises NoConvergence after max_iters QR steps
    (default max(30 n, 120)).
    """
    a = _as_square(a)
    n = a.shape[0]
    scale = np.linalg.norm(a)
    if scale > 0 and np.max(np.abs(a - a.T)) > 1e-10 * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    m = 0.5 * (a + a.T)
    if scale == 0 or n == 1:
        return np.diag(m).copy(), np.eye(n)
    if max_iters is None:
        max_iters = max(30 * n, 120)
    t, q = _hessenberg(m)
    d = np.diag(t).tolist()
    e = np.diag(t, -1).tolist()
    vt = q.T.copy()  # rows are the eigenvectors being accumulated
    total = 0
    hi = n - 1
    while hi > 0:
        lo = hi
        while lo > 0:
            mag = abs(d[lo - 1]) + abs(d[lo])
            if abs(e[lo - 1]) <= TRIDIAG_RTOL * (mag if mag > 0 else scale):
                e[lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            hi -= 1
            continue
        total += 1
        if total > max_iters:
            raise NoConvergence("symmetric QR exceeded the iteration budget")
        # Wilkinson shift: the eigenvalue of the trailing 2x2 block nearer d[hi]
        half = 0.5 * (d[hi - 1] - d[hi])
        b = e[hi - 1]
        shift = d[hi] - b * b / (half + math.copysign(math.hypot(half, b), half))
        x, z = d[lo] - shift, e[lo]
        for k in range(lo, hi):
            r = math.hypot(x, z)
            c, s = (x / r, z / r) if r > 0 else (1.0, 0.0)
            if k > lo:
                e[k - 1] = r
            dk, ek, dk1 = d[k], e[k], d[k + 1]
            d[k] = c * c * dk + 2.0 * c * s * ek + s * s * dk1
            d[k + 1] = s * s * dk - 2.0 * c * s * ek + c * c * dk1
            e[k] = c * s * (dk1 - dk) + (c * c - s * s) * ek
            if k + 1 < hi:
                x, z = e[k], s * e[k + 1]
                e[k + 1] *= c
            vt[k:k + 2] = np.array(((c, s), (-s, c))) @ vt[k:k + 2]
    values = np.array(d)
    order = np.argsort(values, kind="stable")
    return values[order], vt[order].T


@dataclass(frozen=True)
class SchurForm:
    """Real Schur factorization a = q @ t @ q.T.

    t is upper quasi-triangular; block_sizes lists the diagonal block
    sizes in order (1 for a real eigenvalue, 2 for a conjugate pair).
    """

    q: np.ndarray
    t: np.ndarray
    block_sizes: tuple[int, ...]

    def block_starts(self) -> list[int]:
        starts, s = [], 0
        for b in self.block_sizes:
            starts.append(s)
            s += b
        return starts


def _hessenberg(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = a.copy()
    n = h.shape[0]
    q = np.eye(n)
    for k in range(n - 2):
        x = h[k + 1:, k]
        nx = np.linalg.norm(x)
        if nx == 0:
            continue
        v = x.copy()
        v[0] += np.copysign(nx, x[0]) if x[0] != 0 else nx
        v /= np.linalg.norm(v)
        h[k + 1:, k:] -= 2.0 * np.outer(v, v @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v)
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v)
        h[k + 2:, k] = 0.0
    return h, q


def _split_real_block(hq: np.ndarray, p: int) -> bool:
    """If the 2x2 block of H at p has real eigenvalues, rotate it upper
    triangular (in place on the stacked [H; Q]) and return True;
    otherwise leave it alone."""
    a, b = hq[p, p], hq[p, p + 1]
    c, d = hq[p + 1, p], hq[p + 1, p + 1]
    disc = 0.25 * (a - d) ** 2 + b * c
    if disc < 0:
        return False
    root = np.sqrt(disc)
    mid = 0.5 * (a + d)
    lam = mid + root if mid >= 0 else mid - root  # larger-magnitude eigenvalue
    # eigenvector of the block, picked from the row with the larger residual entry
    v1 = np.array([b, lam - a])
    v2 = np.array([lam - d, c])
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    nv = np.linalg.norm(v)
    if nv == 0:
        v = np.array([1.0, 0.0])
        nv = 1.0
    cs, sn = v[0] / nv, v[1] / nv
    g = np.array([[cs, -sn], [sn, cs]])
    hq[p:p + 2, :] = g.T @ hq[p:p + 2, :]
    hq[:, p:p + 2] = hq[:, p:p + 2] @ g
    hq[p + 1, p] = 0.0
    return True


def _reflect(hq: np.ndarray, k: int, first_col: int, x: float, y: float,
             z: float | None = None) -> None:
    """Apply the Householder reflector P that maps (x, y[, z]) onto a
    multiple of e1: P to rows k.. of H from column first_col on (the
    columns to its left are zero there), and P to the same columns of
    the stacked [H; Q]. P is formed from scalars, so one reflector costs
    two small matrix products."""
    zz = 0.0 if z is None else z
    nx = math.hypot(x, y, zz)
    if nx == 0:
        return
    v0 = x + (math.copysign(nx, x) if x != 0 else nx)
    vv = v0 * v0 + y * y + zz * zz
    if vv == 0:
        return
    w0, w1, w2 = 2.0 * v0 / vv, 2.0 * y / vv, 2.0 * zz / vv
    p = np.array(((1.0 - w0 * v0, -w0 * y, -w0 * zz),
                  (-w1 * v0, 1.0 - w1 * y, -w1 * zz),
                  (-w2 * v0, -w2 * y, 1.0 - w2 * zz)))
    m = 3
    if z is None:
        p, m = p[:2, :2], 2
    hq[k:k + m, first_col:] = p @ hq[k:k + m, first_col:]
    hq[:, k:k + m] = hq[:, k:k + m] @ p


def _francis_step(hq: np.ndarray, lo: int, hi: int, exceptional: bool) -> None:
    """One implicit double-shift QR sweep over the active block lo..hi
    of H, the top half of the stacked [H; Q]."""
    if exceptional:
        r = abs(hq[hi, hi - 1]) + (abs(hq[hi - 1, hi - 2]) if hi - 2 >= lo else 0.0)
        s = 1.5 * r
        p = -0.4375 * r * r
    else:
        s = hq[hi - 1, hi - 1] + hq[hi, hi]
        p = hq[hi - 1, hi - 1] * hq[hi, hi] - hq[hi - 1, hi] * hq[hi, hi - 1]
    x = hq[lo, lo] ** 2 + hq[lo, lo + 1] * hq[lo + 1, lo] - s * hq[lo, lo] + p
    y = hq[lo + 1, lo] * (hq[lo, lo] + hq[lo + 1, lo + 1] - s)
    z = hq[lo + 1, lo] * hq[lo + 2, lo + 1]
    _reflect(hq, lo, lo, float(x), float(y), float(z))
    for k in range(lo + 1, hi - 1):
        x, y, z = hq[k, k - 1], hq[k + 1, k - 1], hq[k + 2, k - 1]
        _reflect(hq, k, k - 1, float(x), float(y), float(z))
        hq[k + 1, k - 1] = 0.0
        hq[k + 2, k - 1] = 0.0
    # final 2-row reflector clearing the bulge at (hi, hi-2)
    _reflect(hq, hi - 1, hi - 2, float(hq[hi - 1, hi - 2]), float(hq[hi, hi - 2]))
    hq[hi, hi - 2] = 0.0


def real_schur(a, max_iters: int | None = None) -> SchurForm:
    """Real Schur form via Hessenberg reduction and Francis double-shift
    QR with deflation.

    Subdiagonal entries are flushed to zero once they fall below
    DEFLATE_RTOL * (|t_ii| + |t_i+1,i+1|), with ||a||_F standing in when
    both diagonal entries are 0. Every surviving 2x2 diagonal block
    carries a complex conjugate eigenvalue pair. H and Q live stacked in
    one (2n x n) array, so a reflector updates the columns of both with
    one product.
    """
    a = _as_square(a)
    n = a.shape[0]
    if max_iters is None:
        max_iters = max(30 * n, 120)
    if n == 0:
        return SchurForm(np.eye(0), np.zeros((0, 0)), ())
    hq = np.vstack(_hessenberg(a))
    flat = hq[:n].reshape(-1)  # views of H's diagonal and subdiagonal
    diag, sub = flat[::n + 1], flat[n::n + 1]
    scale = np.linalg.norm(a)
    if scale == 0:
        scale = 1.0
    hi = n - 1
    stalled = 0
    total = 0
    while hi > 0:
        mag = np.abs(diag[:hi + 1])
        s = mag[:-1] + mag[1:]
        s[s == 0] = scale
        active = sub[:hi]
        active[np.abs(active) <= DEFLATE_RTOL * s] = 0.0
        split = np.flatnonzero(active == 0.0)
        lo = int(split[-1]) + 1 if split.size else 0
        if lo == hi:
            hi -= 1
            stalled = 0
            continue
        if lo == hi - 1:
            _split_real_block(hq, lo)
            hi -= 2
            stalled = 0
            continue
        total += 1
        stalled += 1
        if total > max_iters:
            raise NoConvergence("QR iteration exceeded the iteration budget")
        _francis_step(hq, lo, hi, exceptional=(stalled % 11 == 10))
    h, q = hq[:n], hq[n:]
    # defensive: split any leftover 2x2 block that turned real
    i = 0
    while i < n - 1:
        if h[i + 1, i] != 0.0:
            _split_real_block(hq, i)
            i += 2
        else:
            i += 1
    blocks = []
    i = 0
    while i < n:
        if i < n - 1 and h[i + 1, i] != 0.0:
            blocks.append(2)
            i += 2
        else:
            blocks.append(1)
            i += 1
    return SchurForm(q, h, tuple(blocks))


@dataclass(frozen=True)
class ComplexEigenpairs:
    """Eigenvalues and eigenvector sets of a real square matrix.

    values holds complex eigenvalues, conjugate pairs adjacent with the
    positive-imaginary member first. right and left are real matrices in
    pair encoding: a real eigenvalue owns one real column; a conjugate
    pair owns two consecutive columns holding the real and imaginary
    parts of the positive-imaginary eigenvector. Right vectors have unit
    Euclidean norm. When the spectrum is simple, left vectors are
    rescaled so that left^T right = I column by column.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    diagonalizable: bool
    simple: bool
    residual: float

    @property
    def n(self) -> int:
        return len(self.values)

    def right_complex(self) -> np.ndarray:
        return _pairs_to_complex(self.values, self.right)

    def left_complex(self) -> np.ndarray:
        return _pairs_to_complex(self.values, self.left)


def _pairs_to_complex(values: np.ndarray, enc: np.ndarray) -> np.ndarray:
    n = len(values)
    out = np.zeros((n, n), dtype=complex)
    j = 0
    while j < n:
        if values[j].imag > 0:
            v = enc[:, j] + 1j * enc[:, j + 1]
            out[:, j] = v
            out[:, j + 1] = np.conj(v)
            j += 2
        else:
            out[:, j] = enc[:, j]
            j += 1
    return out


def _shifted_backsolve(t: np.ndarray, starts: list[int], sizes: list[int],
                       lam: complex, rhs: np.ndarray, clamp: float) -> np.ndarray:
    """Solve (T - lam I) y = rhs on the leading quasi-triangular part
    covered by the given blocks, walking blocks bottom-up. Near-singular
    diagonal blocks are clamped so the solve always returns something;
    callers detect defectiveness separately."""
    k = starts[-1] + sizes[-1] if starts else 0
    y = np.zeros(k, dtype=complex)
    for s, b in zip(reversed(starts), reversed(sizes)):
        acc = rhs[s:s + b] - t[s:s + b, s + b:k] @ y[s + b:k]
        if b == 1:
            den = t[s, s] - lam
            if abs(den) < clamp:
                den = clamp
            y[s] = acc[0] / den
        else:
            a11 = t[s, s] - lam
            a12 = t[s, s + 1]
            a21 = t[s + 1, s]
            a22 = t[s + 1, s + 1] - lam
            det = a11 * a22 - a12 * a21
            if abs(det) < clamp * clamp:
                det = clamp * clamp
            y[s] = (a22 * acc[0] - a12 * acc[1]) / det
            y[s + 1] = (a11 * acc[1] - a21 * acc[0]) / det
    return y


def _block_eigenvector(t: np.ndarray, starts: list[int], sizes: list[int],
                       bi: int, lam: complex, clamp: float) -> np.ndarray:
    """Right eigenvector of the quasi-triangular T for the eigenvalue lam
    of diagonal block bi: an eigenvector of that block, extended upward
    by back-substitution."""
    s, b = starts[bi], sizes[bi]
    if b == 1:
        u = np.array([1.0 + 0j])
    else:
        u = np.array([t[s, s + 1], lam - t[s, s]])
        if np.max(np.abs(u)) < clamp:
            u = np.array([lam - t[s + 1, s + 1], t[s + 1, s]])
    x = np.zeros(t.shape[0], dtype=complex)
    x[s:s + b] = u
    if s > 0:
        rhs = -(t[:s, s:s + b] @ u)
        x[:s] = _shifted_backsolve(t, starts[:bi], sizes[:bi], lam, rhs, clamp)
    return x


def _complex_rank(m: np.ndarray, threshold: float) -> int:
    a = m.astype(complex, copy=True)
    n = a.shape[0]
    rank = 0
    for k in range(min(a.shape)):
        col = np.abs(a[k:, k])
        p = k + int(np.argmax(col))
        if np.abs(a[p, k]) <= threshold:
            continue
        if p != k:
            a[[k, p]] = a[[p, k]]
        a[k + 1:, k:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k:])
        rank += 1
    return rank


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    pivot = v[i]
    if pivot == 0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def eigen_from_schur(schur: SchurForm) -> ComplexEigenpairs:
    """Recover eigenvalues and left/right eigenvectors from a real Schur
    form by back-substitution on T (on its flipped transpose for the left
    vectors), then rotate back with Q.

    Diagonalizability is decided by comparing algebraic multiplicity
    (eigenvalue clusters) against geometric multiplicity, the latter via
    thresholded rank of A - lam I.
    """
    t, q = schur.t, schur.q
    n = t.shape[0]
    starts = schur.block_starts()
    sizes = list(schur.block_sizes)
    scale = np.linalg.norm(t)
    if scale == 0:
        scale = 1.0
    clamp = 1e-13 * scale

    values = np.zeros(n, dtype=complex)
    for s, b in zip(starts, sizes):
        if b == 1:
            values[s] = t[s, s]
        else:
            mid = 0.5 * (t[s, s] + t[s + 1, s + 1])
            disc = 0.25 * (t[s, s] - t[s + 1, s + 1]) ** 2 + t[s, s + 1] * t[s + 1, s]
            im = np.sqrt(max(-disc, 0.0))
            values[s] = mid + 1j * im
            values[s + 1] = mid - 1j * im

    # a left eigenvector of T is a right eigenvector of the flipped
    # transpose J T^T J, upper quasi-triangular with its blocks reversed
    flipped = t.T[::-1, ::-1].copy()
    flipped_starts = [n - s - b for s, b in zip(starts[::-1], sizes[::-1])]
    flipped_sizes = sizes[::-1]

    right = np.zeros((n, n))
    left = np.zeros((n, n))
    right_cplx = np.zeros((n, n), dtype=complex)
    left_cplx = np.zeros((n, n), dtype=complex)
    for bi, (s, b) in enumerate(zip(starts, sizes)):
        lam = values[s]
        r = q @ _block_eigenvector(t, starts, sizes, bi, lam, clamp)
        r /= np.linalg.norm(r)
        r = _canonical_phase(r)

        z = _block_eigenvector(flipped, flipped_starts, flipped_sizes,
                               len(sizes) - 1 - bi, lam, clamp)[::-1]
        lv = q @ z
        lv /= np.linalg.norm(lv)
        lv = _canonical_phase(lv)

        right_cplx[:, s] = r
        left_cplx[:, s] = lv
        if b == 2:
            right_cplx[:, s + 1] = np.conj(r)
            left_cplx[:, s + 1] = np.conj(lv)

    a = q @ t @ q.T
    residual = 0.0
    for j in range(n):
        res = np.linalg.norm(a @ right_cplx[:, j] - values[j] * right_cplx[:, j])
        residual = max(residual, float(res))

    # multiplicities
    cluster_tol = RANK_RTOL * scale
    unassigned = list(range(n))
    diagonalizable = True
    simple = True
    while unassigned:
        i = unassigned[0]
        group = [j for j in unassigned if abs(values[j] - values[i]) <= cluster_tol]
        for j in group:
            unassigned.remove(j)
        alg = len(group)
        if alg > 1:
            simple = False
            shifted = a.astype(complex) - values[i] * np.eye(n)
            geo = n - _complex_rank(shifted, RANK_RTOL * scale)
            if geo < alg:
                diagonalizable = False
    # QR scatters a defective eigenvalue wider than the cluster tolerance,
    # so also demand a numerically full-rank eigenvector basis
    if diagonalizable and n > 1:
        if _complex_rank(right_cplx, RANK_RTOL) < n:
            diagonalizable = False
            simple = False

    if simple:
        for s, b in zip(starts, sizes):
            d = left_cplx[:, s] @ right_cplx[:, s]
            if abs(d) > 0:
                left_cplx[:, s] = left_cplx[:, s] / d
                if b == 2:
                    left_cplx[:, s + 1] = np.conj(left_cplx[:, s])

    for s, b in zip(starts, sizes):
        if b == 1:
            right[:, s] = right_cplx[:, s].real
            left[:, s] = left_cplx[:, s].real
        else:
            right[:, s] = right_cplx[:, s].real
            right[:, s + 1] = right_cplx[:, s].imag
            left[:, s] = left_cplx[:, s].real
            left[:, s + 1] = left_cplx[:, s].imag

    return ComplexEigenpairs(values=values, right=right, left=left,
                             diagonalizable=diagonalizable, simple=simple,
                             residual=residual)
