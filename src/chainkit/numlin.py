"""Dense linear-algebra kernels used by the rest of the package.

Everything here operates on plain numpy arrays. The routines are
deliberately self-contained: partial-pivoted elimination for general
linear systems, Householder tridiagonalization plus implicit
Wilkinson-shift QR for symmetric eigenproblems (off-diagonal entries
deflate below TRIDIAG_RTOL, machine epsilon, relative to their diagonal
neighbours; QR logs each sweep's (lo, hi) and its rotations' c and s,
and the rotations reach the eigenvectors in wavefronts, one numpy update
per run of adjacent row pairs, through a view), and a Hessenberg +
Francis double-shift QR iteration for the real Schur form of general
matrices (subdiagonal entries deflate below DEFLATE_RTOL; each reflector
updates views). The Householder reduction both share skips every column
already in Hessenberg form, so a tridiagonal input costs it nothing.
Eigenpairs of general matrices are recovered from the Schur form by one
blocked back-substitution over all eigenvector columns at once (on T for
the right vectors, on its flipped transpose for the left), each column
rescaled before the next block row once it passes RESCALE_LIMIT and
scaled by its largest entry at the end, with the residual measured in
Schur coordinates. One rule decides that two eigenvalues are the same:
`clusters`, single linkage at RANK_RTOL times the Frobenius norm of
their matrix. The eigenpairs of a d-cyclic matrix are lifted from those
of its cycle product, d times smaller. Every eigenpair route ends in
`_eigenpairs`, handing it one eigenvalue and one right and left vector
per diagonal block; it alone decides, on every route, that the spectrum
is diagonalizable (no condition number 1/s_j past CONDITION_LIMIT),
expands the blocks into one value and one complex column per eigenvalue,
conjugating a pair's second member, clusters the values and makes left^T
right = I on a diagonalizable spectrum. The GTH state reduction behind
stationary vectors, PageRank and absorption is in `gth`, with the input
checks both share. Every kernel rejects non-finite input with
NumericError before it starts iterating, and so do the two QR kernels
when ||a||_F overflows.
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
    applied,
)
from .gth import RESCALE_LIMIT, _as_square, _require_finite

# relative pivot / deflation / symmetry thresholds
PIVOT_RTOL = 1e-13
DEFLATE_RTOL = 1e-12
TRIDIAG_RTOL = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)  # _hessenberg rescales a column whose v . v falls below this
RANK_RTOL = 1e-8  # clusters: values this close, relative to ||matrix||_F, are one
CONDITION_LIMIT = 1e4  # _eigenpairs: 1/s_j past this is not diagonalizable


def _finite_norm(a: np.ndarray) -> float:
    """||a||_F of the finite a; NumericError, with no overflow warning,
    when it overflows: the QR kernels square entries of that size."""
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(a))
    if scale == math.inf:
        raise NumericError("matrix norm overflows")
    return scale


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting.

    b may be a vector or a matrix of stacked right-hand sides; a 0x0
    system has the empty solution. Raises SingularMatrix when the best
    available pivot falls below PIVOT_RTOL * ||a||_F.
    """
    a = _as_square(a)
    n = a.shape[0]
    b = np.asarray(b, dtype=float)
    _require_finite(b, "right-hand side")
    vector = b.ndim == 1
    rhs = b[:, None] if vector else b
    if rhs.ndim != 2 or rhs.shape[0] != n:
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


def _qr_budget(n: int) -> int:
    """QR steps sym_eigen and sweeps real_schur may take on order n."""
    return max(30 * n, 120)


def sym_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Householder reduction to tridiagonal form (the Hessenberg reduction
    of a symmetric matrix), then implicit symmetric QR with Wilkinson
    shifts (Golub & Van Loan, Matrix Computations, 8.3). The reduction
    skips each column that is already tridiagonal, so a tridiagonal a (a
    birth-death chain, a path graph's Laplacian) starts QR at once with
    Q = I. An off-diagonal entry e_i is flushed to zero once |e_i| <=
    TRIDIAG_RTOL * (|d_i| + |d_i+1|), with ||a||_F standing in when both
    diagonal entries are 0. The QR sweeps run on scalars, carrying the
    chase's d[k] and e[k] in locals, and only log each sweep's (lo, hi)
    and its Givens rotations' c and s; `_apply_rotations` then applies
    them to Q^T in wavefronts. Returns (values, vectors) with values
    ascending and vectors as orthonormal columns; raises NoConvergence
    after `_qr_budget(n)` QR steps, and NumericError before the first
    when ||a||_F overflows.
    """
    a = _as_square(a)
    n = a.shape[0]
    scale = _finite_norm(a)
    # unguarded at scale 0: an a whose squares all underflow is refused unless exactly symmetric
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-10 * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    t, q = _hessenberg(0.5 * (a + a.T))
    d = np.diag(t).tolist()
    e = np.diag(t, -1).tolist() + [0.0]  # e[n - 1] = e[-1]: scratch for the chase
    sweeps, cos, sin = [], [], []  # (lo, hi) of every QR sweep; c and s of its rotations
    put_c, put_s, hypot = cos.append, sin.append, math.hypot
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
        if len(sweeps) >= _qr_budget(n):
            raise NoConvergence("symmetric QR exceeded the iteration budget")
        sweeps.append((lo, hi))
        # Wilkinson shift: the eigenvalue of the trailing 2x2 block nearer d[hi]
        half = 0.5 * (d[hi - 1] - d[hi])
        b = e[hi - 1]
        shift = d[hi] - b * b / (half + math.copysign(hypot(half, b), half))
        dk, ek = d[lo], e[lo]  # d[k] and c-scaled e[k] as the chase reaches k
        x, z = dk - shift, ek
        for k in range(lo, hi):
            r = hypot(x, z)
            if r > 0:  # a two- or three-way assignment builds no tuple
                c, s = x / r, z / r
            else:
                c, s = 1.0, 0.0
            e[k - 1] = r  # at k = lo a scratch write, undone after the sweep
            dk1 = d[k + 1]
            cc, ss, cs = c * c, s * s, c * s
            mix = 2.0 * c * s * ek
            d[k] = cc * dk + mix + ss * dk1
            x = cs * (dk1 - dk) + (cc - ss) * ek
            dk = ss * dk - mix + cc * dk1
            z, ek = s * e[k + 1], e[k + 1] * c  # unused after k = hi - 1
            put_c(c)
            put_s(s)
        d[hi], e[hi - 1], e[lo - 1] = dk, x, 0.0
    vt = _apply_rotations(q.T.copy(), sweeps, cos, sin)
    values = np.array(d)
    order = np.argsort(values, kind="stable")
    return values[order], vt[order].T


def _apply_rotations(vt: np.ndarray, sweeps: list, cos: list, sin: list) -> np.ndarray:
    """Apply sym_eigen's Givens rotations in their order to the C-contiguous
    vt, in place: sweep (lo, hi) turns rows k and k + 1 for k = lo, ...,
    hi - 1, each with the next c and s of cos and sin.

    Rotation k of sweep j goes in wave k + 2j (Van Zee, van de Geijn &
    Quintana-Orti, ACM TOMS 40(3), 2014). The rotations of one wave
    touch disjoint row pairs, and every earlier rotation on row k or
    k + 1 (k - 1 of the same sweep, k - 1 to k + 1 of an earlier one)
    sits in an earlier wave, so each row meets its rotations in order
    and with the same 2x2 product as one at a time. Sorted by wave and
    then k (one key, (k + 2j) n + k), they fall into runs whose k step by
    exactly 2: disjoint row pairs that fill one slice of vt, updated as a
    view by one product.
    """
    if not sweeps:
        return vt
    assert vt.flags.c_contiguous  # else reshape copies and the update is lost
    lo, hi = np.array(sweeps).T
    sweep = np.repeat(np.arange(len(lo)), hi - lo)
    k = np.arange(len(sweep)) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
    order = np.argsort((k + 2 * sweep) * vt.shape[0] + k, kind="stable")
    k = k[order]
    c, s = (np.fromiter(x, float, len(x))[order] for x in (cos, sin))
    g = np.stack((c, s, -s, c), axis=1).reshape(-1, 2, 2)
    cuts = (np.flatnonzero(np.diff(k) != 2) + 1).tolist()
    for a, b, k0 in zip([0] + cuts, cuts + [len(k)], k[[0] + cuts].tolist()):
        pairs = vt[k0:k0 + 2 * (b - a)].reshape(b - a, 2, -1)
        pairs[...] = g[a:b] @ pairs
    return vt


@dataclass(frozen=True)
class SchurForm:
    """Real Schur factorization a = q @ t @ q.T.

    t is upper quasi-triangular; block_sizes lists the diagonal block
    sizes in order (1 for a real eigenvalue, 2 for a conjugate pair).
    """

    q: np.ndarray
    t: np.ndarray
    block_sizes: tuple[int, ...]


def _hessenberg(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, q) with a = q h q^T and h upper Hessenberg: one Householder
    reflector per column not yet Hessenberg, its norms sqrt(v . v) on the
    column's contiguous copy v. A v whose v . v falls below TINY is first
    divided by its largest entry: same reflector, and no underflow to 0."""
    h = a.copy()
    n = h.shape[0]
    q = np.eye(n)
    for k in range(n - 2):
        if not np.count_nonzero(h[k + 2:, k]):  # column k is already Hessenberg
            continue
        v = h[k + 1:, k].copy()
        vv = v.dot(v)
        if vv < TINY:
            v /= np.max(np.abs(v))
            vv = v.dot(v)
        nx = math.sqrt(vv)
        v[0] += math.copysign(nx, v[0]) if v[0] != 0 else nx
        v /= math.sqrt(v.dot(v))
        rows = h[k + 1:, k:]
        rows -= 2.0 * (v[:, None] * (v @ rows))
        for block in (h[:, k + 1:], q[:, k + 1:]):
            block -= 2.0 * ((block @ v)[:, None] * v)
        h[k + 2:, k] = 0.0
    return h, q


def _split_real_block(hq: np.ndarray, p: int) -> None:
    """If the 2x2 block of H at p has real eigenvalues, rotate it upper
    triangular (in place on the stacked [H; Q]); otherwise leave it
    alone."""
    a, b = hq[p, p], hq[p, p + 1]
    c, d = hq[p + 1, p], hq[p + 1, p + 1]
    disc = 0.25 * (a - d) ** 2 + b * c
    if disc < 0:
        return
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


def _reflect(hq: np.ndarray, k: int, first_col: int, x: float, y: float,
             z: float | None = None) -> None:
    """Apply the Householder reflector P that maps (x, y[, z]) onto a
    multiple of e1: P to rows k.. of H from column first_col on (the
    columns to its left are zero there), and P to the same columns of
    the stacked [H; Q]. P is formed from scalars, 2x2 or 3x3, and both
    products write through views of the rows and columns they read."""
    zz = 0.0 if z is None else z
    nx = math.hypot(x, y, zz)
    if nx == 0:
        return
    v0 = x + (math.copysign(nx, x) if x != 0 else nx)
    vv = v0 * v0 + y * y + zz * zz
    if vv == 0:
        return
    w0, w1 = 2.0 * v0 / vv, 2.0 * y / vv
    if z is None:
        p = np.array((1.0 - w0 * v0, -w0 * y, -w1 * v0, 1.0 - w1 * y)).reshape(2, 2)
    else:
        w2 = 2.0 * z / vv
        p = np.array((1.0 - w0 * v0, -w0 * y, -w0 * z, -w1 * v0, 1.0 - w1 * y, -w1 * z,
                      -w2 * v0, -w2 * y, 1.0 - w2 * z)).reshape(3, 3)
    rows = hq[k:k + len(p), first_col:]
    rows[...] = p @ rows
    cols = hq[:, k:k + len(p)]
    cols[...] = cols @ p


def _francis_step(hq: np.ndarray, lo: int, hi: int, exceptional: bool) -> None:
    """One implicit double-shift QR sweep over the active block lo..hi
    of H, the top half of the stacked [H; Q]."""
    h00, h01, h10 = hq[lo, lo], hq[lo, lo + 1], hq[lo + 1, lo]
    if exceptional:
        r = abs(hq[hi, hi - 1]) + (abs(hq[hi - 1, hi - 2]) if hi - 2 >= lo else 0.0)
        s, p = 1.5 * r, -0.4375 * r * r
        x, y = h00 ** 2 + h01 * h10 - s * h00 + p, h10 * (h00 + hq[lo + 1, lo + 1] - s)
        z = h10 * hq[lo + 2, lo + 1]
    else:
        # the first column of (H - s1)(H - s2) over h10 (its direction is
        # all the reflector needs), from differences to h00: near a multiple
        # of I the direct form sums O(1) terms to O(delta^2) and loses the
        # shift (EISPACK hqr; Golub & Van Loan, Matrix Computations, 7.5)
        a, d = hq[hi - 1, hi - 1] - h00, hq[hi, hi] - h00
        x = (a * d - hq[hi - 1, hi] * hq[hi, hi - 1]) / h10 + h01
        y, z = hq[lo + 1, lo + 1] - h00 - a - d, hq[lo + 2, lo + 1]
    _reflect(hq, lo, lo, float(x), float(y), float(z))
    for k in range(lo + 1, hi - 1):
        x, y, z = hq[k:k + 3, k - 1].tolist()
        _reflect(hq, k, k - 1, x, y, z)
        hq[k + 1:k + 3, k - 1] = 0.0
    # final 2-row reflector clearing the bulge at (hi, hi-2)
    x, y = hq[hi - 1:hi + 1, hi - 2].tolist()
    _reflect(hq, hi - 1, hi - 2, x, y)
    hq[hi, hi - 2] = 0.0


def real_schur(a) -> SchurForm:
    """Real Schur form via Hessenberg reduction and Francis double-shift
    QR with deflation.

    Subdiagonal entries are flushed to zero once they fall below
    DEFLATE_RTOL * (|t_ii| + |t_i+1,i+1|), with ||a||_F standing in when
    both diagonal entries are 0. A 2x2 block is split as it deflates if
    its eigenvalues are real, and no later sweep touches its entries, so
    every surviving 2x2 diagonal block carries a complex conjugate
    eigenvalue pair and block_sizes can be read off the subdiagonal. H
    and Q live stacked in one (2n x n) array, so a reflector updates the
    columns of both with one product. Raises NoConvergence after
    `_qr_budget(n)` QR sweeps, and NumericError before the first when
    ||a||_F overflows.
    """
    a = _as_square(a)
    n = a.shape[0]
    scale = _finite_norm(a) or 1.0
    hq = np.vstack(_hessenberg(a))
    flat = hq[:n].reshape(-1)  # views of H's diagonal and subdiagonal
    diag, sub = flat[::n + 1], flat[n::n + 1]
    hi = n - 1
    stalled = 0
    total = 0
    applied(deflate=DEFLATE_RTOL)
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
        if total > _qr_budget(n):
            raise NoConvergence("QR iteration exceeded the iteration budget")
        _francis_step(hq, lo, hi, exceptional=(stalled % 11 == 10))
    h, q = hq[:n], hq[n:]
    blocks = []
    i = 0
    while i < n:
        blocks.append(2 if i < n - 1 and h[i + 1, i] != 0.0 else 1)
        i += blocks[-1]
    return SchurForm(q, h, tuple(blocks))


@dataclass(frozen=True)
class ComplexEigenpairs:
    """Eigenvalues and eigenvector sets of a real square matrix.

    values holds the n complex eigenvalues, conjugate pairs adjacent with
    the positive-imaginary member first; the spectrum is simple when it is
    diagonalizable and no `clusters` cluster of values repeats. right and
    left are complex (n, n) matrices with one column per eigenvalue: the
    second column of a conjugate pair is the conjugate of the first,
    unless both lie in one repeated cluster. Right vectors have unit
    Euclidean norm. condition is the largest 1/s_j, measured on every
    route; diagonalizable is `_eigenpairs`' verdict that it is at most
    CONDITION_LIMIT, and then left^T right = I.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition: float
    residual: float
    diagonalizable: bool


def _quasi_triangular_vectors(t: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                              lams: np.ndarray, clamp: float) -> np.ndarray:
    """One eigenvector of the upper quasi-triangular T per diagonal block,
    as the columns of a complex (n, blocks) array.

    Column k holds an eigenvector u of block k in that block's rows and
    zeros below; above, it solves (T - lam_k I) y = -T[:, block k] u. All
    columns are back-substituted together, block row by block row from
    the bottom up (LAPACK xTREVC): a 1x1 row block divides by the vector
    t_ss - lam, a 2x2 one applies its explicit inverse to every column.
    Near-singular diagonal blocks are clamped (|den| < clamp -> clamp,
    |det| < clamp^2 -> clamp^2) so the solve always returns something;
    callers detect defectiveness separately. Before each block row, a
    column whose largest entry has passed RESCALE_LIMIT is divided by it,
    as xTREVC does, so a far from normal T cannot overflow the solve.
    """
    x = np.zeros((t.shape[0], len(starts)), dtype=complex)
    for k, (s, b) in enumerate(zip(starts, sizes)):
        if b == 1:
            x[s, k] = 1.0
            continue
        u = (t[s, s + 1], lams[k] - t[s, s])
        if max(abs(u[0]), abs(u[1])) < clamp:
            u = (lams[k] - t[s + 1, s + 1], t[s + 1, s])
        x[s:s + 2, k] = u
    top = float(np.max(np.abs(x)))  # running max of |x|, to within sqrt(2)
    for r in range(len(starts) - 2, -1, -1):
        if top > RESCALE_LIMIT:  # far from normal T: keep every column finite
            big = np.max(np.abs(x), axis=0)
            grown = big > RESCALE_LIMIT
            x[:, grown] /= big[grown]
            big[grown] = 1.0
            top = float(big.max())
        s, b = starts[r], sizes[r]
        lam = lams[r + 1:]
        acc = -(t[s:s + b, s + b:] @ x[s + b:, r + 1:])
        if b == 1:
            den = t[s, s] - lam
            den[np.abs(den) < clamp] = clamp
            x[s, r + 1:] = acc[0] / den
        else:
            a11 = t[s, s] - lam
            a12 = t[s, s + 1]
            a21 = t[s + 1, s]
            a22 = t[s + 1, s + 1] - lam
            det = a11 * a22 - a12 * a21
            det[np.abs(det) < clamp * clamp] = clamp * clamp
            x[s, r + 1:] = (a22 * acc[0] - a12 * acc[1]) / det
            x[s + 1, r + 1:] = (a11 * acc[1] - a21 * acc[0]) / det
        top = max(top, float(np.max(np.abs(x[s:s + b, r + 1:].view(float)))))
    return x


def clusters(values, scale: float) -> np.ndarray:
    """Single-linkage clusters of values: two values are the same when a
    chain of values joins them, each within RANK_RTOL * scale of the next,
    scale being the Frobenius norm of the matrix they come from. Returns,
    for each value, the index of its cluster's first member.

    On real values the clusters are intervals, split where two sorted
    neighbours lie more than the tolerance apart.
    """
    values = np.asarray(values)
    n = len(values)
    applied(cluster=RANK_RTOL)
    close = np.abs(values[:, None] - values[None, :]) <= RANK_RTOL * scale
    ids = np.arange(n)
    while True:  # each member takes its neighbours' least id, then jumps
        new = np.where(close, ids, n).min(axis=1, initial=n)
        new = new[new]
        if np.array_equal(new, ids):
            return ids
        ids = new


def _condition(right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """1/s_j per column, s_j = |l_j^T r_j| / (||l_j|| ||r_j||): how far an
    eigenvalue moves per unit perturbation of the matrix (Wilkinson, The
    Algebraic Eigenvalue Problem, 1965, ch. 2; LAPACK xTRSNA); huge for a
    defective one, whose computed l and r are all but orthogonal. l is a
    left vector as ComplexEigenpairs holds it, l^T A = lambda l^T, so
    the pairing is l^T r: l^H r would pair lambda's right vector with the
    left vector of conj(lambda), near 0 for a complex lambda."""
    with np.errstate(divide="ignore", over="ignore"):
        return (np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
                / np.abs(np.sum(left * right, axis=0)))


def _unit_phase(v: np.ndarray) -> np.ndarray:
    """The columns of v scaled to unit norm, each rotated so that its
    first largest-magnitude entry is real and positive."""
    v = v / np.linalg.norm(v, axis=0)
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * (np.conj(pivot) / np.abs(pivot))


def _residual(a: np.ndarray, x: np.ndarray, lams: np.ndarray) -> float:
    """Largest relative eigenvector residual max_j ||a x_j - lam_j x_j|| /
    ||x_j|| over the columns of x."""
    return float(np.max(np.linalg.norm(a @ x - x * lams, axis=0)
                        / np.linalg.norm(x, axis=0)))


def _biorthogonalize(right: np.ndarray, left: np.ndarray) -> None:
    """Two-sided oblique Gram-Schmidt, in place: each r_j loses its part
    along the earlier r_i as the l_i see it, and each l_j along the
    earlier l_i as the r_i see it, so l_i^T r_j = 0 for i != j with no
    solve. A part whose pivot l_i^T r_i underflows is kept."""
    pivots = np.empty(right.shape[1], dtype=right.dtype)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(right.shape[1]):
            r, l = right[:, :j], left[:, :j]
            for v, basis, dual in ((right, r, l), (left, l, r)):
                c = (dual.T @ v[:, j]) / pivots[:j]
                v[:, j] -= basis @ np.where(np.isfinite(c), c, 0.0)
            pivots[j] = left[:, j] @ right[:, j]


def _eigenpairs(lams: np.ndarray, sizes, right_blocks: np.ndarray, left_blocks: np.ndarray,
                scale: float, residual: float) -> ComplexEigenpairs:
    """The ComplexEigenpairs of one eigenvalue lam and one right and one
    left vector per diagonal block, of size 1 for a real lam and 2 for a
    conjugate pair, lam being its positive-imaginary member; condition
    is the largest `_condition` of the blocks as handed in. The vectors
    go to unit norm and phase, and each block expands to one value and
    one complex column per eigenvalue, a pair's second being the
    conjugate of its first. On a diagonalizable spectrum the columns of
    each repeated cluster (`clusters` of the values at scale, the
    matrix's Frobenius norm) are made biorthogonal, unless their l^T r
    is diagonal already, and each left vector is rescaled to l^T r = 1.
    A cluster is its own conjugate or lies in one half-plane: a pair
    split across two keeps its second column the conjugate of the first."""
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    second = ends[sizes == 2] - 1

    def expand(x: np.ndarray) -> np.ndarray:
        x = np.repeat(np.asarray(x, dtype=complex), sizes, axis=-1)
        x[..., second] = x[..., second].conj()
        return x

    values = expand(lams)
    condition = float(np.max(_condition(right_blocks, left_blocks), initial=0.0))
    right, left = expand(_unit_phase(right_blocks)), expand(_unit_phase(left_blocks))
    applied(condition=CONDITION_LIMIT)
    diagonalizable = condition <= CONDITION_LIMIT
    if diagonalizable:
        ids = clusters(values, scale)
        split = second[ids[second] != ids[second - 1]]
        ids[split] = split  # a cluster of one each: left out, then copied from the first
        for c in np.flatnonzero(np.bincount(ids) > 1):
            cols = np.flatnonzero(ids == c)
            r, l = right[:, cols], left[:, cols]
            gram = l.T @ r
            if not np.any(gram - np.diag(np.diagonal(gram))):
                continue  # already biorthogonal: disjoint supports, as on an identity
            _biorthogonalize(r, l)
            right[:, cols], left[:, cols] = _unit_phase(r), _unit_phase(l)
        left /= np.sum(left * right, axis=0)
        for x in (right, left):
            x[:, split] = x[:, split - 1].conj()
    return ComplexEigenpairs(values, right, left, condition, residual, diagonalizable)


def eigen_from_schur(schur: SchurForm) -> ComplexEigenpairs:
    """Recover eigenvalues and left/right eigenvectors from a real Schur
    form A = Q T Q^T.

    One blocked back-substitution on T gives one right eigenvector y per
    diagonal block; the same solve on the flipped transpose J T^T J gives
    the left ones. Q rotates them back. Q is orthogonal, so the residual
    max_j ||T y_j - lam_j y_j|| / ||y_j|| is measured in Schur
    coordinates and equals that of A.

    Each block gives `_eigenpairs` one value lam (a 2x2 block the member
    of its pair with positive imaginary part) and Q y, Q z, at ||T||_F.
    """
    t, q = schur.t, schur.q
    n = t.shape[0]
    if n == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return ComplexEigenpairs(np.zeros(0, dtype=complex), empty, empty, 0.0, 0.0, True)
    sizes = np.array(schur.block_sizes)
    starts = np.cumsum(sizes) - sizes
    scale = np.linalg.norm(t)
    if scale == 0:
        scale = 1.0
    clamp = 1e-13 * scale

    lams = t[starts, starts].astype(complex)
    pair = sizes == 2
    s = starts[pair]
    a, b, c, d = t[s, s], t[s, s + 1], t[s + 1, s], t[s + 1, s + 1]
    disc = 0.25 * (a - d) ** 2 + b * c
    lams[pair] = 0.5 * (a + d) + 1j * np.sqrt(np.maximum(-disc, 0.0))
    y = _quasi_triangular_vectors(t, starts, sizes, lams, clamp)
    # a left eigenvector of T is a right eigenvector of the flipped
    # transpose J T^T J, upper quasi-triangular with its blocks reversed
    z = _quasi_triangular_vectors(t.T[::-1, ::-1].copy(), (n - starts - sizes)[::-1],
                                  sizes[::-1], lams[::-1], clamp)[::-1, ::-1]
    # on a far from normal T the back-substitution grows a column past
    # 1e154, whose squared norm overflows: scale each by its largest entry
    y /= np.max(np.abs(y), axis=0)
    z /= np.max(np.abs(z), axis=0)
    residual = _residual(t, y, lams)
    return _eigenpairs(lams, sizes, q @ y, q @ z, scale, residual)


def lift_cyclic(a: np.ndarray, groups: list[np.ndarray], blocks: list[np.ndarray],
                base: ComplexEigenpairs) -> ComplexEigenpairs:
    """Eigenpairs of a d-cyclic matrix from those of its cycle product.

    a is zero outside the m x m blocks A_g = a[groups[g], groups[g+1 mod
    d]] (given as blocks), and base holds the eigenpairs of B = A_0 A_1
    ... A_{d-1}, none of them zero. With omega = e^{2 pi i/d}, each (mu,
    x, y) of B lifts to d eigenpairs of a (Seneta, Non-negative Matrices
    and Markov Chains, 2006, ch. 1): lam_k = |mu|^{1/d} e^{i(arg mu + 2 pi
    k)/d}, whose right vector has block g = omega^{kg} lam_0^{-(d-g)} A_g
    ... A_{d-1} x (x itself at g = 0) and whose left vector has block g =
    omega^{-kg} lam_0^{-g} (A_0 ... A_{g-1})^T y.

    lam_k is real only when mu is real and arg mu + 2 pi k is a multiple
    of d pi, and the sign of a non-real lam_k's imaginary part follows
    from k as well, so integer arithmetic on k sorts the lifted values
    into real ones and conjugate pairs; no rounded imaginary part is
    read. A conjugate pair of B is lifted from its positive-imaginary
    member, and `_eigenpairs` expands each pair from that member at
    ||a||_F, measuring their condition as on every route; the residual
    is the largest relative right or left eigenvector residual on a.
    """
    d, m = len(blocks), blocks[0].shape[0]
    x, y = base.right, base.left
    # right[g] = A_g ... A_{d-1} x and left[g] = (A_0 ... A_{g-1})^T y
    right, left = np.empty((2, d, m, m), dtype=complex)
    right[0], left[0] = x, y
    for g in range(d - 1, 0, -1):
        right[g] = blocks[g] @ right[(g + 1) % d]
    for g in range(1, d):
        left[g] = blocks[g - 1].T @ left[g - 1]

    # one representative (j, k) per real lam_k and per conjugate pair,
    # the member with positive imaginary part; flip marks a lam_k below
    # the real axis, whose conjugate stands for it, and sign is +-1 for a
    # real lam_k, 0 otherwise
    reps, flip, sign = [], [], []
    for j, mu in enumerate(base.values):
        if mu.imag < 0:
            continue
        odd = int(mu.imag == 0 and mu.real < 0)  # arg mu = odd * pi when mu is real
        for k in range(d):
            t = odd + 2 * k  # (arg mu + 2 pi k) / (pi / d), for real mu
            if mu.imag > 0:
                reps.append((j, k))
                flip.append(2 * k >= d)
                sign.append(0)
            elif t <= d:
                reps.append((j, k))
                flip.append(False)
                sign.append(1 if t == 0 else -1 if t == d else 0)
    js, ks = np.array(reps).T
    mus = base.values[js]
    rho = np.abs(mus) ** (1.0 / d)
    arg = np.where(mus.imag == 0, np.where(mus.real < 0, np.pi, 0.0), np.angle(mus)) / d
    g = np.arange(d)
    up = np.where(g > 0, g - d, 0)  # block 0 of the right vector is x itself
    turn = 2.0 * np.pi * ((ks[:, None] * g) % d) / d  # omega^{kg}, exact in kg mod d
    right_coef = rho[:, None] ** up * np.exp(1j * (turn + arg[:, None] * up))
    left_coef = rho[:, None] ** -g * np.exp(-1j * (turn + arg[:, None] * g))
    lams = rho * np.exp(1j * (arg + 2.0 * np.pi * ks / d))
    sign, flip = np.array(sign), np.array(flip)
    real = sign != 0
    lams[real] = sign[real] * rho[real]
    right_coef[real] = right_coef[real].real
    left_coef[real] = left_coef[real].real

    n = d * m
    order = np.concatenate(groups)
    right_blocks = np.empty((n, len(reps)), dtype=complex)
    left_blocks = np.empty((n, len(reps)), dtype=complex)
    right_blocks[order] = (right[:, :, js] * right_coef.T[:, None, :]).reshape(n, -1)
    left_blocks[order] = (left[:, :, js] * left_coef.T[:, None, :]).reshape(n, -1)
    lams[flip] = lams[flip].conj()
    right_blocks[:, flip] = right_blocks[:, flip].conj()
    left_blocks[:, flip] = left_blocks[:, flip].conj()

    residual = max(_residual(a, right_blocks, lams), _residual(a.T, left_blocks, lams))
    return _eigenpairs(lams, np.where(real, 1, 2), right_blocks, left_blocks,
                       np.linalg.norm(a), residual)
