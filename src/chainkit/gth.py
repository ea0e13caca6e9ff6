"""The Grassmann-Taksar-Heyman (GTH) state reduction and the input
checks every dense kernel shares.

Stationary vectors, PageRank and absorption share one subtraction-free
GTH state reduction in left-looking panels of GTH_PANEL, down to state 1
or down to the absorbing states. It lives apart from the eigen kernels
of `numlin`, so a command that needs only GTH never runs those. Every
kernel rejects non-finite input with NumericError before it starts.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NumericError, SingularMatrix

RESCALE_LIMIT = 1e150  # stationary_gth and numlin._quasi_triangular_vectors rescale past this
GTH_PANEL = 32  # states per left-looking panel of _gth_censor: one leading-block product each


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} has non-finite entries")


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a, "matrix")
    return a


def _gth_censor(a: np.ndarray, stop: int) -> np.ndarray:
    """Censor states m-1, ..., stop out of the nonnegative a, in place,
    and return their pivot sums s_k = sum_{j<k} a[k, j] (GTH: Grassmann,
    Taksar & Heyman, Oper. Res. 33(5), 1985). Column k is left scaled to
    a[:k, k] / s_k, row k as it stood when state k was censored.

    States go in left-looking panels [k0, k1) of GTH_PANEL from the last
    one down, the last panel ending at stop: when state k's turn comes,
    its row a[k, :k] takes the updates of the panel states k+1, ...,
    k1-1 as one matrix-vector product and gives the pivot, its column
    a[:k, k] takes theirs as another, scaled in the same pass, and after
    the panel the leading block a[:k0, :k0] takes the whole panel's
    updates as one matrix product. The diagonal is never read and
    nothing is subtracted, so every entry has a small relative error
    (O'Cinneide, Numer. Math. 65, 1993). Raises SingularMatrix when some
    s_k is not positive: state k cannot reach the states below it.
    """
    m = a.shape[0]
    pivots = np.zeros(m - stop)
    for k1 in range(m, stop, -GTH_PANEL):
        k0 = max(k1 - GTH_PANEL, stop)
        for k in range(k1 - 1, k0 - 1, -1):
            a[k, :k] += a[k, k + 1:k1] @ a[k + 1:k1, :k]
            s = pivots[k - stop] = a[k, :k].sum()
            if not s > 0:
                raise SingularMatrix(f"state {k} cannot reach states 0..{k - 1}: "
                                     "matrix is reducible")
            a[:k, k] = (a[:k, k] + a[:k, k + 1:k1] @ a[k + 1:k1, k]) / s
        a[:k0, :k0] += a[:k0, k0:k1] @ a[k0:k1, :k0]
    return pivots


def stationary_gth(a) -> np.ndarray:
    """Stationary row vector of an irreducible nonnegative square matrix:
    `_gth_censor` of states m-1, ..., 1, back-substitution from x[0] = 1
    and one normalization. Raises SingularMatrix on a reducible input and
    DimensionMismatch on a 0x0 one."""
    a = _as_square(a).copy()
    m = a.shape[0]
    if m == 0:
        raise DimensionMismatch("a 0x0 matrix has no stationary vector")
    _gth_censor(a, 1)
    x = np.zeros(m)
    x[0] = 1.0
    for k in range(1, m):
        x[k] = x[:k] @ a[:k, k]
        if x[k] > RESCALE_LIMIT:  # keep x[:k+1] finite when pi spans > 1e308
            x[:k + 1] /= x[k]
    return x / x.sum()
