"""Graph Laplacians (normalized, unnormalized, directed), smoothness
spectra with the random-walk eigenpair correspondence, and the graph
Fourier transform."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# numlin, reversal and stationary run on first use (see chainkit/__init__.py),
# so a graph's Laplacian runs neither of the last two
from . import numlin, reversal, stationary
from .chain import TransitionMatrix, as_finite, require_count
from .errors import (
    DimensionMismatch,
    FormulaMismatch,
    IncompleteBasis,
    NotUndirected,
    ValidationError,
    ZeroDegree,
    applied,
)

if TYPE_CHECKING:  # annotations only: a chain's Laplacian needs no graph module
    from .graph import WeightedDigraph
    from .stationary import StationaryBasis

NORMALIZED = "normalized"
UNNORMALIZED = "unnormalized"
DIRECTED = "directed"

FORM_ATOL = 1e-10


@dataclass(frozen=True)
class LaplacianMatrix:
    """A symmetric Laplacian plus the data its dual formulas need.

    scale holds the vertex degrees (graph variants) or the stationary
    probabilities pi used (directed variant); weights holds the edge
    weights (graph variants) or the probability flow Pi P (directed
    variant). Both feed the edge-sum evaluation of the quadratic form and
    the left/right coordinate transforms. labels name the vertices
    (states), whose sorted order fixes smooth_spectrum's bases.
    """

    variant: str
    m: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.m.shape[0]


def build_laplacian(g: WeightedDigraph, variant: str) -> LaplacianMatrix:
    """Normalized I - D^{-1/2} W D^{-1/2} or unnormalized D - W, for
    undirected graphs. The two are related by D^{1/2} Lnorm D^{1/2} = L."""
    if variant not in (NORMALIZED, UNNORMALIZED):
        raise ValidationError(f"unknown Laplacian variant {variant!r}")
    if not g.is_undirected:
        raise NotUndirected("graph Laplacians require a symmetric weight matrix")
    d = g.out_degree
    if variant == NORMALIZED:
        if np.any(d <= 0):
            raise ZeroDegree("normalized Laplacian needs every degree positive")
        root = np.sqrt(d)
        m = np.eye(g.n) - g.w / np.outer(root, root)
    else:
        m = np.diag(d) - g.w
    m = 0.5 * (m + m.T)
    return LaplacianMatrix(variant=variant, m=m, scale=d, weights=g.w, labels=g.labels)


def directed_laplacian(chain: TransitionMatrix,
                       basis: StationaryBasis) -> LaplacianMatrix:
    """I - (K + K^T)/2 with K from `k_matrix`: the symmetrized Laplacian of
    a chain whose equal-weight pi is positive (`_positive_pi` raises
    NotRecurrent otherwise); the normalized Laplacian of the undirected
    member when the chain is reversible."""
    pi = stationary._positive_pi(basis, "directed Laplacian")
    k = reversal.k_matrix(chain, basis)
    m = np.eye(chain.n) - 0.5 * (k + k.T)
    flow = pi[:, None] * chain.p
    return LaplacianMatrix(variant=DIRECTED, m=m, scale=pi, weights=flow,
                           labels=chain.labels)


def quadratic_form(lap: LaplacianMatrix, x) -> float:
    """x^T L x evaluated two ways: the matrix product and the edge sum.

    For the normalized/directed variants the edge sum is
    0.5 * sum_ij w_ij (x_i/sqrt(s_i) - x_j/sqrt(s_j))^2; the unnormalized
    variant drops the scaling; x is read by `as_finite`. Disagreement
    beyond 1e-10 means a bug, not bad input, hence FormulaMismatch.
    """
    x = as_finite(x, "vector", lap.n)
    direct = float(x @ lap.m @ x)
    if lap.variant == UNNORMALIZED:
        y = x
    else:
        y = x / np.sqrt(lap.scale)
    diffs = y[:, None] - y[None, :]
    edge = 0.5 * float(np.sum(lap.weights * diffs * diffs))
    applied(form=FORM_ATOL)
    if abs(direct - edge) > FORM_ATOL * max(1.0, abs(direct), abs(edge)):
        raise FormulaMismatch(
            f"quadratic form routes disagree: {direct!r} vs {edge!r}")
    return direct


@dataclass(frozen=True)
class LaplacianSpectrum:
    """k smallest eigenpairs, ordered by smoothness (ascending value).

    vectors are orthonormal columns; left_transformed/right_transformed
    hold S^{1/2} y and S^{-1/2} y where S is the degree (or stationary)
    scaling. For the normalized variant those are left/right eigenvectors
    of the random walk with eigenvalue 1 - value.
    """

    values: np.ndarray
    vectors: np.ndarray
    left_transformed: np.ndarray
    right_transformed: np.ndarray
    full: bool


def _label_basis(v: np.ndarray, by_label: np.ndarray) -> np.ndarray:
    """The orthonormal basis of the span of v's orthonormal columns that
    pivoted Gram-Schmidt gives on the columns of the projector V V^T: the
    largest remaining column first, near-ties (within RANK_RTOL of the
    largest norm) taken in the order by_label lists the rows in.

    Column i of V V^T is V times row i of V, so the pivoting runs on the
    rows of V, and the basis depends only on the span and by_label.
    """
    m = v.shape[1]
    rest = v.copy()
    q = np.empty((m, m))
    applied(cluster=numlin.RANK_RTOL)
    for j in range(m):
        norms = np.linalg.norm(rest, axis=1)
        i = by_label[int(np.argmax(norms[by_label] >= norms.max() - numlin.RANK_RTOL))]
        q[:, j] = rest[i] / norms[i]
        if j < m - 1:
            rest -= np.outer(rest @ q[:, j], q[:, j])
    return v @ q


def _label_signs(v: np.ndarray, by_label: np.ndarray) -> np.ndarray:
    """Every column of v as `_label_basis` returns it alone, in one pass:
    times v_ij / |v_ij| at the first row i in by_label order whose |v_ij|
    = sqrt(v_ij^2) is within RANK_RTOL of the column's largest."""
    mag = np.sqrt(v * v)
    applied(cluster=numlin.RANK_RTOL)
    top = by_label[np.argmax(mag[by_label] >= mag.max(axis=0) - numlin.RANK_RTOL, axis=0)]
    cols = np.arange(v.shape[1])
    return v * (v[top, cols] / mag[top, cols]) + 0.0  # zeros come out +0, as from v @ q


def smooth_spectrum(lap: LaplacianMatrix, k: int | None = None) -> LaplacianSpectrum:
    """The k smallest eigenpairs of the Laplacian, by ascending value.

    `sym_eigen` fixes a vector only up to sign, and the vectors of a
    repeated eigenvalue only up to a rotation of their span. So every
    cluster of values (`numlin.clusters` at ||L||_F) that reaches into
    the first k takes the basis `_label_basis` builds from its span and
    the sorted vertex labels: listing the vertices in another order
    permutes the rows and nothing else. A single column's basis is the
    vector with its largest entry positive, the first by label among
    near-ties: `_label_signs` gives it to every simple eigenvalue at once.
    k must be an integer (`require_count`) in 1..n; None means n.
    """
    n = lap.n
    k = n if k is None else k
    require_count(k, "k")
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k={k} outside 1..{n}")
    values, vectors = numlin.sym_eigen(lap.m)
    by_label = np.array(sorted(range(n), key=lap.labels.__getitem__))
    size = np.bincount(numlin.clusters(values, np.linalg.norm(lap.m)), minlength=n)[:k]
    simple = np.flatnonzero(size == 1)
    vectors[:, simple] = _label_signs(vectors[:, simple], by_label)
    for first in np.flatnonzero(size > 1).tolist():
        run = slice(first, first + size[first])  # values ascend: a cluster is a run
        vectors[:, run] = _label_basis(vectors[:, run], by_label)
    values = values[:k]
    vectors = vectors[:, :k]
    root = np.sqrt(lap.scale)
    return LaplacianSpectrum(values=values, vectors=vectors,
                             left_transformed=vectors * root[:, None],
                             right_transformed=vectors / root[:, None],
                             full=(k == n))


def gft(spectrum: LaplacianSpectrum, x) -> np.ndarray:
    """Graph Fourier transform: coefficients <y_w, x> over the full
    eigenbasis, for a signal x read by `as_finite`, one entry per vertex."""
    if not spectrum.full:
        raise IncompleteBasis("transform requires the full spectrum (k = N)")
    return spectrum.vectors.T @ as_finite(x, "signal", len(spectrum.values))


def inverse_gft(spectrum: LaplacianSpectrum, coeffs) -> np.ndarray:
    """The signal whose `gft` is coeffs, read by `as_finite`, n entries."""
    if not spectrum.full:
        raise IncompleteBasis("transform requires the full spectrum (k = N)")
    return spectrum.vectors @ as_finite(coeffs, "coefficient vector", len(spectrum.values))
