"""Graph Laplacians (normalized, unnormalized, directed), smoothness
spectra with the random-walk eigenpair correspondence, and the graph
Fourier transform."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import TransitionMatrix
from .errors import (
    DimensionMismatch,
    FormulaMismatch,
    IncompleteBasis,
    NotPositiveStationary,
    NotUndirected,
    ValidationError,
    ZeroDegree,
)
from .graph import WeightedDigraph
from .numlin import sym_eigen
from .stationary import StationaryBasis, equal_weight

NORMALIZED = "normalized"
UNNORMALIZED = "unnormalized"
DIRECTED = "directed"

FORM_ATOL = 1e-10


@dataclass(frozen=True)
class LaplacianMatrix:
    """A symmetric Laplacian plus the data its dual formulas need.

    scale holds the vertex degrees (graph variants) or the stationary
    probabilities (directed variant); weights holds the edge weights
    (graph variants) or the probability flow Pi P (directed variant).
    Both feed the edge-sum evaluation of the quadratic form and the
    left/right coordinate transforms.
    """

    variant: str
    m: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    source: WeightedDigraph | None = None
    pi_used: np.ndarray | None = None

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
    return LaplacianMatrix(variant=variant, m=m, scale=d, weights=np.asarray(g.w),
                           source=g)


def directed_laplacian(chain: TransitionMatrix,
                       basis: StationaryBasis) -> LaplacianMatrix:
    """I - (Pi^{1/2} P Pi^{-1/2} + Pi^{-1/2} P^T Pi^{1/2})/2, the
    symmetrized Laplacian of a chain with strictly positive stationary
    distribution; reduces to the normalized Laplacian when the chain is
    reversible."""
    pi = equal_weight(basis)
    if np.any(pi <= 0):
        raise NotPositiveStationary(
            "directed Laplacian needs a strictly positive stationary vector; "
            "ergodify first (teleporting walk) if needed")
    root = np.sqrt(pi)
    s = chain.p * root[:, None] / root[None, :]
    m = np.eye(chain.n) - 0.5 * (s + s.T)
    m = 0.5 * (m + m.T)
    flow = pi[:, None] * chain.p
    return LaplacianMatrix(variant=DIRECTED, m=m, scale=pi, weights=flow,
                           pi_used=pi)


def quadratic_form(lap: LaplacianMatrix, x) -> float:
    """x^T L x evaluated two ways: the matrix product and the edge sum.

    For the normalized/directed variants the edge sum is
    0.5 * sum_ij w_ij (x_i/sqrt(s_i) - x_j/sqrt(s_j))^2; the unnormalized
    variant drops the scaling. Disagreement beyond 1e-10 means a bug, not
    bad input, hence FormulaMismatch.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != lap.n:
        raise DimensionMismatch(f"vector length {x.size}, expected {lap.n}")
    direct = float(x @ lap.m @ x)
    if lap.variant == UNNORMALIZED:
        y = x
    else:
        y = x / np.sqrt(lap.scale)
    diffs = y[:, None] - y[None, :]
    edge = 0.5 * float(np.sum(lap.weights * diffs * diffs))
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


def smooth_spectrum(lap: LaplacianMatrix, k: int | None = None) -> LaplacianSpectrum:
    n = lap.n
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k={k} outside 1..{n}")
    values, vectors = sym_eigen(lap.m)
    # deterministic sign: largest-magnitude entry positive
    for j in range(n):
        i = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[i, j] < 0:
            vectors[:, j] = -vectors[:, j]
    values = values[:k]
    vectors = vectors[:, :k]
    root = np.sqrt(lap.scale)
    return LaplacianSpectrum(values=values, vectors=vectors,
                             left_transformed=vectors * root[:, None],
                             right_transformed=vectors / root[:, None],
                             full=(k == n))


def gft(spectrum: LaplacianSpectrum, x) -> np.ndarray:
    """Graph Fourier transform: coefficients <y_w, x> over the full
    eigenbasis."""
    if not spectrum.full:
        raise IncompleteBasis("transform requires the full spectrum (k = N)")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != spectrum.vectors.shape[0]:
        raise DimensionMismatch("signal length does not match the basis")
    return spectrum.vectors.T @ x


def inverse_gft(spectrum: LaplacianSpectrum, coeffs) -> np.ndarray:
    if not spectrum.full:
        raise IncompleteBasis("transform requires the full spectrum (k = N)")
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    return spectrum.vectors @ coeffs
