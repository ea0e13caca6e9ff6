"""Stationary distributions: one basis vector per recurrent class,
convex combinations, and the flow matrix / global-balance checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ROW_SUM_ATOL, TransitionMatrix
from .errors import DimensionMismatch, NumericError, ValidationError
from .numlin import stationary_gth
from .structure import ClassStructure

STATIONARITY_ATOL = 1e-10


@dataclass(frozen=True)
class StationaryBasis:
    """Extremal stationary distributions, one per recurrent class.

    vectors[k] is a full-length distribution supported on class
    class_ids[k]; every stationary distribution of the chain is a convex
    combination of these.
    """

    class_ids: tuple[int, ...]
    vectors: np.ndarray  # shape (num_recurrent_classes, n)

    @property
    def unique(self) -> bool:
        return len(self.class_ids) == 1


def stationary_basis(chain: TransitionMatrix,
                     structure: ClassStructure) -> StationaryBasis:
    """GTH on each closed class's block; raises NumericError if a vector
    misses pi P = pi by more than STATIONARITY_ATOL."""
    ids = []
    vecs = []
    for c, members in enumerate(structure.classes):
        if not structure.recurrent[c]:
            continue
        members = list(members)
        pi = np.zeros(chain.n)
        pi[members] = stationary_gth(chain.p[np.ix_(members, members)])
        if not is_stationary(chain, pi):
            raise NumericError(f"stationary vector of class {c} fails the "
                               f"{STATIONARITY_ATOL:g} balance check")
        ids.append(c)
        vecs.append(pi)
    return StationaryBasis(class_ids=tuple(ids), vectors=np.array(vecs))


def combine(basis: StationaryBasis, alphas) -> np.ndarray:
    """Convex combination of the basis vectors."""
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    if alphas.size != len(basis.class_ids):
        raise DimensionMismatch("one weight per recurrent class required")
    if np.any(alphas < 0) or abs(alphas.sum() - 1.0) > ROW_SUM_ATOL:
        raise ValidationError("weights must be nonnegative and sum to one")
    return alphas @ basis.vectors


def equal_weight(basis: StationaryBasis) -> np.ndarray:
    k = len(basis.class_ids)
    return combine(basis, np.full(k, 1.0 / k))


def is_stationary(chain: TransitionMatrix, pi,
                  atol: float = STATIONARITY_ATOL) -> bool:
    pi = np.asarray(pi, dtype=float)
    on = np.flatnonzero(pi)  # only the support adds to pi P
    return bool(np.max(np.abs(pi[on] @ chain.p[on] - pi)) <= atol)


def flow_matrix(chain: TransitionMatrix, pi) -> np.ndarray:
    """Probability flow F = diag(pi) P for a stationary pi.

    Global balance holds by construction: row sums and column sums of F
    both equal pi.
    """
    pi = np.asarray(pi, dtype=float)
    if not is_stationary(chain, pi):
        raise ValidationError("pi is not stationary for this chain")
    return pi[:, None] * chain.p
