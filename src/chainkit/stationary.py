"""Stationary distributions: one basis vector per recurrent class,
convex combinations, and the flow matrix / global-balance checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ROW_SUM_ATOL, TransitionMatrix, as_finite
from .errors import NotRecurrent, NumericError, ValidationError, applied
from .gth import stationary_gth
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
    """Convex combination of the basis vectors, with one weight per
    recurrent class (read by `as_finite`)."""
    alphas = as_finite(alphas, "weight vector", len(basis.class_ids))
    applied(row_sum=ROW_SUM_ATOL)
    if np.any(alphas < 0) or abs(alphas.sum() - 1.0) > ROW_SUM_ATOL:
        raise ValidationError("weights must be nonnegative and sum to one")
    return alphas @ basis.vectors


def equal_weight(basis: StationaryBasis) -> np.ndarray:
    k = len(basis.class_ids)
    return combine(basis, np.full(k, 1.0 / k))


def _positive_pi(basis: StationaryBasis, what: str) -> np.ndarray:
    """The equal-weight stationary pi, the one gate on pi of every
    Pi-weighted view: NotRecurrent unless every entry is positive (a
    transient state, or a recurrent one whose probability underflows)."""
    pi = equal_weight(basis)
    if np.any(pi <= 0):
        raise NotRecurrent(f"{what} requires strictly positive pi")
    return pi


def is_stationary(chain: TransitionMatrix, pi) -> bool:
    """pi P = pi within STATIONARITY_ATOL, pi read by `as_finite`, n entries."""
    pi = as_finite(pi, "stationary vector", chain.n)
    on = np.flatnonzero(pi)  # only the support adds to pi P
    applied(stationarity=STATIONARITY_ATOL)
    return bool(np.max(np.abs(pi[on] @ chain.p[on] - pi)) <= STATIONARITY_ATOL)


def flow_matrix(chain: TransitionMatrix, pi) -> np.ndarray:
    """Probability flow F = diag(pi) P for a stationary pi.

    Global balance holds by construction: row sums and column sums of F
    both equal pi. pi is read by `as_finite`, as `is_stationary` reads it.
    """
    pi = as_finite(pi, "stationary vector", chain.n)
    if not is_stationary(chain, pi):
        raise ValidationError("pi is not stationary for this chain")
    return pi[:, None] * chain.p
