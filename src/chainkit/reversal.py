"""Time reversal, reversibility tests, reversibilization, and the
symmetrized kernel K = Pi^{1/2} P Pi^{-1/2}."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix, _frozen_chain
from .errors import ValidationError, applied
from .stationary import StationaryBasis, _positive_pi, equal_weight
from .structure import ClassStructure

CYCLE_RTOL = 1e-9  # bound on |ln(fwd/rev)| of a fundamental cycle


@dataclass(frozen=True)
class ReversibilityReport:
    recurrent: bool
    reversible: bool
    semi_reversible: bool
    db_residual: float  # max |pi_i P_ij - pi_j P_ji|, measured, not a verdict
    witness: tuple[int, ...] | None  # violating cycle, or (i, j) edge without (j, i)


def _p_rev(chain: TransitionMatrix, basis: StationaryBasis, what: str) -> np.ndarray:
    """P_rev = Pi^-1 P^T Pi under the equal-weight pi (`_positive_pi`)."""
    pi = _positive_pi(basis, what)
    return chain.p.T * pi[None, :] / pi[:, None]


def time_reverse(chain: TransitionMatrix, basis: StationaryBasis) -> TransitionMatrix:
    """Transition matrix of the time-reversed chain, P_rev = Pi^-1 P^T Pi,
    whose support is that of P^T."""
    return _frozen_chain(chain.labels, _p_rev(chain, basis, "time reversal"))


def _db_residual(p: np.ndarray, pi: np.ndarray) -> float:
    flow = pi[:, None] * p
    return float(np.max(np.abs(flow - flow.T)))


def _kolmogorov(p: np.ndarray) -> tuple[bool, tuple[int, ...] | None, np.ndarray | None]:
    """Kolmogorov's cycle criterion on the chain's digraph, diagonal
    ignored (Kelly, Reversibility and Stochastic Networks, 1979, 1.5).
    Returns (reversible, witness, phi).

    An asymmetric pattern is a violation, witnessed by the pair (i, j)
    with i -> j but not j -> i. Otherwise a BFS spanning forest carries
    the potential phi[v] = ln(fwd/rev) of the tree path from its root to
    v. The fundamental cycles of the non-tree edges span the cycle space,
    so the criterion holds iff every non-tree edge i - j has
    |phi[i] + ln p_ij - ln p_ji - phi[j]| <= CYCLE_RTOL. The witness is
    the first failing fundamental cycle, oriented so that fwd > rev: a
    simple cycle of length at least 3 whose consecutive states are edges.
    When the criterion holds, phi is ln pi up to one additive constant per
    connected component, and None otherwise.
    """
    edge = p > 0
    np.fill_diagonal(edge, False)
    if not np.array_equal(edge, edge.T):
        i, j = np.argwhere(edge & ~edge.T)[0]
        return False, (int(i), int(j)), None
    applied(cycle=CYCLE_RTOL)
    n = p.shape[0]
    log_ratio = np.zeros_like(p)
    log_ratio[edge] = np.log(p[edge]) - np.log(p.T[edge])
    parent = [-1] * n
    depth = [-1] * n
    phi = np.zeros(n)
    unseen = n
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        unseen -= 1
        queue = [root]
        for u in queue:  # grows while it is walked: a BFS
            if not unseen:  # every state found: no further row adds a tree edge
                break
            for v in np.flatnonzero(edge[u]).tolist():
                if depth[v] < 0:
                    depth[v], parent[v] = depth[u] + 1, u
                    phi[v] = phi[u] + log_ratio[u, v]
                    unseen -= 1
                    queue.append(v)
    gap = phi[:, None] + log_ratio - phi[None, :]
    failing = np.argwhere(np.triu(edge) & (np.abs(gap) > CYCLE_RTOL))
    if not failing.size:
        return True, None, phi
    i, j = (int(v) for v in failing[0])
    up_i, up_j = [i], [j]  # tree paths climbed to the common ancestor
    while up_i[-1] != up_j[-1]:
        if depth[up_i[-1]] >= depth[up_j[-1]]:
            up_i.append(parent[up_i[-1]])
        else:
            up_j.append(parent[up_j[-1]])
    cycle = up_i[::-1] + up_j[:-1]  # ancestor ... i, j ... back to ancestor
    if gap[i, j] < 0:
        cycle.reverse()
    return False, tuple(cycle), None


def reversibility(chain: TransitionMatrix, structure: ClassStructure,
                  basis: StationaryBasis) -> ReversibilityReport:
    """Kolmogorov's cycle criterion (`_kolmogorov`) on P restricted to the
    states of the closed classes, a stochastic matrix because the classes
    are closed: that verdict is semi-reversibility. The chain is
    reversible iff it is also recurrent, and then a failing criterion's
    pair or fundamental cycle is the witness, in state indices.
    db_residual, the largest gap |pi_i P_ij - pi_j P_ji| under the
    equal-weight pi (transient rows and columns vanish), is reported as a
    measurement; no threshold is applied to it.
    """
    recurrent = structure.recurrent_chain
    closed = np.flatnonzero(np.array(structure.recurrent)[list(structure.class_of)])
    semi, witness, _ = _kolmogorov(chain.p[np.ix_(closed, closed)])
    return ReversibilityReport(recurrent=recurrent, reversible=recurrent and semi,
                               semi_reversible=semi,
                               db_residual=_db_residual(chain.p, equal_weight(basis)),
                               witness=witness if recurrent else None)


def reversibilize(chain: TransitionMatrix, basis: StationaryBasis,
                  mode: str) -> TransitionMatrix:
    """Additive (P + P_rev)/2 or multiplicative P P_rev reversibilization.

    Both preserve the stationary distributions and have symmetric flow.
    """
    p_rev = _p_rev(chain, basis, "reversibilization")
    if mode == "additive":
        out = 0.5 * (chain.p + p_rev)
    elif mode == "multiplicative":
        out = chain.p @ p_rev
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return _frozen_chain(chain.labels, out)


def k_matrix(chain: TransitionMatrix, basis: StationaryBasis) -> np.ndarray:
    """K = Pi^{1/2} P Pi^{-1/2}; K_ij / K_ji = pi_i P_ij / (pi_j P_ji), so K
    is symmetric exactly when `reversibility` says reversible (pi > 0 makes
    the chain recurrent). K does not depend on which strictly positive
    stationary distribution is used."""
    root = np.sqrt(_positive_pi(basis, "K-matrix"))
    return (chain.p * root[:, None]) / root[None, :]
