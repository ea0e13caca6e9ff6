"""Time reversal, reversibility tests, reversibilization, and the
symmetrized kernel K = Pi^{1/2} P Pi^{-1/2}."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix, build_chain, transitions
from .errors import NotRecurrent, ValidationError
from .stationary import StationaryBasis, equal_weight
from .structure import ClassStructure

DB_ATOL = 1e-9
CYCLE_RTOL = 1e-9  # bound on |ln(fwd/rev)| of a fundamental cycle


@dataclass(frozen=True)
class ReversibilityReport:
    recurrent: bool
    reversible: bool
    semi_reversible: bool
    db_residual: float
    witness: tuple[int, ...] | None  # violating cycle, or (i, j) entry pair


@dataclass(frozen=True)
class SymmetrizedKernel:
    k: np.ndarray


def _positive_pi(basis: StationaryBasis, what: str) -> np.ndarray:
    """The equal-weight stationary pi, refused unless every entry is
    positive: a transient state has pi = 0, and so does a recurrent one
    whose probability underflows."""
    pi = equal_weight(basis)
    if np.any(pi <= 0):
        raise NotRecurrent(f"{what} requires strictly positive pi")
    return pi


def time_reverse(chain: TransitionMatrix, basis: StationaryBasis) -> TransitionMatrix:
    """Transition matrix of the time-reversed chain, P_rev = Pi^-1 P^T Pi,
    with pi the equal-weight combination of the class distributions."""
    pi = _positive_pi(basis, "time reversal")
    p_rev = chain.p.T * pi[None, :] / pi[:, None]
    return build_chain(chain.labels, p_rev)


def _db_residual(p: np.ndarray, pi: np.ndarray) -> tuple[float, tuple[int, int]]:
    flow = pi[:, None] * p
    gap = np.abs(flow - flow.T)
    i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap[i, j]), (int(i), int(j))


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
    edge = transitions(p)
    np.fill_diagonal(edge, False)
    if not np.array_equal(edge, edge.T):
        i, j = np.argwhere(edge & ~edge.T)[0]
        return False, (int(i), int(j)), None
    n = p.shape[0]
    log_ratio = np.zeros_like(p)
    log_ratio[edge] = np.log(p[edge]) - np.log(p.T[edge])
    succ = [np.flatnonzero(row).tolist() for row in edge]
    parent = [-1] * n
    depth = [-1] * n
    phi = np.zeros(n)
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for u in queue:  # grows while it is walked: a BFS
            for v in succ[u]:
                if depth[v] < 0:
                    depth[v], parent[v] = depth[u] + 1, u
                    phi[v] = phi[u] + log_ratio[u, v]
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
                  basis: StationaryBasis, kolmogorov: bool = False) -> ReversibilityReport:
    """Detailed-balance test by default; Kolmogorov cycle mode on request.

    Recurrent chains: one strictly positive stationary pi suffices.
    Non-recurrent chains are never reversible; semi-reversibility re-tests
    after deleting the transient states (the recurrent classes are closed,
    so the restriction is stochastic). With the combined pi the transient
    rows and columns of the flow gap vanish identically, so one residual
    serves both cases.
    """
    pi = equal_weight(basis)
    residual, pair = _db_residual(chain.p, pi)
    recurrent = structure.recurrent_chain
    semi = residual <= DB_ATOL
    reversible = recurrent and semi
    witness: tuple[int, ...] | None = None
    if recurrent and not reversible:
        witness = pair
    if kolmogorov and recurrent:
        ok, cyc_witness, _ = _kolmogorov(chain.p)
        reversible = ok
        semi = ok
        witness = None if ok else cyc_witness
    return ReversibilityReport(recurrent=recurrent, reversible=reversible,
                               semi_reversible=semi, db_residual=residual,
                               witness=witness)


def reversibilize(chain: TransitionMatrix, basis: StationaryBasis,
                  mode: str) -> TransitionMatrix:
    """Additive (P + P_rev)/2 or multiplicative P P_rev reversibilization.

    Both preserve the stationary distributions and have symmetric flow.
    """
    pi = _positive_pi(basis, "reversibilization")
    p_rev = chain.p.T * pi[None, :] / pi[:, None]
    if mode == "additive":
        out = 0.5 * (chain.p + p_rev)
    elif mode == "multiplicative":
        out = chain.p @ p_rev
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return build_chain(chain.labels, out)


def k_matrix(chain: TransitionMatrix, basis: StationaryBasis) -> SymmetrizedKernel:
    """K = Pi^{1/2} P Pi^{-1/2}; symmetry of K is equivalent to
    reversibility, and K does not depend on which strictly positive
    stationary distribution is used."""
    root = np.sqrt(_positive_pi(basis, "K-matrix"))
    k = (chain.p * root[:, None]) / root[None, :]
    return SymmetrizedKernel(k=k)
