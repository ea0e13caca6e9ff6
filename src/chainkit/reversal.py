"""Time reversal, reversibility tests, reversibilization, and the
symmetrized kernel K = Pi^{1/2} P Pi^{-1/2}."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix, build_chain
from .errors import CycleCapExceeded, NotRecurrent
from .stationary import StationaryBasis, equal_weight
from .structure import ClassStructure

DB_ATOL = 1e-9
CYCLE_RTOL = 1e-9
CYCLE_STATE_CAP = 12


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


def _positive_pi(chain: TransitionMatrix, structure: ClassStructure,
                 basis: StationaryBasis) -> np.ndarray:
    if not structure.recurrent_chain:
        raise NotRecurrent("operation requires every state to be recurrent")
    return equal_weight(basis)


def time_reverse(chain: TransitionMatrix, structure: ClassStructure,
                 basis: StationaryBasis) -> TransitionMatrix:
    """Transition matrix of the time-reversed chain, P_rev = Pi^-1 P^T Pi,
    with pi the equal-weight combination of the class distributions."""
    pi = _positive_pi(chain, structure, basis)
    p_rev = chain.p.T * pi[None, :] / pi[:, None]
    return build_chain(chain.labels, p_rev)


def _db_residual(p: np.ndarray, pi: np.ndarray) -> tuple[float, tuple[int, int]]:
    flow = pi[:, None] * p
    gap = np.abs(flow - flow.T)
    i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap[i, j]), (int(i), int(j))


def simple_cycles(p: np.ndarray, min_len: int = 3):
    """Lazily enumerate simple cycles of the positive-entry digraph,
    rooted at their smallest vertex; capped at CYCLE_STATE_CAP states."""
    n = p.shape[0]
    if n > CYCLE_STATE_CAP:
        raise CycleCapExceeded(f"cycle enumeration capped at {CYCLE_STATE_CAP} states")
    adj = [[j for j in range(n) if p[i, j] > 0] for i in range(n)]
    for start in range(n):
        path = [start]
        blocked = {start}

        def dfs(v: int):
            for w in adj[v]:
                if w < start:
                    continue
                if w == start:
                    if len(path) >= min_len:
                        yield tuple(path)
                elif w not in blocked:
                    blocked.add(w)
                    path.append(w)
                    yield from dfs(w)
                    path.pop()
                    blocked.discard(w)

        yield from dfs(start)


def _kolmogorov(p: np.ndarray) -> tuple[bool, tuple[int, ...] | None]:
    """Cycle-product criterion. Requires a symmetric zero pattern first;
    an asymmetric entry is itself a violation witness."""
    pos = p > 0
    if not np.array_equal(pos, pos.T):
        i, j = np.argwhere(pos & ~pos.T)[0]
        return False, (int(i), int(j))
    for cyc in simple_cycles(p):
        fwd = 1.0
        rev = 1.0
        m = len(cyc)
        for a in range(m):
            b = (a + 1) % m
            fwd *= p[cyc[a], cyc[b]]
            rev *= p[cyc[b], cyc[a]]
        if abs(fwd - rev) > CYCLE_RTOL * max(abs(fwd), abs(rev), 1e-300):
            return False, cyc
    return True, None


def reversibility(chain: TransitionMatrix, structure: ClassStructure,
                  basis: StationaryBasis, kolmogorov: bool = False,
                  tol: float = DB_ATOL) -> ReversibilityReport:
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
    semi = residual <= tol
    reversible = recurrent and semi
    witness: tuple[int, ...] | None = None
    if recurrent and not reversible:
        witness = pair
    if kolmogorov and recurrent:
        ok, cyc_witness = _kolmogorov(chain.p)
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
    pi = equal_weight(basis)
    if np.any(pi <= 0):
        raise NotRecurrent("reversibilization requires strictly positive pi")
    p_rev = chain.p.T * pi[None, :] / pi[:, None]
    if mode == "additive":
        out = 0.5 * (chain.p + p_rev)
    elif mode == "multiplicative":
        out = chain.p @ p_rev
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return build_chain(chain.labels, out)


def k_matrix(chain: TransitionMatrix, basis: StationaryBasis) -> SymmetrizedKernel:
    """K = Pi^{1/2} P Pi^{-1/2}; symmetry of K is equivalent to
    reversibility, and K does not depend on which strictly positive
    stationary distribution is used."""
    pi = equal_weight(basis)
    if np.any(pi <= 0):
        raise NotRecurrent("K-matrix requires strictly positive pi")
    root = np.sqrt(pi)
    k = (chain.p * root[:, None]) / root[None, :]
    return SymmetrizedKernel(k=k)


def pi_inner(pi: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Inner product weighted by the stationary probabilities."""
    return float(np.sum(pi * x * y))
