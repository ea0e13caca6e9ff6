"""Absorbing chains: canonical block form and the fundamental matrix."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import TransitionMatrix
from .errors import NotAbsorbing
from .gth import _gth_censor
from .structure import ClassStructure


@dataclass(frozen=True)
class AbsorbingDecomposition:
    """Permuted view [[Q, R], [0, I]] of an absorbing chain.

    permutation lists original state indices, transient states first,
    original order preserved inside each block.
    """

    permutation: tuple[int, ...]
    q: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    t: int
    a: int


@dataclass(frozen=True)
class FundamentalMatrix:
    """N = (I-Q)^{-1}: expected visits to each transient state, and the
    expected number of steps to absorption N @ ones."""

    n: np.ndarray
    expected_steps: np.ndarray


def canonical_form(chain: TransitionMatrix,
                   structure: ClassStructure) -> AbsorbingDecomposition:
    if not structure.absorbing_chain:
        raise NotAbsorbing("every state must reach an absorbing state")
    absorbing = set(structure.absorbing_states)
    transient = [i for i in range(chain.n) if i not in absorbing]
    order = transient + sorted(absorbing)
    t, a = len(transient), len(absorbing)
    p = chain.p[np.ix_(order, order)]
    return AbsorbingDecomposition(permutation=tuple(order),
                                  q=p[:t, :t], r=p[:t, t:], t=t, a=a)


def fundamental_matrix(decomp: AbsorbingDecomposition) -> FundamentalMatrix:
    """N = (I-Q)^{-1} by GTH state reduction, without a subtraction.

    With the absorbing states first, `_gth_censor` reduces the transient
    states onto them; pivot s_k is state k's censored outflow, summed
    over its off-diagonal Q row and its R row, never the 1 - q_kk that
    cancels when absorption is rare. That factors I - Q = (I - U) D
    (I - L) with D = diag(s), U the scaled columns left above the
    diagonal and L the rows below it over s. Both inverses are
    nonnegative, so N = (I - L)^{-1} D^{-1} (I - U)^{-1} takes a
    bottom-up and a top-down row pass that only add nonnegative terms.
    """
    t, a = decomp.t, decomp.a
    g = np.zeros((a + t, a + t))
    g[a:, :a] = decomp.r
    g[a:, a:] = decomp.q
    s = _gth_censor(g, a)
    u = g[a:, a:]
    n = np.eye(t)
    for k in range(t - 2, -1, -1):
        n[k, k + 1:] = u[k, k + 1:] @ n[k + 1:, k + 1:]
    n /= s[:, None]
    for k in range(1, t):
        n[k] += u[k, :k] / s[k] @ n[:k]
    return FundamentalMatrix(n=n, expected_steps=n.sum(axis=1))
