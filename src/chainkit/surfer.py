"""Teleporting random walk: Google-matrix construction and PageRank-style
power iteration. The main use here is ergodification: any chain becomes
irreducible and aperiodic once a strictly positive teleport is mixed in."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix, build_chain, validate_distribution
from .errors import BadAlpha, BadTolerance, NoConvergence

PAGERANK_TOL = 1e-12
PAGERANK_MAX_ITERS = 100_000
DENSE_CUTOFF = 64  # above this, never materialize the ones matrix


@dataclass(frozen=True)
class SurferConfig:
    alpha: float
    teleport: np.ndarray | None = None  # None means uniform

    def teleport_vector(self, n: int) -> np.ndarray:
        if self.teleport is None:
            return np.full(n, 1.0 / n)
        return validate_distribution(self.teleport, n)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise BadAlpha(f"damping factor {alpha} outside [0, 1]")


def google_matrix(chain: TransitionMatrix, config: SurferConfig) -> TransitionMatrix:
    """P' = alpha P + (1 - alpha) ones teleport^T."""
    _check_alpha(config.alpha)
    if config.alpha == 1.0:
        return chain
    tel = config.teleport_vector(chain.n)
    p = config.alpha * chain.p + (1.0 - config.alpha) * tel[None, :]
    return build_chain(chain.labels, p)


def pagerank(chain: TransitionMatrix, config: SurferConfig,
             tol: float = PAGERANK_TOL,
             max_iters: int = PAGERANK_MAX_ITERS) -> np.ndarray:
    """Stationary distribution of the teleporting walk by power iteration
    from the uniform start, stopping at ||mu_{k+1} - mu_k||_1 <= tol.

    For large chains the teleport term is applied as an outer-product
    update (mu sums to one, so the teleport contribution is just
    (1 - alpha) * teleport), never materializing the dense mixed matrix.
    """
    _check_alpha(config.alpha)
    if config.alpha >= 1.0:
        raise BadAlpha("pagerank requires damping strictly below 1")
    if not 0.0 <= tol < np.inf:
        raise BadTolerance(f"pagerank tolerance {tol} is not a finite number >= 0")
    tel = config.teleport_vector(chain.n)
    if np.any(tel <= 0):
        raise BadAlpha("pagerank requires a strictly positive teleport vector")
    n = chain.n
    mu = np.full(n, 1.0 / n)
    if n <= DENSE_CUTOFF:
        p_mix = google_matrix(chain, config).p
        step = lambda v: v @ p_mix
    else:
        step = lambda v: config.alpha * (v @ chain.p) + (1.0 - config.alpha) * tel
    for _ in range(max_iters):
        nxt = step(mu)
        if np.sum(np.abs(nxt - mu)) <= tol:
            return nxt / nxt.sum()
        mu = nxt
    raise NoConvergence("power iteration did not reach the requested tolerance")
