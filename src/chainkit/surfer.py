"""Teleporting random walk: Google-matrix construction and PageRank as
the stationary distribution of the teleporting walk. The main use here
is ergodification: any chain becomes irreducible and aperiodic once a
strictly positive teleport is mixed in."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix, _frozen_chain, validate_distribution
from .errors import BadAlpha
from .gth import stationary_gth


@dataclass(frozen=True)
class SurferConfig:
    alpha: float
    teleport: np.ndarray | None = None  # None means uniform

    def teleport_vector(self, n: int) -> np.ndarray:
        if self.teleport is None:
            return np.full(n, 1.0 / n)
        return validate_distribution(self.teleport, n)


def google_matrix(chain: TransitionMatrix, config: SurferConfig) -> TransitionMatrix:
    """P' = alpha P + (1 - alpha) ones teleport^T, checked in place."""
    if not 0.0 <= config.alpha <= 1.0:
        raise BadAlpha(f"damping factor {config.alpha} outside [0, 1]")
    if config.alpha == 1.0:
        return chain
    tel = config.teleport_vector(chain.n)
    p = config.alpha * chain.p + (1.0 - config.alpha) * tel[None, :]
    return _frozen_chain(chain.labels, p)


def pagerank_matrix(chain: TransitionMatrix, config: SurferConfig) -> TransitionMatrix:
    """The Google matrix whose stationary distribution is PageRank.

    Damping strictly below 1 and a strictly positive teleport vector
    make every entry positive, so the walk is irreducible; anything
    else raises BadAlpha.
    """
    if not 0.0 <= config.alpha < 1.0:
        raise BadAlpha(f"pagerank requires damping in [0, 1), got {config.alpha}")
    if np.any(config.teleport_vector(chain.n) <= 0):
        raise BadAlpha("pagerank requires a strictly positive teleport vector")
    return google_matrix(chain, config)


def pagerank(chain: TransitionMatrix, config: SurferConfig) -> np.ndarray:
    """Stationary distribution of pagerank_matrix(chain, config) by GTH
    elimination, accurate entry by entry at any damping below 1."""
    return stationary_gth(pagerank_matrix(chain, config).p)
