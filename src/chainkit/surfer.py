"""Teleporting random walk: Google-matrix construction and PageRank as
the stationary distribution of the teleporting walk. The main use here
is ergodification: any chain becomes irreducible and aperiodic once a
strictly positive teleport is mixed in. The damping is read once, by
`as_finite`; the teleport once, by `validate_distribution` (uniform
when None)."""

from __future__ import annotations

import numpy as np

from .chain import TransitionMatrix, _frozen_chain, as_finite, validate_distribution
from .errors import BadAlpha
from .gth import stationary_gth


def _google(chain: TransitionMatrix, damping: float, teleport,
            positive: bool = False) -> TransitionMatrix:
    """G = damping P + (1 - damping) ones teleport^T for a damping already
    read; BadAlpha if `positive` and the teleport has a zero entry."""
    n = chain.n
    tel = np.full(n, 1.0 / n) if teleport is None else validate_distribution(teleport, n)
    if positive and np.any(tel <= 0):
        raise BadAlpha("pagerank requires a strictly positive teleport vector")
    if damping == 1.0:
        return chain
    return _frozen_chain(chain.labels, damping * chain.p + (1.0 - damping) * tel[None, :])


def google_matrix(chain: TransitionMatrix, damping, teleport=None) -> TransitionMatrix:
    """The teleporting walk at `damping` in [0, 1], checked in place; at 1
    it is the chain itself, once the teleport has been read."""
    damping, = as_finite(damping, "damping", 1)
    if not 0.0 <= damping <= 1.0:
        raise BadAlpha(f"damping factor {damping} outside [0, 1]")
    return _google(chain, damping, teleport)


def pagerank(chain: TransitionMatrix, damping,
             teleport=None) -> tuple[np.ndarray, TransitionMatrix]:
    """(pi, google): the Google matrix at `damping` and its stationary
    distribution by GTH elimination, accurate entry by entry at any
    damping below 1.

    Damping strictly below 1 and a strictly positive teleport vector
    make every entry of G positive, so the walk is irreducible; anything
    else raises BadAlpha.
    """
    damping, = as_finite(damping, "damping", 1)
    if not 0.0 <= damping < 1.0:
        raise BadAlpha(f"pagerank requires damping in [0, 1), got {damping}")
    google = _google(chain, damping, teleport, positive=True)
    return stationary_gth(google.p), google
