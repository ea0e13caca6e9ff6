"""Birth-death line chains used by the demo command and the docs.

A length-n path with rightward probability p_right at every interior
state and probability-conserving self-loops at the two ends. The
perturbed variant jitters each state's bias by an independent uniform
draw in [-perturb, perturb] from numpy's default generator seeded with
`seed`, which must not be negative, and clips the jittered bias to
[1e-3, 1 - 1e-3], so every move keeps probability at least 1e-3;
`perturb` must not be negative. Rows always still sum to one, so the
all-ones vector remains the right eigenvector for eigenvalue 1. n and
the seed are read by `require_count`, p_right and perturb by `as_finite`.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import TransitionMatrix, as_finite, build_chain, require_count
from .errors import ValidationError


def line_chain(n: int = 100, p_right: float = 0.52, perturb: float = 0.0,
               seed: int = 0) -> TransitionMatrix:
    require_count(n, "line chain states", least=2)
    if n > math.isqrt(np.iinfo(np.intp).max // 8):  # refused before anything is allocated
        raise ValidationError(f"line chain of {n} states is too large: numpy cannot "
                              "index its n * n float64 entries")
    p_right, = as_finite(p_right, "p_right", 1)
    if not 0.0 < p_right < 1.0:
        raise ValidationError("p_right must be strictly between 0 and 1")
    perturb, = as_finite(perturb, "perturb", 1)
    if perturb < 0.0:
        raise ValidationError(f"perturb must be finite and not negative, got {perturb}")
    require_count(seed, "seed")
    right = np.full(n, p_right)
    if perturb > 0.0:
        rng = np.random.default_rng(seed)
        # uniform(-perturb, perturb) drawn at half width and doubled: the
        # same doubles for a normal perturb (doubling is exact), where the
        # width 2 * perturb that numpy forms overflows above 8.9e307
        right = right + 2 * rng.uniform(-perturb / 2, perturb / 2, size=n)
        right = np.clip(right, 1e-3, 1.0 - 1e-3)
    p = np.diag(right[:-1], 1) + np.diag(1.0 - right[1:], -1)
    p[0, 0] = 1.0 - right[0]  # left move reflects into a self-loop
    p[-1, -1] = right[-1]  # right move reflects into a self-loop
    labels = [f"s{i + 1}" for i in range(n)]
    return build_chain(labels, p)
