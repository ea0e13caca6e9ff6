"""Core Markov chain objects: validated transition matrices, distribution
evolution, conditional expectation, and trajectory sampling.

Distributions and state functions are plain numpy vectors; validators at
the API boundary enforce their contracts. Row-vector convention
throughout: a distribution evolves as mu(t+k)^T = mu(t)^T P^k.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadCount,
    BadLabel,
    DimensionMismatch,
    DuplicateLabel,
    NegativeEntry,
    NonFiniteEntry,
    RowSumViolation,
    UnknownLabel,
    ValidationError,
)

ROW_SUM_ATOL = 1e-9
ENTRY_CLAMP = 1e-12  # |entry| at most this is roundoff: never a transition
SAMPLE_BLOCK = 1 << 20  # uniforms drawn at once by sample and occupancy


def as_finite(values, what: str) -> np.ndarray:
    """A float array of `values`, refusing unreadable or non-finite input."""
    try:
        out = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} is not a numeric array") from None
    if not np.all(np.isfinite(out)):
        raise NonFiniteEntry(f"{what} has a non-finite entry")
    return out


def as_labels(labels) -> tuple[str, ...]:
    """State labels as strings, from a string of one-character labels or
    a list of strings and numbers."""
    if not isinstance(labels, (str, list, tuple, np.ndarray)):
        raise BadLabel(f"state labels must be a list, not {type(labels).__name__}")
    for x in labels:
        if not isinstance(x, (str, int, float, np.generic)):
            raise BadLabel(f"state label {x!r} is not a string or a number")
    return tuple(str(x) for x in labels)


def transitions(p: np.ndarray) -> np.ndarray:
    """The chain's digraph as a boolean matrix: i -> j is a transition
    iff P[i, j] exceeds ENTRY_CLAMP. Classes, periods, absorbing states
    and Kolmogorov's criterion all read this one relation."""
    return p > ENTRY_CLAMP


def require_count(value: int, what: str, least: int = 0) -> None:
    if value < least:
        raise BadCount(f"{what} must be at least {least}, got {value}")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over a labelled finite state space."""

    labels: tuple[str, ...]
    p: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown state label {label!r}") from None

    def power(self, k: int) -> np.ndarray:
        require_count(k, "matrix power")
        return np.linalg.matrix_power(self.p, k)


def build_chain(labels, p) -> TransitionMatrix:
    """Validate and freeze a transition matrix.

    Entries must be finite; entries in [-1e-12, 0) are clamped to zero
    and anything more negative is rejected. Row sums must equal one
    within 1e-9; rows are then renormalized exactly so downstream
    algebra sees clean input. Labels follow `as_labels`.
    """
    labels = as_labels(labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("state labels must be unique")
    p = as_finite(p, "transition matrix")
    n = len(labels)
    if p.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {p.shape} does not match {n} labels")
    if np.any(p < -ENTRY_CLAMP):
        i, j = np.unravel_index(int(np.argmin(p)), p.shape)
        raise NegativeEntry(f"P[{i},{j}] = {p[i, j]:.3e} is negative")
    p = np.where(p < 0, 0.0, p)
    sums = p.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > ROW_SUM_ATOL)[0]
    if bad.size:
        i = int(bad[0])
        raise RowSumViolation(f"row {i} sums to {sums[i]:.12f}, expected 1")
    p = p / sums[:, None]
    p.setflags(write=False)
    return TransitionMatrix(labels=labels, p=p)


def validate_distribution(mu, n: int | None = None) -> np.ndarray:
    """Refuse non-finite entries, clamp tiny negatives, check the mass
    sums to one, renormalize."""
    mu = as_finite(mu, "distribution").reshape(-1)
    if n is not None and mu.size != n:
        raise DimensionMismatch(f"distribution length {mu.size}, expected {n}")
    if np.any(mu < -ENTRY_CLAMP):
        raise NegativeEntry("distribution has a negative entry")
    mu = np.where(mu < 0, 0.0, mu)
    total = mu.sum()
    if abs(total - 1.0) > ROW_SUM_ATOL:
        raise RowSumViolation(f"distribution mass {total:.12f}, expected 1")
    return mu / total


def point_mass(chain: TransitionMatrix, label: str) -> np.ndarray:
    mu = np.zeros(chain.n)
    mu[chain.index(label)] = 1.0
    return mu


def evolve(chain: TransitionMatrix, mu, steps: int = 1) -> np.ndarray:
    """Push a distribution forward: mu(t+k)^T = mu(t)^T P^k."""
    mu = validate_distribution(mu, chain.n)
    require_count(steps, "steps")
    for _ in range(steps):
        mu = mu @ chain.p
    return mu


def conditional_expectation(chain: TransitionMatrix, x, steps: int = 1) -> np.ndarray:
    """E[x(X_{t+k}) | X_t = s_i] for every i, i.e. P^k x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != chain.n:
        raise DimensionMismatch(f"state function length {x.size}, expected {chain.n}")
    require_count(steps, "steps")
    out = x.copy()
    for _ in range(steps):
        out = chain.p @ out
    return out


def _start(chain: TransitionMatrix, start) -> int:
    return chain.index(start) if isinstance(start, str) else int(start)


def sample(chain: TransitionMatrix, start, length: int, seed: int,
           trajectory: int = 0) -> list[str]:
    """One trajectory of `length` transitions from `start`.

    The stream contract, shared with `occupancy`: trajectory t draws from
    numpy's default generator seeded with seed + t, so distinct
    trajectories use independent, reproducible streams; step k consumes
    the k-th uniform u of that stream; the next state is the first index
    whose entry in the current row's cumulative sum exceeds u, clipped to
    n - 1. The stream is drawn SAMPLE_BLOCK uniforms at a time
    (`rng.random(m)` gives the same values as m single draws) and the
    path is walked in plain Python.
    """
    require_count(length, "length")
    i = _start(chain, start)
    rng = np.random.default_rng(int(seed) + int(trajectory))
    cdf = np.cumsum(chain.p, axis=1).tolist()
    last = chain.n - 1
    path = [chain.labels[i]]
    for first in range(0, length, SAMPLE_BLOCK):
        for u in rng.random(min(SAMPLE_BLOCK, length - first)).tolist():
            i = min(bisect_right(cdf[i], u), last)
            path.append(chain.labels[i])
    return path


def occupancy(chain: TransitionMatrix, start, length: int, seed: int,
              trajectories: int) -> np.ndarray:
    """Empirical state distribution at each time over an ensemble.

    Returns a (length + 1, n) array whose row t is the fraction of
    trajectories sitting in each state at time t. Trajectory t follows
    exactly the path `sample(chain, start, length, seed, trajectory=t)`
    walks (same streams, same inverse-CDF rule), but every trajectory of
    a block steps at once: the next states are the counts of cdf entries
    at or below each uniform, clipped to n - 1. A block is
    SAMPLE_BLOCK // max(length, n) trajectories (at least one), so its
    uniforms and gathered cdf rows stay within SAMPLE_BLOCK doubles, or
    one trajectory's worth when that is larger.
    """
    require_count(length, "length")
    require_count(trajectories, "trajectories", least=1)
    n = chain.n
    i = _start(chain, start)
    cdf = np.cumsum(chain.p, axis=1)
    counts = np.zeros((length + 1, n))
    counts[0, i] = trajectories
    block = max(1, SAMPLE_BLOCK // max(length, n))
    for first in range(0, trajectories, block):
        size = min(block, trajectories - first)
        u = np.empty((length, size))
        for k in range(size):
            u[:, k] = np.random.default_rng(int(seed) + first + k).random(length)
        cur = np.full(size, i)
        for t in range(length):
            cur = np.minimum(np.count_nonzero(cdf[cur] <= u[t, :, None], axis=1),
                             n - 1)
            counts[t + 1] += np.bincount(cur, minlength=n)
    return counts / trajectories
