"""Core Markov chain objects: validated transition matrices, distribution
evolution, conditional expectation, and trajectory sampling.

Distributions and state functions are plain numpy vectors; validators at
the API boundary enforce their contracts. Row-vector convention
throughout: a distribution evolves as mu(t+k)^T = mu(t)^T P^k.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
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
    applied,
)

ROW_SUM_ATOL = 1e-9
ENTRY_CLAMP = 1e-12  # |entry| at most this in an input chain is roundoff
SAMPLE_BLOCK = 1 << 20  # uniforms drawn at once by sample and occupancy
MAX_STEPS = 10**8  # most steps a path (length) or ensemble (length * trajectories) walks

# numpy's SeedSequence pool and output hash constants, and PCG64's LCG
# multiplier; NEP 19 keeps both streams fixed across numpy releases
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def as_finite(values, what: str, n: int | None = None) -> np.ndarray:
    """A float copy of the array a caller passes in: ValidationError if it
    is not numeric, NonFiniteEntry on NaN or an infinity; given n, it is
    flattened and must have n entries, or DimensionMismatch."""
    try:
        if values is None:  # which numpy reads as NaN
            raise TypeError
        out = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} is not a numeric array") from None
    except OverflowError:  # a Python int beyond a double's range
        raise NonFiniteEntry(f"{what} has a non-finite entry") from None
    if not np.all(np.isfinite(out)):
        raise NonFiniteEntry(f"{what} has a non-finite entry")
    if n is not None and out.size != n:
        raise DimensionMismatch(f"{what} length {out.size}, expected {n}")
    return out if n is None else out.reshape(-1)


def as_labels(labels) -> tuple[str, ...]:
    """Distinct state labels as strings, from a string of one-character
    labels or a list of strings and numbers; at least one is needed."""
    if not isinstance(labels, (str, list, tuple, np.ndarray)):
        raise BadLabel(f"state labels must be a list, not {type(labels).__name__}")
    if len(labels) == 0:
        raise ValidationError("a chain or graph needs at least one state")
    for x in labels:
        if not isinstance(x, (str, int, float, np.generic)):
            raise BadLabel(f"state label {x!r} is not a string or a number")
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("state labels must be unique")
    return labels


def require_count(value: int, what: str, least: float = 0, most: float = np.inf) -> None:
    """BadCount unless value is an int or numpy integer (not a bool) in
    [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadCount(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise BadCount(f"{what} must be at least {least}, got {value}")
    if value > most:
        raise BadCount(f"{what} must be at most {most}, got {value}")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over a labelled finite state space. Its
    digraph is P's support: i -> j is a transition iff P[i, j] > 0."""

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
        """P^k, by `_pushed` on the identity: its squares keep unit row sums."""
        require_count(k, "matrix power")
        return _pushed(self.p, np.eye(self.n), k, left=True)


def build_chain(labels, p) -> TransitionMatrix:
    """Validate and freeze a transition matrix.

    Entries must be finite. Roundoff, an entry in [-1e-12, 0) or
    (0, 1e-12] (ENTRY_CLAMP), becomes +0.0, so it is no transition;
    anything more negative is rejected. Row sums must equal one within
    1e-9; rows are then renormalized exactly so downstream algebra sees
    clean input. Labels follow `as_labels`; `p` is copied.
    """
    labels = as_labels(labels)
    p = as_finite(p, "transition matrix")
    applied(entry=ENTRY_CLAMP)
    p[(p > 0) & (p <= ENTRY_CLAMP)] = 0.0
    return _frozen_chain(labels, p)


def _frozen_chain(labels: tuple[str, ...], p: np.ndarray) -> TransitionMatrix:
    """`build_chain` past `as_labels`, `as_finite` and the roundoff flush,
    in place on a float p no one else holds, which becomes the chain's
    read-only P: a chain the library computes keeps every entry. The
    row-sum test fails on a NaN or infinite sum: a NaN never passes."""
    n = len(labels)
    if p.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {p.shape} does not match {n} labels")
    low = p.min(initial=0.0)
    applied(entry=ENTRY_CLAMP, row_sum=ROW_SUM_ATOL)
    if low < -ENTRY_CLAMP:
        i, j = np.unravel_index(int(np.argmin(p)), p.shape)
        raise NegativeEntry(f"P[{i},{j}] = {p[i, j]:.3e} is negative")
    if low < 0:
        p[p < 0] = 0.0
    sums = p.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_ATOL))
    if bad.size:
        i = int(bad[0])
        raise RowSumViolation(f"row {i} sums to {sums[i]:.12g}, expected 1")
    p /= sums[:, None]
    p.setflags(write=False)
    return TransitionMatrix(labels=labels, p=p)


def validate_distribution(mu, n: int | None = None) -> np.ndarray:
    """`as_finite` of mu, flattened, with n entries when n is given; then
    clamp tiny negatives, check the mass sums to one, renormalize."""
    mu = as_finite(mu, "distribution", n).reshape(-1)
    applied(entry=ENTRY_CLAMP, row_sum=ROW_SUM_ATOL)
    if np.any(mu < -ENTRY_CLAMP):
        raise NegativeEntry("distribution has a negative entry")
    mu = np.where(mu < 0, 0.0, mu)
    total = mu.sum()
    if abs(total - 1.0) > ROW_SUM_ATOL:
        raise RowSumViolation(f"distribution mass {total:.12g}, expected 1")
    return mu / total


def point_mass(chain: TransitionMatrix, label: str) -> np.ndarray:
    mu = np.zeros(chain.n)
    mu[chain.index(label)] = 1.0
    return mu


def _pushed(p: np.ndarray, v: np.ndarray, steps: int, left: bool) -> np.ndarray:
    """v^T P^steps when `left`, else P^steps v, for row-stochastic P and
    v one vector or a block of w of them.

    One squaring of the stride matrix costs about n^3 flops, one step
    with it w n^2, so squaring pays while more than n / w strides remain:
    fold the low bit of the stride count into v, square, halve the
    count. At most n / w plain products with the last stride finish the
    job; for one vector and steps <= n that is exactly the plain loop,
    and for the n x n identity every step but the last squares. Each
    squared stride is rescaled to unit row sums: a power of P is
    stochastic, and without it the row sums of P, one ulp off, would
    double their error with every squaring. Products and rescaling never
    subtract, so every entry of a stride keeps a small relative error.
    """
    n = p.shape[0]
    while steps * v.size > n * n:
        if steps & 1:
            v = v @ p if left else p @ v
        p = p @ p
        p /= p.sum(axis=1, keepdims=True)
        steps >>= 1
    for _ in range(steps):
        v = v @ p if left else p @ v
    return v


def evolve(chain: TransitionMatrix, mu, steps: int = 1) -> np.ndarray:
    """Push a distribution forward: mu(t+k)^T = mu(t)^T P^k."""
    mu = validate_distribution(mu, chain.n)
    require_count(steps, "steps")
    return _pushed(chain.p, mu, steps, left=True)


def conditional_expectation(chain: TransitionMatrix, x, steps: int = 1) -> np.ndarray:
    """E[x(X_{t+k}) | X_t = s_i] for every i, i.e. P^k x, for x read by
    `as_finite` with one entry per state."""
    x = as_finite(x, "state function", chain.n)
    require_count(steps, "steps")
    return _pushed(chain.p, x, steps, left=False)


def _start(chain: TransitionMatrix, start) -> int:
    """The state index of `start`: a label, or an index in range(n)."""
    if isinstance(start, str):
        return chain.index(start)
    if isinstance(start, bool) or not isinstance(start, (int, np.integer)):
        raise BadLabel(f"start {start!r} is not a state label or index")
    if not 0 <= start < chain.n:
        raise UnknownLabel(f"start index {start} is outside 0..{chain.n - 1}")
    return int(start)


def _run_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse-CDF step rule of `sample` and `occupancy` as a table of
    runs. A run is a maximal stretch of equal entries in a row's
    cumulative sum: a state with positive mass and the states of zero
    mass after it.

    `vals[i, r]` is the cdf value of run r of row i, and `ends[i, r]` the
    first state of run r. Both are one column wider than the most runs
    in a row; `vals` is padded with +inf and `ends` with n - 1. When m
    of row i's run values are at or below u, the cdf entries at or below
    u are exactly those of the first m runs, so the next state
    `min(bisect_right(cdf[i], u), n - 1)` is `ends[i, m]`: the same
    comparisons with the same doubles, over a few runs instead of n
    entries for a sparse row. A row's cdf never decreases, so its run
    values increase and m is also the first column of `vals[i]` above u,
    which the +inf pad guarantees.
    """
    n = p.shape[0]
    cdf = np.cumsum(p, axis=1)
    first = np.ones((n, n), dtype=bool)  # the first entry of each run
    np.not_equal(cdf[:, 1:], cdf[:, :-1], out=first[:, 1:])
    rows, cols = np.nonzero(first)
    runs = np.cumsum(first, axis=1)
    rank = runs[first] - 1
    vals = np.full((n, runs[:, -1].max() + 1), np.inf)
    vals[rows, rank] = cdf[first]
    ends = np.full(vals.shape, n - 1)
    ends[rows, rank] = cols
    return vals, ends


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init, init * mult, ..., init * mult**count, mod 2**32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(x, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of x under consecutive constants: xor with
    one, multiply by the next, fold the high half into the low."""
    x = (x ^ consts[:-1]) * consts[1:]
    return x ^ (x >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word y into pool word x."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_states(first: int, count: int) -> np.ndarray:
    """`np.random.SeedSequence(s).generate_state(4, np.uint64)` for each
    seed s in first .. first + count - 1, as a (count, 4) array; the
    seeds must share their bits above the lowest 64.

    numpy's pool hashing, run as uint32 array arithmetic over all seeds
    at once. A seed's 32-bit words, least significant first, fill a pool
    of four (a missing word hashes exactly like a zero one); each pool
    word is hashed into the other three; words past the fourth are
    hashed into all four; eight output words are hashed out of the pool
    in turn, two to a uint64. The constants of each hash follow a fixed
    sequence that does not depend on the seed.
    """
    high = []  # the seed's words past the second, shared by every seed
    rest = first >> 64
    while rest:
        high.append(rest & _MASK32)
        rest >>= 32
    a = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, len(high) - 2))
    low = np.arange(count, dtype=np.uint64) + np.uint64(first & _MASK64)
    pool = np.empty((count, 4), dtype=np.uint32)
    pool[:, 0] = low  # truncated to the low word
    pool[:, 1] = low >> 32
    pool[:, 2:] = (high + [0, 0])[:2]
    pool = _hashmix(pool, a[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        c = 4 + 3 * src
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], a[c:c + 4]))
    for k, word in enumerate(high[2:]):
        c = 16 + 4 * k
        pool = _mix(pool, _hashmix(np.uint32(word), a[c:c + 5]))
    out = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(_INIT_B, _MULT_B, 8))
    out = out.astype(np.uint64)
    return out[:, 0::2] | out[:, 1::2] << 32


def _streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """The streams of an ensemble: generators for the streams seed,
    seed + 1, ..., seed + count - 1 in turn, each drawing exactly what
    `np.random.default_rng(s)` draws, without building one per seed.

    The seeds are hashed together by `_seed_states`, at most 2**64 of
    them at a time. With (a:b) = a 2**64 + b, a seed's words (w0, w1,
    w2, w3) give PCG64 the increment inc = 2 (w2:w3) + 1 and the state
    ((w0:w1) + inc) M + inc mod 2**128, which is set on one reused PCG64:
    a yielded generator is reseeded when the next one is taken. Seeds
    must not be negative.
    """
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    seed = int(seed)  # numpy integers overflow the 128-bit arithmetic
    end = seed + count
    while seed < end:
        size = min(end, ((seed >> 64) + 1) << 64) - seed
        for w0, w1, w2, w3 in _seed_states(seed, size).tolist():
            inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
            state = ((w0 << 64 | w1) + inc) * _PCG_MULT + inc & _MASK128
            bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                          "state": {"state": state, "inc": inc}}
            yield rng
        seed += size


def sample(chain: TransitionMatrix, start, length: int, seed: int) -> list[str]:
    """One trajectory of `length` (at most MAX_STEPS) transitions from `start`.

    The stream contract, shared with `occupancy`: the path draws from
    numpy's default generator seeded with `seed`, which must not be
    negative, and trajectory t of an ensemble is `sample(..., seed + t)`,
    so distinct trajectories use independent, reproducible streams
    (`occupancy` takes an ensemble's from `_streams`); step k consumes
    the k-th uniform u of that stream; the next state is the first index
    whose entry in the current row's cumulative sum exceeds u, clipped
    to n - 1. The stream is drawn SAMPLE_BLOCK uniforms at a time
    (`rng.random(m)` gives the same values as m single draws) and the
    path is walked in plain Python, bisecting the row's runs of equal
    cdf values (`_run_table`) instead of its n entries: a row of a
    sparse chain has a few runs.
    """
    require_count(length, "length", most=MAX_STEPS)
    require_count(seed, "seed")
    i = _start(chain, start)
    rng = np.random.default_rng(seed)
    vals, ends = _run_table(chain.p)
    vals, ends = vals.tolist(), ends.tolist()
    labels = chain.labels
    path = [labels[i]]
    visit = path.append
    bisect = bisect_right
    for first in range(0, length, SAMPLE_BLOCK):
        for u in rng.random(min(SAMPLE_BLOCK, length - first)).tolist():
            i = ends[i][bisect(vals[i], u)]
            visit(labels[i])
    return path


def occupancy(chain: TransitionMatrix, start, length: int, seed: int,
              trajectories: int) -> np.ndarray:
    """Empirical state distribution at each time over an ensemble.

    Returns a (length + 1, n) array whose row t is the fraction of
    trajectories sitting in each state at time t. Trajectory t follows
    exactly the path `sample(chain, start, length, seed + t)` walks
    (same streams, same run table), but every trajectory of a block
    steps at once: the next states are read from `ends` at the count of
    run values at or below each uniform. A block is
    SAMPLE_BLOCK // max(length, width, 32) trajectories (at least one),
    width being that of the run table, so its uniforms, visited states,
    gathered run rows and seed states (a trajectory's, hashed once per
    block by `_streams`, take about as much memory as 32 uniforms) stay
    within SAMPLE_BLOCK entries, or one trajectory's worth when that is
    larger; the visits of a block are counted with one bincount.
    """
    require_count(length, "length")
    require_count(trajectories, "trajectories", least=1)
    require_count(int(length) * int(trajectories), "length * trajectories", most=MAX_STEPS)
    require_count(seed, "seed")
    n = chain.n
    i = _start(chain, start)
    counts = np.zeros((length + 1, n))
    counts[0, i] = trajectories
    if not length:  # the point mass at the start: no stream is drawn from
        return counts / trajectories
    vals, ends = _run_table(chain.p)
    block = max(1, SAMPLE_BLOCK // max(length, vals.shape[1], 32))
    for first in range(0, trajectories, block):
        size = min(block, trajectories - first)
        u = np.empty((size, length))
        for row, rng in zip(u, _streams(seed + first, size)):
            rng.random(out=row)
        visits = np.empty((length, size), dtype=np.intp)  # flat indices into counts[1:]
        cur = np.full(size, i)
        for t in range(length):
            cur = ends[cur, (vals.take(cur, axis=0) <= u[:, t, None]).argmin(axis=1)]
            np.add(cur, t * n, out=visits[t])
        counts[1:] += np.bincount(visits.ravel(), minlength=length * n).reshape(length, n)
    return counts / trajectories
