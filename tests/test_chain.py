import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainkit import (
    build_chain,
    chain as chain_module,
    conditional_expectation,
    errors,
    evolve,
    line_chain,
    occupancy,
    point_mass,
    sample,
)
from chainkit.chain import TransitionMatrix, _streams, validate_distribution


class TestBuildChain:
    def test_negative_entry(self):
        with pytest.raises(errors.NegativeEntry):
            build_chain("ab", [[1.1, -0.1], [0.5, 0.5]])

    def test_tiny_negative_clamped(self):
        c = build_chain("ab", [[1.0 + 5e-13, -5e-13], [0.5, 0.5]])
        assert c.p[0, 1] == 0.0

    def test_tiny_positive_flushed(self):
        # 1e-13 is roundoff: +0.0 and no transition, the row renormalized
        c = build_chain("ab", [[1 - 1e-13, 1e-13], [0.5, 0.5]])
        assert c.p[0, 1] == 0.0 and not np.signbit(c.p[0, 1])
        assert np.array_equal(c.p.sum(axis=1), [1.0, 1.0])

    def test_row_sum_violation(self):
        with pytest.raises(errors.RowSumViolation):
            build_chain("ab", [[0.5, 0.4], [0.5, 0.5]])

    def test_duplicate_labels(self):
        with pytest.raises(errors.DuplicateLabel):
            build_chain("aa", [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("labels", ["ab", ["a", "b"], ("a", 2), [1.5, 2]])
    def test_labels_become_strings(self, labels):
        c = build_chain(labels, [[0.5, 0.5], [0.5, 0.5]])
        assert c.labels == tuple(str(x) for x in labels)

    @pytest.mark.parametrize("labels", [5, None, {"a": 1, "b": 2}, [["a"], "b"],
                                        ["a", None]])
    def test_bad_labels(self, labels):
        with pytest.raises(errors.BadLabel):
            build_chain(labels, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("call, message", [
        (lambda: build_chain("ab", [[1e308, 0.0], [0.5, 0.5]]),
         "row 0 sums to 1e+308, expected 1"),
        (lambda: validate_distribution([1e308, 0.0]), "distribution mass 1e+308, expected 1"),
        (lambda: build_chain("ab", [[0.5, 0.4], [0.5, 0.5]]), "row 0 sums to 0.9, expected 1"),
    ], ids=["row", "distribution", "short-row"])
    def test_row_sum_message_has_twelve_digits(self, call, message):
        # fixed-point printing wrote a 1e308 sum out in about 320 digits
        with pytest.raises(errors.RowSumViolation) as exc:
            call()
        assert str(exc.value) == message

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            build_chain("abc", [[0.5, 0.5], [0.5, 0.5]])

    def test_rows_exactly_normalized(self):
        c = build_chain("ab", [[0.3 + 1e-10, 0.7], [1, 0]])
        assert np.allclose(c.p.sum(axis=1), 1.0, atol=0)

    def test_leaves_the_callers_array_and_returns_a_frozen_copy(self):
        p = np.array([[1.0 + 5e-13, -5e-13, -0.0], [0.5, 0.25, 0.25], [0.0, 0.0, 1.0]])
        before = p.copy()
        c = build_chain("abc", p)
        assert p.flags.writeable and p.tobytes() == before.tobytes()
        assert not c.p.flags.writeable and not np.shares_memory(c.p, p)
        assert c.p[0, 1] == 0.0 and not np.signbit(c.p[0, 1])  # clamped to +0.0
        assert np.signbit(c.p[0, 2])                           # -0.0 kept

    @pytest.mark.parametrize("p, error, message", [
        ([[1.1, -0.1], [0.5, 0.5]], errors.NegativeEntry, "P[0,1] = -1.000e-01 is negative"),
        ([[0.5, 0.5], [0.5, 0.4]], errors.RowSumViolation, "row 1 sums to 0.9, expected 1"),
        ([[0.5, 0.5], [np.nan, 1.0]], errors.NonFiniteEntry,
         "transition matrix has a non-finite entry"),
        ([[0.5, 0.5], [np.inf, 1.0]], errors.NonFiniteEntry,
         "transition matrix has a non-finite entry"),
    ], ids=["negative", "row-sum", "nan", "inf"])
    def test_messages(self, p, error, message):
        with pytest.raises(error) as exc:
            build_chain("ab", np.array(p))
        assert str(exc.value) == message


class TestEvolve:
    def test_study_chain_first_steps(self, phd_chain):
        mu = point_mass(phd_chain, "S")
        assert np.allclose(evolve(phd_chain, mu, 1),
                           [0.5, 0.1, 0.2, 0.2], atol=1e-12)
        assert np.allclose(evolve(phd_chain, mu, 2),
                           [0.55, 0.05, 0.2, 0.2], atol=1e-12)
        assert np.allclose(evolve(phd_chain, mu, 3),
                           [0.525, 0.055, 0.21, 0.21], atol=1e-12)

    def test_two_step_transition_entry(self, phd_chain):
        # Pr(X2 = C | X0 = S) via the squared matrix
        p2 = phd_chain.power(2)
        assert np.isclose(p2[0, 3], 0.2, atol=1e-12)

    def test_chapman_kolmogorov(self, phd_chain):
        rng = np.random.default_rng(5)
        mu = rng.random(4)
        mu /= mu.sum()
        a = evolve(phd_chain, evolve(phd_chain, mu, 3), 4)
        b = evolve(phd_chain, mu, 7)
        assert np.allclose(a, b, atol=1e-12)

    def test_powers_row_stochastic(self, phd_chain):
        for k in range(65):
            pk = phd_chain.power(k)
            assert np.allclose(pk.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(pk >= -1e-12)

    def test_huge_power_keeps_unit_row_sums(self):
        # matrix_power compounds the row-sum defect: 1 + 3.1e-9 at k = 1e9
        c = build_chain("abc", [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.3, 0.2, 0.5]])
        pi = np.linalg.solve(np.vstack([(c.p.T - np.eye(3))[:2], np.ones(3)]), [0, 0, 1])
        for k in (10**6, 10**9):
            assert np.max(np.abs(c.power(k) - pi)) <= 1e-12

    def test_small_powers_match_matrix_power(self, phd_chain):
        rng = np.random.default_rng(8)
        p = rng.random((6, 6))
        c = build_chain("abcdef", p / p.sum(axis=1, keepdims=True))
        for chain in (phd_chain, c):
            for k in range(21):
                assert np.max(np.abs(chain.power(k)
                                     - np.linalg.matrix_power(chain.p, k))) <= 1e-14

    def test_rejects_bad_distribution(self, phd_chain):
        with pytest.raises(errors.RowSumViolation):
            evolve(phd_chain, [0.5, 0.1, 0.1, 0.1])


class TestConditionalExpectation:
    def test_matches_matrix_power(self, phd_chain):
        x = np.array([1.0, -2.0, 0.5, 3.0])
        for k in (0, 1, 5):
            want = phd_chain.power(k) @ x
            assert np.allclose(conditional_expectation(phd_chain, x, k), want,
                               atol=1e-12)

    def test_constant_function_fixed(self, phd_chain):
        out = conditional_expectation(phd_chain, np.ones(4), 13)
        assert np.allclose(out, 1.0, atol=1e-12)


class TestSampling:
    def test_deterministic_per_seed(self, phd_chain):
        a = sample(phd_chain, "S", 50, seed=123)
        b = sample(phd_chain, "S", 50, seed=123)
        assert a == b
        c = sample(phd_chain, "S", 50, seed=124)
        assert a != c

    def test_trajectory_streams_independent(self, phd_chain):
        # trajectory t of an ensemble is the path at seed + t
        a = sample(phd_chain, "S", 20, seed=9)
        b = sample(phd_chain, "S", 20, seed=9 + 1)
        assert a != b
        visits = np.zeros((21, 4))
        for path in (a, b):
            visits[np.arange(21), [phd_chain.index(s) for s in path]] += 0.5
        assert np.array_equal(occupancy(phd_chain, "S", 20, seed=9, trajectories=2), visits)

    def test_path_follows_support(self, phd_chain):
        path = sample(phd_chain, "S", 200, seed=3)
        labels = phd_chain.labels
        for t in range(len(path) - 1):
            i, j = labels.index(path[t]), labels.index(path[t + 1])
            assert phd_chain.p[i, j] > 0

    def test_occupancy_rows_are_distributions(self, phd_chain):
        occ = occupancy(phd_chain, "S", 3, seed=1, trajectories=200)
        assert occ.shape == (4, 4)
        assert np.allclose(occ.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(occ[0], [1, 0, 0, 0])


# The per-step sampler as it was first written: one rng.random() and one
# searchsorted per step, one sample() and one labels.index per visit.
# Kept as the oracle that fixes the stream contract.
def _sample_per_step(chain, start, length, seed):
    i = chain.index(start) if isinstance(start, str) else int(start)
    rng = np.random.default_rng(int(seed))
    cdf = np.cumsum(chain.p, axis=1)
    path = [chain.labels[i]]
    for _ in range(length):
        u = rng.random()
        i = int(np.searchsorted(cdf[i], u, side="right"))
        i = min(i, chain.n - 1)
        path.append(chain.labels[i])
    return path


def _occupancy_per_step(chain, start, length, seed, trajectories):
    counts = np.zeros((length + 1, chain.n))
    for traj in range(trajectories):
        path = _sample_per_step(chain, start, length, seed + traj)
        for t, lab in enumerate(path):
            counts[t, chain.labels.index(lab)] += 1
    return counts / trajectories


def _dense_chain():
    w = np.random.default_rng(7).random((6, 6)) ** 3
    return build_chain([f"d{i}" for i in range(6)], w / w.sum(axis=1)[:, None])


def _absorbing_chain():
    return build_chain("tua", [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0, 0, 1]])


def _cycle_chain():
    return build_chain("abcd", np.roll(np.eye(4), 1, axis=1))


def _short_row_chain():
    # built without validation: row 0 sums to 0.75 and the cdf of row 1
    # ends at 1 - 2**-53, so a draw past the last cdf entry must clip to
    # the last state
    p = np.array([[0.25, 0.25, 0.25], [0.7, 0.2, 0.1], [0.0, 0.0, 1.0]])
    return TransitionMatrix(labels=("x", "y", "z"), p=p)


def _gapped_chain():
    # built without validation: zero runs at the start, middle and end of
    # row 0, a single-entry row, a dense row, a row whose cdf ends at
    # 0.6, and a row of zeros but its last entry
    p = np.array([[0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.1, 0.2, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1],
                  [0.2, 0.0, 0.0, 0.3, 0.0, 0.1, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                  [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
                  [0.0, 0.3, 0.0, 0.3, 0.0, 0.0, 0.4, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    return TransitionMatrix(labels=tuple(f"g{i}" for i in range(8)), p=p)


@st.composite
def walk_rows(draw, n):
    """One row of a chain on n states: sparse (zero runs anywhere), a
    single entry, or dense; rescaled below one half the time, so its cdf
    ends short of 1 and a draw past it clips to the last state."""
    kind = draw(st.sampled_from(["sparse", "single", "dense"]))
    row = np.zeros(n)
    if kind == "single":
        row[draw(st.integers(0, n - 1))] = 1.0
    else:
        row[:] = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        if kind == "sparse":
            row *= draw(st.lists(st.booleans(), min_size=n, max_size=n))
            row[draw(st.integers(0, n - 1))] += 0.5
        row /= row.sum()
    if draw(st.booleans()):
        row *= draw(st.floats(0.2, 0.999))
    return row


# seeds on both sides of the 32-bit word boundaries where SeedSequence
# splits a seed (2**32 .. 2**224), and any seed up to 2**256, nine words:
# words past the fourth take SeedSequence's extra mixing
stream_seeds = st.one_of(
    st.integers(0, 2 ** 256),
    st.builds(lambda words, step: 2 ** (32 * words) + step,
              st.integers(1, 7), st.integers(-9, 9)),
)


@st.composite
def walk_cases(draw):
    """(chain, start, length, seed, trajectories) with an unvalidated chain
    of 1-7 states."""
    n = draw(st.integers(1, 7))
    p = np.array([draw(walk_rows(n)) for _ in range(n)])
    chain = TransitionMatrix(labels=tuple(f"w{i}" for i in range(n)), p=p)
    start = draw(st.one_of(st.integers(0, n - 1), st.sampled_from(chain.labels)))
    return (chain, start, draw(st.integers(0, 40)), draw(stream_seeds),
            draw(st.integers(1, 6)))


SAMPLING_CASES = [
    (_dense_chain, "d0"),
    (_dense_chain, 4),
    (_absorbing_chain, "t"),
    (_cycle_chain, "b"),
    (_short_row_chain, "x"),
    (_short_row_chain, 1),
]


class TestSamplingContract:
    @pytest.mark.parametrize("make, start", SAMPLING_CASES)
    @pytest.mark.parametrize("length", [0, 1, 37])
    def test_sample_matches_per_step_oracle(self, make, start, length):
        chain = make()
        for seed, traj in ((0, 0), (5, 3), (2 ** 31, 1)):
            assert (sample(chain, start, length, seed + traj)
                    == _sample_per_step(chain, start, length, seed + traj))

    @pytest.mark.parametrize("make, start", SAMPLING_CASES)
    @pytest.mark.parametrize("length, trajectories",
                             [(0, 1), (0, 3), (9, 1), (9, 2), (25, 40)])
    def test_occupancy_matches_per_step_oracle(self, make, start, length,
                                               trajectories):
        chain = make()
        got = occupancy(chain, start, length, 11, trajectories)
        want = _occupancy_per_step(chain, start, length, 11, trajectories)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("trajectories", [1, 2, 2000])
    def test_zero_length_occupancy_draws_no_stream(self, monkeypatch, trajectories):
        chain = _dense_chain()
        want = _occupancy_per_step(chain, "d3", 0, 5, trajectories)
        monkeypatch.setattr(chain_module, "_streams", None)  # calling it fails
        assert np.array_equal(occupancy(chain, "d3", 0, 5, trajectories), want)

    def test_short_row_reaches_the_clip(self):
        chain = _short_row_chain()
        assert np.cumsum(chain.p, axis=1)[1, -1] < 1.0
        path = _sample_per_step(chain, "x", 200, 3)
        assert any(a == "x" and b == "z" for a, b in zip(path, path[1:]))

    def test_occupancy_across_trajectory_blocks(self, monkeypatch):
        # shrink the uniform buffer so 50 trajectories of 10 steps on 6
        # states need 25 blocks of two
        monkeypatch.setattr(chain_module, "SAMPLE_BLOCK", 64)
        chain = _dense_chain()
        got = occupancy(chain, "d2", 10, 4, 50)
        assert np.array_equal(got, _occupancy_per_step(chain, "d2", 10, 4, 50))

    def test_sample_across_uniform_blocks(self, monkeypatch):
        monkeypatch.setattr(chain_module, "SAMPLE_BLOCK", 64)
        chain = _dense_chain()
        for length in (63, 64, 65, 200):
            assert (sample(chain, "d1", length, 8)
                    == _sample_per_step(chain, "d1", length, 8))

    @settings(max_examples=150, deadline=None)
    @given(walk=walk_cases(), block=st.sampled_from([1, 5, 64, chain_module.SAMPLE_BLOCK]))
    @example(walk=(_gapped_chain(), 0, 30, 4, 5), block=7)
    @example(walk=(_gapped_chain(), 4, 1, 0, 3), block=1)
    # blocks of two trajectories, the second of which straddles 2**64;
    # then a block that goes from four seed words to five
    @example(walk=(_dense_chain(), "d1", 6, 2 ** 64 - 3, 6), block=64)
    @example(walk=(_dense_chain(), "d1", 6, 2 ** 128 - 1, 3), block=1 << 20)
    def test_run_table_matches_per_step_oracles(self, walk, block):
        chain, start, length, seed, trajectories = walk
        with mock.patch.object(chain_module, "SAMPLE_BLOCK", block):
            for traj in range(trajectories):
                assert (sample(chain, start, length, seed + traj)
                        == _sample_per_step(chain, start, length, seed + traj))
            got = occupancy(chain, start, length, seed, trajectories)
        assert np.array_equal(got, _occupancy_per_step(chain, start, length, seed,
                                                       trajectories))

    def test_ensemble_memory_stays_within_a_block(self, monkeypatch):
        # with 4096-entry blocks, 20000 trajectories of 50 steps need no
        # array as large as the (length + 1) x trajectories visit table,
        # not even one byte per entry
        monkeypatch.setattr(chain_module, "SAMPLE_BLOCK", 1 << 12)
        chain = _dense_chain()
        length, trajectories = 50, 20000
        tracemalloc.start()
        try:
            occ = occupancy(chain, "d0", length, 3, trajectories)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert occ.shape == (length + 1, chain.n)
        assert peak < (length + 1) * trajectories


class TestStreams:
    @settings(max_examples=200, deadline=None)
    @given(seed=stream_seeds, count=st.integers(1, 12), length=st.integers(0, 5))
    @example(seed=0, count=3, length=4)
    @example(seed=2 ** 64 - 5, count=10, length=3)  # two runs of hashed seeds
    @example(seed=2 ** 128 - 2, count=4, length=2)  # four words, then five
    def test_rows_are_default_rng_streams(self, seed, count, length):
        rows = [rng.random(length) for rng in _streams(seed, count)]
        assert len(rows) == count
        for t, row in enumerate(rows):
            assert np.array_equal(row, np.random.default_rng(seed + t).random(length))


# evolve and conditional_expectation as they were first written, one
# vector product per step; kept as the reference for repeated squaring
def _stepwise(p, v, steps, left):
    for _ in range(steps):
        v = v @ p if left else p @ v
    return v


def _line_chain():
    return line_chain(n=50, p_right=0.7)


POWER_CHAINS = [_dense_chain, _absorbing_chain, _cycle_chain, _line_chain]


class TestRepeatedSquaring:
    @pytest.mark.parametrize("make", POWER_CHAINS)
    def test_short_runs_are_the_plain_loop(self, make):
        chain = make()
        rng = np.random.default_rng(chain.n)
        mu = rng.random(chain.n)
        mu /= mu.sum()
        x = rng.standard_normal(chain.n)
        start = validate_distribution(mu, chain.n)
        for k in range(chain.n + 1):
            assert np.array_equal(evolve(chain, mu, k),
                                  _stepwise(chain.p, start, k, left=True))
            assert np.array_equal(conditional_expectation(chain, x, k),
                                  _stepwise(chain.p, x, k, left=False))

    @pytest.mark.parametrize("make", POWER_CHAINS)
    def test_long_runs_match_extended_precision(self, make):
        # the reference renormalizes P's rows in extended precision, so
        # the float rows' one-ulp defect does not compound over 20000 steps
        chain = make()
        n = chain.n
        p = chain.p.astype(np.longdouble)
        p /= p.sum(axis=1, keepdims=True)
        mu = point_mass(chain, chain.labels[0])
        x = np.random.default_rng(n).random(n)  # nonnegative: no cancellation
        j = n.bit_length() + 1
        for k in sorted({n + 1, 2 * n, 2 ** j - 1, 2 ** j, 20000}):
            for got, want in (
                    (evolve(chain, mu, k), _stepwise(p, mu.astype(np.longdouble), k, True)),
                    (conditional_expectation(chain, x, k),
                     _stepwise(p, x.astype(np.longdouble), k, False))):
                big = want > 1e-250
                rel = np.abs(got[big] - want[big]) / want[big]
                assert float(np.max(rel)) <= 1e-12, (k, float(np.max(rel)))

    def test_cycle_powers_are_exact_permutations(self):
        chain = build_chain([str(i) for i in range(7)], np.roll(np.eye(7), 1, axis=1))
        x = np.arange(7.0)
        for k in (8, 13, 100, 12345, 10**9 + 3):
            want = np.zeros(7)
            want[(2 + k) % 7] = 1.0
            assert np.array_equal(evolve(chain, point_mass(chain, "2"), k), want)
            assert np.array_equal(conditional_expectation(chain, x, k),
                                  np.roll(x, -k))

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.integers(1, 9), min_size=n, max_size=n))),
        st.integers(0, 3000), st.integers(0, 3000))
    def test_steps_add(self, weights_mu, a, b):
        weights, mu = weights_mu
        w = np.array(weights, dtype=float) + np.eye(len(mu))  # no empty row
        chain = build_chain([str(i) for i in range(len(mu))],
                            w / w.sum(axis=1, keepdims=True))
        mu = np.array(mu, dtype=float) / sum(mu)
        assert np.allclose(evolve(chain, evolve(chain, mu, a), b),
                           evolve(chain, mu, a + b), rtol=0, atol=1e-12)


class TestCounts:
    @pytest.mark.parametrize("call", [
        lambda c: sample(c, "S", -1, seed=0),
        lambda c: occupancy(c, "S", -3, seed=0, trajectories=5),
        lambda c: occupancy(c, "S", 3, seed=0, trajectories=0),
        lambda c: occupancy(c, "S", 3, seed=0, trajectories=-4),
        lambda c: evolve(c, point_mass(c, "S"), -1),
        lambda c: conditional_expectation(c, np.ones(4), -2),
        lambda c: c.power(-1),
    ], ids=["sample", "occupancy-length", "occupancy-zero", "occupancy-negative",
            "evolve", "conditional_expectation", "power"])
    def test_negative_count_is_validation_error(self, phd_chain, call):
        with pytest.raises(errors.ValidationError):
            call(phd_chain)

    @pytest.mark.parametrize("call", [
        lambda c: sample(c, "S", 5, seed=-1),
        lambda c: sample(c, "S", 5, seed=2 + -3),  # trajectory -3 of seed 2
        lambda c: occupancy(c, "S", 5, seed=-1, trajectories=3),
        lambda c: line_chain(n=5, perturb=0.1, seed=-3),
        lambda c: line_chain(n=5, seed=-3),
    ], ids=["sample-seed", "sample-trajectory", "occupancy", "line_chain-perturbed",
            "line_chain"])
    def test_negative_seed_is_bad_count(self, phd_chain, call):
        # numpy's generators refuse negative seeds with a bare ValueError
        with pytest.raises(errors.BadCount):
            call(phd_chain)

    @pytest.mark.parametrize("call", [
        lambda c: sample(c, "S", 2.5, seed=1),
        lambda c: sample(c, "S", True, seed=0),
        lambda c: sample(c, "S", 3, seed=1.7),
        lambda c: sample(c, "S", 3, seed=True),
        lambda c: sample(c, "S", 3, seed=1 + 0.0),  # a float trajectory of seed 1
        lambda c: occupancy(c, "S", 2.5, seed=1, trajectories=3),
        lambda c: occupancy(c, "S", 2, seed=1, trajectories=2.5),
        lambda c: occupancy(c, "S", 2, seed=1.0, trajectories=2),
        lambda c: evolve(c, point_mass(c, "S"), 2.5),
        lambda c: conditional_expectation(c, np.ones(4), np.float64(2)),
        lambda c: c.power(1.5),
        lambda c: c.power(np.bool_(True)),
        lambda c: line_chain(n=5, seed=1.5),
    ], ids=["sample-length", "sample-bool-length", "sample-seed", "sample-bool-seed",
            "sample-trajectory", "occupancy-length", "occupancy-trajectories",
            "occupancy-seed", "evolve", "conditional_expectation", "power", "power-bool",
            "line_chain-seed"])
    def test_non_integer_count_is_bad_count(self, phd_chain, call):
        # a float once raised a bare TypeError, and a bool or a float seed
        # was taken as the integer it rounds to
        with pytest.raises(errors.BadCount):
            call(phd_chain)

    def test_numpy_integers_are_counts(self, phd_chain):
        assert (sample(phd_chain, "S", np.int64(9), seed=np.int32(2) + np.int64(1))
                == sample(phd_chain, "S", 9, seed=3))
        assert np.array_equal(occupancy(phd_chain, "S", np.int64(4), np.int64(1), np.int16(3)),
                              occupancy(phd_chain, "S", 4, 1, 3))

    def test_seed_plus_trajectory_may_be_zero(self, phd_chain):
        assert (sample(phd_chain, "S", 9, seed=-1 + 1)
                == _sample_per_step(phd_chain, "S", 9, seed=0))


class TestStart:
    @pytest.mark.parametrize("start, error", [
        (-1, errors.UnknownLabel), (4, errors.UnknownLabel), (5, errors.UnknownLabel),
        (np.int64(-2), errors.UnknownLabel), ("Q", errors.UnknownLabel),
        (1.7, errors.BadLabel), (1.0, errors.BadLabel), (True, errors.BadLabel),
        (np.bool_(False), errors.BadLabel), (None, errors.BadLabel),
    ])
    def test_refused(self, phd_chain, start, error):
        with pytest.raises(error):
            sample(phd_chain, start, 3, seed=0)
        with pytest.raises(error):
            occupancy(phd_chain, start, 3, seed=0, trajectories=2)

    @pytest.mark.parametrize("start", [0, 3, np.int64(2), np.uint8(1)])
    def test_index_in_range(self, phd_chain, start):
        path = sample(phd_chain, start, 4, seed=1)
        assert path[0] == phd_chain.labels[int(start)]
        assert path == sample(phd_chain, phd_chain.labels[int(start)], 4, seed=1)
        occ = occupancy(phd_chain, start, 4, seed=1, trajectories=3)
        assert occ[0, int(start)] == 1.0


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_chain_entry(self, bad):
        with pytest.raises(errors.ValidationError):
            build_chain("ab", [[bad, 0.5], [0.2, 0.8]])

    @pytest.mark.parametrize("bad", [10**400, -10**400])
    def test_integer_past_double_range(self, bad):
        # numpy raises OverflowError converting it; it used to escape
        with pytest.raises(errors.NonFiniteEntry, match="non-finite entry"):
            build_chain("ab", [[bad, 0.5], [0.2, 0.8]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_entry(self, phd_chain, bad):
        with pytest.raises(errors.ValidationError):
            evolve(phd_chain, [bad, 0.5, 0.25, 0.25])

    @pytest.mark.parametrize("p", [[["a", 1], [0, 1]], [[0.5, 0.5], [1]]],
                             ids=["non-numeric", "ragged"])
    def test_unreadable_matrix(self, p):
        with pytest.raises(errors.ValidationError):
            build_chain("ab", p)
