import numpy as np
import pytest

from chainkit import (
    build_chain,
    chain as chain_module,
    conditional_expectation,
    errors,
    evolve,
    occupancy,
    point_mass,
    sample,
)
from chainkit.chain import TransitionMatrix


class TestBuildChain:
    def test_negative_entry(self):
        with pytest.raises(errors.NegativeEntry):
            build_chain("ab", [[1.1, -0.1], [0.5, 0.5]])

    def test_tiny_negative_clamped(self):
        c = build_chain("ab", [[1.0 + 5e-13, -5e-13], [0.5, 0.5]])
        assert c.p[0, 1] == 0.0

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

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            build_chain("abc", [[0.5, 0.5], [0.5, 0.5]])

    def test_rows_exactly_normalized(self):
        c = build_chain("ab", [[0.3 + 1e-10, 0.7], [1, 0]])
        assert np.allclose(c.p.sum(axis=1), 1.0, atol=0)


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
        a = sample(phd_chain, "S", 20, seed=9, trajectory=0)
        b = sample(phd_chain, "S", 20, seed=9, trajectory=1)
        assert a != b
        # trajectory index shifts the stream exactly like the seed does
        assert b == sample(phd_chain, "S", 20, seed=10, trajectory=0)

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
def _sample_per_step(chain, start, length, seed, trajectory=0):
    i = chain.index(start) if isinstance(start, str) else int(start)
    rng = np.random.default_rng(int(seed) + int(trajectory))
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
        path = _sample_per_step(chain, start, length, seed, trajectory=traj)
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
            assert (sample(chain, start, length, seed, trajectory=traj)
                    == _sample_per_step(chain, start, length, seed, traj))

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

    def test_short_row_reaches_the_clip(self):
        chain = _short_row_chain()
        assert np.cumsum(chain.p, axis=1)[1, -1] < 1.0
        path = _sample_per_step(chain, "x", 200, 3)
        assert any(a == "x" and b == "z" for a, b in zip(path, path[1:]))

    def test_occupancy_across_trajectory_blocks(self, monkeypatch):
        # shrink the uniform buffer so 50 trajectories of 10 steps on 6
        # states need nine blocks, the last one short
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


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_chain_entry(self, bad):
        with pytest.raises(errors.ValidationError):
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
