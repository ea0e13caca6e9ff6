"""The GTH state reduction: the blocked kernel against the one-state
reference, its pivots, its rescaling and where it reports a reducible
input."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainkit import build_chain, errors, google_matrix, line_chain
from chainkit.gth import GTH_PANEL, RESCALE_LIMIT, _gth_censor, stationary_gth


def exact_stationary(a):
    """pi Q = 0, sum(pi) = 1 in rationals, with the generator Q taken
    from the off-diagonal entries of a; that is the problem GTH solves."""
    n = len(a)
    q = [[Fraction(float(a[i, j])) if i != j else Fraction(0) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        q[i][i] = -sum(q[i])
    rows = [[q[j][i] for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    rows.append([Fraction(1)] * (n + 1))  # normalization replaces one equation
    for k in range(n):
        piv = next(r for r in range(k, n) if rows[r][k] != 0)
        rows[k], rows[piv] = rows[piv], rows[k]
        for r in range(n):
            if r != k and rows[r][k] != 0:
                f = rows[r][k] / rows[k][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    return np.array([float(rows[k][n] / rows[k][k]) for k in range(n)])


class TestStationaryGTH:
    def test_empty_matrix_is_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            stationary_gth(np.zeros((0, 0)))

    @pytest.mark.parametrize("n, p", [(60, 0.3), (200, 0.3), (400, 0.45), (400, 0.9)])
    def test_birth_death_relative_accuracy(self, n, p):
        # detailed balance: pi_i+1 / pi_i = a[i, i+1] / a[i+1, i], so pi_i
        # is proportional to (p / (1 - p))^i; at p = 0.9 it spans 1e-381,
        # past the double range, and its smallest entries are 0
        a = line_chain(n=n, p_right=p).p
        weights = [Fraction(1)]
        for i in range(n - 1):
            weights.append(weights[-1] * Fraction(a[i, i + 1]) / Fraction(a[i + 1, i]))
        total = sum(weights)
        want = np.array([float(w / total) for w in weights])
        got = stationary_gth(a)
        normal = want > 1e-300
        assert np.all(np.isfinite(got)) and np.all(got[normal] > 0)
        assert np.max(np.abs(got[normal] / want[normal] - 1.0)) <= 1e-13

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_matches_exact_rational_solve(self, weights):
        w = np.array(weights, dtype=float)
        n = len(w)
        w[np.arange(n), (np.arange(n) + 1) % n] += 1.0  # a cycle: irreducible
        a = w / w.sum(axis=1, keepdims=True)
        want = exact_stationary(a)
        assert np.max(np.abs(stationary_gth(a) / want - 1.0)) <= 1e-13

    def test_reducible_raises(self):
        a = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(errors.SingularMatrix):
            stationary_gth(a)


def unblocked_censor(a, stop):
    """GTH one censored state at a time, each by a full rank-1 update of
    the leading block: the reference the panelled kernel reorders.
    Returns the censored copy of a and the pivots."""
    a = np.array(a, dtype=float)
    m = a.shape[0]
    pivots = np.zeros(m - stop)
    for k in range(m - 1, stop - 1, -1):
        s = pivots[k - stop] = a[k, :k].sum()
        if not s > 0:
            raise errors.SingularMatrix(f"state {k} cannot reach states 0..{k - 1}: "
                                        "matrix is reducible")
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    return a, pivots


def unblocked_gth(a):
    a, _ = unblocked_censor(a, 1)
    m = a.shape[0]
    x = np.zeros(m)
    x[0] = 1.0
    for k in range(1, m):
        x[k] = x[:k] @ a[:k, k]
        if x[k] > RESCALE_LIMIT:
            x[:k + 1] /= x[k]
    return x / x.sum()


def gth_family(name, m, rng):
    """An irreducible stochastic matrix: dense, sparse, or the Google
    matrix of a sparse chain."""
    if name == "dense":
        w = rng.random((m, m))
    else:  # a cycle keeps the sparse pattern irreducible
        w = (rng.random((m, m)) < 3.0 / m) * rng.random((m, m))
        w[np.arange(m), (np.arange(m) + 1) % m] += 1.0
    p = w / w.sum(axis=1, keepdims=True)
    if name == "google":
        chain = build_chain([str(i) for i in range(m)], p)
        p = google_matrix(chain, 0.99).p
    return p


PANEL_SIZES = [1, 2, GTH_PANEL - 1, GTH_PANEL, GTH_PANEL + 1, 2 * GTH_PANEL,
               2 * GTH_PANEL + 1, 3 * GTH_PANEL + 1]


class TestBlockedGTH:
    @pytest.mark.parametrize("family", ["dense", "sparse", "google"])
    @pytest.mark.parametrize("m", PANEL_SIZES)
    def test_matches_unblocked_reference(self, family, m):
        a = gth_family(family, m, np.random.default_rng(m))
        want = unblocked_gth(a)
        assert np.all(want > 0)
        assert np.max(np.abs(stationary_gth(a) / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("stop", [1, 3])
    @pytest.mark.parametrize("family", ["dense", "sparse", "google"])
    @pytest.mark.parametrize("m", PANEL_SIZES)
    def test_censored_matrix_matches_unblocked_reference(self, family, m, stop):
        # m - 1 states censored at either stop: the scaled columns above
        # the diagonal and the censored rows below it, which
        # fundamental_matrix reads, and the pivots
        a = gth_family(family, m + stop - 1, np.random.default_rng(m))
        want, want_pivots = unblocked_censor(a, stop)
        got = a.copy()
        pivots = _gth_censor(got, stop)
        off = ~np.eye(len(a), dtype=bool)
        assert np.all(np.abs(got - want)[off] <= 1e-13 * want[off])
        assert np.all(np.abs(pivots - want_pivots) <= 1e-13 * want_pivots)

    @pytest.mark.parametrize("stop", [1, 3])
    @pytest.mark.parametrize("family", ["dense", "sparse"])
    @pytest.mark.parametrize("m", PANEL_SIZES)
    def test_diagonal_is_never_read(self, family, m, stop):
        a = gth_family(family, m + stop - 1, np.random.default_rng(m))
        nan = a.copy()
        np.fill_diagonal(nan, np.nan)
        pivots = _gth_censor(a, stop)
        nan_pivots = _gth_censor(nan, stop)
        off = ~np.eye(len(a), dtype=bool)
        assert np.array_equal(nan[off], a[off]) and np.array_equal(nan_pivots, pivots)

    def test_underflowing_birth_death_rescales_like_reference(self):
        # pi spans 1e-381: back-substitution rescales past RESCALE_LIMIT
        a = line_chain(n=400, p_right=0.9).p
        want = unblocked_gth(a)
        got = stationary_gth(a)
        normal = want > 1e-300
        assert normal.sum() < 400 and np.all(got[normal] > 0)
        assert np.max(np.abs(got[normal] / want[normal] - 1.0)) <= 1e-13

    @pytest.mark.parametrize("state", [
        3 * GTH_PANEL,          # the first state censored
        2 * GTH_PANEL + 7,      # inside the first panel
        2 * GTH_PANEL + 1,      # the last state of the first panel
        2 * GTH_PANEL,          # the first state of the second panel
        GTH_PANEL + 1,          # the last state of the second panel
        GTH_PANEL,              # the first state of the third panel
        1,                      # the last state censored
    ])
    def test_reducible_names_the_reference_state(self, state):
        # states >= `state` form a closed class, so censoring first
        # fails there: row `state` has nothing left in columns < state
        m = 3 * GTH_PANEL + 1
        a = gth_family("dense", m, np.random.default_rng(state))
        a[state:, :state] = 0.0
        a /= a.sum(axis=1, keepdims=True)
        with pytest.raises(errors.SingularMatrix) as want:
            unblocked_gth(a)
        with pytest.raises(errors.SingularMatrix) as got:
            stationary_gth(a)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"state {state} ")


def two_step_censor(a, stop):
    """_gth_censor with each column updated and then scaled in two
    passes: the form its one-pass column update must match bit for bit."""
    m = a.shape[0]
    pivots = np.zeros(m - stop)
    for k1 in range(m, stop, -GTH_PANEL):
        k0 = max(k1 - GTH_PANEL, stop)
        for k in range(k1 - 1, k0 - 1, -1):
            a[k, :k] += a[k, k + 1:k1] @ a[k + 1:k1, :k]
            a[:k, k] += a[:k, k + 1:k1] @ a[k + 1:k1, k]
            s = pivots[k - stop] = a[k, :k].sum()
            if not s > 0:
                raise errors.SingularMatrix(f"state {k} cannot reach states 0..{k - 1}: "
                                            "matrix is reducible")
            a[:k, k] /= s
        a[:k0, :k0] += a[:k0, k0:k1] @ a[k0:k1, :k0]
    return pivots


@st.composite
def nonnegative_matrices(draw):
    """A nonnegative m x m matrix over up to four panels, dense or sparse
    (so often reducible), entries spread over 1e-30 to 1e30, and a stop."""
    m = draw(st.integers(1, 3 * GTH_PANEL + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([1.0, 0.5, 3.0 / m]))
    a = rng.random((m, m)) * (rng.random((m, m)) < density)
    if draw(st.booleans()):
        a *= 10.0 ** rng.integers(-30, 31, (m, m))
    return a, draw(st.integers(1, max(1, m - 1)))


def censor_outcome(censor, a, stop):
    """The censored copy and pivots, or the SingularMatrix text."""
    a = a.copy()
    try:
        pivots = censor(a, stop)
    except errors.SingularMatrix as exc:
        return str(exc)
    return a.tobytes(), pivots.tobytes()


class TestOnePassColumnUpdate:
    @given(nonnegative_matrices())
    def test_bitwise_equal_to_two_passes(self, drawn):
        a, stop = drawn
        assert (censor_outcome(_gth_censor, a, stop)
                == censor_outcome(two_step_censor, a, stop))

    @pytest.mark.parametrize("state", [1, GTH_PANEL, 2 * GTH_PANEL + 5])
    def test_reducible_raises_at_the_same_state(self, state):
        a = gth_family("dense", 3 * GTH_PANEL + 1, np.random.default_rng(state))
        a[state:, :state] = 0.0
        got = censor_outcome(_gth_censor, a, 1)
        assert got == censor_outcome(two_step_censor, a, 1)
        assert got.startswith(f"state {state} cannot reach")
