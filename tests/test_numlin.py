from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainkit import errors, line_chain
from chainkit.numlin import (
    eigen_from_schur,
    real_schur,
    solve_linear,
    stationary_gth,
    sym_eigen,
)

NONDIAG_COMPLEX = [[0, 0.4, 0.6, 0, 0],
                       [0, 0, 0, 0, 1],
                       [0, 0, 0, 0, 1],
                       [0, 0, 0.8, 0, 0.2],
                       [0.25, 0, 0, 0.75, 0]]
DIAG_COMPLEX = [[0.1, 0.3, 0.6], [0.7, 0, 0.3], [0.5, 0.5, 0]]
NONDIAG_REAL = [[0.25, 0.625, 0.125],
                    [0.125, 0.25, 0.625],
                    [0.125, 0.125, 0.75]]
DIAG_REAL = [[0.6, 0, 0.4, 0],
                 [0.25, 0.5, 0, 0.25],
                 [0.25, 0, 0.5, 0.25],
                 [0, 0.5, 0, 0.5]]


class TestSolveLinear:
    def test_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            x = solve_linear(a, b)
            assert np.allclose(a @ x, b, atol=1e-9)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 5))
        x = solve_linear(a, np.eye(5))
        assert np.allclose(a @ x, np.eye(5), atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(errors.SingularMatrix):
            solve_linear(np.zeros((3, 3)), np.ones(3))
        with pytest.raises(errors.SingularMatrix):
            solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            solve_linear(np.ones((2, 3)), np.ones(2))


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


class TestSymEigen:
    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 25))
            a = rng.normal(size=(n, n))
            a = a + a.T
            w, v = sym_eigen(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.allclose(a @ v, v * w, atol=1e-9 * scale)
            assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)
            assert np.all(np.diff(w) >= -1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(errors.NotSymmetric):
            sym_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_zero_matrix(self):
        w, v = sym_eigen(np.zeros((4, 4)))
        assert np.allclose(w, 0) and np.allclose(v, np.eye(4))


class TestRealSchur:
    def test_invariants_random(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            sf = real_schur(a)
            assert np.allclose(sf.q.T @ sf.q, np.eye(n), atol=1e-10)
            assert np.allclose(sf.q @ sf.t @ sf.q.T, a,
                               atol=1e-8 * max(1.0, np.linalg.norm(a)))
            assert np.allclose(np.tril(sf.t, -2), 0.0)
            assert sum(sf.block_sizes) == n
            # every surviving 2x2 block is a true conjugate pair
            for s, b in zip(sf.block_starts(), sf.block_sizes):
                if b == 2:
                    disc = (0.25 * (sf.t[s, s] - sf.t[s + 1, s + 1]) ** 2
                            + sf.t[s, s + 1] * sf.t[s + 1, s])
                    assert disc < 0

    def test_stochastic_matrices(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = rng.random((n, n)) ** 3 + 1e-6
            p /= p.sum(axis=1, keepdims=True)
            ep = eigen_from_schur(real_schur(p))
            assert np.allclose(np.sort_complex(ep.values),
                               np.sort_complex(np.linalg.eigvals(p)), atol=1e-8)


class TestEigenFromSchur:
    def test_residual_bound_random(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(1000):
            a = rng.normal(size=(6, 6))
            ep = eigen_from_schur(real_schur(a))
            worst = max(worst, ep.residual / max(1.0, np.linalg.norm(a)))
        assert worst <= 1e-7

    def test_left_right_pairing_simple(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            a = rng.normal(size=(n, n))
            ep = eigen_from_schur(real_schur(a))
            if not ep.simple:
                continue
            left = ep.left_complex()
            right = ep.right_complex()
            scale = max(1.0, np.linalg.norm(a))
            assert np.allclose(np.diag(left.T @ right), 1.0, atol=1e-7)
            for j in range(n):
                assert np.allclose(left[:, j] @ a, ep.values[j] * left[:, j],
                                   atol=1e-6 * scale)
                assert np.allclose(a @ right[:, j], ep.values[j] * right[:, j],
                                   atol=1e-6 * scale)

    def test_pair_encoding_positive_imag_first(self):
        ep = eigen_from_schur(real_schur(DIAG_COMPLEX))
        seen_pair = False
        j = 0
        while j < len(ep.values):
            lam = ep.values[j]
            if lam.imag != 0:
                assert lam.imag > 0
                assert np.isclose(ep.values[j + 1], np.conj(lam))
                seen_pair = True
                j += 2
            else:
                j += 1
        assert seen_pair

    def test_unit_norm_right_vectors(self):
        ep = eigen_from_schur(real_schur(DIAG_REAL))
        right = ep.right_complex()
        assert np.allclose(np.linalg.norm(right, axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize("matrix,diag,cplx", [
        (NONDIAG_COMPLEX, False, True),
        (DIAG_COMPLEX, True, True),
        (NONDIAG_REAL, False, False),
        (DIAG_REAL, True, False),
    ])
    def test_diagnosability_reference_matrices(self, matrix, diag, cplx):
        ep = eigen_from_schur(real_schur(matrix))
        assert ep.diagonalizable == diag
        assert bool(np.any(np.abs(ep.values.imag) > 1e-8)) == cplx

    def test_defective_jordan_block(self):
        j = np.array([[2.0, 1, 0], [0, 2, 1], [0, 0, 2]])
        assert not eigen_from_schur(real_schur(j)).diagonalizable

    def test_identity_diagonalizable(self):
        ep = eigen_from_schur(real_schur(np.eye(4)))
        assert ep.diagonalizable and not ep.simple
        assert np.allclose(ep.values, 1.0)


# ---------------------------------------------------------------------------
# workload sizes and hard families

def _normalize(w):
    return w / w.sum(axis=1, keepdims=True)


def _graph_laplacian(w):
    return np.diag(w.sum(axis=1)) - w


def symmetric_family(name, n, rng):
    if name == "random":
        a = rng.normal(size=(n, n))
        return a + a.T
    if name == "star":  # eigenvalues 0, 1 (n-2 times), n
        w = np.zeros((n, n))
        w[0, 1:] = w[1:, 0] = 1.0
        return _graph_laplacian(w)
    if name == "complete":  # eigenvalues 0, n (n-1 times)
        return _graph_laplacian(np.ones((n, n)) - np.eye(n))
    if name == "diagonal":
        return np.diag(rng.normal(size=n))
    if name == "graded":  # diagonal falls over eight decades
        d = 10.0 ** (-8.0 * np.arange(n) / (n - 1))
        e = 0.5 * np.sqrt(d[:-1] * d[1:])
        return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.zeros((n, n))


def cycle_matrix(n, rng):
    order = rng.permutation(n)
    p = np.zeros((n, n))
    p[order, np.roll(order, -1)] = 1.0
    return p


def block_periodic_matrix(n, d, rng):
    group = rng.permutation(np.arange(n) % d)
    mask = group[None, :] == (group[:, None] + 1) % d
    return _normalize(mask * (rng.random((n, n)) + 0.05))


def multiclass_matrix(n, k, rng):
    cls = rng.permutation(np.arange(n) % k)
    mask = cls[:, None] == cls[None, :]
    return _normalize(mask * (rng.random((n, n)) + 0.05))


def largest_matched_distance(got, want):
    """Pair each wanted eigenvalue with the nearest unused computed one
    and return the largest distance of the pairing."""
    unused = list(got)
    worst = 0.0
    for w in want:
        j = int(np.argmin(np.abs(np.array(unused) - w)))
        worst = max(worst, abs(unused.pop(j) - w))
    return worst


class TestKernelsAtWorkloadSizes:
    @pytest.mark.parametrize("n", [45, 90, 150])
    @pytest.mark.parametrize("family", ["random", "star", "complete",
                                        "diagonal", "graded", "zero"])
    def test_sym_eigen_families(self, family, n):
        a = symmetric_family(family, n, np.random.default_rng(n))
        w, v = sym_eigen(a)
        scale = np.linalg.norm(a)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-12 * scale
        assert np.max(np.abs(a @ v - v * w)) <= 1e-12 * scale
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12

    def test_sym_eigen_iteration_budget(self):
        a = symmetric_family("random", 45, np.random.default_rng(1))
        with pytest.raises(errors.NoConvergence):
            sym_eigen(a, max_iters=1)

    @pytest.mark.parametrize("name,a", [
        ("cycle50", cycle_matrix(50, np.random.default_rng(50))),
        ("cycle90", cycle_matrix(90, np.random.default_rng(90))),
        ("periodic3", block_periodic_matrix(81, 3, np.random.default_rng(3))),
        ("periodic4", block_periodic_matrix(56, 4, np.random.default_rng(4))),
        ("multiclass", multiclass_matrix(60, 5, np.random.default_rng(5))),
        ("identity", np.eye(90)),
    ], ids=lambda x: x if isinstance(x, str) else "")
    def test_real_schur_families(self, name, a):
        n = a.shape[0]
        sf = real_schur(a)
        assert np.max(np.abs(sf.q @ sf.t @ sf.q.T - a)) <= 1e-12
        assert np.max(np.abs(sf.q.T @ sf.q - np.eye(n))) <= 1e-12
        assert np.all(np.tril(sf.t, -2) == 0.0)
        want = np.linalg.eigvals(a)
        got = np.linalg.eigvals(sf.t)
        assert largest_matched_distance(got, want) <= 1e-10
        assert sf.block_sizes.count(2) == int(np.sum(want.imag > 1e-10))


@pytest.mark.parametrize("kernel", [
    lambda m: solve_linear(m, np.ones(len(m))),
    lambda m: solve_linear(np.eye(len(m)), m[3]),
    sym_eigen,
    real_schur,
    stationary_gth,
], ids=["solve_linear", "solve_linear_rhs", "sym_eigen", "real_schur", "stationary_gth"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_numeric_error(kernel, bad):
    a = symmetric_family("random", 40, np.random.default_rng(7))
    a[3, 5] = a[5, 3] = bad
    with pytest.raises(errors.NumericError, match="non-finite"):
        kernel(a)
