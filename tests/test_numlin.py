import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainkit import classify, decompose, errors, line_chain, numlin
from chainkit.gth import stationary_gth
from chainkit.numlin import (
    CONDITION_LIMIT,
    RANK_RTOL,
    _condition,
    _eigenpairs,
    clusters,
    eigen_from_schur,
    real_schur,
    solve_linear,
    sym_eigen,
)

import test_gth
from conftest import periodic_chain

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
        with pytest.raises(errors.DimensionMismatch):
            solve_linear(np.eye(2), np.ones((2, 2, 2)))

    def test_empty_system_has_the_empty_solution(self):
        assert solve_linear(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert solve_linear(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)
        with pytest.raises(errors.DimensionMismatch):
            solve_linear(np.zeros((0, 0)), np.zeros(1))


# The GTH cases live in test_gth.py. Their classes are collected here too,
# so the ids they had in this file still run; a @given test runs from one
# class only, so the two property tests run in test_gth.py alone.
TestBlockedGTH = test_gth.TestBlockedGTH


class TestStationaryGTH(test_gth.TestStationaryGTH):
    test_matches_exact_rational_solve = None


class TestOnePassColumnUpdate(test_gth.TestOnePassColumnUpdate):
    test_bitwise_equal_to_two_passes = None


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

    def test_rejects_asymmetric_with_underflowing_norm(self, monkeypatch):
        # the square of 1e-170 underflows, so ||a||_F is 0 and 1e-10 * ||a||_F too
        a = np.array([[0.0, 1e-170], [0.0, 0.0]])
        assert numlin._finite_norm(a) == 0.0

        def reduce(*_):
            raise AssertionError("reached the Hessenberg reduction")

        monkeypatch.setattr(numlin, "_hessenberg", reduce)
        with pytest.raises(errors.NotSymmetric):
            sym_eigen(a)

    def test_zero_matrix(self):
        w, v = sym_eigen(np.zeros((4, 4)))
        assert np.allclose(w, 0) and np.allclose(v, np.eye(4))

    def test_empty_matrix(self):
        w, v = sym_eigen(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)

    def test_hessenberg_leaves_tridiagonal_input(self):
        a = symmetric_family("tridiagonal", 30, np.random.default_rng(22))
        h, q = numlin._hessenberg(a)
        assert np.array_equal(q, np.eye(30)) and np.array_equal(h, a)

    @pytest.mark.parametrize("n", [2, 30, 90])
    @pytest.mark.parametrize("family", ["random", "tridiagonal", "star", "diagonal"])
    def test_accuracy(self, family, n):
        # the star graph's tridiagonal form splits, so its QR runs on blocks
        a = symmetric_family(family, n, np.random.default_rng(n))
        w, v = sym_eigen(a)
        scale = np.linalg.norm(a)
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-13
        assert np.linalg.norm(a @ v - v * w) <= 1e-13 * scale
        assert np.max(np.abs(w - np.linalg.eigh(a)[0])) <= 1e-13 * scale

    @pytest.mark.parametrize("family", ["random", "tridiagonal", "star"])
    def test_waves_apply_rotations_in_order(self, family, monkeypatch):
        a = symmetric_family(family, 40, np.random.default_rng(23))
        seen = []

        def recorded(vt, sweeps, cos, sin):
            seen.append((vt.copy(), list(sweeps), list(cos), list(sin)))
            return apply(vt, sweeps, cos, sin)

        apply = numlin._apply_rotations
        monkeypatch.setattr(numlin, "_apply_rotations", recorded)
        sym_eigen(a)
        (vt, sweeps, cos, sin), = seen
        want = one_rotation_at_a_time(vt, sweeps, cos, sin)
        # each row meets the same 2x2 products in the same order
        assert np.max(np.abs(apply(vt, sweeps, cos, sin) - want)) <= 1e-15

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           windows=st.lists(st.tuples(st.integers(0, 38), st.integers(0, 38)),
                            min_size=1, max_size=12))
    def test_runs_apply_synthetic_rotations_in_order(self, n, seed, windows):
        # one window [lo, hi] of k per sweep, in any order: shrinking,
        # growing or far apart, so that a wave has gaps in k or one
        # rotation only
        rng = np.random.default_rng(seed)
        sweeps = [(lo, hi + 1) for lo, hi in
                  (sorted(min(x, n - 2) for x in ends) for ends in windows)]
        theta = rng.uniform(0.0, 2.0 * np.pi, sum(hi - lo for lo, hi in sweeps))
        cos, sin = np.cos(theta).tolist(), np.sin(theta).tolist()
        vt = rng.standard_normal((n, n))
        want = one_rotation_at_a_time(vt, sweeps, cos, sin)
        assert numlin._apply_rotations(vt, sweeps, cos, sin) is vt  # updated in place
        assert np.max(np.abs(vt - want)) <= 1e-15

    def test_hessenberg_scales_an_underflowing_column(self):
        # state 0 trades 1e-170 with each other state: the entries below
        # the subdiagonal square to 0, and unscaled, the reflector divides
        # by that 0 and fills h and q with NaN
        for low in ([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
                    [[0.2, 0.7, 0.1], [0.1, 0.2, 0.7], [0.7, 0.1, 0.2]]):
            a = np.full((4, 4), 1e-170)
            a[0, 0] = 1.0
            a[1:, 1:] = low
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                h, q = numlin._hessenberg(a)
            assert np.all(np.isfinite(h)) and np.all(np.isfinite(q))
            assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-15
            assert np.linalg.norm(q @ h @ q.T - a) <= 1e-15 * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 40])
    @pytest.mark.parametrize("family", ["random", "symmetric", "tridiagonal", "strided"])
    def test_hessenberg_matches_the_textbook_form_bit_for_bit(self, family, n):
        rng = np.random.default_rng(100 + n)
        if family == "random":
            a = rng.normal(size=(n, n))
        elif family == "strided":
            a = rng.normal(size=(2 * n, 3 * n))[::2, ::3]
        else:
            a = symmetric_family("random" if family == "symmetric" else family,
                                 n, rng) if n else np.zeros((0, 0))
        for got, want in zip(numlin._hessenberg(a), textbook_hessenberg(a)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", ["strided", "transposed"])
    def test_views_give_the_result_of_their_copy(self, layout):
        a = symmetric_family("random", 40, np.random.default_rng(24))
        view = a[::2, ::2] if layout == "strided" else a.T
        assert not view.flags.c_contiguous
        got, want = sym_eigen(view), sym_eigen(np.ascontiguousarray(view))
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


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
            for s, b in zip(np.cumsum(sf.block_sizes) - sf.block_sizes, sf.block_sizes):
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
    def test_zero_matrix(self):
        # ||T||_F = 0 falls back to scale 1: the clamp stays positive
        ep = eigen_from_schur(real_schur(np.zeros((3, 3))))
        assert ep.values.tolist() == [0, 0, 0]
        assert ep.condition == 1.0 and ep.residual == 0.0 and ep.diagonalizable

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
            if not ep.diagonalizable:
                continue
            left = ep.left
            right = ep.right
            scale = max(1.0, np.linalg.norm(a))
            assert np.allclose(left.T @ right, np.eye(n), atol=1e-12)
            for j in range(n):
                assert np.allclose(left[:, j] @ a, ep.values[j] * left[:, j],
                                   atol=1e-6 * scale)
                assert np.allclose(a @ right[:, j], ep.values[j] * right[:, j],
                                   atol=1e-6 * scale)

    def test_pair_encoding_positive_imag_first(self):
        # one complex column per eigenvalue on every route: a conjugate
        # pair is adjacent, positive imaginary part first, and its second
        # columns are exactly the conjugates of its first
        lift = periodic_chain(np.random.default_rng(3), 3, 5)
        line = line_chain(n=12, perturb=0.1, seed=4)
        for ep, has_pairs in ((eigen_from_schur(real_schur(DIAG_COMPLEX)), True),
                              (decompose(lift, classify(lift)).pairs, True),
                              (decompose(line, classify(line)).pairs, False)):
            seen_pair = False
            j = 0
            while j < len(ep.values):
                lam = ep.values[j]
                if lam.imag != 0:
                    assert lam.imag > 0 and ep.values[j + 1] == np.conj(lam)
                    assert np.array_equal(ep.right[:, j + 1], ep.right[:, j].conj())
                    assert np.array_equal(ep.left[:, j + 1], ep.left[:, j].conj())
                    seen_pair = True
                    j += 2
                else:
                    j += 1
            assert seen_pair == has_pairs
            assert ep.right.dtype == ep.left.dtype == complex
            assert np.allclose(np.linalg.norm(ep.right, axis=0), 1.0, atol=1e-12)

    def test_unit_norm_right_vectors(self):
        ep = eigen_from_schur(real_schur(DIAG_REAL))
        right = ep.right
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

    def test_empty_matrix(self):
        ep = eigen_from_schur(real_schur(np.zeros((0, 0))))
        assert len(ep.values) == 0 and ep.right.shape == ep.left.shape == (0, 0)
        assert ep.diagonalizable and ep.residual == 0.0
        assert clusters(ep.values, 1.0).tolist() == []

    def test_identity_diagonalizable(self):
        ep = eigen_from_schur(real_schur(np.eye(4)))
        assert ep.diagonalizable
        assert clusters(ep.values, 2.0).tolist() == [0, 0, 0, 0]
        assert np.allclose(ep.values, 1.0)


# ---------------------------------------------------------------------------
# workload sizes and hard families

def _normalize(w):
    return w / w.sum(axis=1, keepdims=True)


def _graph_laplacian(w):
    return np.diag(w.sum(axis=1)) - w


def one_rotation_at_a_time(vt, sweeps, cos, sin):
    """vt with sym_eigen's rotation log applied in the order QR made it:
    rows k and k + 1 for k = lo, ..., hi - 1 of each sweep (lo, hi)."""
    want = vt.copy()
    rotations = zip(cos, sin)
    for lo, hi in sweeps:
        for k in range(lo, hi):
            c, s = next(rotations)
            want[k:k + 2] = np.array(((c, s), (-s, c))) @ want[k:k + 2]
    assert next(rotations, None) is None
    return want


def textbook_hessenberg(a):
    """Householder reduction to Hessenberg form written with numpy's
    norm, copysign and outer, the arithmetic `_hessenberg` spells out."""
    h = a.copy()
    n = h.shape[0]
    q = np.eye(n)
    for k in range(n - 2):
        if not np.any(h[k + 2:, k]):
            continue
        x = h[k + 1:, k]
        nx = np.linalg.norm(x)
        v = x.copy()
        v[0] += np.copysign(nx, x[0]) if x[0] != 0 else nx
        v /= np.linalg.norm(v)
        rows = h[k + 1:, k:]
        rows -= 2.0 * np.outer(v, v @ rows)
        for block in (h[:, k + 1:], q[:, k + 1:]):
            block -= 2.0 * np.outer(block @ v, v)
        h[k + 2:, k] = 0.0
    return h, q


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
    if name == "tridiagonal":
        e = rng.normal(size=n - 1)
        return np.diag(rng.normal(size=n)) + np.diag(e, 1) + np.diag(e, -1)
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

    def test_sym_eigen_iteration_budget(self, monkeypatch):
        a = symmetric_family("random", 45, np.random.default_rng(1))
        monkeypatch.setattr(numlin, "_qr_budget", lambda n: 1)
        with pytest.raises(errors.NoConvergence):
            sym_eigen(a)

    def test_real_schur_iteration_budget(self, monkeypatch):
        a = np.random.default_rng(1).random((45, 45))
        monkeypatch.setattr(numlin, "_qr_budget", lambda n: 1)
        with pytest.raises(errors.NoConvergence):
            real_schur(a)

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


def dense_matrix(n, rng):
    return _normalize(rng.random((n, n)) ** 2 + 1e-3)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


class TestEigenpairs:
    def test_underflowed_pairing_is_not_diagonalizable(self):
        # column 1's unit vectors meet at l^T r = 1e-310, so 1/s is past
        # the double range: no column is rescaled, and l / (l^T r) never
        # reaches 1e310
        right = np.array([[1.0, 1.0], [1.0, 1e-310]])
        left = np.array([[1.0, 0.0], [-0.5, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = _eigenpairs(np.array([1.0, 0.5]), [1, 1], right, left, 1.0, 0.0)
        assert not pairs.diagonalizable
        for x in (pairs.right, pairs.left):
            assert np.all(np.isfinite(x))
            assert np.allclose(np.linalg.norm(x, axis=0), 1.0, rtol=1e-15, atol=0)

    def test_zero_pairing_is_not_diagonalizable(self):
        # l_0^T r_0 is 0, as when a far-scaled pair's product underflows:
        # 1/s is infinite, so no Gram-Schmidt pass divides by that pivot
        right = np.array([[1.0, 1.0], [0.0, 1.0]])
        left = np.array([[0.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = _eigenpairs(np.array([1.0, 1.0]), [1, 1], right, left, 1.0, 0.0)
        assert not pairs.diagonalizable and pairs.condition == np.inf
        for x in (pairs.right, pairs.left):
            assert np.all(np.isfinite(x))
            assert np.allclose(np.linalg.norm(x, axis=0), 1.0, rtol=1e-15, atol=0)
        assert np.allclose(pairs.right, right / np.linalg.norm(right, axis=0), atol=0)


class TestClusters:
    def test_single_linkage_chains_through_members(self):
        # 0 and 1.5e-8 are more than 1e-8 apart, but 0.8e-8 links them
        assert clusters(np.array([0.0, 1.5e-8, 5.0, 0.8e-8]), 1.0).tolist() == [0, 0, 2, 0]

    def test_tolerance_scales_with_the_matrix_norm(self):
        values = np.array([1.0, 1.0 + 5e-8])
        assert clusters(values, 1.0).tolist() == [0, 1]
        assert clusters(values, 10.0).tolist() == [0, 0]

    def test_complex_values_link_by_distance(self):
        values = np.array([1j, 1 + 0j, 1 + 0.6e-8j, -1j, 1 - 0.6e-8j])
        assert clusters(values, 1.0).tolist() == [0, 1, 1, 3, 1]

    def test_empty(self):
        assert clusters(np.zeros(0), 1.0).tolist() == []

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=30),
           st.floats(1e-3, 1e8))
    def test_real_clusters_are_the_consecutive_gap_rule(self, xs, scale):
        values = np.sort(np.array(xs))
        starts = np.concatenate(([True], np.diff(values) > RANK_RTOL * scale))
        want = np.flatnonzero(starts)[np.cumsum(starts) - 1]
        assert np.array_equal(clusters(values, scale), want)


def jordan2(lam, corner, seed):
    """Q [[lam, 1], [corner, lam]] Q^T, Q from the QR of a seeded normal
    2 x 2: a rotated Jordan block, defective for corner 0 and 1e-16 alike."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((2, 2)))
    return q @ np.array([[lam, 1.0], [corner, lam]]) @ q.T


class TestDiagonalizabilityVerdicts:
    """One rule decides: a matrix is diagonalizable when no eigenvalue's
    condition number 1/s_j passes CONDITION_LIMIT, whether or not QR
    leaves a defective eigenvalue's copies in one cluster."""

    @pytest.mark.parametrize("corner", [0.0, 1e-16])
    def test_rotated_jordan2_caught_by_cluster_rank(self, corner):
        # QR splits the double eigenvalue by about 1e-8: one cluster, whose
        # two nearly parallel eigenvectors put 1/s_j far past the bound
        q = rotation(np.pi / 6)
        sf = real_schur(q @ np.array([[2.0, 1.0], [corner, 2.0]]) @ q.T)
        ep = eigen_from_schur(sf)
        assert not ep.diagonalizable
        assert clusters(ep.values, np.linalg.norm(sf.t)).tolist() == [0, 0]
        assert np.min(_condition(ep.right, ep.left)) > CONDITION_LIMIT

    def test_rotated_jordan3_caught_by_condition_number(self):
        # QR splits the triple eigenvalue by about 1e-5, far past the
        # cluster tolerance, so only the condition numbers show it
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        a = q @ np.array([[2.0, 1, 0], [0, 2, 1], [0, 0, 2]]) @ q.T
        sf = real_schur(a)
        ep = eigen_from_schur(sf)
        assert clusters(ep.values, np.linalg.norm(sf.t)).tolist() == [0, 1, 2]
        assert np.max(_condition(ep.right, ep.left)) > CONDITION_LIMIT
        assert not ep.diagonalizable

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("corner", [0.0, 1e-16])
    def test_rotated_jordan2_gallery(self, lam, corner):
        # a full-rank basis test let 35-72 of each 100 through
        for seed in range(100):
            ep = eigen_from_schur(real_schur(jordan2(lam, corner, seed)))
            assert not ep.diagonalizable, seed

    def test_unrotated_jordan3_not_diagonalizable(self):
        j = np.array([[2.0, 1, 0], [0, 2, 1], [0, 0, 2]])
        ep = eigen_from_schur(real_schur(j))
        assert not ep.diagonalizable

    @pytest.mark.parametrize("a", [
        np.eye(90),
        multiclass_matrix(60, 5, np.random.default_rng(5)),
    ], ids=["identity90", "multiclass60"])
    def test_repeated_semisimple_eigenvalue(self, a):
        ep = eigen_from_schur(real_schur(a))
        assert ep.diagonalizable
        assert np.unique(clusters(ep.values, np.linalg.norm(a))).size < len(a)
        assert np.max(np.abs(ep.left.T @ ep.right - np.eye(len(a)))) <= 1e-12

    @pytest.mark.parametrize("a", [
        line_chain(n=60, p_right=0.52, perturb=0.04, seed=1).p,
        line_chain(n=90, p_right=0.52, perturb=0.04, seed=2).p,
        cycle_matrix(50, np.random.default_rng(50)),
        cycle_matrix(90, np.random.default_rng(90)),
        block_periodic_matrix(56, 4, np.random.default_rng(4)),
        block_periodic_matrix(81, 3, np.random.default_rng(3)),
        dense_matrix(45, np.random.default_rng(45)),
        dense_matrix(60, np.random.default_rng(60)),
    ], ids=["line60", "line90", "cycle50", "cycle90", "periodic56", "periodic81",
            "dense45", "dense60"])
    def test_workload_family_residual(self, a):
        ep = eigen_from_schur(real_schur(a))
        assert ep.diagonalizable
        assert ep.residual <= 1e-12 * max(1.0, np.linalg.norm(a))
        right = ep.right
        assert np.max(np.abs(a @ right - right * ep.values)) <= 1e-12 * max(1.0, np.linalg.norm(a))


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


# finite entries whose squares overflow: ||a||_F is inf, and so is 1e-10 * ||a||_F,
# which once let an asymmetric copy past NotSymmetric into a QR loop that ran
# out its budget
OVERFLOWING = np.array([[1, 2, 3, 4], [2, 1, 5, 6], [3, 5, 1, 7], [4, 6, 7, 1]]) * 1e160


@pytest.mark.parametrize("kernel", [sym_eigen, real_schur], ids=["sym_eigen", "real_schur"])
@pytest.mark.parametrize("entry", [None, (0, 3)], ids=["symmetric", "asymmetric"])
def test_overflowing_norm_is_numeric_error_before_qr(kernel, entry, monkeypatch):
    a = OVERFLOWING.copy()
    if entry is not None:
        a[entry] *= 1.5

    def reduce(*_):
        raise AssertionError("reached the Hessenberg reduction")

    monkeypatch.setattr(numlin, "_hessenberg", reduce)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.NumericError, match="norm overflows"):
            kernel(a)
