import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.optimize import linear_sum_assignment

from chainkit import (
    build_chain,
    classify,
    decompose,
    errors,
    evolve,
    line_chain,
    perron_report,
    spectral_evolve,
    stationary_basis,
    taxonomy,
)
from chainkit import numlin, spectral
from chainkit.numlin import DEFLATE_RTOL, clusters, eigen_from_schur, real_schur, sym_eigen
from chainkit.spectral import (
    SpectralDecomposition,
    _reversible_pairs,
    _schur_by_class,
)

from conftest import layered_chain, periodic_chain, random_recurrent_chain


def decomp_of_matrix(m):
    """Taxonomy test helper: wrap an arbitrary square matrix."""
    pairs = eigen_from_schur(real_schur(m))
    return SpectralDecomposition(pairs=pairs,
                                 order=spectral._order(pairs.values, np.linalg.norm(m)))


class TestDecompose:
    def test_swap_chain(self, swap_chain):
        dec = decompose(swap_chain, classify(swap_chain))
        assert np.allclose(np.sort_complex(dec.values), [-1, 1], atol=1e-12)

    def test_radius_above_one_is_a_numeric_error(self, rev_chain, monkeypatch):
        pairs = eigen_from_schur(real_schur(np.diag([1.5, 0.5, 0.25, 0.0])))
        monkeypatch.setattr(spectral, "_reversible_pairs", lambda p, structure: pairs)
        with pytest.raises(errors.NumericError, match="radius 1.5 exceeds 1"):
            decompose(rev_chain, classify(rev_chain))

    def test_directed_cycle_roots_of_unity(self, cycle3_chain):
        dec = decompose(cycle3_chain, classify(cycle3_chain))
        want = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
        assert np.allclose(np.sort_complex(dec.values), want, atol=1e-10)

    def test_two_recurrent_classes_unit_multiplicity(self):
        p = np.zeros((4, 4))
        p[0, 1] = p[1, 0] = 1.0
        p[2, 3] = p[3, 2] = 1.0
        chain = build_chain("abcd", p)
        dec = decompose(chain, classify(chain))
        assert dec.unit_multiplicity == 2

    def test_sorted_view(self, phd_chain):
        dec = decompose(phd_chain, classify(phd_chain))
        vals = dec.values[list(dec.order)]
        mods = np.abs(vals)
        assert np.all(np.diff(mods) <= 1e-12)
        assert np.isclose(vals[0], 1.0, atol=1e-10)

    def test_unit_multiplicity_matches_recurrent_classes(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            chain = random_recurrent_chain(rng)
            st = classify(chain)
            dec = decompose(chain, st)
            n_rec = sum(st.recurrent)
            assert dec.unit_multiplicity == n_rec
            rep = perron_report(dec, recurrent_classes=n_rec)
            assert rep["radius_ok"]
            assert rep["unit_multiplicity_matches_recurrent_classes"]

    def test_left_sums_vanish_for_irreducible_nonunit(self):
        rng = np.random.default_rng(56)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p = rng.random((n, n)) + 1e-3
            chain = build_chain([str(i) for i in range(n)],
                                p / p.sum(1, keepdims=True))
            dec = decompose(chain, classify(chain))
            for j, lam in enumerate(dec.values):
                if abs(lam - 1.0) > 1e-8:
                    l = dec.pairs.left[:, j]
                    assert abs(l.sum()) <= 1e-8 * np.linalg.norm(l)


def spectrum_rows(chain):
    """(eigenvalue, taxonomy label) in the row order `spectrum` prints."""
    dec = decompose(chain, classify(chain))
    labels = taxonomy(dec)
    return [(dec.values[j], labels[j]) for j in dec.order]


class TestRowOrder:
    @given(hs.integers(0, 2**32 - 1), hs.integers(2, 12), hs.integers(1, 12))
    def test_state_permutation_keeps_rows(self, seed, n, classes):
        # dense when there is one class, else that many closed dense classes
        rng = np.random.default_rng(seed)
        cls = rng.permutation(np.arange(n) % min(classes, n))
        p = (cls[:, None] == cls[None, :]) * (rng.random((n, n)) ** 2 + 1e-3)
        p /= p.sum(axis=1, keepdims=True)
        labels = [f"s{i}" for i in range(n)]
        perm = rng.permutation(n)
        rows = spectrum_rows(build_chain(labels, p))
        moved = spectrum_rows(build_chain([labels[i] for i in perm], p[np.ix_(perm, perm)]))
        assert [label for _, label in moved] == [label for _, label in rows]
        assert max(abs(a - b) for (a, _), (b, _) in zip(moved, rows)) <= 1e-11

    def test_twelve_digit_boundary_does_not_set_the_order(self):
        # lo and hi are adjacent doubles that print as 0.7 and
        # 0.700000000001 at 12 digits; a real value and a conjugate pair
        # at those moduli sort the same way whichever sits above
        lo = 0.7000000000005
        while f"{lo:.12g}" != "0.7":
            lo = np.nextafter(lo, 0.0)
        while f"{np.nextafter(lo, 1.0):.12g}" == "0.7":
            lo = np.nextafter(lo, 1.0)
        hi = np.nextafter(lo, 1.0)
        assert f"{hi:.12g}" == "0.700000000001"
        for real, pair in ((lo, hi), (hi, lo)):
            values = np.array([1.0, -real, pair * 1j, -pair * 1j])
            assert spectral._order(values, 2.0) == (0, 3, 2, 1)


class TestTaxonomy:
    def test_six_reference_points(self):
        # eigenvalues 1, -1, 0.3, -0.4, 0.5 e^{i pi/3}, and a unit-circle pair
        blocks = np.zeros((7, 7))
        blocks[0, 0] = 1.0
        blocks[1, 1] = -1.0
        blocks[2, 2] = 0.3
        blocks[3, 3] = -0.4
        r, th = 0.5, np.pi / 3
        blocks[4:6, 4:6] = [[r * np.cos(th), r * np.sin(th)],
                            [-r * np.sin(th), r * np.cos(th)]]
        blocks[6, 6] = 0.0
        dec = decomp_of_matrix(blocks)
        labels = dict(zip(np.round(dec.values, 6), taxonomy(dec)))
        assert labels[1.0] == "persistent_structure"
        assert labels[-1.0] == "persistent_oscillation"
        assert labels[0.3] == "transient_structure"
        assert labels[-0.4] == "transient_oscillation"
        assert labels[0.0] == "transient_structure"
        cplx = [v for v in labels if abs(v.imag) > 1e-9]
        assert all(labels[v] == "transient_cycle" for v in cplx)

    def test_persistent_cycle_on_directed_cycle(self, cycle3_chain):
        dec = decompose(cycle3_chain, classify(cycle3_chain))
        labels = taxonomy(dec)
        by_val = dict(zip(dec.values, labels))
        for lam, lab in by_val.items():
            if abs(lam - 1) < 1e-8:
                assert lab == "persistent_structure"
            else:
                assert lab == "persistent_cycle"

    def test_epsilon_band_pulls_to_persistent(self):
        m = np.diag([1.0 - 1e-10, 0.5])
        labels = taxonomy(decomp_of_matrix(m))
        assert "persistent_structure" in labels


class TestSpectralEvolve:
    def test_matches_direct_evolution(self, phd_chain):
        dec = decompose(phd_chain, classify(phd_chain))
        mu = np.array([1.0, 0, 0, 0])
        for k in (0, 1, 7, 64):
            got = spectral_evolve(dec, mu, k).evolved
            assert np.allclose(got, evolve(phd_chain, mu, k), atol=1e-9)

    def test_long_run_reaches_stationary(self, phd_chain):
        dec = decompose(phd_chain, classify(phd_chain))
        basis = stationary_basis(phd_chain, classify(phd_chain))
        out = spectral_evolve(dec, [0.1, 0.2, 0.3, 0.4], 256)
        assert np.allclose(out.evolved, basis.vectors[0], atol=1e-8)
        assert np.allclose(out.persistent_part, basis.vectors[0], atol=1e-8)
        assert np.allclose(out.transient_part, 0.0, atol=1e-8)

    def test_swap_chain_oscillates(self, swap_chain):
        dec = decompose(swap_chain, classify(swap_chain))
        for k in range(6):
            out = spectral_evolve(dec, [1.0, 0.0], k).evolved
            want = [1.0, 0.0] if k % 2 == 0 else [0.0, 1.0]
            assert np.allclose(out, want, atol=1e-10)

    def test_stationary_is_fixed_point(self, rev_chain):
        basis = stationary_basis(rev_chain, classify(rev_chain))
        pi = basis.vectors[0]
        dec = decompose(rev_chain, classify(rev_chain))
        for k in (1, 17):
            assert np.allclose(spectral_evolve(dec, pi, k).evolved, pi, atol=1e-10)

    def test_parts_reconstruct(self, nonrev_chain):
        dec = decompose(nonrev_chain, classify(nonrev_chain))
        mu = np.full(4, 0.25)
        out = spectral_evolve(dec, mu, 9)
        assert np.allclose(out.persistent_part + out.transient_part, out.evolved,
                           atol=1e-12)
        assert np.allclose(out.evolved, evolve(nonrev_chain, mu, 9), atol=1e-8)

    def test_persistent_part_follows_the_labels(self):
        # the lazy 3-cycle (1 - d) I + d C at d = 6.2e-9: its pair
        # 1 - 1.5d +- 0.87d i is within 1e-8 of the unit circle, yet
        # taxonomy calls it transient, so its modes go to the transient
        # part; the deflation at 1e-12 leaves the eigenvectors good to
        # about 1e-12 / d
        d = 6.2e-9
        chain = build_chain("abc", (1 - d) * np.eye(3) + d * np.roll(np.eye(3), 1, axis=1))
        dec = decompose(chain, classify(chain))
        assert sorted(taxonomy(dec)) == ["persistent_structure"] + ["transient_structure"] * 2
        ev = spectral_evolve(dec, [1.0, 0.0, 0.0], 3)
        assert np.allclose(ev.persistent_part, 1 / 3, rtol=0, atol=1e-4)
        assert np.allclose(ev.transient_part, [2 / 3, -1 / 3, -1 / 3], rtol=0, atol=1e-4)
        assert np.allclose(ev.evolved, evolve(chain, [1.0, 0.0, 0.0], 3), rtol=0, atol=1e-12)

    def test_refuses_defective_spectrum(self):
        p = build_chain("abc", [[0.25, 0.625, 0.125],
                                [0.125, 0.25, 0.625],
                                [0.125, 0.125, 0.75]])
        dec = decompose(p, classify(p))
        assert not dec.pairs.diagonalizable
        with pytest.raises(errors.NotDiagonalizable):
            spectral_evolve(dec, np.full(3, 1 / 3), 4)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]])
    def test_repeated_cluster_off_the_structure(self, order):
        # a transient state feeds a two-state transient class with equal
        # weights, so 0.1 is a double eigenvalue (state a's self-loop and
        # the class's second value) that the class structure does not
        # explain; the spectrum is still diagonalizable
        p = np.array([[.1, .2, .2, .5], [0, .3, .2, .5], [0, .2, .3, .5], [0, 0, 0, 1]])
        chain = build_chain(["abcd"[i] for i in order], p[np.ix_(order, order)])
        dec = decompose(chain, classify(chain))
        assert dec.pairs.diagonalizable
        # 1, 0.5 and the double 0.1
        assert np.unique(clusters(dec.values, np.linalg.norm(chain.p))).size == 3
        left, right = dec.pairs.left, dec.pairs.right
        assert np.max(np.abs(left.T @ right - np.eye(4))) <= 1e-12
        mu = np.full(4, 0.25)
        for k in (1, 7, 64):
            got = spectral_evolve(dec, mu, k).evolved
            assert np.max(np.abs(got - evolve(chain, mu, k))) <= 1e-8

    @pytest.mark.parametrize("n, p_right", [(60, 0.7), (60, 0.99), (120, 0.9), (400, 0.9),
                                            (160, 0.9999)])
    def test_refuses_ill_conditioned_basis(self, n, p_right):
        # similar to a symmetric matrix (reversible), but pi spans 22 to 636
        # decades, so some 1/s_w passes CONDITION_LIMIT: the record is not
        # diagonalizable and the dual would magnify rounding without bound
        chain = line_chain(n, p_right)
        dec = decompose(chain, classify(chain))
        assert not dec.pairs.diagonalizable
        with pytest.raises(errors.NotDiagonalizable,
                           match=r"eigenbasis condition .* exceeds 1e\+04"):
            spectral_evolve(dec, np.full(n, 1 / n), 3)

    @pytest.mark.parametrize("p, mu", [
        ([[1, 0], [1, 0]], [0, 1]),  # 0 ** -1 would be a NaN
        ([[.5, .5, 0], [0, 0, 1], [1, 0, 0]], [1, 0, 0]),  # mu P^-1 is not a distribution
    ], ids=["zero-eigenvalue", "invertible"])
    def test_refuses_negative_steps(self, p, mu):
        chain = build_chain("abc"[:len(p)], p)
        dec = decompose(chain, classify(chain))
        with pytest.raises(errors.BadCount, match="steps must be at least 0, got -1"):
            spectral_evolve(dec, mu, -1)

    def test_random_chains_k64(self):
        rng = np.random.default_rng(57)
        done = 0
        while done < 100:
            chain = random_recurrent_chain(rng, n_max=6)
            dec = decompose(chain, classify(chain))
            if not dec.pairs.diagonalizable:
                continue
            mu = rng.random(chain.n)
            mu /= mu.sum()
            for k in (1, 5, 64):
                assert np.allclose(spectral_evolve(dec, mu, k).evolved,
                                   evolve(chain, mu, k), atol=1e-8)
            done += 1


def max_matched_distance(got, want):
    """Largest distance in the one-to-one pairing of two spectra with the
    least total distance."""
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def eigen_residuals(p, pairs):
    """Largest relative right and left eigenvector residuals on p, each
    column first scaled by its largest magnitude (l^T r = 1 can leave a
    left vector too long to square)."""
    r, l = pairs.right, pairs.left
    r, l = r / np.max(np.abs(r), axis=0), l / np.max(np.abs(l), axis=0)
    lam = pairs.values
    right = np.linalg.norm(p @ r - r * lam, axis=0) / np.linalg.norm(r, axis=0)
    left = np.linalg.norm(p.T @ l - l * lam, axis=0) / np.linalg.norm(l, axis=0)
    return float(right.max()), float(left.max())


def route_calls(monkeypatch, chain):
    """decompose(chain) with the orders of its real_schur and sym_eigen
    calls recorded."""
    orders = {"real_schur": [], "sym_eigen": []}

    def counted(name, func):
        def wrapper(a):
            orders[name].append(np.asarray(a).shape[0])
            return func(a)
        return wrapper

    monkeypatch.setattr(spectral, "real_schur", counted("real_schur", real_schur))
    monkeypatch.setattr(spectral, "sym_eigen", counted("sym_eigen", sym_eigen))
    return decompose(chain, classify(chain)), orders


def schur_calls(monkeypatch, chain):
    """decompose(chain) with the orders of its real_schur calls recorded."""
    dec, orders = route_calls(monkeypatch, chain)
    return dec, orders["real_schur"]


# a 4-state chain of period 2 whose A_0 (and A_1) has rank 1: B is
# singular, and 0 is a double eigenvalue of P with two eigenvectors.
# Its one cycle, a-c-b-d, has equal products both ways: it is reversible
SINGULAR_PRODUCT = [[0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5], [0.3, 0.7, 0, 0], [0.3, 0.7, 0, 0]]
# the same defect without reversibility: period 3, each A_g of rank 1,
# so 0 is a triple eigenvalue of P with three eigenvectors
SINGULAR_PRODUCT_ONE_WAY = [[0, 0, 0.4, 0.6, 0, 0], [0, 0, 0.4, 0.6, 0, 0],
                            [0, 0, 0, 0, 0.3, 0.7], [0, 0, 0, 0, 0.3, 0.7],
                            [0.5, 0.5, 0, 0, 0, 0], [0.5, 0.5, 0, 0, 0, 0]]


def assert_matches_whole_matrix(chain, dec):
    """dec against np.linalg.eigvals within 1e-10, its residuals on P within
    1e-10, and its flags those of the whole-matrix Schur path."""
    p = chain.p
    assert max_matched_distance(dec.values, np.linalg.eigvals(p)) <= 1e-10
    right, left = eigen_residuals(p, dec.pairs)
    assert right <= 1e-10 and left <= 1e-10
    whole = eigen_from_schur(real_schur(p))
    assert dec.pairs.diagonalizable == whole.diagonalizable
    if whole.diagonalizable:  # then a cluster repeats on both or on neither
        scale = np.linalg.norm(p)
        repeats = [np.unique(clusters(x.values, scale)).size < len(p) for x in (dec, whole)]
        assert repeats[0] == repeats[1]


class TestEigenpairRecord:
    """Every route hands numlin._eigenpairs one value and one right/left
    vector pair per diagonal block, and it alone expands them."""

    @pytest.mark.parametrize("chain,orders", [
        (line_chain(n=12, perturb=0.1, seed=4), {"real_schur": [], "sym_eigen": [12]}),
        (periodic_chain(np.random.default_rng(3), 3, 5), {"real_schur": [5], "sym_eigen": []}),
        (layered_chain(np.random.default_rng(6), [3, 4, 5]),
         {"real_schur": [3, 4, 5], "sym_eigen": []}),
    ], ids=["reversible", "cyclic", "schur_by_class"])
    def test_one_value_and_vector_pair_per_block(self, chain, orders, monkeypatch):
        calls = []
        eigenpairs = numlin._eigenpairs

        def recorded(lams, sizes, *args):
            pairs = eigenpairs(lams, sizes, *args)
            calls.append((np.asarray(lams), np.asarray(sizes), pairs))
            return pairs

        monkeypatch.setattr(numlin, "_eigenpairs", recorded)
        monkeypatch.setattr(spectral, "_eigenpairs", recorded)
        dec, seen = route_calls(monkeypatch, chain)
        assert seen == orders
        assert calls[-1][2] is dec.pairs
        for lams, sizes, pairs in calls:
            n = int(sizes.sum())
            assert pairs.right.shape == pairs.left.shape == (n, n)
            assert pairs.right.dtype == pairs.left.dtype == complex
            assert np.all(lams[sizes == 2].imag > 0)
            second = np.cumsum(sizes)[sizes == 2] - 1
            want = np.repeat(lams.astype(complex), sizes)
            want[second] = want[second].conj()
            assert np.array_equal(pairs.values, want)
            for x in (pairs.right, pairs.left):
                assert np.array_equal(x[:, second], x[:, second - 1].conj())

    @pytest.mark.parametrize("p,orthogonalized", [
        (np.eye(90), []), (SINGULAR_PRODUCT, [2]), (SINGULAR_PRODUCT_ONE_WAY, [3]),
    ], ids=["identity", "singular_product", "singular_product_one_way"])
    def test_gram_schmidt_only_where_left_right_is_not_diagonal(self, p, orthogonalized,
                                                               monkeypatch):
        # the identity's one cluster of 90 has l_i^T r_j = 0 exactly as it
        # comes; the reversible route's double 0 of SINGULAR_PRODUCT has
        # it only to rounding, so its 2 vectors still go through. The
        # Schur route puts SINGULAR_PRODUCT_ONE_WAY's triple 0 as a real 0
        # and a pair at +-3.9e-17i: one cluster of 3 columns, the pair's
        # conjugated second column with them
        sizes = []
        biorthogonalize = numlin._biorthogonalize

        def recorded(right, left):
            sizes.append(right.shape[1])
            biorthogonalize(right, left)

        monkeypatch.setattr(numlin, "_biorthogonalize", recorded)
        chain = build_chain([str(i) for i in range(len(p))], p)
        pairs = decompose(chain, classify(chain)).pairs
        assert sizes == orthogonalized
        gram = pairs.left.T @ pairs.right
        if not sizes:
            assert np.array_equal(gram, np.eye(len(p)))
        assert np.max(np.abs(gram - np.eye(len(p)))) <= 1e-15


class TestCyclicRoute:
    """Irreducible chains of period d > 1: eigenpairs lifted from the
    cycle product of the e cyclic blocks, for the largest divisor e of d
    that passes the gates."""

    @given(d=hs.integers(2, 6), m=hs.integers(1, 5), seed=hs.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_matches_whole_matrix(self, d, m, seed):
        chain = periodic_chain(np.random.default_rng(seed), d, m)
        dec = decompose(chain, classify(chain))
        assert_matches_whole_matrix(chain, dec)
        # every d-th root of unity turns the spectrum into itself
        values = dec.values
        assert max_matched_distance(values, values * np.exp(2j * np.pi / d)) <= 1e-12

    @given(d=hs.sampled_from([4, 6]), m=hs.integers(1, 14), seed=hs.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_composite_periods_match_whole_matrix(self, d, m, seed):
        # up to 84 states, where B_d's smallest |mu| often sends the lift
        # to a smaller divisor
        chain = periodic_chain(np.random.default_rng(seed), d, m)
        assert_matches_whole_matrix(chain, decompose(chain, classify(chain)))

    def test_period_four_lifts_at_two(self, monkeypatch):
        # shaped like the benchmark's 56-state family: B_4 has |mu| near
        # 1e-8, whose 4th roots fail the residual gate, while the square
        # roots of B_2's lambda^2 pass
        chain = periodic_chain(np.random.default_rng(1), 4, 14)
        dec, orders = schur_calls(monkeypatch, chain)
        assert orders == [14, 28]
        assert max_matched_distance(dec.values, np.linalg.eigvals(chain.p)) <= 1e-10
        assert max(eigen_residuals(chain.p, dec.pairs)) <= 1e-10

    def test_cycle_lifts_from_one_state(self, monkeypatch):
        order = np.random.default_rng(2).permutation(12)
        p = np.zeros((12, 12))
        p[order, np.roll(order, -1)] = 1.0
        dec, orders = schur_calls(monkeypatch, build_chain([str(i) for i in range(12)], p))
        assert orders == [1]
        roots = np.exp(2j * np.pi * np.arange(12) / 12)
        assert max_matched_distance(dec.values, roots) <= 1e-12

    def test_unequal_groups_lift_at_no_divisor(self, monkeypatch):
        # groups of 1, 2, 2, 1 at d = 4 are 3 and 3 at e = 2, but the
        # non-square blocks between phases (1x2, 2x1) make B_2 singular:
        # rows b, c and rows d, e are equal, so 0 is a double eigenvalue
        # of P with two eigenvectors. No cycle product is formed
        p = np.zeros((6, 6))
        p[0, [1, 2]] = [0.3, 0.7]
        p[[1, 2], 3] = 0.6
        p[[1, 2], 4] = 0.4
        p[[3, 4], 5] = 1.0
        p[5, 0] = 1.0
        chain = build_chain("abcdef", p)
        st = classify(chain)
        assert st.chain_period == 4 and _reversible_pairs(p, st) is None
        b = p[np.ix_([0, 3, 4], [1, 2, 5])] @ p[np.ix_([1, 2, 5], [0, 3, 4])]
        assert np.linalg.matrix_rank(b) < 3
        dec, orders = schur_calls(monkeypatch, chain)
        assert orders == [6]
        assert_matches_whole_matrix(chain, dec)

    def test_cycle_product_is_the_only_schur_form(self, monkeypatch):
        chain = periodic_chain(np.random.default_rng(3), 3, 4)
        dec, orders = schur_calls(monkeypatch, chain)
        assert orders == [4]
        assert max_matched_distance(dec.values, np.linalg.eigvals(chain.p)) <= 1e-12

    def test_real_roots_are_exactly_real(self, monkeypatch):
        # an even period puts -|mu|^(1/d) beside |mu|^(1/d) for each real
        # mu > 0 of B, and no real root for mu < 0
        chain = periodic_chain(np.random.default_rng(6), 4, 3)
        dec, orders = schur_calls(monkeypatch, chain)
        assert orders == [3]
        real = dec.values[dec.values.imag == 0].real
        assert len(real) >= 2 and sorted(real) == sorted(-real)
        assert np.sum(np.abs(real - 1.0) < 1e-12) == np.sum(np.abs(real + 1.0) < 1e-12) == 1

    @pytest.mark.parametrize("case", ["unequal_groups", "singular_product"])
    def test_falls_back_to_whole_matrix(self, case, monkeypatch):
        # none of these is reversible, so the cyclic route comes first
        if case == "unequal_groups":  # a -> b -> {c, d} -> a: groups of 1, 1 and 2
            chain = build_chain("abcd", [[0, 1, 0, 0], [0, 0, 0.4, 0.6],
                                         [1, 0, 0, 0], [1, 0, 0, 0]])
        else:  # each A_g has rank 1, so B is singular
            chain = build_chain("abcdef", SINGULAR_PRODUCT_ONE_WAY)
        st = classify(chain)
        assert st.irreducible and st.chain_period > 1
        assert _reversible_pairs(chain.p, st) is None
        dec, orders = schur_calls(monkeypatch, chain)
        assert orders[-1] == chain.n
        assert max_matched_distance(dec.values, np.linalg.eigvals(chain.p)) <= 1e-10
        assert max(eigen_residuals(chain.p, dec.pairs)) <= 1e-10
        assert_biorthogonal(dec.pairs)

    def test_roundoff_entry_is_flushed_before_the_lift(self, monkeypatch):
        # one entry of 1e-13 outside the cyclic blocks is roundoff: build_chain
        # sets it to 0, so P is zero off the blocks and the 3x3 product lifts
        chain = periodic_chain(np.random.default_rng(5), 3, 3, tiny=1e-13)
        st = classify(chain)
        assert st.irreducible and st.chain_period == 3
        phase = np.array(st.phase)
        assert np.all(chain.p[phase[None, :] != (phase[:, None] + 1) % 3] == 0.0)
        dec, orders = schur_calls(monkeypatch, chain)
        assert orders == [3]
        assert max_matched_distance(dec.values, np.linalg.eigvals(chain.p)) <= 1e-10
        assert max(eigen_residuals(chain.p, dec.pairs)) <= 1e-10
        assert_biorthogonal(dec.pairs, chain.p)


@hs.composite
def reducible_chains(draw):
    sizes = draw(hs.lists(hs.integers(1, 6), min_size=2, max_size=5))
    return layered_chain(np.random.default_rng(draw(hs.integers(0, 2**32 - 1))), sizes)


class TestClassRoute:
    """Reducible chains: one real Schur form per communicating class."""

    @given(reducible_chains())
    @settings(max_examples=100)
    def test_assembled_schur_form(self, chain):
        p = chain.p
        st = classify(chain)
        sf = _schur_by_class(p, st)
        n = chain.n
        # the assembly adds at most 1e-13 ||P|| to the classes' own Schur
        # residuals, which real_schur's 1e-12 deflation bounds
        own = [real_schur(p[np.ix_(m, m)]) for m in st.classes if len(m) > 1]
        own = np.sqrt(sum(np.linalg.norm(f.q @ f.t @ f.q.T - p[np.ix_(m, m)]) ** 2
                          for f, m in zip(own, [m for m in st.classes if len(m) > 1])))
        assert np.linalg.norm(sf.q @ sf.t @ sf.q.T - p) <= own + 1e-13 * np.linalg.norm(p)
        assert np.linalg.norm(sf.q.T @ sf.q - np.eye(n)) <= 1e-13
        # exact zeros below the class blocks, in topological order
        level = np.repeat(np.arange(len(st.classes)),
                          [len(st.classes[c]) for c in st.topological])
        assert np.all(sf.t[level[:, None] > level[None, :]] == 0.0)
        assert sum(sf.block_sizes) == n
        dec = decompose(chain, st)
        assert max_matched_distance(dec.values, np.linalg.eigvals(p)) <= 1e-10
        assert dec.unit_multiplicity == sum(st.recurrent)

    def test_one_schur_form_per_class(self, monkeypatch):
        chain = layered_chain(np.random.default_rng(6), [3, 4, 5])
        dec, orders = schur_calls(monkeypatch, chain)
        assert orders == [3, 4, 5]
        assert max_matched_distance(dec.values, np.linalg.eigvals(chain.p)) <= 1e-12

    def test_topological_order_sources_first(self):
        chain = layered_chain(np.random.default_rng(7), [2, 3, 2, 4])
        st = classify(chain)
        order = st.topological
        assert sorted(order) == list(range(len(st.classes)))
        rank = {c: i for i, c in enumerate(order)}
        assert all(rank[a] < rank[b] for a, b in st.condensation_edges)

    def test_roundoff_entry_below_the_blocks_is_flushed(self, monkeypatch):
        # 1e-13 from the last class back into the first is roundoff:
        # build_chain sets it to 0, so nothing sits below the class blocks
        chain = layered_chain(np.random.default_rng(8), [3, 4], tiny=1e-13)
        st = classify(chain)
        assert len(st.classes) == 2
        level = np.empty(2, dtype=np.intp)
        level[list(st.topological)] = [0, 1]
        at = level[np.array(st.class_of)]
        assert np.all(chain.p[at[:, None] > at[None, :]] == 0.0)
        dec, orders = schur_calls(monkeypatch, chain)
        assert orders == [3, 4]
        assert max_matched_distance(dec.values, np.linalg.eigvals(chain.p)) <= 1e-10


def symmetric_walk(rng, n):
    """Walk on random symmetric weights with self-loops: reversible."""
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    w = w + w.T + np.diag(rng.random(n))
    w[np.arange(n - 1), np.arange(1, n)] += 0.1  # a path keeps it connected
    w[np.arange(1, n), np.arange(n - 1)] += 0.1
    return w / w.sum(axis=1, keepdims=True)


@hs.composite
def reversible_matrices(draw):
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    kind = draw(hs.sampled_from(["walk", "birth_death", "union", "identity"]))
    if kind == "walk":
        return symmetric_walk(rng, draw(hs.integers(2, 40)))
    if kind == "birth_death":
        # up to 0.9999 and 200 states, ln pi spans up to 1,833: past the double range
        return line_chain(draw(hs.integers(2, 200)), draw(hs.floats(0.5, 0.9999))).p
    if kind == "identity":
        return np.eye(draw(hs.integers(1, 40)))
    sizes = draw(hs.lists(hs.integers(1, 12), min_size=2, max_size=4))
    p = np.zeros((sum(sizes), sum(sizes)))
    ends = np.cumsum(sizes)
    for a, b in zip(ends - sizes, ends):
        p[a:b, a:b] = (symmetric_walk(rng, b - a) if b - a > 1 and rng.random() < 0.5
                       else line_chain(b - a, 0.9).p if b - a > 1 else 1.0)
    order = rng.permutation(len(p))
    return p[np.ix_(order, order)]


def symmetrized_values(p):
    return np.linalg.eigvalsh(np.sqrt(p * p.T))


def assert_biorthogonal(pairs, p=None):
    """Every left entry is finite and, when the spectrum is diagonalizable,
    left^T right = I: l^T r = 1 on every column, and l_i^T r_j = 0 for
    i != j up to roundoff in ||l_i|| ||r_j||. Given the matrix p, the
    bound on l_i^T r_j also admits (rho + sigma) / |lam_i - lam_j|, rho
    and sigma being the largest relative right and left residuals on p:
    (lam_i - lam_j) l_i^T r_j = l_i^T (p r_j - lam_j r_j) - (p^T l_i -
    lam_i l_i)^T r_j, so vectors are biorthogonal only as far as they are
    accurate. A QR vector next to a structural unit pair at a gap of
    3.4e-4 (line_chain(120, 0.5)), or a cyclic lift's vectors, gated at
    DEFLATE_RTOL ||P||_F, pass 1e-12 by up to 10 times."""
    r, l = pairs.right, pairs.left
    assert np.all(np.isfinite(l))
    if not pairs.diagonalizable:
        return
    assert np.max(np.abs(np.sum(l * r, axis=0) - 1.0), initial=0.0) <= 1e-12
    bound = 1e-12
    if p is not None:
        gap = np.abs(pairs.values[:, None] - pairs.values[None, :])
        with np.errstate(divide="ignore"):
            bound = bound + sum(eigen_residuals(p, pairs)) / gap
    l = l / np.max(np.abs(l), axis=0)  # a rescaled l can be too long to square
    cross = np.abs(l.T @ r) / np.outer(np.linalg.norm(l, axis=0), np.linalg.norm(r, axis=0))
    np.fill_diagonal(cross, 0.0)
    assert np.all(cross <= bound)


class TestReversibleRoute:
    """Reversible chains: sym_eigen of S = Pi^1/2 P Pi^-1/2."""

    @given(reversible_matrices())
    @settings(max_examples=80)
    def test_matches_the_symmetrized_matrix(self, p):
        pairs = _reversible_pairs(p, classify(build_chain([str(i) for i in range(len(p))], p)))
        assert pairs is not None
        assert np.all(pairs.values.imag == 0)
        assert np.max(np.abs(np.sort(pairs.values.real) - symmetrized_values(p))) <= 1e-12
        assert max(eigen_residuals(p, pairs)) <= 1e-10
        assert_biorthogonal(pairs)

    @pytest.mark.parametrize("n,p_right", [(60, 0.99), (120, 0.9), (400, 0.9), (400, 0.99),
                                           (400, 0.999), (160, 0.9999)])
    def test_biased_birth_death(self, n, p_right, monkeypatch):
        # the Schur route called the first defective, put the second's
        # eigenvalues 1.7e-10 off and overflowed on the third; on the last
        # three ln pi spans 1,464 to 2,756, past the double range, and it put
        # the eigenvalues up to 5.8e-9 off and called them defective
        chain = line_chain(n, p_right)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec, orders = route_calls(monkeypatch, chain)
        assert orders == {"real_schur": [], "sym_eigen": [n]}
        assert not dec.pairs.diagonalizable  # pi spans 114 to 1,197 decades
        assert np.unique(clusters(dec.values, np.linalg.norm(chain.p))).size == n
        got = np.sort(dec.values.real)
        assert np.max(np.abs(got - symmetrized_values(chain.p))) <= 1e-12
        assert dec.pairs.residual <= DEFLATE_RTOL * np.linalg.norm(chain.p)
        assert max(eigen_residuals(chain.p, dec.pairs)) <= 1e-10
        assert_biorthogonal(dec.pairs)

    def test_any_range_of_pi_takes_the_symmetric_route(self, monkeypatch):
        # ln pi spans 1,464 here, so Pi^1/2 leaves the double range: the
        # eigenvectors are formed in log scale and their far entries
        # underflow to 0 instead of overflowing
        chain = line_chain(160, 0.9999)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec, orders = route_calls(monkeypatch, chain)
        assert orders == {"real_schur": [], "sym_eigen": [160]}
        assert not dec.pairs.diagonalizable
        assert np.all(np.isfinite(dec.pairs.right)) and np.all(np.isfinite(dec.pairs.left))
        assert np.all(np.isfinite(dec.pairs.left.sum(axis=0)))
        assert max(eigen_residuals(chain.p, dec.pairs)) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_repeated_eigenvalue_across_classes(self, seed):
        # lambda = 0 once in each 2-state class; in state order sym_eigen
        # could mix the two, and ln pi on the 11-state class (a span of 22)
        # magnified the mix, past the residual gate at seed 1
        base = np.zeros((15, 15))
        base[:11, :11] = line_chain(11, 0.9).p
        base[11:13, 11:13] = base[13:, 13:] = [[0.1, 0.9], [0.1, 0.9]]
        order = np.random.default_rng(seed).permutation(15)
        p = base[np.ix_(order, order)]
        pairs = _reversible_pairs(p, classify(build_chain([str(i) for i in range(15)], p)))
        assert pairs is not None
        assert max(eigen_residuals(p, pairs)) <= 1e-12

    @pytest.mark.parametrize("case,symmetric", [
        ("cycle_ratio", False),  # one cycle's products differ by 1e-6: not reversible
        ("cycle_ratio_within_rtol", False),  # by 1e-10: passes CYCLE_RTOL, not the residuals
        ("tiny_entry", True),  # 1e-13 off the pattern: build_chain flushes it
    ])
    def test_nearly_reversible(self, case, symmetric):
        p = symmetric_walk(np.random.default_rng(4), 8)
        if case == "cycle_ratio":
            p[0, 1] *= 1 + 1e-6
        elif case == "cycle_ratio_within_rtol":
            p[0, 1] *= 1 + 1e-10
        else:
            zero = np.argwhere(p == 0)[0]
            p[tuple(zero)] = 1e-13
        p /= p.sum(axis=1, keepdims=True)
        chain = build_chain([str(i) for i in range(8)], p)
        assert (_reversible_pairs(chain.p, classify(chain)) is not None) == symmetric
        dec = decompose(chain, classify(chain))
        assert max_matched_distance(dec.values, np.linalg.eigvals(p)) <= 1e-10
        assert max(eigen_residuals(p, dec.pairs)) <= 1e-10

    @pytest.mark.parametrize("case", ["unequal_groups", "singular_product"])
    def test_periodic_reversible_chains_skip_the_cycle_product(self, case, monkeypatch):
        rows = ([[0, 0.4, 0.6], [1, 0, 0], [1, 0, 0]] if case == "unequal_groups"
                else SINGULAR_PRODUCT)
        chain = build_chain("abcd"[:len(rows)], rows)
        st = classify(chain)
        assert st.irreducible and st.chain_period == 2
        dec, orders = route_calls(monkeypatch, chain)
        assert orders == {"real_schur": [], "sym_eigen": [chain.n]}
        assert max_matched_distance(dec.values, np.linalg.eigvals(chain.p)) <= 1e-12
        assert max(eigen_residuals(chain.p, dec.pairs)) <= 1e-12
        assert dec.pairs.diagonalizable

    def test_non_reversible_takes_no_symmetric_route(self, nonrev_chain, monkeypatch):
        dec, orders = route_calls(monkeypatch, nonrev_chain)
        assert orders == {"real_schur": [4], "sym_eigen": []}


@hs.composite
def route_chains(draw):
    """A chain for each `decompose` route: a biased birth-death line of up
    to 120 states at p up to 0.99 (reversible), a block-periodic chain
    (cyclic) or a layered reducible one (one Schur form per class)."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    kind = draw(hs.sampled_from(["line", "periodic", "layered"]))
    if kind == "line":
        return line_chain(draw(hs.integers(2, 120)), draw(hs.floats(0.5, 0.99)))
    if kind == "periodic":
        return periodic_chain(rng, draw(hs.integers(2, 5)), draw(hs.integers(1, 8)))
    return layered_chain(rng, draw(hs.lists(hs.integers(1, 6), min_size=2, max_size=5)))


class TestEigenbasisContract:
    """`diagonalizable` is one measured verdict on every route, and it is
    exactly the one `spectral_evolve` applies."""

    @given(route_chains(), hs.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_spectral_evolve_runs_exactly_when_diagonalizable(self, chain, seed):
        dec = decompose(chain, classify(chain))
        assert_biorthogonal(dec.pairs, chain.p)
        mu = np.random.default_rng(seed).random(chain.n)
        mu /= mu.sum()
        if not dec.pairs.diagonalizable:
            with pytest.raises(errors.NotDiagonalizable):
                spectral_evolve(dec, mu, 3)
            return
        for k in (1, 3, 17):
            got = spectral_evolve(dec, mu, k).evolved
            assert np.max(np.abs(got - evolve(chain, mu, k))) <= 1e-10


def reference_label(lam):
    """The six-way rule one eigenvalue at a time, as scalar comparisons."""
    eps = spectral.TAXONOMY_EPSILON
    if abs(lam - 1.0) < eps:
        return "persistent_structure"
    if abs(lam + 1.0) < eps:
        return "persistent_oscillation"
    if abs(abs(lam) - 1.0) < eps and abs(lam.imag) >= eps:
        return "persistent_cycle"
    if abs(lam.imag) < eps:
        return "transient_structure" if lam.real >= 0 else "transient_oscillation"
    return "transient_cycle"


class TestLazyChains:
    """(1 - d) I + d Q: P is within d of I, so every term of the Francis
    shift's first column is near 1 while their sum is O(d^2), and every
    eigenvalue is within about d of 1, where the labels decide which
    count as the unit eigenvalue."""

    @given(n=hs.integers(3, 8), log_d=hs.floats(-12, -6), seed=hs.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_spectrum_and_the_readers_of_its_labels(self, n, log_d, seed):
        rng = np.random.default_rng(seed)
        q = rng.random((n, n)) ** 3
        np.fill_diagonal(q, 0.0)
        q /= q.sum(axis=1, keepdims=True)
        d = 10.0 ** log_d
        chain = build_chain([str(i) for i in range(n)], (1 - d) * np.eye(n) + d * q)
        st = classify(chain)
        dec = decompose(chain, st)
        assert max_matched_distance(dec.values, np.linalg.eigvals(chain.p)) <= 1e-10
        labels = taxonomy(dec)
        assert labels == [reference_label(lam) for lam in dec.values]
        assert dec.unit_multiplicity == labels.count("persistent_structure")
        rep = perron_report(dec, recurrent_classes=sum(st.recurrent))
        rest = [abs(lam) for lam, label in zip(dec.values, labels)
                if label != "persistent_structure"]
        # numpy's vectorized complex modulus may differ from the scalar one in the last ulp
        if rest:
            assert rep["second_modulus"] == pytest.approx(max(rest), rel=1e-15, abs=0)
        else:  # every eigenvalue within 1e-8 of 1
            assert rep["second_modulus"] is None
        if not dec.pairs.diagonalizable:
            return
        mu = rng.random(n)
        mu /= mu.sum()
        ev = spectral_evolve(dec, mu, 5)
        persistent = sum((mu @ dec.pairs.right[:, w]) * lam ** 5 * dec.pairs.left[:, w]
                         for w, (lam, label) in enumerate(zip(dec.values, labels))
                         if label.startswith("persistent"))
        assert np.allclose(ev.persistent_part, np.real(persistent), rtol=0, atol=1e-12)
