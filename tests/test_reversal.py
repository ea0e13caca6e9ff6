from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from chainkit import (
    build_chain,
    build_graph,
    build_laplacian,
    classify,
    decompose,
    directed_laplacian,
    equal_weight,
    errors,
    flow_matrix,
    k_matrix,
    random_walk,
    reversibility,
    reversibilize,
    rw_set_representative,
    stationary_basis,
    time_reverse,
)
from chainkit.chain import ENTRY_CLAMP
from chainkit.reversal import CYCLE_RTOL, _kolmogorov

from conftest import circulating_line_chain, random_recurrent_chain


def prep(chain):
    st = classify(chain)
    return st, stationary_basis(chain, st)


class TestTimeReverse:
    def test_symmetric_chain_fixed(self, swap_chain):
        st, b = prep(swap_chain)
        assert np.allclose(time_reverse(swap_chain, b).p, swap_chain.p)

    def test_cycle_reverses_to_transpose(self, cycle3_chain):
        st, b = prep(cycle3_chain)
        assert np.allclose(time_reverse(cycle3_chain, b).p, cycle3_chain.p.T)

    def test_reversal_keeps_stationary(self, nonrev_chain):
        st, b = prep(nonrev_chain)
        rev = time_reverse(nonrev_chain, b)
        assert not np.allclose(rev.p, nonrev_chain.p)
        pi = b.vectors[0]
        assert np.allclose(pi @ rev.p, pi, atol=1e-9)

    def test_keeps_every_computed_entry(self):
        # the walk on a 1e-6 edge beside a 1e7 one moves b -> a with 1e-13:
        # reversal and reversibilization keep it, so their support is P^T's
        g = build_graph("abc", [[0, 1e-6, 0], [1e-6, 0, 1e7], [0, 1e7, 0]])
        walk = random_walk(g)
        st, b = prep(walk)
        assert 0 < walk.p[1, 0] < ENTRY_CLAMP
        for out in (time_reverse(walk, b), reversibilize(walk, b, "additive")):
            assert np.array_equal(out.p > 0, walk.p.T > 0)

    def test_involution(self, nonrev_chain):
        st, b = prep(nonrev_chain)
        rev = time_reverse(nonrev_chain, b)
        st2, b2 = prep(rev)
        back = time_reverse(rev, b2)
        assert np.allclose(back.p, nonrev_chain.p, atol=1e-10)

    def test_requires_recurrence(self, semirev_chain):
        st, b = prep(semirev_chain)
        with pytest.raises(errors.NotRecurrent):
            time_reverse(semirev_chain, b)

    def test_alpha_independence_on_reducible_recurrent(self):
        from chainkit import combine
        c = build_chain("abcd", [[0.3, 0.7, 0, 0], [0.6, 0.4, 0, 0],
                                 [0, 0, 0.1, 0.9], [0, 0, 0.5, 0.5]])
        st, b = prep(c)
        outs = []
        for alphas in ([0.5, 0.5], [0.2, 0.8]):
            pi = combine(b, alphas)
            rev = c.p.T * pi[None, :] / pi[:, None]
            outs.append(rev)
        assert np.allclose(outs[0], outs[1], atol=1e-12)


class TestReversibility:
    def test_reversible_reference(self, rev_chain):
        st, b = prep(rev_chain)
        rep = reversibility(rev_chain, st, b)
        assert rep.recurrent and rep.reversible and rep.semi_reversible
        assert rep.witness is None and rep.db_residual <= 1e-9

    def test_nonreversible_with_cycle_witness(self, nonrev_chain):
        st, b = prep(nonrev_chain)
        rep = reversibility(nonrev_chain, st, b)
        assert rep.recurrent and not rep.reversible
        cyc = rep.witness
        assert cyc is not None and len(cyc) >= 3
        p = nonrev_chain.p
        fwd = np.prod([p[cyc[a], cyc[(a + 1) % len(cyc)]] for a in range(len(cyc))])
        rev = np.prod([p[cyc[(a + 1) % len(cyc)], cyc[a]] for a in range(len(cyc))])
        assert fwd > rev

    def test_semi_reversible(self, semirev_chain):
        st, b = prep(semirev_chain)
        rep = reversibility(semirev_chain, st, b)
        assert not rep.recurrent and not rep.reversible and rep.semi_reversible

    def test_non_recurrent_non_reversible(self, nonrec_nonrev_chain):
        st, b = prep(nonrec_nonrev_chain)
        rep = reversibility(nonrec_nonrev_chain, st, b)
        assert not rep.recurrent and not rep.reversible
        assert not rep.semi_reversible


def symmetric_flow(rng, n):
    """Symmetric weights on a ring plus random chords (and self-loops):
    the flow of a reversible chain, with many fundamental cycles."""
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.15)
    ring = np.arange(n)
    w[ring, (ring + 1) % n] += 0.5 + rng.random(n)
    return w + w.T


def circulating_flow(rng, n):
    """A symmetric flow with one ring entry scaled: the ring through it
    has fwd != rev, while the zero pattern stays symmetric."""
    w = symmetric_flow(rng, n)
    i = int(rng.integers(n))
    w[i, (i + 1) % n] *= 1.5
    return w


def two_class_flow(rng, n, circulating):
    h = n // 2
    w = np.zeros((n, n))
    w[:h, :h] = symmetric_flow(rng, h)
    w[h:, h:] = (circulating_flow if circulating else symmetric_flow)(rng, n - h)
    return w


FAMILIES = {
    "symmetric": (symmetric_flow, True),
    "circulating": (circulating_flow, False),
    "two-class": (lambda rng, n: two_class_flow(rng, n, False), True),
    "two-class-circulating": (lambda rng, n: two_class_flow(rng, n, True), False),
}


def walk(w):
    return build_chain([str(i) for i in range(len(w))], w / w.sum(1, keepdims=True))


def assert_valid_witness(p, cycle):
    """A simple cycle of at least 3 edges whose forward product wins."""
    m = len(cycle)
    assert m >= 3 and len(set(cycle)) == m
    steps = list(zip(cycle, cycle[1:] + cycle[:1]))
    assert all(p[a, b] > ENTRY_CLAMP for a, b in steps)
    assert np.prod([p[a, b] for a, b in steps]) > np.prod([p[b, a] for a, b in steps])


def brute_force_kolmogorov(p):
    """Oracle: every simple cycle of length >= 3, enumerated outright."""
    n = p.shape[0]
    for m in range(3, n + 1):
        for subset in combinations(range(n), m):
            for rest in permutations(subset[1:]):
                cycle = (subset[0],) + rest
                steps = list(zip(cycle, cycle[1:] + cycle[:1]))
                if any(p[a, b] <= ENTRY_CLAMP for a, b in steps):
                    continue
                log_ratio = sum(np.log(p[a, b]) - np.log(p[b, a]) for a, b in steps)
                if abs(log_ratio) > CYCLE_RTOL:
                    return False
    return True


@pytest.mark.filterwarnings("error")
class TestKolmogorov:
    @pytest.mark.parametrize("n", [13, 40, 80])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_verdicts_agree_beyond_twelve_states(self, family, n):
        make, reversible = FAMILIES[family]
        rng = np.random.default_rng(n)
        for _ in range(3):
            chain = walk(make(rng, n))
            st, b = prep(chain)
            rep = reversibility(chain, st, b)
            k = k_matrix(chain, b)
            k_sym = bool(np.max(np.abs(k - k.T)) <= 1e-9)
            f = flow_matrix(chain, equal_weight(b))
            f_sym = bool(np.max(np.abs(f - f.T)) <= 1e-9)
            assert rep.reversible == k_sym == f_sym == reversible
            if reversible:
                assert rep.witness is None
            else:
                assert_valid_witness(chain.p, rep.witness)

    def test_matches_brute_force_cycles(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            pattern = rng.random((n, n)) < 0.6
            pattern |= pattern.T
            ring = np.arange(n)
            pattern[ring, (ring + 1) % n] = pattern[(ring + 1) % n, ring] = True
            w = rng.random((n, n)) + 0.1
            if rng.random() < 0.5:
                w = w + w.T  # a symmetric flow: reversible
            chain = walk(w * pattern)
            st, b = prep(chain)
            rep = reversibility(chain, st, b)
            assert rep.reversible == brute_force_kolmogorov(chain.p)
            if not rep.reversible:
                assert_valid_witness(chain.p, rep.witness)

    def test_asymmetric_pattern_witness_is_the_pair(self, cycle3_chain):
        st, b = prep(cycle3_chain)
        rep = reversibility(cycle3_chain, st, b)
        assert not rep.reversible and rep.witness == (0, 1)

    def test_entry_below_clamp_is_no_reverse_edge(self):
        # 1e-13 is roundoff, so a -> b has no reverse edge; 1e-6 is one
        tiny = build_chain("ab", [[0.5, 0.5], [1e-13, 1 - 1e-13]])
        small = build_chain("ab", [[0.5, 0.5], [1e-6, 1 - 1e-6]])
        assert _kolmogorov(tiny.p) == (False, (0, 1), None)
        ok, witness, phi = _kolmogorov(small.p)
        assert (ok, witness) == (True, None)
        # phi = ln pi up to a constant: pi_b / pi_a = p_ab / p_ba
        assert phi[1] - phi[0] == pytest.approx(np.log(0.5 / 1e-6), rel=1e-15)

    def test_self_loops_are_ignored(self):
        c = build_chain("ab", [[0.9, 0.1], [0.5, 0.5]])
        st, b = prep(c)
        assert reversibility(c, st, b).reversible


class TestReversibilize:
    def test_cycle_additive(self, cycle3_chain):
        st, b = prep(cycle3_chain)
        out = reversibilize(cycle3_chain, b, "additive")
        assert np.allclose(out.p, [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])

    def test_cycle_multiplicative_identity(self, cycle3_chain):
        st, b = prep(cycle3_chain)
        out = reversibilize(cycle3_chain, b, "multiplicative")
        assert np.allclose(out.p, np.eye(3))

    def test_reversible_input_unchanged(self, rev_chain):
        st, b = prep(rev_chain)
        out = reversibilize(rev_chain, b, "additive")
        assert np.allclose(out.p, rev_chain.p, atol=1e-12)

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_result_is_reversible_with_same_stationary(self, nonrev_chain, mode):
        st, b = prep(nonrev_chain)
        out = reversibilize(nonrev_chain, b, mode)
        st2, b2 = prep(out)
        rep = reversibility(out, st2, b2)
        assert rep.reversible
        pi = b.vectors[0]
        assert np.allclose(pi @ out.p, pi, atol=1e-9)
        f = flow_matrix(out, pi)
        assert np.allclose(f, f.T, atol=1e-10)

    def test_unknown_mode_rejected(self, nonrev_chain):
        st, b = prep(nonrev_chain)
        with pytest.raises(errors.ValidationError, match="unknown mode 'geometric'"):
            reversibilize(nonrev_chain, b, "geometric")


class TestKMatrix:
    def test_swap_chain(self, swap_chain):
        st, b = prep(swap_chain)
        assert np.allclose(k_matrix(swap_chain, b), [[0, 1], [1, 0]])

    def test_symmetry_tracks_reversibility(self, rev_chain, nonrev_chain):
        for chain, symmetric in ((rev_chain, True), (nonrev_chain, False)):
            st, b = prep(chain)
            k = k_matrix(chain, b)
            gap = np.max(np.abs(k - k.T))
            assert (gap <= 1e-10) == symmetric
            if not symmetric:
                assert gap > 1e-6

    def test_same_spectrum_as_p(self, nonrev_chain):
        st, b = prep(nonrev_chain)
        k = k_matrix(nonrev_chain, b)
        from chainkit.numlin import eigen_from_schur, real_schur
        ek = eigen_from_schur(real_schur(k)).values
        ep = eigen_from_schur(real_schur(nonrev_chain.p)).values
        assert np.allclose(np.sort_complex(ek), np.sort_complex(ep), atol=1e-8)

    def test_requires_recurrence(self, semirev_chain):
        st, b = prep(semirev_chain)
        with pytest.raises(errors.NotRecurrent):
            k_matrix(semirev_chain, b)


class TestPiInnerProduct:
    def test_self_adjointness_for_reversible(self, rev_chain):
        st, b = prep(rev_chain)
        pi = equal_weight(b)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x, y = rng.normal(size=(2, 4))
            lhs = np.sum(pi * x * (rev_chain.p @ y))
            rhs = np.sum(pi * (rev_chain.p @ x) * y)
            assert abs(lhs - rhs) <= 1e-10

    def test_adjointness_fails_when_not_reversible(self, nonrev_chain):
        st, b = prep(nonrev_chain)
        pi = equal_weight(b)
        rng = np.random.default_rng(18)
        gaps = [abs(np.sum(pi * x * (nonrev_chain.p @ y))
                    - np.sum(pi * (nonrev_chain.p @ x) * y))
                for x, y in rng.normal(size=(50, 2, 4))]
        assert max(gaps) > 1e-6


class TestVerdictAgreement:
    def test_four_tests_agree_on_random_chains(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            chain = random_recurrent_chain(rng)
            st, b = prep(chain)
            rep = reversibility(chain, st, b)
            k = k_matrix(chain, b)
            f = flow_matrix(chain, equal_weight(b))
            k_sym = np.max(np.abs(k - k.T)) <= 1e-9
            f_sym = np.max(np.abs(f - f.T)) <= 1e-9
            assert rep.reversible == k_sym == f_sym


INVARIANT_FAMILIES = {
    "symmetric-walk": lambda rng, n: walk(symmetric_flow(rng, n)),
    "positive": lambda rng, n: walk(rng.random((n, n)) + 0.01),
    "line-circulation": lambda rng, n: circulating_line_chain(
        n, rng.uniform(0.3, 0.7), 10 ** rng.uniform(-10, -6)),
}


class TestReverseInvariant:
    @given(family=hs.sampled_from(sorted(INVARIANT_FAMILIES)), n=hs.integers(3, 40),
           seed=hs.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_reversible_iff_reverse_returns_p(self, family, n, seed):
        chain = INVARIANT_FAMILIES[family](np.random.default_rng(seed), n)
        st, b = prep(chain)
        gap = np.max(np.abs(time_reverse(chain, b).p - chain.p))
        assert reversibility(chain, st, b).reversible == (gap <= 1e-12)

    @given(family=hs.sampled_from(sorted(INVARIANT_FAMILIES)), n=hs.integers(3, 40),
           seed=hs.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_undirected_member_iff_reversible(self, family, n, seed):
        chain = INVARIANT_FAMILIES[family](np.random.default_rng(seed), n)
        st, b = prep(chain)
        g = rw_set_representative(chain, st, b, "undirected")
        assert (g is not None) == reversibility(chain, st, b).reversible
        if g is None:
            return
        assert g.is_undirected
        if family == "symmetric-walk":
            assert np.max(np.abs(random_walk(g).p - chain.p)) <= 1e-12
            gap = build_laplacian(g, "normalized").m - directed_laplacian(chain, b).m
            assert np.max(np.abs(gap)) <= 1e-12
