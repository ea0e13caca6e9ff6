import numpy as np
import pytest

from chainkit import build_chain, classify, communicating_classes, decompose, perron_report
from chainkit.chain import ENTRY_CLAMP

from conftest import random_recurrent_chain


def boolean_power_period(p, state, cap=None):
    """Oracle: gcd of all return times k <= cap found via boolean matrix
    powers."""
    n = p.shape[0]
    if cap is None:
        cap = 2 * n * n
    reach = (p > 0)
    step = (p > 0)
    from math import gcd
    g = 0
    for k in range(1, cap + 1):
        if reach[state, state]:
            g = gcd(g, k)
        reach = (reach @ step) > 0
    return g


class TestClasses:
    def test_irreducible_chain(self, phd_chain):
        st = classify(phd_chain)
        assert st.irreducible and st.recurrent_chain
        assert st.periodicity == "aperiodic" and st.ergodic
        assert st.classes == ((0, 1, 2, 3),)

    def test_transient_feeder_chain(self, semirev_chain):
        st = classify(semirev_chain)
        classes = {frozenset(c) for c in st.classes}
        assert classes == {frozenset({0, 1, 3}), frozenset({2})}
        rec = dict(zip((frozenset(c) for c in st.classes), st.recurrent))
        assert rec[frozenset({0, 1, 3})] and not rec[frozenset({2})]
        assert not st.recurrent_chain and not st.irreducible

    def test_condensation_edges(self, semirev_chain):
        classes, edges = communicating_classes(semirev_chain)
        cid = {frozenset(c): i for i, c in enumerate(classes)}
        assert edges == {(cid[frozenset({2})], cid[frozenset({0, 1, 3})])}

    def test_two_recurrent_classes(self):
        c = build_chain("abcd", [[0.6, 0.4, 0, 0], [0.3, 0.7, 0, 0],
                                 [0, 0, 0.5, 0.5], [0, 0, 0.2, 0.8]])
        st = classify(c)
        assert len(st.classes) == 2 and all(st.recurrent)
        assert st.recurrent_chain and not st.irreducible


class TestPeriod:
    def test_cycles(self):
        for d in range(2, 9):
            p = np.zeros((d, d))
            for i in range(d):
                p[i, (i + 1) % d] = 1.0
            st = classify(build_chain([str(i) for i in range(d)], p))
            assert st.period == (d,)
            assert st.periodicity == "periodic" and st.chain_period == d

    def test_period_two_with_three_states(self):
        # bipartite 3-state chain: {b} vs {a, c}
        c = build_chain("abc", [[0, 1, 0], [0.7, 0, 0.3], [0, 1, 0]])
        st = classify(c)
        assert st.chain_period == 2 and not st.ergodic

    def test_self_loop_breaks_period(self):
        c = build_chain("ab", [[0.1, 0.9], [1, 0]])
        st = classify(c)
        assert st.periodicity == "aperiodic" and st.ergodic

    def test_bfs_period_matches_boolean_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            chain = random_recurrent_chain(rng)
            st = classify(chain)
            for s in range(chain.n):
                want = boolean_power_period(chain.p, s)
                assert st.period[st.class_of[s]] == want


class TestAbsorbing:
    def test_detection(self, absorbing_chain):
        st = classify(absorbing_chain)
        assert st.absorbing_states == (3,)
        assert st.absorbing_chain

    def test_absorbing_state_but_not_absorbing_chain(self):
        # state c is absorbing but a/b never reach it
        c = build_chain("abc", [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        st = classify(c)
        assert st.absorbing_states == (2,)
        assert not st.absorbing_chain

    def test_identity_chain(self):
        st = classify(build_chain("abc", np.eye(3)))
        assert st.absorbing_states == (0, 1, 2)
        assert st.absorbing_chain
        assert st.periodicity == "aperiodic"

    def test_rounding_tolerance(self):
        c = build_chain("ab", [[0.5, 0.5], [1e-13, 1 - 1e-13]])
        st = classify(c)
        assert 1 in st.absorbing_states

    def test_entry_below_clamp_is_not_an_edge(self):
        # a leak of 1e-13 out of a is roundoff: a is a closed singleton
        c = build_chain("ab", [[1 - 1e-13, 1e-13], [0.5, 0.5]])
        st = classify(c)
        assert st.classes == ((0,), (1,)) and st.recurrent == (True, False)
        assert not st.irreducible and not st.ergodic
        assert st.absorbing_states == (0,) and st.absorbing_chain

    def test_entry_above_clamp_is_an_edge(self):
        c = build_chain("ab", [[1 - 1e-11, 1e-11], [0.5, 0.5]])
        st = classify(c)
        assert st.irreducible and st.ergodic
        assert st.absorbing_states == () and not st.absorbing_chain


def random_structured_chain(rng, n_max=10):
    """A chain of known closed classes (singletons, dense blocks and
    cycles) plus transient states that each lead towards them, with every
    entry raised by up to 1e-13. Returns the chain and its closed classes."""
    n = int(rng.integers(1, n_max + 1))
    order = rng.permutation(n)
    c = int(rng.integers(1, n + 1))  # states in closed classes
    k = int(rng.integers(1, min(c, 4) + 1))
    cuts = [0] + sorted(rng.choice(np.arange(1, c), size=k - 1, replace=False).tolist()) + [c]
    p = np.zeros((n, n))
    closed = []
    for a, b in zip(cuts, cuts[1:]):
        members = order[a:b]
        m = len(members)
        if m == 1 or rng.random() < 0.5:  # dense block (absorbing when m == 1)
            block = rng.random((m, m)) ** 2 + 1e-2
        else:  # a cycle through the members
            block = np.roll(np.eye(m), 1, axis=1)
        p[np.ix_(members, members)] = block / block.sum(1, keepdims=True)
        closed.append(frozenset(members.tolist()))
    for r, t in enumerate(order[c:]):  # each leads to a closed or earlier state
        row = rng.random(n) * (rng.random(n) < 0.4)
        row[rng.choice(order[:c + r])] += 0.05
        p[t] = row / row.sum()
    noise = rng.uniform(0, 1e-13, size=(n, n)) * (rng.random((n, n)) < 0.5)
    return build_chain([str(i) for i in range(n)], p + noise), closed


class TestFlagsAgree:
    """Every flag reads the one edge rule, so the flags never contradict
    each other even when entries carry roundoff below ENTRY_CLAMP."""

    def test_property_over_perturbed_chains(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            chain, closed = random_structured_chain(rng)
            st = classify(chain)
            rec = [frozenset(m) for m, r in zip(st.classes, st.recurrent) if r]
            assert set(rec) == set(closed)
            assert st.absorbing_chain == all(len(m) == 1 for m in rec)
            if st.irreducible and st.absorbing_chain:
                assert chain.n == 1
            for s in st.absorbing_states:
                c = st.class_of[s]
                assert st.classes[c] == (s,) and st.recurrent[c]
                assert np.all(np.delete(chain.p[s], s) <= ENTRY_CLAMP)
            perron = perron_report(decompose(chain), recurrent_classes=len(rec))
            assert perron["unit_multiplicity_matches_recurrent_classes"]
