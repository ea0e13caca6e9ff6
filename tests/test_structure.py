from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from chainkit import build_chain, classify, decompose, perron_report
from chainkit.chain import ENTRY_CLAMP, TransitionMatrix
from chainkit.structure import _condense

from conftest import random_recurrent_chain


def boolean_power_period(p, state, cap=None):
    """Oracle: gcd of all return times k <= cap found via boolean matrix
    powers."""
    n = p.shape[0]
    if cap is None:
        cap = 2 * n * n
    reach = (p > 0)
    step = (p > 0)
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
        st = classify(semirev_chain)
        cid = {frozenset(c): i for i, c in enumerate(st.classes)}
        assert st.condensation_edges == {(cid[frozenset({2})], cid[frozenset({0, 1, 3})])}

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
            perron = perron_report(decompose(chain, st), recurrent_classes=len(rec))
            assert perron["unit_multiplicity_matches_recurrent_classes"]


# ---------------------------------------------------------------------------
# the edge-array structure pass against the two-pass scan it replaced

def _reference_tarjan_scc(adj, n):
    """The former iterative Tarjan over per-state successor lists."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def _reference_condense(chain):
    """The former _condense: Tarjan, then a BFS per class with one gcd
    per internal edge over BFS levels."""
    succ = [np.flatnonzero(row).tolist() for row in chain.p > 0]
    classes = _reference_tarjan_scc(succ, chain.n)
    class_of = [0] * chain.n
    for c, members in enumerate(classes):
        for s in members:
            class_of[s] = c
    edges = set()
    period = []
    level = [-1] * chain.n
    for c, members in enumerate(classes):
        level[members[0]] = 0
        queue = [members[0]]
        g = 0
        for u in queue:
            for v in succ[u]:
                if class_of[v] != c:
                    edges.add((c, class_of[v]))
                elif level[v] >= 0:
                    g = gcd(g, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    queue.append(v)
        period.append(g or 1)
    return (tuple(tuple(c) for c in classes), tuple(class_of), frozenset(edges),
            tuple(period))


def _family(rng, kind, n):
    """A boolean n x n adjacency matrix of one digraph family."""
    if kind == "dense":
        return rng.random((n, n)) < rng.uniform(0.3, 1.0)
    if kind == "sparse":  # mostly a DAG: many singleton classes
        a = np.triu(rng.random((n, n)) < 2.0 / n, 1)
        return a | (rng.random((n, n)) < 0.3 / n)
    if kind == "cycle":  # length 1-12 through a shuffled order, maybe chords
        length = min(n, int(rng.integers(1, 13)))
        a = np.zeros((n, n), dtype=bool)
        order = rng.permutation(n)[:length]
        a[order, np.roll(order, -1)] = True
        if rng.random() < 0.5:
            chords = int(rng.integers(1, length + 1))
            a[rng.choice(order, chords), rng.choice(order, chords)] = True
        return a
    if kind == "block":  # d groups visited cyclically: period d
        d = min(n, int(rng.integers(2, 7)))
        group = rng.permutation(np.arange(n) % d)
        nxt = (group + 1) % d
        a = (group[None, :] == nxt[:, None]) & (rng.random((n, n)) < 0.7)
        for i in range(n):  # every state has an edge into the next group
            a[i, rng.choice(np.flatnonzero(group == nxt[i]))] = True
        return a
    parts = [_family(rng, rng.choice(["dense", "sparse", "cycle", "block"]),
                     int(rng.integers(1, max(1, n // 3) + 1)))
             for _ in range(int(rng.integers(2, 4)))]
    m = sum(len(p) for p in parts)
    a = np.zeros((m, m), dtype=bool)
    at = 0
    for p in parts:
        a[at:at + len(p), at:at + len(p)] = p
        at += len(p)
    if rng.random() < 0.5:  # a few edges between the parts
        a |= rng.random((m, m)) < 0.5 / m
    return a


@hs.composite
def digraph_chains(draw):
    """A chain on a drawn digraph: n from 1 to 60, some states absorbing,
    some self-loops, rows without an edge made absorbing."""
    kind = draw(hs.sampled_from(["dense", "sparse", "cycle", "block", "union"]))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    a = _family(rng, kind, draw(hs.integers(1, 60)))
    n = len(a)
    if draw(hs.booleans()):
        a[np.diag_indices(n)] |= rng.random(n) < 0.3
    if draw(hs.booleans()):
        s = np.flatnonzero(rng.random(n) < 0.1)
        a[s] = False
        a[s, s] = True
    s = np.flatnonzero(~a.any(axis=1))
    a[s, s] = True
    p = a / a.sum(axis=1, keepdims=True)
    return TransitionMatrix(tuple(map(str, range(n))), p)


def brute_force_periods(a, classes):
    """Per class, the gcd over its states i and over k <= n of every k
    with (A^k)_ii > 0; 1 when there is none."""
    n = len(a)
    step = a.astype(np.int64)
    reach = step.copy()
    g = np.zeros(n, dtype=np.int64)  # per state
    for k in range(1, n + 1):
        g = np.where(reach.diagonal() > 0, np.gcd(g, k), g)
        reach = ((reach @ step) > 0).astype(np.int64)
    return tuple(int(np.gcd.reduce(g[list(members)])) or 1 for members in classes)


class TestCondenseProperties:
    @given(digraph_chains())
    @settings(max_examples=300)
    def test_matches_reference_scan(self, chain):
        assert _condense(chain)[:4] == _reference_condense(chain)

    @given(digraph_chains())
    @settings(max_examples=150)
    def test_independent_oracles(self, chain):
        classes, class_of, edges, period, phase, topological = _condense(chain)
        a = chain.p > 0
        k, labels = connected_components(csr_matrix(a), directed=True, connection="strong")
        assert len(classes) == k
        assert {frozenset(c) for c in classes} == {
            frozenset(np.flatnonzero(labels == c).tolist()) for c in range(k)}
        assert all(class_of[s] == c for c, members in enumerate(classes) for s in members)
        u, v = np.nonzero(a)
        assert edges == {(class_of[x], class_of[y]) for x, y in zip(u.tolist(), v.tolist())
                         if class_of[x] != class_of[y]}
        assert period == brute_force_periods(a, classes)
        # inside a class every transition steps the phase by one
        assert all(phase[y] == (phase[x] + 1) % period[class_of[x]]
                   for x, y in zip(u.tolist(), v.tolist()) if class_of[x] == class_of[y])
        assert all(0 <= phase[s] < period[class_of[s]] for s in range(len(phase)))
        # a permutation of the class ids along which every edge goes forward
        assert sorted(topological) == list(range(k))
        rank = {c: i for i, c in enumerate(topological)}
        assert all(rank[x] < rank[y] for x, y in edges)

    def test_long_shuffled_cycle(self):
        # one class of period n, reached by the deepest DFS: n - 1 levels
        n = 3000
        order = np.random.default_rng(3).permutation(n)
        p = np.zeros((n, n))
        p[order, np.roll(order, -1)] = 1.0
        classes, class_of, edges, period, phase, _ = _condense(
            TransitionMatrix(tuple(map(str, range(n))), p))
        assert classes == (tuple(range(n)),) and period == (n,)
        assert class_of == (0,) * n and edges == frozenset()
        # the scan starts at state 0, which has phase 0
        first = int(np.flatnonzero(order == 0)[0])
        assert [phase[s] for s in np.roll(order, -first)] == list(range(n))
