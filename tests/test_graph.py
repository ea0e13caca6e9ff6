"""Weighted digraphs, random walks, and random-walk-set logic."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainkit import (
    WeightedDigraph,
    build_chain,
    build_graph,
    cli,
    classify,
    equal_weight,
    line_chain,
    random_walk,
    reversibility,
    rw_set_representative,
    same_rw_set,
    stationary_basis,
)
from chainkit.chain import ENTRY_CLAMP, ROW_SUM_ATOL
from chainkit.errors import (
    DimensionMismatch,
    NegativeWeight,
    NotRecurrent,
    ValidationError,
    ZeroOutDegree,
)
from conftest import random_recurrent_chain

W1 = np.array([[0.0, 0.0, 0.0, 1.5],
               [2.0, 0.0, 6.0, 0.0],
               [1.0, 3.0, 0.0, 0.0],
               [2.0, 0.0, 8.0, 0.0]])
W2 = np.array([[0.0, 0.0, 0.0, 6.0],
               [20.0, 0.0, 60.0, 0.0],
               [3.0, 9.0, 0.0, 0.0],
               [10.0, 0.0, 40.0, 0.0]])
P_SHARED = np.array([[0.0, 0.0, 0.0, 1.0],
                     [0.25, 0.0, 0.75, 0.0],
                     [0.25, 0.75, 0.0, 0.0],
                     [0.2, 0.0, 0.8, 0.0]])


class TestDegrees:
    def test_balanced_graph_degrees_and_volume(self, balanced_graph):
        assert np.array_equal(balanced_graph.out_degree, [3, 5, 4, 2])
        assert np.array_equal(balanced_graph.in_degree, [3, 5, 4, 2])
        assert balanced_graph.volume == 14.0
        assert balanced_graph.is_balanced
        assert not balanced_graph.is_undirected

    def test_undirected_path_degrees(self, triangle_graph):
        assert np.array_equal(triangle_graph.out_degree, [3, 4, 1])
        assert triangle_graph.is_undirected
        assert triangle_graph.is_balanced
        assert triangle_graph.volume == 8.0

    def test_self_loop_counts_once_in_each_degree(self):
        g = build_graph("ab", [[2, 1], [1, 0]])
        assert np.array_equal(g.out_degree, [3, 1])
        assert np.array_equal(g.in_degree, [3, 1])
        assert g.volume == 4.0

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            build_graph("ab", [[0, 1], [-0.5, 0]])


class TestRandomWalk:
    def test_normalizes_rows(self):
        g = build_graph("1234", W1)
        walk = random_walk(g)
        assert np.allclose(walk.p, P_SHARED, atol=1e-15)

    def test_both_scalings_give_same_walk(self):
        pa = random_walk(build_graph("1234", W1)).p
        pb = random_walk(build_graph("1234", W2)).p
        assert np.allclose(pa, pb, atol=1e-15)

    def test_zero_out_degree_rejected(self):
        g = build_graph("abc", [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(ZeroOutDegree):
            random_walk(g)

    def test_balanced_walk_stationary_is_degree_over_volume(self, balanced_graph):
        walk = random_walk(balanced_graph)
        pi = equal_weight(stationary_basis(walk, classify(walk)))
        assert np.allclose(pi, balanced_graph.out_degree / balanced_graph.volume,
                           atol=1e-12)

    def test_undirected_walk_is_reversible(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            w = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            w = w + w.T + np.eye(n) * 1e-2
            walk = random_walk(build_graph([str(i) for i in range(n)], w))
            s = classify(walk)
            rep = reversibility(walk, s, stationary_basis(walk, s))
            assert rep.reversible

    def test_balanced_nonsymmetric_walk_not_reversible(self, balanced_graph):
        walk = random_walk(balanced_graph)
        s = classify(walk)
        rep = reversibility(walk, s, stationary_basis(walk, s))
        assert rep.recurrent and not rep.reversible


def reference_walk(g):
    """W / D through build_chain as it stood before it checked its copy in
    place: a float copy, its np.where copy and its divided copy."""
    p = np.array(g.w / g.out_degree[:, None], dtype=float)
    assert np.all(np.isfinite(p)) and not np.any(p < -ENTRY_CLAMP)
    p = np.where(p < 0, 0.0, p)
    sums = p.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= ROW_SUM_ATOL)
    return p / sums[:, None]


weights = st.one_of(st.floats(1e-300, 1e300), st.sampled_from([1e-300, 1e300, 1.0, 3.0]))


@st.composite
def weighted_graphs(draw):
    """A digraph with every out-degree positive: rows of one edge or of
    many, self-loops allowed, weights anywhere in 1e-300 .. 1e300."""
    n = draw(st.integers(1, 10))
    w = np.zeros((n, n))
    for i in range(n):
        for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
            w[i, j] = draw(weights)
    return build_graph([f"v{i}" for i in range(n)], w)


class TestWalkCheckedInPlace:
    @given(weighted_graphs())
    def test_bitwise_equal_to_build_chain_of_a_copy(self, g):
        want = reference_walk(g)
        p = random_walk(g).p
        assert p.dtype == want.dtype and p.shape == want.shape
        assert p.tobytes() == want.tobytes() and not p.flags.writeable

    def test_leaves_the_graph_alone(self):
        g = build_graph("1234", W1)
        random_walk(g)
        assert np.array_equal(g.w, W1) and not g.w.flags.writeable

    @pytest.mark.parametrize("labels, w", [
        ("ab", [[np.nan, 1.0], [1.0, 0.0]]),
        ("ab", [[2.0, -1.0], [1.0, 0.0]]),
        ("aa", [[0.0, 1.0], [1.0, 0.0]]),
    ], ids=["nan", "negative", "duplicate-labels"])
    def test_graph_built_directly_is_refused(self, labels, w):
        g = WeightedDigraph(labels=tuple(labels), w=np.array(w))
        with pytest.raises(ValidationError):
            random_walk(g)
        with mock.patch.object(cli, "parse_input", return_value=(g, "digest")):
            assert cli.main(["stationary", "graph.tsv"]) == 2

    def test_duplicate_graph_labels_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            build_graph("aa", [[0, 1], [1, 0]])

    def test_weight_shape_must_match_labels(self):
        with pytest.raises(DimensionMismatch, match=r"shape \(2, 3\) does not match 2"):
            build_graph("ab", [[0, 1, 1], [1, 0, 1]])


class TestSameRwSet:
    def test_recovers_row_scaling(self):
        scale = same_rw_set(W1, W2)
        assert scale is not None
        assert np.allclose(scale, [0.25, 0.1, 1.0 / 3.0, 0.2], atol=1e-12)
        assert np.allclose(W1, np.diag(scale) @ W2, atol=1e-12)

    def test_transition_matrix_is_member(self):
        scale = same_rw_set(P_SHARED, W1)
        assert scale is not None
        assert np.allclose(np.diag(scale) @ W1, P_SHARED, atol=1e-15)

    def test_different_pattern_rejected(self):
        w3 = W1.copy()
        w3[0, 1] = 1.0
        assert same_rw_set(w3, W1) is None

    def test_non_proportional_rows_rejected(self):
        w3 = W1.copy()
        w3[1, 2] = 7.0
        assert same_rw_set(w3, W1) is None

    def test_shapes_must_agree(self):
        with pytest.raises(DimensionMismatch, match="differ in shape"):
            same_rw_set(np.ones((2, 2)), np.ones((3, 3)))

    def test_silent_vertex_has_no_walk(self):
        # b has no out-weight in either graph: the patterns agree, no walk exists
        assert same_rw_set([[0, 1], [0, 0]], [[0, 2], [0, 0]]) is None

    def test_scaling_invariance_property(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            w = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
            w[np.arange(n), rng.integers(0, n, size=n)] += 0.5
            a = rng.uniform(0.1, 5.0, size=n)
            scale = same_rw_set(np.diag(a) @ w, w)
            assert scale is not None
            assert np.allclose(scale, a, rtol=1e-9)


class TestRepresentative:
    def walk_parts(self, chain):
        s = classify(chain)
        return s, stationary_basis(chain, s)

    def test_reversible_chain_has_undirected_member(self, rev_chain):
        s, b = self.walk_parts(rev_chain)
        g = rw_set_representative(rev_chain, s, b, "undirected")
        assert g is not None and g.is_undirected
        assert abs(g.volume - 1.0) < 1e-12
        assert np.allclose(random_walk(g).p, rev_chain.p, atol=1e-12)

    def test_nonreversible_recurrent_chain_balanced_only(self, nonrev_chain):
        s, b = self.walk_parts(nonrev_chain)
        assert rw_set_representative(nonrev_chain, s, b, "undirected") is None
        g = rw_set_representative(nonrev_chain, s, b, "balanced")
        assert g is not None and g.is_balanced and not g.is_undirected
        assert np.allclose(random_walk(g).p, nonrev_chain.p, atol=1e-12)

    def test_non_recurrent_chain_has_neither(self, nonrec_nonrev_chain):
        s, b = self.walk_parts(nonrec_nonrev_chain)
        assert rw_set_representative(nonrec_nonrev_chain, s, b, "balanced") is None
        assert rw_set_representative(nonrec_nonrev_chain, s, b, "undirected") is None

    def test_circulation_where_pi_is_small_has_no_undirected_member(self):
        # 1e-2 carried around 27 -> 28 -> 29 -> 27, where pi is about 7e-11:
        # the flows differ by less than 1e-12, yet p[29, 27] has no reverse
        p = line_chain(30, 0.3).p.copy()
        p[[27, 28, 29], [28, 29, 27]] += 1e-2
        p[[27, 28, 29], [26, 27, 28]] -= 1e-2
        chain = build_chain([str(i) for i in range(30)], p)
        s, b = self.walk_parts(chain)
        assert not reversibility(chain, s, b).reversible
        assert rw_set_representative(chain, s, b, "undirected") is None
        g = rw_set_representative(chain, s, b, "balanced")
        assert g is not None and g.is_balanced
        assert not g.is_undirected
        assert np.allclose(random_walk(g).p, chain.p, atol=1e-12)

    def test_underflowing_pi_refuses_the_members(self):
        # pi_i grows like 99^i, so the left states' pi underflows to 0
        chain = line_chain(400, 0.99)
        s, b = self.walk_parts(chain)
        for kind in ("balanced", "undirected"):
            with pytest.raises(NotRecurrent):
                rw_set_representative(chain, s, b, kind)

    def test_unknown_kind_rejected(self, rev_chain):
        s, b = self.walk_parts(rev_chain)
        with pytest.raises(ValidationError):
            rw_set_representative(rev_chain, s, b, "acyclic")

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_jittered_symmetric_weights_are_undirected(self, n, seed):
        # weights over 12 decades, each pair apart by at most 1e-13 of itself
        rng = np.random.default_rng(seed)
        edge = np.triu(rng.random((n, n)) < rng.uniform(0.1, 1.0))
        edge[np.arange(n - 1), np.arange(1, n)] = True  # a path keeps every vertex in
        w = np.where(edge, 10 ** rng.uniform(-6, 6, (n, n)), 0.0)
        w = w + np.triu(w, 1).T * (1 + rng.uniform(-1e-13, 1e-13, (n, n))).T
        g = build_graph([f"v{i}" for i in range(n)], w)
        assert g.is_undirected
        chain = random_walk(g)
        s, b = self.walk_parts(chain)
        assert reversibility(chain, s, b).reversible
        assert rw_set_representative(chain, s, b, "undirected") is not None

    @given(n=st.integers(2, 19), seed=st.integers(0, 2**32 - 1))
    def test_walk_on_connected_undirected_graph_is_reversible(self, n, seed):
        # exactly symmetric weights over 12 decades: P_ij = W_ij / d_i can fall
        # below 1e-12 at one end of an edge and not at the other, yet the
        # walk's transitions are W's edges (Levin, Peres & Wilmer, 2017, 1.4)
        rng = np.random.default_rng(seed)
        edge = np.triu(rng.random((n, n)) < rng.uniform(0.1, 1.0))
        edge[np.arange(n - 1), np.arange(1, n)] = True  # a path keeps it connected
        w = np.where(edge, 10 ** rng.uniform(-6, 6, (n, n)), 0.0)
        g = build_graph([f"v{i}" for i in range(n)], w + np.triu(w, 1).T)
        chain = random_walk(g)
        s, b = self.walk_parts(chain)
        assert s.irreducible
        assert reversibility(chain, s, b).reversible
        assert rw_set_representative(chain, s, b, "undirected") is not None
        pi = g.out_degree / g.volume
        assert np.max(np.abs(b.vectors[0] - pi) / pi) <= 1e-12

    def test_flow_member_for_random_recurrent_chains(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            chain = random_recurrent_chain(rng)
            s, b = self.walk_parts(chain)
            g = rw_set_representative(chain, s, b, "balanced")
            assert g is not None and g.is_balanced
            assert np.allclose(random_walk(g).p, chain.p, atol=1e-10)
