"""Graph Laplacians, smoothness spectra, and the graph Fourier transform."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainkit import (
    build_chain,
    build_graph,
    build_laplacian,
    classify,
    decompose,
    directed_laplacian,
    gft,
    inverse_gft,
    k_matrix,
    quadratic_form,
    random_walk,
    reversibilize,
    smooth_spectrum,
    stationary_basis,
)
from chainkit.errors import (
    DimensionMismatch,
    FormulaMismatch,
    IncompleteBasis,
    NotUndirected,
    ValidationError,
    ZeroDegree,
)
from chainkit.laplacian import LaplacianMatrix, _label_basis, _label_signs
from chainkit.numlin import RANK_RTOL
from conftest import random_undirected_graph


def graph_parts(chain):
    s = classify(chain)
    return s, stationary_basis(chain, s)


def single_edge(weight=1.0):
    return build_graph("ab", [[0, weight], [weight, 0]])


class TestBuild:
    def test_single_edge_unnormalized(self):
        lap = build_laplacian(single_edge(3.0), "unnormalized")
        assert np.allclose(lap.m, [[3, -3], [-3, 3]], atol=1e-15)

    def test_single_edge_normalized(self):
        lap = build_laplacian(single_edge(3.0), "normalized")
        assert np.allclose(lap.m, [[1, -1], [-1, 1]], atol=1e-15)

    def test_variants_related_by_degree_scaling(self, triangle_graph):
        ln = build_laplacian(triangle_graph, "normalized").m
        lu = build_laplacian(triangle_graph, "unnormalized").m
        root = np.sqrt(triangle_graph.out_degree)
        assert np.allclose(np.outer(root, root) * ln, lu, atol=1e-12)

    def test_directed_graph_rejected(self, balanced_graph):
        with pytest.raises(NotUndirected):
            build_laplacian(balanced_graph, "normalized")

    def test_isolated_vertex_rejected_when_normalized(self):
        g = build_graph("abc", [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(ZeroDegree):
            build_laplacian(g, "normalized")
        lap = build_laplacian(g, "unnormalized")
        assert lap.m[2, 2] == 0.0

    def test_unknown_variant_rejected(self, triangle_graph):
        with pytest.raises(ValidationError):
            build_laplacian(triangle_graph, "combinatorial")


class TestQuadraticForm:
    def test_scaled_constant_is_perfectly_smooth(self, triangle_graph):
        lap = build_laplacian(triangle_graph, "normalized")
        x = np.sqrt(triangle_graph.out_degree)
        assert abs(quadratic_form(lap, x)) < 1e-12

    def test_single_edge_energy(self):
        lap = build_laplacian(single_edge(2.5), "unnormalized")
        assert abs(quadratic_form(lap, [1.0, -1.0]) - 10.0) < 1e-12

    def test_routes_agree_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g, _ = random_undirected_graph(rng, n_max=15)
            x = rng.standard_normal(g.n)
            for variant in ("unnormalized", "normalized"):
                try:
                    lap = build_laplacian(g, variant)
                except ZeroDegree:
                    continue
                val = quadratic_form(lap, x)
                assert abs(val - x @ lap.m @ x) < 1e-9

    def test_disagreeing_routes_raise(self):
        # m is D - W of one edge of weight 1, weights say 2: x^T L x is 4
        # by the matrix and 8 by the edge sum
        lap = LaplacianMatrix(variant="unnormalized", m=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                              scale=np.ones(2), weights=np.array([[0.0, 2.0], [2.0, 0.0]]),
                              labels=("a", "b"))
        with pytest.raises(FormulaMismatch, match="4.0 vs 8.0"):
            quadratic_form(lap, [1.0, -1.0])

    def test_wrong_length_rejected(self, triangle_graph):
        lap = build_laplacian(triangle_graph, "normalized")
        with pytest.raises(DimensionMismatch):
            quadratic_form(lap, [1.0, 2.0])


class TestSpectrum:
    def test_single_edge_values(self):
        lap = build_laplacian(single_edge(), "normalized")
        spec = smooth_spectrum(lap)
        assert np.allclose(spec.values, [0.0, 2.0], atol=1e-12)

    def test_unnormalized_single_edge_values(self):
        lap = build_laplacian(single_edge(3.0), "unnormalized")
        spec = smooth_spectrum(lap)
        assert np.allclose(spec.values, [0.0, 6.0], atol=1e-12)

    def test_zero_multiplicity_counts_components(self):
        w = np.zeros((5, 5))
        for i, j in [(0, 1), (1, 2), (3, 4)]:
            w[i, j] = w[j, i] = 1.0
        lap = build_laplacian(build_graph("abcde", w), "normalized")
        spec = smooth_spectrum(lap)
        assert np.sum(np.abs(spec.values) < 1e-10) == 2

    def test_walk_eigenpair_correspondence(self, triangle_graph):
        lap = build_laplacian(triangle_graph, "normalized")
        spec = smooth_spectrum(lap)
        walk = random_walk(triangle_graph)
        for j in range(lap.n):
            lam = 1.0 - spec.values[j]
            r = spec.right_transformed[:, j]
            l = spec.left_transformed[:, j]
            assert np.max(np.abs(walk.p @ r - lam * r)) < 1e-10
            assert np.max(np.abs(l @ walk.p - lam * l)) < 1e-10

    def test_swap_walk_values(self):
        lap = build_laplacian(single_edge(), "normalized")
        spec = smooth_spectrum(lap)
        walk = random_walk(single_edge())
        walk_values = np.sort(decompose(walk, classify(walk)).values.real)
        assert np.allclose(np.sort(1.0 - spec.values), walk_values, atol=1e-10)

    def test_truncated_spectrum(self, triangle_graph):
        lap = build_laplacian(triangle_graph, "normalized")
        spec = smooth_spectrum(lap, k=2)
        assert spec.values.shape == (2,) and not spec.full
        assert np.all(np.diff(spec.values) >= -1e-12)

    def test_vectors_orthonormal(self):
        rng = np.random.default_rng(3)
        g, _ = random_undirected_graph(rng, n_max=12, max_components=1)
        spec = smooth_spectrum(build_laplacian(g, "normalized"))
        assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(g.n))) < 1e-10

    def test_smoothest_frame_minimizes_trace(self):
        rng = np.random.default_rng(17)
        g, _ = random_undirected_graph(rng, n_max=10, max_components=1)
        lap = build_laplacian(g, "normalized")
        k = 3
        spec = smooth_spectrum(lap, k=k)
        best = float(np.trace(spec.vectors.T @ lap.m @ spec.vectors))
        assert abs(best - spec.values.sum()) < 1e-10
        for _ in range(20):
            y, _ = np.linalg.qr(rng.standard_normal((g.n, k)))
            assert np.trace(y.T @ lap.m @ y) >= best - 1e-10


def star(n=12):
    return [(0, j) for j in range(1, n)]


def complete(n=6):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def ring(n=9):
    return [(i, (i + 1) % n) for i in range(n)]


def disjoint(a, b):
    m = 1 + max(max(e) for e in a)
    return a + [(i + m, j + m) for i, j in b]


SYMMETRIC_GRAPHS = {"star12": star(), "K6": complete(), "cycle9": ring(),
                    "star12+K6": disjoint(star(), complete()),
                    "K6+cycle9": disjoint(complete(), ring()),
                    "cycle9+cycle9": disjoint(ring(), ring())}


def edge_weights(edges):
    n = 1 + max(max(e) for e in edges)
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0
    return w


class TestLabelBases:
    """Repeated Laplacian eigenvalues take a basis fixed by their
    eigenspace and the sorted vertex labels, so listing the vertices in
    another order permutes the embed rows and leaves the gft
    coefficients as they are."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
    def test_vertex_order_permutes_embed_rows_and_keeps_gft(self, name):
        w = edge_weights(SYMMETRIC_GRAPHS[name])
        n = len(w)
        labels = [f"v{i}" for i in range(n)]
        signal = np.arange(n) % 5 - 2.0

        def spectra(perm):
            g = build_graph([labels[i] for i in perm], w[np.ix_(perm, perm)])
            lap = build_laplacian(g, "normalized")
            back = np.argsort(perm)
            return (smooth_spectrum(lap, k=4).right_transformed[back],
                    gft(smooth_spectrum(lap), signal[perm]))

        embed, coeffs = spectra(np.arange(n))
        for seed in range(6):
            other = spectra(np.random.default_rng(seed).permutation(n))
            assert np.max(np.abs(other[0] - embed)) <= 1e-12
            assert np.max(np.abs(other[1] - coeffs)) <= 1e-12

    def test_directed_laplacian_uses_the_chain_labels(self):
        # a directed 8-cycle: I - (C + C^T)/2 has six double eigenvalues
        n = 8
        labels = [f"s{i}" for i in range(n)]
        cycle = np.roll(np.eye(n), 1, axis=1)

        def vectors(perm):
            chain = build_chain([labels[i] for i in perm], cycle[np.ix_(perm, perm)])
            lap = directed_laplacian(chain, graph_parts(chain)[1])
            return smooth_spectrum(lap).vectors[np.argsort(perm)]

        want = vectors(np.arange(n))
        assert np.max(np.abs(want.T @ want - np.eye(n))) <= 1e-12
        for seed in range(4):
            got = vectors(np.random.default_rng(seed).permutation(n))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_star_leaves_in_label_order(self):
        # the leaves' eigenspace at 1 is every leaf vector summing to 0:
        # its first basis vector pivots on the leaf whose label sorts first
        w = edge_weights(star(5))
        spec = smooth_spectrum(build_laplacian(build_graph(list("cedba"), w), "normalized"))
        first = spec.vectors[:, 1]
        assert np.argmax(first) == 4 and first[4] == pytest.approx(np.sqrt(0.75))

    def test_simple_values_keep_the_largest_entry_positive(self):
        rng = np.random.default_rng(3)
        g, _ = random_undirected_graph(rng, n_max=12, max_components=1)
        spec = smooth_spectrum(build_laplacian(g, "normalized"))
        v = spec.vectors
        assert np.all(v[np.argmax(np.abs(v), axis=0), np.arange(g.n)] > 0)

    @given(n=st.integers(1, 12), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_sign_pass_is_the_one_column_basis(self, n, m, seed):
        # zero rows, and entries within, at or just past RANK_RTOL of the
        # largest magnitude with either sign
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, m)) * (rng.random((n, 1)) < 0.7)
        v[rng.integers(n, size=m), np.arange(m)] += 1.0  # no zero column
        v /= np.linalg.norm(v, axis=0)
        top = np.abs(v).max(axis=0)
        offsets = rng.choice([0.0, -0.5, 0.5, -1.0, -2.0, 1.5], size=(n, m)) * RANK_RTOL
        ties = rng.random((n, m)) < 0.4
        v = np.where(ties, rng.choice([-1.0, 1.0], size=(n, m)) * (top + offsets), v)
        by_label = rng.permutation(n)
        got = _label_signs(v, by_label)
        for j in range(m):
            want = _label_basis(v[:, [j]], by_label)[:, 0]
            assert got[:, j].tobytes() == want.tobytes()


class TestDirected:
    def test_reversible_chain_matches_normalized_graph_form(self, rev_chain):
        s, b = graph_parts(rev_chain)
        lap = directed_laplacian(rev_chain, b)
        k = k_matrix(rev_chain, b)
        assert np.allclose(lap.m, np.eye(rev_chain.n) - k, atol=1e-12)

    def test_balanced_walk_symmetrizes_the_weights(self, balanced_graph):
        walk = random_walk(balanced_graph)
        s, b = graph_parts(walk)
        lap = directed_laplacian(walk, b)
        d = balanced_graph.out_degree
        root = np.sqrt(d)
        sym = 0.5 * (balanced_graph.w + balanced_graph.w.T)
        expected = np.eye(4) - sym / np.outer(root, root)
        assert np.allclose(lap.m, expected, atol=1e-10)

    def test_cycle_equals_additive_reversibilization_form(self, cycle3_chain):
        s, b = graph_parts(cycle3_chain)
        lap = directed_laplacian(cycle3_chain, b)
        add = reversibilize(cycle3_chain, b, "additive")
        s2, b2 = graph_parts(add)
        k = k_matrix(add, b2)
        assert np.allclose(lap.m, np.eye(3) - k, atol=1e-12)

    def test_quadratic_form_uses_flow_weights(self, nonrev_chain):
        s, b = graph_parts(nonrev_chain)
        lap = directed_laplacian(nonrev_chain, b)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(nonrev_chain.n)
            val = quadratic_form(lap, x)
            assert abs(val - x @ lap.m @ x) < 1e-10

    def test_left_transform_is_pi_times_right(self, nonrev_chain):
        s, b = graph_parts(nonrev_chain)
        lap = directed_laplacian(nonrev_chain, b)
        spec = smooth_spectrum(lap)
        assert np.allclose(spec.left_transformed,
                           lap.scale[:, None] * spec.right_transformed,
                           atol=1e-12)

    def test_transient_mass_rejected(self, semirev_chain):
        from chainkit.errors import NotRecurrent

        s, b = graph_parts(semirev_chain)
        with pytest.raises(NotRecurrent):
            directed_laplacian(semirev_chain, b)


class TestFourier:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        g, _ = random_undirected_graph(rng, n_max=12, max_components=1)
        spec = smooth_spectrum(build_laplacian(g, "normalized"))
        x = rng.standard_normal(g.n)
        assert np.max(np.abs(inverse_gft(spec, gft(spec, x)) - x)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(13)
        g, _ = random_undirected_graph(rng, n_max=12, max_components=1)
        spec = smooth_spectrum(build_laplacian(g, "normalized"))
        x = rng.standard_normal(g.n)
        c = gft(spec, x)
        assert abs(np.sum(c * c) - np.sum(x * x)) < 1e-10

    def test_smooth_signal_concentrates_low_frequencies(self, triangle_graph):
        lap = build_laplacian(triangle_graph, "normalized")
        spec = smooth_spectrum(lap)
        c = gft(spec, np.sqrt(triangle_graph.out_degree))
        assert np.max(np.abs(c[1:])) < 1e-10 * max(1.0, abs(c[0]))

    def test_partial_basis_rejected(self, triangle_graph):
        lap = build_laplacian(triangle_graph, "normalized")
        spec = smooth_spectrum(lap, k=2)
        with pytest.raises(IncompleteBasis):
            gft(spec, [1.0, 0.0, 0.0])
        with pytest.raises(IncompleteBasis):
            inverse_gft(spec, [1.0, 0.0])
