"""Teleporting random walks: Google matrix and PageRank."""

import numpy as np
import pytest

from chainkit import (
    build_chain,
    classify,
    equal_weight,
    google_matrix,
    line_chain,
    pagerank,
    stationary_basis,
)
from chainkit.errors import BadAlpha

WEB_MIXED_2DP = np.array([
    [0.02, 0.87, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02],
    [0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.87],
    [0.02, 0.36, 0.02, 0.02, 0.02, 0.02, 0.53, 0.02],
    [0.02, 0.87, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02],
    [0.02, 0.02, 0.87, 0.02, 0.02, 0.02, 0.02, 0.02],
    [0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.87, 0.02],
    [0.02, 0.02, 0.02, 0.02, 0.70, 0.19, 0.02, 0.02],
    [0.53, 0.02, 0.02, 0.36, 0.02, 0.02, 0.02, 0.02],
])


def exact_stationary(chain):
    return equal_weight(stationary_basis(chain, classify(chain)))


class TestGoogleMatrix:
    def test_zero_damping_gives_pure_teleport(self, surfer_chain):
        mixed = google_matrix(surfer_chain, 0.0)
        assert np.allclose(mixed.p, np.full((8, 8), 1.0 / 8.0), atol=1e-15)

    def test_full_damping_returns_chain_unchanged(self, surfer_chain):
        assert google_matrix(surfer_chain, 1.0) is surfer_chain

    def test_web_example_two_decimals(self, surfer_chain):
        mixed = google_matrix(surfer_chain, 0.85)
        assert np.allclose(mixed.p, WEB_MIXED_2DP, atol=5e-3)

    def test_mixed_chain_is_ergodic(self, surfer_chain):
        mixed = google_matrix(surfer_chain, 0.85)
        s = classify(mixed)
        assert s.irreducible and s.ergodic

    def test_biased_teleport_rows(self, surfer_chain):
        tel = np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        mixed = google_matrix(surfer_chain, 0.5, tel)
        assert np.allclose(mixed.p[0], 0.5 * surfer_chain.p[0] + 0.5 * tel,
                           atol=1e-15)

    def test_bad_alpha_rejected(self, surfer_chain):
        with pytest.raises(BadAlpha):
            google_matrix(surfer_chain, 1.2)
        with pytest.raises(BadAlpha):
            google_matrix(surfer_chain, -0.1)


class TestPagerank:
    def test_uniform_on_symmetric_complete_graph(self):
        n = 5
        p = np.full((n, n), 1.0 / n)
        c = build_chain([str(i) for i in range(n)], p)
        ranks, _ = pagerank(c, 0.85)
        assert np.allclose(ranks, np.full(n, 1.0 / n), atol=1e-12)

    def test_matches_direct_stationary_solve(self, surfer_chain):
        ranks, google = pagerank(surfer_chain, 0.85)
        assert np.array_equal(google.p, google_matrix(surfer_chain, 0.85).p)
        oracle = exact_stationary(google)
        assert np.max(np.abs(ranks - oracle)) < 1e-9
        assert np.max(np.abs(ranks @ google.p - ranks)) < 1e-10

    def test_damping_sweep_approaches_recurrent_structure(self, surfer_chain):
        target = exact_stationary(surfer_chain)
        gaps = []
        for alpha in (0.5, 0.9, 0.99):
            ranks, _ = pagerank(surfer_chain, alpha)
            gaps.append(np.sum(np.abs(ranks - target)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1

    @pytest.mark.parametrize("n, alpha, biased", [
        (5, 0.85, False), (5, 0.999, True), (80, 0.9, False), (80, 0.999, True),
        (400, 0.999, False), (400, 0.99, True),
    ], ids=str)
    def test_matches_linear_solve(self, n, alpha, biased):
        chain = line_chain(n=n, p_right=0.6)
        tel = np.random.default_rng(n).uniform(0.1, 1.0, n) if biased else np.ones(n)
        tel /= tel.sum()
        ranks, _ = pagerank(chain, alpha, tel)
        want = np.linalg.solve(np.eye(n) - alpha * chain.p.T, (1.0 - alpha) * tel)
        assert np.max(np.abs(ranks / want - 1.0)) <= 1e-13

    def test_full_damping_rejected(self, surfer_chain):
        with pytest.raises(BadAlpha):
            pagerank(surfer_chain, 1.0)

    def test_nonpositive_teleport_rejected(self, surfer_chain):
        tel = np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        with pytest.raises(BadAlpha):
            pagerank(surfer_chain, 0.85, tel)
