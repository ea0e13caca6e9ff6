"""End-to-end acceptance checks, one test per criterion.

Each test is intentionally self-contained and asserts the full set of
behaviors its criterion covers, so a single pass/fail line per criterion
appears in the verbose pytest output.
"""

import json

import numpy as np
import pytest

from chainkit import (
    build_chain,
    build_graph,
    build_laplacian,
    canonical_form,
    classify,
    decompose,
    equal_weight,
    evolve,
    flow_matrix,
    fundamental_matrix,
    google_matrix,
    k_matrix,
    occupancy,
    pagerank,
    point_mass,
    quadratic_form,
    random_walk,
    real_schur,
    eigen_from_schur,
    reversibility,
    same_rw_set,
    smooth_spectrum,
    spectral_evolve,
    stationary_basis,
)
from chainkit.cli import main as cli_main
from conftest import random_recurrent_chain, random_undirected_graph
from test_graph import P_SHARED, W1, W2
from test_numlin import (
    DIAG_COMPLEX,
    DIAG_REAL,
    NONDIAG_COMPLEX,
    NONDIAG_REAL,
)
from test_structure import boolean_power_period
from test_surfer import WEB_MIXED_2DP


def analysis(chain):
    s = classify(chain)
    return s, stationary_basis(chain, s)


def test_criterion_01_study_chain_two_step_evolution(phd_chain):
    mu0 = point_mass(phd_chain, "S")
    mu1 = evolve(phd_chain, mu0, 1)
    mu2 = evolve(phd_chain, mu0, 2)
    assert np.max(np.abs(mu1 - [0.5, 0.1, 0.2, 0.2])) <= 1e-12
    assert np.max(np.abs(mu2 - [0.55, 0.05, 0.2, 0.2])) <= 1e-12


def test_criterion_02_reversibility_gallery(rev_chain, nonrev_chain,
                                            semirev_chain, nonrec_nonrev_chain):
    # stationary vectors at three decimal places
    s1, b1 = analysis(rev_chain)
    pi1 = equal_weight(b1)
    assert np.allclose(pi1, [0.417, 0.167, 0.083, 0.333], atol=5e-4)
    s3, b3 = analysis(semirev_chain)
    pi3 = equal_weight(b3)
    assert np.allclose(pi3, [0.154, 0.462, 0.0, 0.385], atol=5e-4)

    # four verdicts
    assert reversibility(rev_chain, s1, b1).reversible

    s2, b2 = analysis(nonrev_chain)
    rep2 = reversibility(nonrev_chain, s2, b2)
    assert rep2.recurrent and not rep2.reversible
    assert rep2.witness is not None
    cyc = list(rep2.witness)
    p = nonrev_chain.p
    fwd = np.prod([p[cyc[i], cyc[(i + 1) % len(cyc)]] for i in range(len(cyc))])
    rev = np.prod([p[cyc[(i + 1) % len(cyc)], cyc[i]] for i in range(len(cyc))])
    assert fwd != rev

    # and specifically the known three-state circulation
    assert p[0, 2] * p[2, 3] * p[3, 0] > p[0, 3] * p[3, 2] * p[2, 0]

    rep3 = reversibility(semirev_chain, s3, b3)
    assert rep3.semi_reversible and not rep3.recurrent

    s4, b4 = analysis(nonrec_nonrev_chain)
    rep4 = reversibility(nonrec_nonrev_chain, s4, b4)
    assert not rep4.recurrent and not rep4.reversible and not rep4.semi_reversible


def test_criterion_03_diagonalizability_gallery():
    cases = [
        (NONDIAG_COMPLEX, False, True),
        (DIAG_COMPLEX, True, True),
        (NONDIAG_REAL, False, False),
        (DIAG_REAL, True, False),
    ]
    for matrix, want_diag, want_complex in cases:
        pairs = eigen_from_schur(real_schur(np.array(matrix, dtype=float)))
        assert pairs.diagonalizable == want_diag
        has_complex = bool(np.max(np.abs(pairs.values.imag)) > 1e-8)
        assert has_complex == want_complex


def test_criterion_04_shared_random_walk():
    g1 = build_graph("1234", W1)
    g2 = build_graph("1234", W2)
    assert np.array_equal(random_walk(g1).p, P_SHARED)
    assert np.array_equal(random_walk(g2).p, P_SHARED)
    scale = same_rw_set(W1, W2)
    assert scale is not None
    a1 = np.array([1.5, 8.0, 4.0, 10.0])
    a2 = np.array([6.0, 80.0, 12.0, 50.0])
    assert np.allclose(scale, a1 / a2, atol=1e-12)


def test_criterion_05_teleporting_walk(surfer_chain):
    mixed = google_matrix(surfer_chain, 0.85)
    assert np.max(np.abs(mixed.p - WEB_MIXED_2DP)) <= 5e-3
    st = classify(mixed)
    assert st.ergodic
    ranks, _ = pagerank(surfer_chain, 0.85)
    assert np.sum(np.abs(ranks @ mixed.p - ranks)) <= 1e-10


def test_criterion_06_fundamental_matrix(absorbing_chain):
    dec = canonical_form(absorbing_chain, classify(absorbing_chain))
    assert np.array_equal(dec.q, [[0.2, 0.4, 0.4],
                                  [0.3, 0.0, 0.5],
                                  [0.3, 0.5, 0.0]])
    assert np.array_equal(dec.r, [[0.0], [0.2], [0.2]])
    fm = fundamental_matrix(dec)
    assert np.max(np.abs(fm.n @ (np.eye(3) - dec.q) - np.eye(3))) <= 1e-10
    total = np.zeros((3, 3))
    term = np.eye(3)
    for _ in range(10_000):
        total += term
        term = term @ dec.q
    assert np.max(np.abs(total - fm.n)) <= 1e-8


def test_criterion_07_cycle_roots_of_unity():
    for d in range(2, 9):
        p = np.zeros((d, d))
        for i in range(d):
            p[i, (i + 1) % d] = 1.0
        chain = build_chain([str(i) for i in range(d)], p)
        values = decompose(chain, classify(chain)).values
        on_circle = np.sort_complex(values[np.abs(np.abs(values) - 1.0) < 1e-8])
        expected = np.sort_complex(np.exp(2j * np.pi * np.arange(d) / d))
        assert on_circle.shape == (d,)
        assert np.max(np.abs(on_circle - expected)) <= 1e-8


def test_criterion_08_oracle_equivalence_property_suite():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        chain = random_recurrent_chain(rng)
        st, basis = analysis(chain)

        # unanimous reversibility verdicts across three independent tests
        rep = reversibility(chain, st, basis)
        k = k_matrix(chain, basis)
        k_sym = bool(np.max(np.abs(k - k.T)) <= 1e-9)
        flow = flow_matrix(chain, equal_weight(basis))
        f_sym = bool(np.max(np.abs(flow - flow.T)) <= 1e-9)
        assert rep.reversible == k_sym == f_sym

        # BFS periods against the boolean-power gcd oracle
        for cls, period in zip(st.classes, st.period):
            oracle = boolean_power_period(chain.p, cls[0])
            assert period == oracle

        # eigenbasis evolution against matrix evolution
        dec = decompose(chain, st)
        if dec.pairs.diagonalizable:
            mu = rng.random(chain.n)
            mu = mu / mu.sum()
            for k in (1, 7, 64):
                via_basis = spectral_evolve(dec, mu, k).evolved
                direct = evolve(chain, mu, k)
                assert np.max(np.abs(via_basis - direct)) <= 1e-8


def test_criterion_09_laplacian_property_suite():
    rng = np.random.default_rng(77)
    for _ in range(200):
        g, components = random_undirected_graph(rng, n_max=40)
        lap = build_laplacian(g, "normalized")
        spec = smooth_spectrum(lap)
        assert np.all(spec.values >= -1e-9)
        assert np.all(spec.values <= 2.0 + 1e-9)
        assert int(np.sum(np.abs(spec.values) < 1e-9)) == components

        x = rng.standard_normal(g.n)
        val = quadratic_form(lap, x)  # raises if the two routes disagree
        assert abs(val - x @ lap.m @ x) <= 1e-10 * max(1.0, abs(val))

        walk = random_walk(g)
        pi = g.out_degree / g.volume
        for j in range(g.n):
            lam = 1.0 - spec.values[j]
            r = spec.right_transformed[:, j]
            l = spec.left_transformed[:, j]
            assert np.max(np.abs(walk.p @ r - lam * r)) <= 1e-8
            assert np.max(np.abs(l @ walk.p - lam * l)) <= 1e-8
            # stationary scaling ties the two transforms together
            scaled = pi * r
            assert np.max(np.abs(l / g.volume - scaled)) <= 1e-9


def test_criterion_10_line_chain_demo(capsys):
    code = cli_main(["demo-line-chain", "--n", "100", "--p-right", "0.52"])
    out = capsys.readouterr().out
    assert code == 0
    r = json.loads(out)["result"]
    assert r["stationary_strictly_increasing"] is True
    assert np.max(np.abs(np.array(r["lambda0_right_transformed"]) - 1.0)) <= 1e-8
    assert np.max(np.abs(r["walk_eigen_residuals_head"])) <= 1e-8

    code = cli_main(["demo-line-chain", "--n", "100", "--p-right", "0.52",
                     "--perturb", "0.1", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    p = np.array(json.loads(out)["result"]["chain"]["P"])
    ones = np.ones(100)
    assert np.max(np.abs(p @ ones - ones)) <= 1e-10


def test_criterion_11_occupancy_statistics(phd_chain):
    occ_a = occupancy(phd_chain, "S", 1, seed=42, trajectories=10_000)
    occ_b = occupancy(phd_chain, "S", 1, seed=42, trajectories=10_000)
    assert occ_a.tobytes() == occ_b.tobytes()
    assert np.max(np.abs(occ_a[1] - [0.5, 0.1, 0.2, 0.2])) <= 0.02
