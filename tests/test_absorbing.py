"""Absorbing chains: canonical block form and the fundamental matrix."""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainkit import (
    build_chain,
    canonical_form,
    classify,
    fundamental_matrix,
    sample,
)
from chainkit.cli import main
from chainkit.errors import NotAbsorbing


def decompose_absorbing(chain):
    return canonical_form(chain, classify(chain))


class TestCanonicalForm:
    def test_reference_chain_blocks(self, absorbing_chain):
        d = decompose_absorbing(absorbing_chain)
        assert d.permutation == (0, 1, 2, 3)
        assert d.t == 3 and d.a == 1
        assert np.allclose(d.q, [[0.2, 0.4, 0.4],
                                 [0.3, 0.0, 0.5],
                                 [0.3, 0.5, 0.0]], atol=1e-15)
        assert np.allclose(d.r, [[0.0], [0.2], [0.2]], atol=1e-15)

    def test_permutation_moves_transients_first(self):
        c = build_chain("abc", [[1.0, 0, 0], [0.5, 0.25, 0.25], [0, 0.5, 0.5]])
        d = decompose_absorbing(c)
        assert d.permutation == (1, 2, 0)
        assert np.allclose(d.q, [[0.25, 0.25], [0.5, 0.5]], atol=1e-15)
        assert np.allclose(d.r, [[0.5], [0.0]], atol=1e-15)

    def test_identity_chain_has_empty_transient_block(self):
        c = build_chain("ab", np.eye(2))
        d = decompose_absorbing(c)
        assert d.t == 0 and d.a == 2
        assert d.q.shape == (0, 0)

    def test_non_absorbing_chain_rejected(self, phd_chain):
        with pytest.raises(NotAbsorbing):
            decompose_absorbing(phd_chain)

    def test_unreachable_absorbing_state_rejected(self):
        c = build_chain("abc", [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1.0]])
        with pytest.raises(NotAbsorbing):
            decompose_absorbing(c)


class TestFundamentalMatrix:
    def test_two_state_closed_form(self):
        c = build_chain("ab", [[0.5, 0.5], [0.0, 1.0]])
        f = fundamental_matrix(decompose_absorbing(c))
        assert np.allclose(f.n, [[2.0]], atol=1e-14)
        assert np.allclose(f.expected_steps, [2.0], atol=1e-14)

    def test_reference_chain_inverse_identity(self, absorbing_chain):
        d = decompose_absorbing(absorbing_chain)
        f = fundamental_matrix(d)
        assert np.max(np.abs(f.n @ (np.eye(3) - d.q) - np.eye(3))) < 1e-10

    def test_reference_chain_expected_steps(self, absorbing_chain):
        f = fundamental_matrix(decompose_absorbing(absorbing_chain))
        assert np.allclose(f.expected_steps, [8.125, 6.875, 6.875], atol=1e-10)

    def test_neumann_series_agrees(self, absorbing_chain):
        d = decompose_absorbing(absorbing_chain)
        f = fundamental_matrix(d)
        total = np.zeros((3, 3))
        term = np.eye(3)
        for _ in range(10_000):
            total += term
            term = term @ d.q
        assert np.max(np.abs(total - f.n)) < 1e-8

    def test_transient_block_powers_vanish(self, absorbing_chain):
        d = decompose_absorbing(absorbing_chain)
        assert np.max(np.abs(np.linalg.matrix_power(d.q, 1024))) < 1e-6

    def test_entries_nonnegative_with_unit_diagonal_floor(self, absorbing_chain):
        f = fundamental_matrix(decompose_absorbing(absorbing_chain))
        assert np.all(f.n >= -1e-12)
        assert np.all(np.diag(f.n) >= 1.0 - 1e-12)

    def test_empty_transient_block(self):
        c = build_chain("ab", np.eye(2))
        f = fundamental_matrix(decompose_absorbing(c))
        assert f.n.shape == (0, 0) and f.expected_steps.shape == (0,)


def exact_fundamental(q):
    """(I - Q)^{-1} over the rationals: Gaussian elimination without
    pivoting (every leading minor of the M-matrix I - Q is positive),
    then back-substitution, skipping zero entries."""
    t = len(q)
    m = [[(1 if i == j else 0) - q[i][j] for j in range(t)]
         + [Fraction(int(i == j)) for j in range(t)] for i in range(t)]
    for k in range(t):
        for i in range(k + 1, t):
            if m[i][k]:
                f = m[i][k] / m[k][k]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[k])]
    n = [None] * t
    for k in range(t - 1, -1, -1):
        n[k] = [(m[k][t + c] - sum(m[k][j] * n[j][c] for j in range(k + 1, t) if m[k][j]))
                / m[k][k] for c in range(t)]
    return n


def assert_relative(got, want, rtol):
    """Entrywise relative error at most rtol; exact zeros stay zero."""
    want = np.array(want, dtype=float)
    assert np.array_equal(got == 0, want == 0)
    nz = want != 0
    assert np.max(np.abs(got[nz] / want[nz] - 1.0), initial=0.0) <= rtol


@st.composite
def rare_absorption(draw):
    """An exact rational absorbing chain, transient states first, whose
    absorption probabilities are small integer multiples of eps. State
    i > 0 steps toward state i-1 and state 0 absorbs, so all absorb."""
    t = draw(st.integers(1, 6))
    a = draw(st.integers(1, 2))
    eps = Fraction(draw(st.floats(1e-11, 1e-1)))
    w = draw(st.lists(st.lists(st.integers(0, 9), min_size=t, max_size=t),
                      min_size=t, max_size=t))
    v = draw(st.lists(st.lists(st.integers(0, 3), min_size=a, max_size=a),
                      min_size=t, max_size=t))
    v[0][0] = max(v[0][0], 1)
    p = []
    for i in range(t):
        w[i][i - 1 if i else 0] += 1
        stay = 1 - eps * sum(v[i])
        p.append([stay * Fraction(x, sum(w[i])) for x in w[i]] + [eps * x for x in v[i]])
    p += [[Fraction(int(i == j)) for j in range(t + a)] for i in range(t, t + a)]
    return p


class TestGTHAbsorption:
    @given(rare_absorption())
    def test_matches_exact_rational_inverse(self, p):
        # GTH never forms 1 - q_kk, so a rare absorption costs no digits
        chain = build_chain([str(i) for i in range(len(p))],
                            [[float(x) for x in row] for row in p])
        d = decompose_absorbing(chain)
        assert d.permutation == tuple(range(len(p)))
        f = fundamental_matrix(d)
        want = exact_fundamental([row[:d.t] for row in p[:d.t]])
        assert_relative(f.n, want, 1e-13)
        assert_relative(f.expected_steps, [sum(row) for row in want], 1e-13)

    def test_rarely_absorbing_birth_death_regression(self, tmp_path, capsys):
        # 30 transient states, left step 0.3, absorption 1e-11 from state
        # 0: 1 - q_00 cancels, and a pivoted LU on I - Q called it singular
        t = 30
        p = np.zeros((t + 1, t + 1))
        for i in range(t):
            p[i, max(i - 1, 0)] += 0.3
            p[i, min(i + 1, t - 1)] += 0.7
        p[0, 0] -= 1e-11
        p[0, t] = 1e-11
        p[t, t] = 1.0
        f = tmp_path / "rare.json"
        f.write_text(json.dumps({"states": [str(i) for i in range(t + 1)], "P": p.tolist()}))
        assert main(["classify", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["absorbing"] is True
        assert main(["absorb", str(f)]) == 0
        steps = json.loads(capsys.readouterr().out)["result"]["expected_steps"]
        # the oracle is the decimal chain, whose rows sum to exactly 1
        q = [[Fraction(0)] * t for _ in range(t)]
        for i in range(t):
            q[i][max(i - 1, 0)] += Fraction(3, 10)
            q[i][min(i + 1, t - 1)] += Fraction(7, 10)
        q[0][0] -= Fraction(1, 10 ** 11)
        want = exact_fundamental(q)
        chain = build_chain([str(i) for i in range(t + 1)], p)
        assert_relative(fundamental_matrix(decompose_absorbing(chain)).n, want, 1e-13)
        assert_relative(np.array(steps), [sum(row) for row in want], 1e-11)

    @given(drawn=st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.sampled_from([0.0, 1e-13, 1e-11, 1e-6, 0.3, 1.0, 7.0]),
                          min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n))))
    def test_every_absorbing_chain_absorbs(self, drawn, tmp_path_factory):
        # classify and absorb agree: an absorbing chain never exits 3;
        # weights at and below the 1e-12 edge threshold are in the mix
        w, absorbing = np.array(drawn[0]), np.array(drawn[1])
        n = len(w)
        absorbing[0] = True
        absorbing |= w.sum(axis=1) == 0
        w[absorbing] = np.eye(n)[absorbing]
        p = w / w.sum(axis=1, keepdims=True)
        if not classify(build_chain([str(i) for i in range(n)], p)).absorbing_chain:
            return
        f = tmp_path_factory.mktemp("absorb") / "chain.json"
        f.write_text(json.dumps({"states": [str(i) for i in range(n)], "P": p.tolist()}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["absorb", str(f)])
        assert code == 0
        res = json.loads(out.getvalue())["result"]
        assert np.all(np.array(res["fundamental"]) >= 0)


class TestSimulation:
    def test_visit_counts_match_fundamental_matrix(self, absorbing_chain):
        d = decompose_absorbing(absorbing_chain)
        f = fundamental_matrix(decompose_absorbing(absorbing_chain))
        trials = 100_000
        # vectorized trajectory rollout: inverse-CDF steps until absorption
        rng = np.random.default_rng(123)
        p = absorbing_chain.p
        cum = np.cumsum(p, axis=1)
        state = np.zeros(trials, dtype=int)
        visits = np.zeros((trials, 4))
        for _ in range(400):
            alive = state != 3
            if not np.any(alive):
                break
            np.add.at(visits, (np.nonzero(alive)[0], state[alive]), 1.0)
            u = rng.random(alive.sum())
            nxt = (u[:, None] > cum[state[alive]]).sum(axis=1)
            state[alive] = nxt
        mean = visits.mean(axis=0)[:3]
        stderr = visits.std(axis=0)[:3] / np.sqrt(trials)
        assert np.all(np.abs(mean - f.n[0]) <= 3.0 * stderr + 1e-3)

    def test_single_trajectory_absorbs(self, absorbing_chain):
        walk = sample(absorbing_chain, "1", 400, seed=7)
        assert walk[-1] == "4"
