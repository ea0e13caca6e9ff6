import numpy as np
import pytest

from chainkit import (
    build_chain,
    classify,
    combine,
    equal_weight,
    errors,
    flow_matrix,
    stationary_basis,
)
from chainkit import stationary
from chainkit.stationary import is_stationary


def basis_of(chain):
    return stationary_basis(chain, classify(chain))


class TestBasis:
    def test_reversible_reference_values(self, rev_chain):
        b = basis_of(rev_chain)
        assert b.unique
        assert np.allclose(b.vectors[0], [0.417, 0.167, 0.083, 0.333], atol=5e-4)

    def test_recurrent_nonreversible_values(self, nonrev_chain):
        b = basis_of(nonrev_chain)
        assert np.allclose(b.vectors[0], [0.406, 0.157, 0.157, 0.280], atol=5e-4)

    def test_transient_state_gets_zero_mass(self, semirev_chain):
        b = basis_of(semirev_chain)
        assert b.unique
        assert np.allclose(b.vectors[0], [0.154, 0.462, 0.0, 0.385], atol=5e-4)
        assert b.vectors[0][2] == 0.0

    def test_non_recurrent_chain_still_unique(self, nonrec_nonrev_chain):
        b = basis_of(nonrec_nonrev_chain)
        assert np.allclose(b.vectors[0], [10 / 37, 14 / 37, 0.0, 13 / 37], atol=1e-12)

    def test_two_class_basis_and_combination(self):
        c = build_chain("abcd", [[0.42, 0.58, 0, 0], [0.8, 0.2, 0, 0],
                                 [0, 0, 0.47, 0.53], [0, 0, 0.4, 0.6]])
        b = basis_of(c)
        assert len(b.class_ids) == 2 and not b.unique
        assert np.allclose(b.vectors[0][2:], 0)
        assert np.allclose(b.vectors[1][:2], 0)
        mix = combine(b, [0.25, 0.75])
        assert is_stationary(c, mix)
        assert np.isclose(mix.sum(), 1.0)
        eq = equal_weight(b)
        assert np.allclose(eq, combine(b, [0.5, 0.5]))

    def test_every_basis_vector_is_stationary(self, phd_chain, semirev_chain):
        for chain in (phd_chain, semirev_chain):
            b = basis_of(chain)
            for pi in b.vectors:
                assert is_stationary(chain, pi)

    def test_combine_rejects_bad_weights(self, phd_chain):
        b = basis_of(phd_chain)
        with pytest.raises(errors.ValidationError):
            combine(b, [0.7])
        with pytest.raises(errors.DimensionMismatch):
            combine(b, [0.5, 0.5])

    def test_vector_failing_balance_is_numeric_error(self, nonrev_chain, monkeypatch):
        # the kernel is replaced by a uniform guess, which nonrev_chain rejects
        monkeypatch.setattr(stationary, "stationary_gth",
                            lambda a: np.full(len(a), 1.0 / len(a)))
        with pytest.raises(errors.NumericError, match="balance"):
            basis_of(nonrev_chain)


class TestFlow:
    def test_global_balance(self, nonrev_chain):
        b = basis_of(nonrev_chain)
        pi = b.vectors[0]
        f = flow_matrix(nonrev_chain, pi)
        assert np.allclose(f.sum(axis=1), pi, atol=1e-12)
        assert np.allclose(f.sum(axis=0), pi, atol=1e-10)

    def test_reversible_flow_symmetric(self, rev_chain):
        b = basis_of(rev_chain)
        f = flow_matrix(rev_chain, b.vectors[0])
        assert np.allclose(f, f.T, atol=1e-12)
        assert np.isclose(f[0, 1], 0.125, atol=5e-4)

    def test_rejects_non_stationary(self, rev_chain):
        with pytest.raises(errors.ValidationError):
            flow_matrix(rev_chain, np.full(4, 0.25))
