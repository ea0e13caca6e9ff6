"""One intake for the numbers a library caller passes in.

Every vector and every scalar argument is read by `chain.as_finite` (a
scalar as a vector of length 1) and every count by
`chain.require_count`, so a bad value ends in a typed ValidationError:
a non-numeric value in ValidationError itself, NaN or an infinity in
NonFiniteEntry, a wrong length in DimensionMismatch, and a count that
is not an integer in BadCount. Each row names the exact class raised.
"""

import numpy as np
import pytest

from chainkit import (
    build_chain,
    build_graph,
    build_laplacian,
    classify,
    combine,
    conditional_expectation,
    flow_matrix,
    gft,
    google_matrix,
    inverse_gft,
    line_chain,
    pagerank,
    quadratic_form,
    same_rw_set,
    smooth_spectrum,
    stationary_basis,
    validate_distribution,
)
from chainkit import surfer
from chainkit.chain import MAX_STEPS, as_finite, occupancy, sample
from chainkit.errors import (
    BadAlpha,
    BadCount,
    DimensionMismatch,
    NonFiniteEntry,
    ValidationError,
)
from chainkit.stationary import is_stationary

NAN = float("nan")
CHAIN = build_chain("ab", [[0.5, 0.5], [0.5, 0.5]])
BASIS = stationary_basis(CHAIN, classify(CHAIN))
LAP = build_laplacian(build_graph("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]]), "normalized")
SPEC = smooth_spectrum(LAP)

CASES = {
    # NaN used to pass silently
    "combine-nan": (NonFiniteEntry, lambda: combine(BASIS, [NAN])),
    "conditional_expectation-nan": (
        NonFiniteEntry, lambda: conditional_expectation(CHAIN, [NAN, 1.0])),
    "quadratic_form-nan": (NonFiniteEntry, lambda: quadratic_form(LAP, [NAN, 1.0, 0.0])),
    "gft-nan": (NonFiniteEntry, lambda: gft(SPEC, [NAN, 1.0, 0.0])),
    "inverse_gft-nan": (NonFiniteEntry, lambda: inverse_gft(SPEC, [NAN, 1.0, 0.0])),
    "same_rw_set-nan": (
        NonFiniteEntry, lambda: same_rw_set([[NAN, 1], [1, 0]], [[NAN, 2], [2, 0]])),
    # untyped numpy and Python errors
    "combine-text": (ValidationError, lambda: combine(BASIS, "x")),
    "conditional_expectation-text": (
        ValidationError, lambda: conditional_expectation(CHAIN, "x")),
    "same_rw_set-text": (ValidationError, lambda: same_rw_set("x", [[0, 1], [1, 0]])),
    "inverse_gft-short": (DimensionMismatch, lambda: inverse_gft(SPEC, [1.0])),
    "is_stationary-long": (DimensionMismatch, lambda: is_stationary(CHAIN, [0.5, 0.5, 0.0])),
    "flow_matrix-long": (DimensionMismatch, lambda: flow_matrix(CHAIN, [0.5, 0.5, 0.0])),
    "line_chain-float-n": (BadCount, lambda: line_chain(n=2.5)),
    "line_chain-text-n": (BadCount, lambda: line_chain(n="3")),
    "smooth_spectrum-float-k": (BadCount, lambda: smooth_spectrum(LAP, 2.5)),
    "smooth_spectrum-text-k": (BadCount, lambda: smooth_spectrum(LAP, "2")),
    # a wrong verdict: [1.0] broadcast against two states
    "is_stationary-short": (DimensionMismatch, lambda: is_stationary(CHAIN, [1.0])),
    # the teleport was never read at damping 1
    "google_matrix-full-damping-nan-teleport": (
        NonFiniteEntry, lambda: google_matrix(CHAIN, 1.0, [NAN, 1.0])),
    "google_matrix-full-damping-text-teleport": (
        ValidationError, lambda: google_matrix(CHAIN, 1.0, "x")),
    # scalars raised TypeError, or numpy's ValueError for an array
    "google_matrix-none-damping": (ValidationError, lambda: google_matrix(CHAIN, None)),
    "google_matrix-complex-damping": (ValidationError, lambda: google_matrix(CHAIN, 0.5 + 0j)),
    "google_matrix-two-dampings": (
        DimensionMismatch, lambda: google_matrix(CHAIN, np.array([0.5, 0.6]))),
    "pagerank-none-damping": (ValidationError, lambda: pagerank(CHAIN, None)),
    "pagerank-complex-damping": (ValidationError, lambda: pagerank(CHAIN, 0.5 + 0j)),
    "pagerank-two-dampings": (DimensionMismatch, lambda: pagerank(CHAIN, np.array([0.5, 0.6]))),
    "pagerank-nan-damping": (NonFiniteEntry, lambda: pagerank(CHAIN, NAN)),
    "line_chain-none-p_right": (ValidationError, lambda: line_chain(5, p_right=None)),
    # None is not a numeric array (numpy reads it as NaN)
    "as_finite-none": (ValidationError, lambda: as_finite(None, "x")),
    "validate_distribution-none": (ValidationError, lambda: validate_distribution(None)),
    "line_chain-two-p_right": (
        DimensionMismatch, lambda: line_chain(5, p_right=np.array([0.5, 0.5]))),
    "line_chain-text-perturb": (ValidationError, lambda: line_chain(5, perturb="x")),
    "line_chain-inf-perturb": (NonFiniteEntry, lambda: line_chain(5, perturb=np.inf)),
    # range checks that stay, the damping's before the teleport's
    "smooth_spectrum-zero-k": (DimensionMismatch, lambda: smooth_spectrum(LAP, 0)),
    "line_chain-one-state": (BadCount, lambda: line_chain(n=1)),
    "sample-over-budget": (BadCount, lambda: sample(CHAIN, "a", MAX_STEPS + 1, 0)),
    "occupancy-over-budget": (
        BadCount, lambda: occupancy(CHAIN, "a", MAX_STEPS // 2 + 1, 0, 2)),
    "google_matrix-damping-above-one": (
        BadAlpha, lambda: google_matrix(CHAIN, 1.5, [NAN, 1.0])),
    "pagerank-full-damping": (BadAlpha, lambda: pagerank(CHAIN, 1.0, [NAN, 1.0])),
    "pagerank-zero-teleport": (BadAlpha, lambda: pagerank(CHAIN, 0.5, [0.0, 1.0])),
    "line_chain-p_right-one": (ValidationError, lambda: line_chain(5, p_right=1.0)),
    "line_chain-negative-perturb": (ValidationError, lambda: line_chain(5, perturb=-0.5)),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_argument_raises_its_class(case):
    cls, call = CASES[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is cls


def test_distribution_without_length_is_flattened():
    mu = validate_distribution([[0.25], [0.75]])
    assert mu.shape == (2,) and mu.tolist() == [0.25, 0.75]


def test_counts_take_numpy_integers():
    assert line_chain(n=np.int64(3)).n == 3
    assert smooth_spectrum(LAP, np.int32(2)).values.shape == (2,)


def test_state_function_is_not_the_callers_array():
    x = np.array([1.0, 0.0])
    out = conditional_expectation(CHAIN, x, steps=0)
    out[0] = 5.0
    assert x.tolist() == [1.0, 0.0]


def test_numeric_strings_read_as_numbers():
    assert np.array_equal(google_matrix(CHAIN, "0.5", ["0.25", "0.75"]).p,
                          google_matrix(CHAIN, 0.5, [0.25, 0.75]).p)
    assert np.array_equal(pagerank(CHAIN, "0.5")[0], pagerank(CHAIN, 0.5)[0])
    assert np.array_equal(line_chain(5, p_right="0.5", perturb="0.1").p,
                          line_chain(5, p_right=0.5, perturb=0.1).p)


def test_full_damping_reads_the_teleport():
    assert google_matrix(CHAIN, 1.0, [0.25, 0.75]) is CHAIN
    with pytest.raises(NonFiniteEntry):
        google_matrix(CHAIN, 1.0, [NAN, 1.0])


def test_pagerank_reads_its_teleport_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_distribution(*args)

    monkeypatch.setattr(surfer, "validate_distribution", counted)
    pi, google = pagerank(CHAIN, 0.85, [0.25, 0.75])
    assert len(calls) == 1
    assert np.allclose(pi @ google.p, pi, atol=1e-15)
