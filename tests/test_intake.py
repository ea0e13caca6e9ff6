"""One intake for the numbers a library caller passes in.

Every vector argument is read by `chain.as_finite` and every count by
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
    inverse_gft,
    line_chain,
    quadratic_form,
    same_rw_set,
    smooth_spectrum,
    stationary_basis,
    validate_distribution,
)
from chainkit.errors import BadCount, DimensionMismatch, NonFiniteEntry, ValidationError
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
    # range checks that stay
    "smooth_spectrum-zero-k": (DimensionMismatch, lambda: smooth_spectrum(LAP, 0)),
    "line_chain-one-state": (BadCount, lambda: line_chain(n=1)),
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
