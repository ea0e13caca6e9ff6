"""Spectral analysis of transition matrices: decomposition, the six-way
eigenvalue taxonomy, evolution in the eigenbasis, and checks that the
spectrum behaves the way stochastic matrices must."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix, validate_distribution
from .errors import NotDiagonalizable, NumericError, SingularMatrix
from .numlin import ComplexEigenpairs, eigen_from_schur, real_schur, solve_linear

TAXONOMY_EPSILON = 1e-8
SPECTRAL_RADIUS_SLACK = 1e-8

PERSISTENT_STRUCTURE = "persistent_structure"
PERSISTENT_OSCILLATION = "persistent_oscillation"
PERSISTENT_CYCLE = "persistent_cycle"
TRANSIENT_STRUCTURE = "transient_structure"
TRANSIENT_OSCILLATION = "transient_oscillation"
TRANSIENT_CYCLE = "transient_cycle"


def round12(x: float) -> float:
    """x at the 12 significant digits reports print (and -0.0 as 0.0)."""
    if x == 0:
        return 0.0
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a chain plus a deterministic sorted view.

    order permutes values into descending |lambda|, ties broken by
    descending real part then ascending imaginary part, all compared at
    the 12 significant digits reports print: on a cycle every |lambda|
    is 1 up to roundoff, and last-ulp noise must not set the row order.
    left_row_sums reports sum(l) per eigenvector; for irreducible chains
    every non-unit eigenvalue's left vector sums to zero, for
    non-recurrent chains the sums are informational only.
    """

    pairs: ComplexEigenpairs
    order: tuple[int, ...]
    unit_multiplicity: int
    left_row_sums: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.pairs.values

    def sorted_values(self) -> np.ndarray:
        return self.pairs.values[list(self.order)]


def decompose(chain: TransitionMatrix) -> SpectralDecomposition:
    """Eigendecomposition via the real Schur form.

    Asserts the spectral radius of a stochastic matrix never exceeds one
    (up to roundoff) and counts the multiplicity of the eigenvalue 1.
    """
    pairs = eigen_from_schur(real_schur(chain.p))
    values = pairs.values
    radius = float(np.max(np.abs(values))) if len(values) else 0.0
    if radius > 1.0 + SPECTRAL_RADIUS_SLACK:
        raise NumericError(f"stochastic spectral radius {radius} exceeds 1")
    order = tuple(sorted(range(len(values)),
                         key=lambda j: (-round12(abs(values[j])),
                                        -round12(values[j].real),
                                        round12(values[j].imag))))
    unit = int(np.sum(np.abs(values - 1.0) < TAXONOMY_EPSILON))
    left_sums = pairs.left_complex().sum(axis=0)
    return SpectralDecomposition(pairs=pairs, order=order,
                                 unit_multiplicity=unit,
                                 left_row_sums=left_sums)


def taxonomy(decomp: SpectralDecomposition) -> list[str]:
    """Classify each eigenvalue by persistence (|lambda| vs 1) and by
    kind: structure (real nonnegative), oscillation (real negative), or
    cycle (genuinely complex). Boundary values within TAXONOMY_EPSILON
    classify toward the persistent side."""
    labels = []
    for lam in decomp.values:
        re, im, mod = lam.real, lam.imag, abs(lam)
        if abs(lam - 1.0) < TAXONOMY_EPSILON:
            labels.append(PERSISTENT_STRUCTURE)
        elif abs(lam + 1.0) < TAXONOMY_EPSILON:
            labels.append(PERSISTENT_OSCILLATION)
        elif abs(mod - 1.0) < TAXONOMY_EPSILON and abs(im) >= TAXONOMY_EPSILON:
            labels.append(PERSISTENT_CYCLE)
        elif abs(im) < TAXONOMY_EPSILON and re >= 0:
            labels.append(TRANSIENT_STRUCTURE)
        elif abs(im) < TAXONOMY_EPSILON:
            labels.append(TRANSIENT_OSCILLATION)
        else:
            labels.append(TRANSIENT_CYCLE)
    return labels


@dataclass(frozen=True)
class EigenEvolution:
    """A distribution expanded in the eigenbasis and pushed k steps.

    coordinates are the coefficients c_w = mu^T r_w. The persistent part
    collects unit-modulus modes, the transient part the rest; their sum
    reconstructs the evolved distribution.
    """

    coordinates: np.ndarray
    persistent_part: np.ndarray
    transient_part: np.ndarray
    evolved: np.ndarray


def spectral_evolve(decomp: SpectralDecomposition, mu, k: int) -> EigenEvolution:
    """Evolve mu for k steps entirely in the eigenbasis.

    Expands mu over the complex right eigenvectors, scales each
    coordinate by lambda^k, and reassembles through the dual (left)
    basis, the inverse of the pair-encoded right vectors. A conjugate
    pair's two dual rows take the real and imaginary parts of its
    positive-imaginary member's scaled coordinate, so the sum is real.
    """
    if not decomp.pairs.diagonalizable:
        raise NotDiagonalizable("defective spectrum; fall back to direct evolution")
    r_enc = decomp.pairs.right
    n = r_enc.shape[0]
    mu = validate_distribution(mu, n)
    try:
        dual = solve_linear(r_enc, np.eye(n))
    except SingularMatrix as exc:
        raise NotDiagonalizable("eigenbasis numerically singular") from exc
    coordinates = mu @ decomp.pairs.right_complex()
    scaled = coordinates * decomp.values ** k
    scaled = np.where(decomp.values.imag < 0, -scaled.imag, scaled.real)
    persistent_mask = np.abs(np.abs(decomp.values) - 1.0) < TAXONOMY_EPSILON
    persistent = (scaled * persistent_mask) @ dual
    transient = (scaled * ~persistent_mask) @ dual
    return EigenEvolution(coordinates=coordinates,
                          persistent_part=persistent,
                          transient_part=transient,
                          evolved=persistent + transient)


def perron_report(decomp: SpectralDecomposition,
                  recurrent_classes: int | None = None) -> dict:
    """Conformance summary for a stochastic spectrum: radius bound, the
    multiplicity of 1 against the recurrent-class count, and the second
    modulus |lambda_2|."""
    vals = decomp.sorted_values()
    radius = float(np.max(np.abs(vals))) if len(vals) else 0.0
    report = {
        "spectral_radius": radius,
        "radius_ok": radius <= 1.0 + SPECTRAL_RADIUS_SLACK,
        "unit_multiplicity": decomp.unit_multiplicity,
        "second_modulus": float(np.abs(vals[decomp.unit_multiplicity]))
        if len(vals) > decomp.unit_multiplicity else None,
    }
    if recurrent_classes is not None:
        report["unit_multiplicity_matches_recurrent_classes"] = (
            decomp.unit_multiplicity == recurrent_classes)
    return report
