"""Spectral analysis of transition matrices: decomposition, the six-way
eigenvalue taxonomy, evolution in the eigenbasis, and checks that the
spectrum behaves the way stochastic matrices must.

`decompose` reads the spectrum through the chain's structure, by three
routes. A reversible chain is similar to the symmetric S = Pi^1/2 P
Pi^-1/2 at any range of pi, so its spectrum is real and its eigenvectors
come from S's (Levin, Peres & Wilmer, Markov Chains and Mixing Times,
2009, 12.1). An irreducible chain of period d is block-cyclic, so its
spectrum is the e-th roots of that of the cycle product of its e cyclic
blocks, for every divisor e of d, and a reducible chain is block upper
triangular in a topological order of its classes (Seneta, Non-negative
Matrices and Markov Chains, 2006, ch. 1)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .chain import TransitionMatrix, require_count, validate_distribution
from .errors import NotDiagonalizable, NumericError, applied
from .numlin import (
    CONDITION_LIMIT,
    DEFLATE_RTOL,
    ComplexEigenpairs,
    SchurForm,
    _eigenpairs,
    _residual,
    clusters,
    eigen_from_schur,
    lift_cyclic,
    real_schur,
    sym_eigen,
)
from .reversal import _kolmogorov
from .structure import ClassStructure

TAXONOMY_EPSILON = 1e-8
SPECTRAL_RADIUS_SLACK = 1e-8

PERSISTENT_STRUCTURE = "persistent_structure"
PERSISTENT_OSCILLATION = "persistent_oscillation"
PERSISTENT_CYCLE = "persistent_cycle"
TRANSIENT_STRUCTURE = "transient_structure"
TRANSIENT_OSCILLATION = "transient_oscillation"
TRANSIENT_CYCLE = "transient_cycle"
PERSISTENT = (PERSISTENT_STRUCTURE, PERSISTENT_OSCILLATION, PERSISTENT_CYCLE)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a chain, a deterministic sorted view and labels.

    order permutes values into descending |lambda|, ties broken by
    descending real part then ascending imaginary part (`_order`). Moduli
    and real parts are compared as clusters, `numlin.clusters` at ||P||_F:
    two in one cluster tie. On a cycle every |lambda| is 1 up to
    roundoff, and neither last-ulp noise nor a boundary of the 12 digits
    reports print may set the row order.
    """

    pairs: ComplexEigenpairs
    order: tuple[int, ...]

    @property
    def values(self) -> np.ndarray:
        return self.pairs.values

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The taxonomy label of each value, the one unit-circle rule that
        unit_multiplicity, `spectral_evolve` and `perron_report` read:
        persistence (|lambda| vs 1) and kind, structure (real
        nonnegative), oscillation (real negative) or cycle (genuinely
        complex). Values within TAXONOMY_EPSILON go to the persistent side."""
        lam = self.values
        applied(epsilon=TAXONOMY_EPSILON)
        one, minus_one, unit, real = (np.abs(x) < TAXONOMY_EPSILON for x in
                                      (lam - 1.0, lam + 1.0, np.abs(lam) - 1.0, lam.imag))
        return tuple(np.select(
            [one, minus_one, unit & ~real, real & (lam.real >= 0), real],
            [*PERSISTENT, TRANSIENT_STRUCTURE, TRANSIENT_OSCILLATION], TRANSIENT_CYCLE).tolist())

    @property
    def unit_multiplicity(self) -> int:
        return self.labels.count(PERSISTENT_STRUCTURE)


def _order(values: np.ndarray, scale: float) -> tuple[int, ...]:
    """SpectralDecomposition.order of values from a matrix of Frobenius
    norm scale: modulus clusters by descending modulus, then within one
    the real-part clusters by descending real part, then ascending
    imaginary part. Clusters of real numbers are intervals, so any member
    stands for its cluster."""
    modulus = np.abs(values)
    return tuple(np.lexsort((values.imag,
                             -values.real[clusters(values.real, scale)],
                             -modulus[clusters(modulus, scale)])).tolist())


def _reversible_pairs(p: np.ndarray, structure: ClassStructure) -> ComplexEigenpairs | None:
    """Eigenpairs of a reversible chain from the symmetric S = Pi^1/2 P
    Pi^-1/2, or None when that route does not apply.

    S_ij = sqrt(P_ij P_ji) needs no pi and is exactly symmetric, so
    `sym_eigen` gives its real spectrum and orthonormal v; the right and
    left eigenvectors of P are r = Pi^-1/2 v and l = Pi^1/2 v (Levin,
    Peres & Wilmer, Markov Chains and Mixing Times, 2009, 12.1). Each
    column is formed in log scale, log|v| -/+ phi/2 less its largest
    entry, exponentiated with v's sign: phi = ln pi + a constant per class
    is Kolmogorov's potential, and an entry past the double range
    underflows to 0. The route needs Kolmogorov's criterion to hold and
    the right and left residuals on P within DEFLATE_RTOL * ||P||_F, the
    backward error real_schur accepts: a chain that passes the criterion
    at CYCLE_RTOL is only close to similar to S. Each eigenvalue goes to
    `numlin._eigenpairs` as a 1x1 block, at ||P||_F, which measures its
    1/s_j = ||Pi^1/2 v|| ||Pi^-1/2 v|| as on every route.
    """
    ok, _, phi = _kolmogorov(p)
    if not ok:
        return None
    # in class order S is block diagonal, so sym_eigen never mixes two
    # classes: phi's constants cannot magnify a repeated eigenvalue's v
    order = np.concatenate(structure.classes)
    values, v = sym_eigen(np.sqrt(p * p.T)[np.ix_(order, order)])
    v = v[np.argsort(order)]
    # QR's absolute error in v, which the scaling magnifies, is worst on
    # the unit pairs: those are r = 1 and l = pi on each class, from phi
    n, k = len(values), len(structure.classes)
    v[:, n - k:] = 0.0
    log_v = np.log(np.abs(v), where=v != 0, out=np.full_like(v, -np.inf))
    for j, members in enumerate(structure.classes):
        members = list(members)
        v[members, n - k + j], log_v[members, n - k + j] = 1.0, 0.5 * phi[members]
    right, left = (np.sign(v) * np.exp(x - x.max(axis=0))
                   for x in (log_v - 0.5 * phi[:, None], log_v + 0.5 * phi[:, None]))
    scale = np.linalg.norm(p)
    residual = max(_residual(p, right, values), _residual(p.T, left, values))
    applied(deflate=DEFLATE_RTOL)
    if not residual <= DEFLATE_RTOL * scale:
        return None
    return _eigenpairs(values, np.ones(n, dtype=int), right, left, scale, residual)


def _schur_by_class(p: np.ndarray, structure: ClassStructure) -> SchurForm:
    """Real Schur form of P assembled from one Schur form per class.

    In the topological order of the classes (`structure.topological`,
    sources first) P is block upper triangular, so Q = blockdiag(q_k)
    with its rows put back in state order, and T holds each class's t_k
    on the diagonal, q_i^T P_ij q_j above it and exact zeros below: P
    is zero off its transitions, so nothing sits below the class blocks.
    A 1x1 class is its own Schur form, and an irreducible P is one block.
    """
    order = structure.topological
    if len(order) <= 1:
        return real_schur(p)
    perm = np.array([s for c in order for s in structure.classes[c]])
    pp = p[np.ix_(perm, perm)]
    ends = np.cumsum([len(structure.classes[c]) for c in order]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    forms = [real_schur(pp[a:b, a:b]) if b - a > 1
             else SchurForm(np.ones((1, 1)), pp[a:b, a:b].copy(), (1,)) for a, b in spans]
    qb = np.zeros_like(pp)
    for (a, b), form in zip(spans, forms):
        qb[a:b, a:b] = form.q
    t = qb.T @ pp @ qb
    for (a, b), form in zip(spans, forms):
        t[a:b, :b] = 0.0
        t[a:b, a:b] = form.t
    q = np.empty_like(qb)
    q[perm] = qb
    return SchurForm(q, t, tuple(b for form in forms for b in form.block_sizes))


def _cyclic_pairs(p: np.ndarray, structure: ClassStructure) -> ComplexEigenpairs | None:
    """Eigenpairs of an irreducible chain of period d from a cycle
    product, or None when that route does not apply.

    A chain of period d is also e-cyclic for every divisor e of d, with
    groups G_g = {phase = g mod e}: its only nonzero blocks are A_g =
    P[G_g, G_{g+1 mod e}], so P^e is block diagonal and the spectrum of
    P is the e-th roots of the eigenvalues of B_e = A_0 A_1 ... A_{e-1}.
    The route needs d phase groups of n/d states: otherwise the block of
    P between two consecutive phases of different sizes is not square,
    so A_g is singular at every e, and so is B_e. Each divisor e > 1 is
    then tried in turn, largest first (a cycle of n states lifts from a
    1x1 product), and the first that passes wins. P is exactly zero
    outside the A_g, since every transition steps one phase on; the route
    needs B_e nonsingular: no eigenvalue mu of B_e is one
    `numlin.clusters` cluster with 0 at ||B_e||_F. Last, the lifted
    pairs must have residuals on P within DEFLATE_RTOL * ||P||_F, the
    backward error real_schur accepts: B_e is formed explicitly, so mu
    carries an absolute error near eps * ||B_e||, which the e-th root
    magnifies by 1 / (e |lambda|^(e-1)). A smaller e has a larger
    product to factor but magnifies less: a small lambda of P is
    lambda^e in B_e.
    """
    d = structure.chain_period
    phase = np.array(structure.phase, dtype=np.intp)
    counts = np.bincount(phase, minlength=d)
    if counts.min() != counts.max():
        return None
    applied(deflate=DEFLATE_RTOL)
    scale = np.linalg.norm(p)
    for e in (e for e in range(d, 1, -1) if d % e == 0):
        group = phase % e
        groups = [np.flatnonzero(group == g) for g in range(e)]
        blocks = [p[np.ix_(groups[g], groups[(g + 1) % e])] for g in range(e)]
        b = reduce(np.matmul, blocks)
        base = eigen_from_schur(real_schur(b))
        if clusters(np.append(base.values, 0.0), np.linalg.norm(b))[-1] != len(base.values):
            continue
        pairs = lift_cyclic(p, groups, blocks, base)
        if pairs.residual <= DEFLATE_RTOL * scale:
            return pairs
    return None


def decompose(chain: TransitionMatrix, structure: ClassStructure) -> SpectralDecomposition:
    """Eigendecomposition read through the chain's structure, by the
    first of three routes that applies.

    A reversible chain takes `sym_eigen` of the symmetric matrix it is
    similar to (`_reversible_pairs`): a real spectrum.
    An irreducible chain of period d > 1 lifts the eigenpairs of its
    (n/e) x (n/e) cycle product for the largest divisor e > 1 of d whose
    lift passes the gates (`_cyclic_pairs`, `numlin.lift_cyclic`). Every
    other chain, and one that both routes refuse, takes one real
    Schur form per communicating class (`_schur_by_class`) and
    `eigen_from_schur` on the assembled form; an irreducible chain is one
    class, so that is `real_schur` of P itself. Every route ends in
    `numlin._eigenpairs`, whose measured 1/s_j decides `diagonalizable`.

    Asserts the spectral radius of a stochastic matrix never exceeds one
    (up to roundoff).
    """
    pairs = _reversible_pairs(chain.p, structure)
    if pairs is None and structure.irreducible and structure.chain_period:
        pairs = _cyclic_pairs(chain.p, structure)
    if pairs is None:
        pairs = eigen_from_schur(_schur_by_class(chain.p, structure))
    radius = float(np.max(np.abs(pairs.values), initial=0.0))
    applied(radius=SPECTRAL_RADIUS_SLACK)
    if radius > 1.0 + SPECTRAL_RADIUS_SLACK:
        raise NumericError(f"stochastic spectral radius {radius} exceeds 1")
    return SpectralDecomposition(pairs=pairs, order=_order(pairs.values, np.linalg.norm(chain.p)))


def taxonomy(decomp: SpectralDecomposition) -> list[str]:
    """`SpectralDecomposition.labels` as a list, in the order of values."""
    return list(decomp.labels)


@dataclass(frozen=True)
class EigenEvolution:
    """A distribution expanded in the eigenbasis and pushed k steps.

    coordinates are the coefficients c_w = mu^T r_w. The persistent part
    collects the modes labelled persistent (structure, oscillation or
    cycle), the transient part the rest; their sum is the evolved one.
    """

    coordinates: np.ndarray
    persistent_part: np.ndarray
    transient_part: np.ndarray
    evolved: np.ndarray


def spectral_evolve(decomp: SpectralDecomposition, mu, k: int) -> EigenEvolution:
    """Evolve mu for k steps entirely in the eigenbasis.

    mu^T P^k = sum_w (mu^T r_w) lambda_w^k l_w^T, the left vectors being
    the dual basis of the right ones (left^T right = I); a conjugate
    pair's two terms are conjugate, so the sum is the real part. Refuses
    a spectrum that is not `pairs.diagonalizable`, defective or with some
    1/s_w past CONDITION_LIMIT (a reversible chain whose pi spans ten
    decades), whose dual would magnify rounding past any useful accuracy.
    The persistent part is the modes `decomp.labels` calls persistent.
    """
    if not decomp.pairs.diagonalizable:
        raise NotDiagonalizable(f"eigenbasis condition {decomp.pairs.condition:.3g} exceeds "
                                f"{CONDITION_LIMIT:.0e}; fall back to direct evolution")
    values, right, left = decomp.values, decomp.pairs.right, decomp.pairs.left
    mu = validate_distribution(mu, right.shape[0])
    require_count(k, "steps")
    coordinates = mu @ right
    scaled = coordinates * values ** k
    persistent_mask = np.isin(decomp.labels, PERSISTENT)
    persistent = ((scaled * persistent_mask) @ left.T).real
    transient = ((scaled * ~persistent_mask) @ left.T).real
    return EigenEvolution(coordinates, persistent, transient, persistent + transient)


def perron_report(decomp: SpectralDecomposition, recurrent_classes: int) -> dict:
    """Conformance summary for a stochastic spectrum: radius bound, the
    multiplicity of 1 against the recurrent-class count, and the second
    modulus: the largest |lambda| not labelled persistent_structure."""
    modulus = np.abs(decomp.values)
    radius = float(np.max(modulus, initial=0.0))
    rest = modulus[np.array(decomp.labels) != PERSISTENT_STRUCTURE]
    applied(radius=SPECTRAL_RADIUS_SLACK)
    return {
        "spectral_radius": radius,
        "radius_ok": radius <= 1.0 + SPECTRAL_RADIUS_SLACK,
        "unit_multiplicity": decomp.unit_multiplicity,
        "unit_multiplicity_matches_recurrent_classes":
            decomp.unit_multiplicity == recurrent_classes,
        "second_modulus": float(rest.max()) if len(rest) else None,
    }
