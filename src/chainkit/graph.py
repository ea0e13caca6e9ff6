"""Weighted digraphs, degree/volume accounting, random-walk
normalization, and random-walk-set operations.

Self-loops are treated as directed edges and therefore count once in
both the out- and in-degree row/column sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import reversal, stationary
from .chain import TransitionMatrix, _frozen_chain, as_finite, as_labels
from .errors import DimensionMismatch, NegativeWeight, ValidationError, ZeroOutDegree, applied

if TYPE_CHECKING:  # annotations only: a walk needs neither module loaded
    from .stationary import StationaryBasis
    from .structure import ClassStructure

UNDIRECTED_RTOL = 1e-12
BALANCED_RTOL = 1e-10
SCALING_RTOL = 1e-10


@dataclass(frozen=True)
class WeightedDigraph:
    """Weights w[i, j] >= 0 on edges i -> j. The flags are relative per
    pair (|w_ij - w_ji| <= UNDIRECTED_RTOL * max(w_ij, w_ji), on a symmetric
    edge pattern) and per vertex (|out_i - in_i| <= BALANCED_RTOL *
    max(out_i, in_i)), so they do not depend on the weight units, as the
    random walk does not, and no light edge is judged by a heavy one."""

    labels: tuple[str, ...]
    w: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def out_degree(self) -> np.ndarray:
        return self.w.sum(axis=1)

    @property
    def in_degree(self) -> np.ndarray:
        return self.w.sum(axis=0)

    @property
    def volume(self) -> float:
        return float(self.w.sum())

    @property
    def is_undirected(self) -> bool:
        # an edge whose reverse is missing has rev = 0 and fails the bound
        edge = self.w > 0
        fwd, rev = self.w[edge], self.w.T[edge]
        applied(undirected=UNDIRECTED_RTOL)
        return bool(np.all(np.abs(fwd - rev) <= UNDIRECTED_RTOL * np.maximum(fwd, rev)))

    @property
    def is_balanced(self) -> bool:
        out, into = self.out_degree, self.in_degree
        applied(balanced=BALANCED_RTOL)
        return bool(np.all(np.abs(out - into) <= BALANCED_RTOL * np.maximum(out, into)))


def build_graph(labels, w) -> WeightedDigraph:
    """A frozen float copy of w, finite and nonnegative; labels follow
    `as_labels`. The TSV reader checks its records and skips this."""
    labels = as_labels(labels)
    w = as_finite(w, "weight matrix")
    n = len(labels)
    if w.shape != (n, n):
        raise DimensionMismatch(f"weight shape {w.shape} does not match {n} labels")
    if np.any(w < 0):
        i, j = np.unravel_index(int(np.argmin(w)), w.shape)
        raise NegativeWeight(f"W[{i},{j}] = {w[i, j]:.3e} is negative")
    w.setflags(write=False)
    return WeightedDigraph(labels=labels, w=w)


def random_walk(g: WeightedDigraph) -> TransitionMatrix:
    """P = D^-1 W, checked and renormalized in place as `build_chain` checks
    its copy, so even a graph not from `build_graph` cannot pass a NaN."""
    d = g.out_degree
    dead = np.where(d <= 0)[0]
    if dead.size:
        raise ZeroOutDegree(f"vertex {g.labels[int(dead[0])]!r} has no outgoing weight")
    return _frozen_chain(as_labels(g.labels), g.w / d[:, None])


def same_rw_set(w1, w2) -> np.ndarray | None:
    """Diagonal scaling a with w1 = diag(a) w2 when the graphs generate
    the same random walk; None when they do not.

    Both are read by `as_finite`. Requires identical zero patterns, then
    every row a single positive multiple (relative tolerance 1e-10).
    """
    w1, w2 = as_finite(w1, "weight matrix"), as_finite(w2, "weight matrix")
    if w1.shape != w2.shape:
        raise DimensionMismatch("weight matrices differ in shape")
    if not np.array_equal(w1 > 0, w2 > 0):
        return None
    applied(rel=SCALING_RTOL)
    n = w1.shape[0]
    scale = np.zeros(n)
    for i in range(n):
        nz = w2[i] > 0
        if not np.any(nz):
            return None  # a silent vertex admits no positive scaling
        ratios = w1[i, nz] / w2[i, nz]
        r = ratios[0]
        if r <= 0 or np.any(np.abs(ratios - r) > SCALING_RTOL * r):
            return None
        scale[i] = r
    return scale


def rw_set_representative(chain: TransitionMatrix, structure: ClassStructure,
                          basis: StationaryBasis,
                          kind: str) -> WeightedDigraph | None:
    """Canonical member of the chain's random-walk set, None if it has no
    member of that kind. A recurrent chain's set holds the flow Pi P (pi
    from `_positive_pi`: underflow raises NotRecurrent), and the symmetrized
    flow, an undirected member, exactly when `reversibility` finds the
    chain reversible. Non-recurrent chains hold neither kind."""
    if kind not in ("balanced", "undirected"):
        raise ValidationError(f"unknown representative kind {kind!r}")
    if not structure.recurrent_chain:
        return None
    w = stationary._positive_pi(basis, "random-walk-set member")[:, None] * chain.p
    if kind == "undirected":
        if not reversal.reversibility(chain, structure, basis).reversible:
            return None
        w = 0.5 * (w + w.T)
    return build_graph(chain.labels, w)
