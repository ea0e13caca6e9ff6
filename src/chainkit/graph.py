"""Weighted digraphs, degree/volume accounting, random-walk
normalization, and random-walk-set operations.

Self-loops are treated as directed edges and therefore count once in
both the out- and in-degree row/column sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import TransitionMatrix, as_finite, as_labels, build_chain
from .errors import DimensionMismatch, NegativeWeight, ZeroOutDegree
from .stationary import StationaryBasis, equal_weight
from .structure import ClassStructure

UNDIRECTED_ATOL = 1e-12
BALANCED_ATOL = 1e-10
SCALING_RTOL = 1e-10


@dataclass(frozen=True)
class WeightedDigraph:
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
        return bool(np.max(np.abs(self.w - self.w.T), initial=0.0) <= UNDIRECTED_ATOL)

    @property
    def is_balanced(self) -> bool:
        return bool(np.max(np.abs(self.out_degree - self.in_degree),
                           initial=0.0) <= BALANCED_ATOL)


def build_graph(labels, w) -> WeightedDigraph:
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
    """P = D^-1 W with exact row normalization."""
    d = g.out_degree
    dead = np.where(d <= 0)[0]
    if dead.size:
        raise ZeroOutDegree(f"vertex {g.labels[int(dead[0])]!r} has no outgoing weight")
    return build_chain(g.labels, g.w / d[:, None])


def same_rw_set(w1, w2) -> np.ndarray | None:
    """Diagonal scaling a with w1 = diag(a) w2 when the graphs generate
    the same random walk; None when they do not.

    Requires identical zero patterns, then checks every row is a single
    positive multiple (relative tolerance 1e-10).
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != w2.shape:
        raise DimensionMismatch("weight matrices differ in shape")
    if not np.array_equal(w1 > 0, w2 > 0):
        return None
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
    """Canonical member of the chain's random-walk set.

    Recurrent chains always contain the balanced graph Pi P (the flow
    matrix, volume one). That member is undirected exactly when the
    chain is reversible; non-recurrent chains contain neither kind.
    """
    if kind not in ("balanced", "undirected"):
        raise ValueError(f"unknown representative kind {kind!r}")
    if not structure.recurrent_chain:
        return None
    pi = equal_weight(basis)
    w = pi[:, None] * chain.p
    if kind == "undirected" and np.max(np.abs(w - w.T)) > UNDIRECTED_ATOL:
        return None
    return build_graph(chain.labels, w)
