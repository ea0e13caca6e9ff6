"""Shared fixtures: small reference chains/graphs and random generators."""

import numpy as np
import pytest
from hypothesis import settings

from chainkit import build_chain, build_graph

# property tests draw the same examples on every run and store none
settings.register_profile("derandomize", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomize")


@pytest.fixture
def phd_chain():
    # 4-state study-progress chain: Study, Procrastinate, Finish-up, Confer
    return build_chain(
        ["S", "P", "F", "C"],
        [[0.5, 0.1, 0.2, 0.2],
         [1.0, 0.0, 0.0, 0.0],
         [0.0, 0.0, 0.5, 0.5],
         [1.0, 0.0, 0.0, 0.0]])


@pytest.fixture
def swap_chain():
    return build_chain(["a", "b"], [[0, 1], [1, 0]])


@pytest.fixture
def cycle3_chain():
    return build_chain(["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [1, 0, 0]])


# the four 4-state chains used throughout the reversibility tests
@pytest.fixture
def rev_chain():  # reversible
    return build_chain("1234", [[0, 0.3, 0.1, 0.6],
                                [0.75, 0, 0, 0.25],
                                [0.5, 0, 0, 0.5],
                                [0.75, 0.125, 0.125, 0]])


@pytest.fixture
def nonrev_chain():  # recurrent but not reversible
    return build_chain("1234", [[0, 0.3, 0.3, 0.4],
                                [0.75, 0, 0, 0.25],
                                [0.5, 0, 0, 0.5],
                                [0.75, 0.125, 0.125, 0]])


@pytest.fixture
def semirev_chain():  # transient state feeding a reversible core
    return build_chain("1234", [[0, 0.75, 0, 0.25],
                                [0.25, 0, 0, 0.75],
                                [0.6, 0, 0, 0.4],
                                [0.1, 0.9, 0, 0]])


@pytest.fixture
def nonrec_nonrev_chain():
    return build_chain("1234", [[0, 0.75, 0, 0.25],
                                [0.25, 0, 0, 0.75],
                                [0.6, 0, 0, 0.4],
                                [0.5, 0.5, 0, 0]])


@pytest.fixture
def absorbing_chain():  # one absorbing state, three transient
    return build_chain("1234", [[0.2, 0.4, 0.4, 0.0],
                                [0.3, 0.0, 0.5, 0.2],
                                [0.3, 0.5, 0.0, 0.2],
                                [0.0, 0.0, 0.0, 1.0]])


@pytest.fixture
def surfer_chain():  # 8-state web-style digraph walk
    p = np.zeros((8, 8))
    for i, j, v in [(0, 1, 1.0), (1, 7, 1.0), (2, 1, 0.4), (2, 6, 0.6),
                    (3, 1, 1.0), (4, 2, 1.0), (5, 6, 1.0), (6, 4, 0.8),
                    (6, 5, 0.2), (7, 0, 0.6), (7, 3, 0.4)]:
        p[i, j] = v
    return build_chain([f"v{i}" for i in range(1, 9)], p)


@pytest.fixture
def balanced_graph():
    return build_graph("1234", [[0, 3, 0, 0],
                                [1, 0, 4, 0],
                                [0, 2, 0, 2],
                                [2, 0, 0, 0]])


@pytest.fixture
def triangle_graph():  # undirected path: degrees (3, 4, 1)
    return build_graph("123", [[0, 3, 0], [3, 0, 1], [0, 1, 0]])


# ---------------------------------------------------------------------------
# random generators used by the property suites

def random_recurrent_chain(rng, n_max=7):
    """A random chain whose states are all recurrent: either a dense
    irreducible chain, a reversible chain built from a symmetric flow, a
    periodic block cycle, or a block-diagonal union of dense chains."""
    kind = rng.integers(0, 4)
    if kind == 0:  # dense irreducible
        n = int(rng.integers(2, n_max + 1))
        p = rng.random((n, n)) ** 2 + 1e-3
        return build_chain([str(i) for i in range(n)], p / p.sum(1, keepdims=True))
    if kind == 1:  # reversible via symmetric flow
        n = int(rng.integers(2, n_max + 1))
        f = rng.random((n, n)) + 1e-3
        f = f + f.T
        return build_chain([str(i) for i in range(n)], f / f.sum(1, keepdims=True))
    if kind == 2:  # periodic: d blocks cycled
        d = int(rng.integers(2, 4))
        sizes = [int(rng.integers(1, max(2, n_max // d + 1))) for _ in range(d)]
        n = sum(sizes)
        p = np.zeros((n, n))
        offs = np.cumsum([0] + sizes)
        for b in range(d):
            rows = slice(offs[b], offs[b + 1])
            nxt = slice(offs[(b + 1) % d], offs[(b + 1) % d + 1])
            block = rng.random((sizes[b], sizes[(b + 1) % d])) + 1e-3
            p[rows, nxt] = block / block.sum(1, keepdims=True)
        return build_chain([str(i) for i in range(n)], p)
    # two dense recurrent classes
    n1 = int(rng.integers(2, max(3, n_max // 2 + 1)))
    n2 = int(rng.integers(2, max(3, n_max - n1 + 1)))
    p = np.zeros((n1 + n2, n1 + n2))
    a = rng.random((n1, n1)) + 1e-3
    b = rng.random((n2, n2)) + 1e-3
    p[:n1, :n1] = a / a.sum(1, keepdims=True)
    p[n1:, n1:] = b / b.sum(1, keepdims=True)
    return build_chain([str(i) for i in range(n1 + n2)], p)


def random_undirected_graph(rng, n_max=40, max_components=3):
    """Random undirected weighted graph with 1..max_components connected
    components, every vertex of positive degree."""
    k = int(rng.integers(1, max_components + 1))
    sizes = []
    remaining = int(rng.integers(max(2 * k, 4), n_max + 1))
    for c in range(k):
        left = k - c - 1
        hi = remaining - 2 * left
        size = int(rng.integers(2, max(3, hi + 1))) if c < k - 1 else remaining
        size = min(size, remaining - 2 * left)
        sizes.append(size)
        remaining -= size
    n = sum(sizes)
    w = np.zeros((n, n))
    off = 0
    for size in sizes:
        # spanning tree plus a few extra edges
        for v in range(1, size):
            u = int(rng.integers(0, v))
            weight = rng.uniform(0.1, 2.0)
            w[off + u, off + v] += weight
            w[off + v, off + u] += weight
        extra = int(rng.integers(0, size))
        for _ in range(extra):
            u, v = rng.integers(0, size, size=2)
            if u == v:
                continue
            weight = rng.uniform(0.1, 2.0)
            w[off + u, off + v] += weight
            w[off + v, off + u] += weight
        off += size
    return build_graph([str(i) for i in range(n)], w), k
