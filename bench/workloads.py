"""Seeded input generators and the request list of each workload.

Every input is written to a file, because the CLI reads files. A
workload is a fixed multiset of requests (kind, family, size); the seed
draws the matrix entries and shuffles the order, so two seeds give
different inputs of the same shape and the same cost profile.

Only numpy is used here: the program under test never generates its own
inputs, except `demo-line-chain`, whose input is its argv.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("spectral", "structural", "walks")

# A run of --seconds S makes round(S / NOMINAL_PASS_S) whole passes, at
# least one, so every run of a given length measures the same request
# multiset and its quantiles sit at the same ranks. The values are about
# one pass in calibrated seconds (see probe.py) when the benchmark was
# defined, except that structural's 8.3 s pass counts as 6.25 s: that
# gives it a fourth pass in a 25 s run, since its latencies spread most.
NOMINAL_PASS_S = {"spectral": 8.5, "structural": 6.25, "walks": 6.0}


@dataclass(frozen=True)
class Request:
    """One CLI call. `kind` selects the oracle; `ctx` holds what the
    oracle needs besides the report (input path, parameters)."""

    kind: str
    argv: tuple[str, ...]
    ctx: dict


# ---------------------------------------------------------------------------
# chain families; each returns a row-stochastic matrix

def _normalize(w: np.ndarray) -> np.ndarray:
    return w / w.sum(axis=1, keepdims=True)


def dense_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """Every entry positive: irreducible and aperiodic."""
    return _normalize(rng.random((n, n)) ** 2 + 1e-3)


def line_chain(rng: np.random.Generator, n: int, p_right: float = 0.52,
               perturb: float = 0.04) -> np.ndarray:
    """Biased walk on a path with reflecting ends; each state's bias is
    jittered uniformly in [-perturb, perturb]."""
    right = p_right + rng.uniform(-perturb, perturb, size=n)
    p = np.zeros((n, n))
    idx = np.arange(n)
    p[idx[1:], idx[:-1]] = 1.0 - right[1:]
    p[idx[:-1], idx[1:]] = right[:-1]
    p[0, 0] = 1.0 - right[0]
    p[n - 1, n - 1] = right[n - 1]
    return p


def cycle_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """One deterministic n-cycle through the states in a random order:
    irreducible with period n."""
    order = rng.permutation(n)
    p = np.zeros((n, n))
    p[order, np.roll(order, -1)] = 1.0
    return p


def block_periodic_chain(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """States split into d equal groups visited cyclically; every entry
    from group g to group g+1 (mod d) is positive, so the chain is
    irreducible with period d."""
    group = rng.permutation(np.arange(n) % d)
    mask = group[None, :] == (group[:, None] + 1) % d
    return _normalize(mask * (rng.random((n, n)) + 0.05))


def multiclass_chain(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k closed dense classes in shuffled state order: the eigenvalue 1
    has multiplicity k. k == n gives the identity chain."""
    cls = rng.permutation(np.arange(n) % k)
    mask = cls[:, None] == cls[None, :]
    return _normalize(mask * (rng.random((n, n)) + 0.05))


def absorbing_chain(rng: np.random.Generator, n: int, a: int,
                    degree: int) -> np.ndarray:
    """a absorbing states; every other state has `degree` random
    out-edges plus one edge into an absorbing state, so every state
    reaches absorption."""
    absorbing = rng.choice(n, size=a, replace=False)
    w = np.zeros((n, n))
    for i in range(n):
        if i in absorbing:
            w[i, i] = 1.0
            continue
        w[i, rng.choice(n, size=degree, replace=False)] += rng.random(degree) + 0.1
        w[i, rng.choice(absorbing)] += 0.2
    return _normalize(w)


def sparse_digraph(rng: np.random.Generator, n: int, degree: int,
                   closed: int, transient: int) -> np.ndarray:
    """Weighted digraph with `closed` closed classes (each a ring plus
    random chords) and `transient` states whose edges lead anywhere,
    at least one into a closed class."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    tr, rest = order[:transient], order[transient:]
    for members in np.array_split(rest, closed):
        m = len(members)
        w[members, np.roll(members, -1)] += rng.integers(1, 10, size=m)
        for i in members:
            w[i, rng.choice(members, size=degree - 1)] += rng.integers(1, 10, size=degree - 1)
    for i in tr:
        w[i, rng.choice(n, size=degree - 1)] += rng.integers(1, 10, size=degree - 1)
        w[i, rng.choice(rest)] += rng.integers(1, 10)
    return w


def undirected_graph(rng: np.random.Generator, n: int, extra: int) -> np.ndarray:
    """Connected symmetric weights: a random spanning tree plus `extra`
    random edges, integer weights 1..9."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(k)]
        w[i, j] = w[j, i] = rng.integers(1, 10)
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        w[i, j] = w[j, i] = rng.integers(1, 10)
    return w


# ---------------------------------------------------------------------------
# file writers

def labels(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def write_chain(path: str, p: np.ndarray) -> str:
    with open(path, "w") as fh:
        json.dump({"states": labels(len(p)), "P": p.tolist()}, fh)
    return path


def write_graph(path: str, w: np.ndarray, undirected: bool) -> str:
    """Edge list in row-major order; undirected files list each edge
    once (i <= j). The CLI numbers vertices in first-seen order, which
    the oracles reproduce from the file."""
    lines = ["#undirected" if undirected else "#directed"]
    labs = labels(len(w))
    for i, j in zip(*np.nonzero(w)):
        if undirected and j < i:
            continue
        lines.append(f"{labs[i]}\t{labs[j]}\t{float(w[i, j])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# workloads

class _Builder:
    def __init__(self, workdir: str, rng: np.random.Generator, scale: float):
        self.workdir = workdir
        self.rng = rng
        self.scale = scale
        self.requests: list[Request] = []
        self._files = 0

    def size(self, x: int, floor: int = 8) -> int:
        """A size or step count at the builder's scale."""
        return max(floor, int(round(x * self.scale)))

    def _path(self, ext: str) -> str:
        self._files += 1
        return os.path.join(self.workdir, f"in{self._files:03d}.{ext}")

    def chain(self, p: np.ndarray) -> str:
        return write_chain(self._path("json"), p)

    def graph(self, w: np.ndarray, undirected: bool) -> str:
        return write_graph(self._path("tsv"), w, undirected)

    def add(self, kind: str, argv: list[str], **ctx) -> None:
        self.requests.append(Request(kind, tuple(argv), ctx))

    def pagerank(self, path: str, n: int, damping: float,
                 teleport: bool = False) -> None:
        argv = ["pagerank", path, "--damping", repr(damping)]
        tel = None
        if teleport:
            tel = self.rng.random(n) + 0.5
            tel /= tel.sum()
            argv.append("--teleport=" + _csv(tel))
        self.add("pagerank", argv, input=path, damping=damping, teleport=tel)


def _csv(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in values)


def _spectral(b: _Builder) -> None:
    rng = b.rng

    n = b.size
    for size in (45, 60):
        path = b.chain(dense_chain(rng, n(size)))
        b.add("spectrum", ["spectrum", path], input=path)
    path = b.chain(line_chain(rng, n(60)))
    b.add("spectrum", ["spectrum", path], input=path)
    path = b.chain(line_chain(rng, n(90)))
    b.add("taxonomy-csv", ["taxonomy", path, "--format", "csv"], input=path)
    path = b.chain(cycle_chain(rng, n(50)))
    b.add("taxonomy", ["taxonomy", path], input=path)
    path = b.chain(cycle_chain(rng, n(90)))
    b.add("taxonomy-csv", ["taxonomy", path, "--format", "csv"], input=path)
    path = b.chain(block_periodic_chain(rng, n(56), 4))
    b.add("spectrum", ["spectrum", path], input=path)
    path = b.chain(block_periodic_chain(rng, n(81), 3))
    b.add("taxonomy-csv", ["taxonomy", path, "--format", "csv"], input=path)
    path = b.chain(multiclass_chain(rng, n(60), 5))
    b.add("taxonomy", ["taxonomy", path], input=path)
    path = b.chain(np.eye(n(90)))
    b.add("spectrum", ["spectrum", path], input=path)
    path = b.graph(undirected_graph(rng, n(50), 3 * n(50)), undirected=True)
    b.add("spectrum", ["spectrum", path], input=path)
    b.add("embed", ["embed", path, "--k", "4"], input=path)
    path = b.graph(undirected_graph(rng, n(60), 3 * n(60)), undirected=True)
    signal = rng.standard_normal(n(60))
    b.add("gft", ["gft", path, "--signal=" + _csv(signal)], input=path, signal=signal)
    path = b.chain(dense_chain(rng, n(45)))
    b.add("embed", ["embed", path, "--k", "3"], input=path)
    for size in (45, 60):
        b.add("demo-line-chain",
              ["demo-line-chain", "--n", str(n(size)), "--perturb", "0.04",
               "--seed", str(int(rng.integers(1 << 30)))], n=n(size))


def _structural(b: _Builder) -> None:
    rng = b.rng

    n = b.size
    for _ in range(2):
        dense = b.chain(dense_chain(rng, n(300)))
        for kind in ("validate", "classify", "stationary", "reverse", "kmatrix"):
            b.add(kind, [kind, dense], input=dense)
        b.add("reversibilize", ["reversibilize", dense, "--mode", "additive"],
              input=dense, mode="additive")
        b.add("laplacian-directed", ["laplacian", dense, "--variant", "directed"],
              input=dense)
    dense = b.chain(dense_chain(rng, n(200)))
    b.add("reversibilize", ["reversibilize", dense, "--mode", "multiplicative"],
          input=dense, mode="multiplicative")
    for size, closed in ((700, 5), (800, 6), (900, 6), (1000, 8)):
        path = b.graph(sparse_digraph(rng, n(size), 5, closed, n(size) // 5),
                       undirected=False)
        for kind in ("validate", "classify", "stationary"):
            b.add(kind, [kind, path], input=path)
    path = b.graph(undirected_graph(rng, n(600), 2 * n(600)), undirected=True)
    b.add("laplacian-normalized", ["laplacian", path, "--variant", "normalized"],
          input=path)
    b.add("classify", ["classify", path], input=path)
    path = b.graph(undirected_graph(rng, n(400), 2 * n(400)), undirected=True)
    b.add("laplacian-unnormalized", ["laplacian", path, "--variant", "unnormalized"],
          input=path)
    for size, a in ((250, 5), (150, 3), (100, 2)):
        path = b.chain(absorbing_chain(rng, n(size), a, 5))
        b.add("absorb", ["absorb", path], input=path)


def _walks(b: _Builder) -> None:
    """Costs are set by step counts, so they barely depend on the seed:
    six ensembles of 10^5 trajectory-steps and the line PageRank form
    the tail, eight 20000-step paths sit around the median."""
    rng = b.rng

    n = b.size
    def steps(x):
        return str(b.size(x, floor=4))

    def seed():
        return str(int(rng.integers(1 << 30)))

    line = b.chain(line_chain(rng, n(50)))
    absorbing = b.chain(absorbing_chain(rng, n(40), 2, 3))
    cycle = b.chain(cycle_chain(rng, n(60)))
    for path, start, shapes in ((line, "s0", ((1000, 100), (500, 200))),
                                (absorbing, "s1", ((800, 125), (400, 250))),
                                (cycle, "s3", ((1000, 100), (250, 400)))):
        for traj, length in shapes:
            b.add("simulate-ensemble",
                  ["simulate", path, "--start", start, "--length", steps(length),
                   "--trajectories", steps(traj), "--seed", seed()],
                  input=path, start=start)
        for _ in range(2 if path is absorbing else 3):
            b.add("simulate-path",
                  ["simulate", path, "--start", "s3", "--length", steps(20000),
                   "--seed", seed()], input=path, start="s3")
        b.add("evolve", ["evolve", path, "--start", start, "--steps", steps(20000)],
              input=path, start=start)
    # the uniform start is already stationary on a cycle, so its
    # PageRank requests teleport to a random positive distribution
    b.pagerank(cycle, n(60), 0.999, teleport=True)
    path = b.chain(line_chain(rng, n(400)))
    b.pagerank(path, n(400), 0.999)
    b.add("evolve", ["evolve", path, "--start", "s0", "--steps", steps(5000)],
          input=path, start="s0")
    path = b.chain(line_chain(rng, n(200)))
    b.pagerank(path, n(200), 0.995)
    b.add("evolve", ["evolve", path, "--start", "s0", "--steps", steps(5000)],
          input=path, start="s0")
    b.pagerank(b.chain(absorbing_chain(rng, n(300), 4, 3)), n(300), 0.995)
    b.pagerank(b.chain(cycle_chain(rng, n(300))), n(300), 0.99, teleport=True)
    b.pagerank(b.chain(absorbing_chain(rng, n(100), 2, 3)), n(100), 0.999)


# Each builder runs this many times per pass with fresh draws: more
# distinct inputs make a run's aggregate depend less on the seed.
_BUILDERS = {"spectral": (_spectral, 2), "structural": (_structural, 1),
             "walks": (_walks, 1)}


def build(workload: str, seed: int, workdir: str, scale: float = 1.0,
          shuffle: bool = True) -> list[Request]:
    """The workload's request list for `seed`, inputs written to
    `workdir`. `scale` shrinks sizes for the warm-up set and the
    self-tests; the benchmark proper always uses 1.0. Without `shuffle`
    the list is in construction order, the same for every seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    b = _Builder(workdir, rng, scale)
    builder, replicas = _BUILDERS[workload]
    for _ in range(replicas):
        builder(b)
    if not shuffle:
        return b.requests
    order = rng.permutation(len(b.requests))
    return [b.requests[i] for i in order]
