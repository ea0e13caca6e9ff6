"""Communication structure of a chain: classes, recurrence, periodicity,
absorbing states, and the headline chain-level flags."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .chain import TransitionMatrix, transitions


@dataclass(frozen=True)
class ClassStructure:
    """Condensation-level summary of a transition matrix.

    classes: state indices per communicating class, each sorted, classes
    ordered by smallest member. recurrent[c] marks closed classes.
    period[c] is the gcd cycle length within class c (1 when the class
    has no internal edge). condensation_edges holds (from, to) class
    pairs with from != to. Edges are `chain.transitions`; an absorbing
    state is a closed singleton class, and the chain is absorbing iff
    every closed class is one.
    """

    classes: tuple[tuple[int, ...], ...]
    condensation_edges: frozenset[tuple[int, int]]
    recurrent: tuple[bool, ...]
    period: tuple[int, ...]
    class_of: tuple[int, ...]
    irreducible: bool
    recurrent_chain: bool
    periodicity: str  # "aperiodic" | "periodic" | "mixed"
    chain_period: int | None
    ergodic: bool
    absorbing_states: tuple[int, ...]
    absorbing_chain: bool


def _tarjan_scc(adj: list[list[int]], n: int) -> list[list[int]]:
    """Iterative Tarjan; components returned in reverse topological
    order of discovery, then normalized by smallest member."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def _condense(chain: TransitionMatrix):
    """Classes, class_of, condensation edges and class periods, all read
    from one successor list per state.

    The period of a class is the gcd, over its internal edges u->v, of
    level[u] + 1 - level[v], with levels from a BFS inside the class.
    """
    succ = [np.flatnonzero(row).tolist() for row in transitions(chain.p)]
    classes = _tarjan_scc(succ, chain.n)
    class_of = [0] * chain.n
    for c, members in enumerate(classes):
        for s in members:
            class_of[s] = c
    edges = set()
    period = []
    level = [-1] * chain.n
    for c, members in enumerate(classes):
        level[members[0]] = 0
        queue = [members[0]]
        g = 0
        for u in queue:  # grows while it is walked: a BFS
            for v in succ[u]:
                if class_of[v] != c:
                    edges.add((c, class_of[v]))
                elif level[v] >= 0:
                    g = gcd(g, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    queue.append(v)
        period.append(g or 1)
    return (tuple(tuple(c) for c in classes), tuple(class_of), frozenset(edges),
            tuple(period))


def communicating_classes(chain: TransitionMatrix) -> tuple[
        tuple[tuple[int, ...], ...], frozenset[tuple[int, int]]]:
    """Communicating classes (strongly connected components of the
    chain's digraph) and the condensation edge set."""
    classes, _, edges, _ = _condense(chain)
    return classes, edges


def classify(chain: TransitionMatrix) -> ClassStructure:
    """Full structural classification of a chain."""
    classes, class_of, edges, period = _condense(chain)
    k = len(classes)
    outgoing = [False] * k
    for a, _ in edges:
        outgoing[a] = True
    recurrent = tuple(not outgoing[c] for c in range(k))

    irreducible = k == 1
    recurrent_chain = all(recurrent)
    rec_periods = sorted({period[c] for c in range(k) if recurrent[c]})
    if rec_periods == [1]:
        periodicity, chain_period = "aperiodic", None
    elif len(rec_periods) == 1:
        periodicity, chain_period = "periodic", rec_periods[0]
    else:
        periodicity, chain_period = "mixed", None
    ergodic = irreducible and periodicity == "aperiodic"

    closed = [members for members, r in zip(classes, recurrent) if r]
    absorbing_states = tuple(m[0] for m in closed if len(m) == 1)

    return ClassStructure(
        classes=classes,
        condensation_edges=edges,
        recurrent=recurrent,
        period=period,
        class_of=class_of,
        irreducible=irreducible,
        recurrent_chain=recurrent_chain,
        periodicity=periodicity,
        chain_period=chain_period,
        ergodic=ergodic,
        absorbing_states=absorbing_states,
        absorbing_chain=len(absorbing_states) == len(closed),
    )
