"""Communication structure of a chain: classes, recurrence, periodicity,
absorbing states, and the headline chain-level flags.

Everything is read from the edge arrays (u, v) = nonzero(P > 0).
`_condense` runs one iterative Tarjan scan (Tarjan, SIAM J. Comput.
1972) over them, which gives the classes, in reverse topological order,
and each state's depth in the DFS forest; class_of, the condensation
edges and the class periods (Denardo, Math. Oper. Res. 1977) are then
numpy over the edges, so the pass is linear in the number of
transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix


@dataclass(frozen=True)
class ClassStructure:
    """Condensation-level summary of a transition matrix.

    classes: state indices per communicating class, each sorted, classes
    ordered by smallest member. topological lists the class ids in a
    topological order of the condensation, sources first: Tarjan's
    finishing order, reversed. recurrent[c] marks closed classes.
    period[c] is the gcd cycle length within class c (1 when the class
    has no internal edge), and phase[i] is state i's cyclic phase in its
    class: every transition inside a class goes from phase g to phase
    g + 1 mod its period. condensation_edges holds (from, to) class
    pairs with from != to. Edges are the entries P[i, j] > 0; an absorbing
    state is a closed singleton class, and the chain is absorbing iff
    every closed class is one.
    """

    classes: tuple[tuple[int, ...], ...]
    condensation_edges: frozenset[tuple[int, int]]
    topological: tuple[int, ...]
    recurrent: tuple[bool, ...]
    period: tuple[int, ...]
    class_of: tuple[int, ...]
    phase: tuple[int, ...]
    irreducible: bool
    recurrent_chain: bool
    periodicity: str  # "aperiodic" | "periodic" | "mixed"
    chain_period: int | None
    ergodic: bool
    absorbing_states: tuple[int, ...]
    absorbing_chain: bool


def _tarjan(succ: list[int], start: list[int], n: int) -> tuple[list[int], list[int]]:
    """Iterative Tarjan over one flat successor list: the successors of v
    are succ[start[v]:start[v + 1]]. Returns each state's component, in
    order of completion, and its depth in the DFS forest.

    A finished state's index is raised past every live one, so an edge
    into a finished component never lowers a low-link: one comparison per
    edge stands for the on-stack test.
    """
    index = [-1] * n
    low = [0] * n
    depth = [0] * n
    comp = [0] * n
    stack: list[int] = []
    counter = count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[start[root]:start[root + 1]]))]
        while work:
            v, edges = work[-1]
            lv = low[v]
            for w in edges:  # the iterator resumes after the child returns
                x = index[w]
                if x < lv:
                    if x < 0:  # unvisited: descend
                        low[v] = lv
                        index[w] = low[w] = counter
                        counter += 1
                        depth[w] = depth[v] + 1
                        stack.append(w)
                        work.append((w, iter(succ[start[w]:start[w + 1]])))
                        break
                    lv = x
            else:
                work.pop()
                if work and lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
                if lv == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        index[w] = n + count  # above every live index
                        if w == v:
                            break
                    count += 1
    return comp, depth


def _condense(chain: TransitionMatrix):
    """Classes, class_of, condensation edges, class periods, phases and
    the classes in topological order, sources first.

    Tarjan finishes a class only after every class reachable from it, so
    its finishing order, reversed, is topological. The states of a class
    form a subtree of the DFS forest, so the period of a class is the
    gcd, over its internal edges u->v, of the depth defects
    d(u) + 1 - d(v) (1 when it has none), and a state's phase is its
    depth mod its class's period.
    """
    n = chain.n
    u, v = np.nonzero(chain.p > 0)  # row-major: u ascending
    start = np.searchsorted(u, np.arange(n + 1))
    comp, depth = _tarjan(v.tolist(), start.tolist(), n)
    number: dict[int, int] = {}  # classes in order of their smallest member
    class_of = np.array([number.setdefault(c, len(number)) for c in comp], dtype=np.intp)
    k = len(number)
    flat = np.argsort(class_of, kind="stable").tolist()
    ends = np.cumsum(np.bincount(class_of, minlength=k)).tolist()
    classes = tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))
    cu, cv = class_of[u], class_of[v]
    cross = cu != cv
    pairs = np.unique(cu[cross] * k + cv[cross])
    edges = frozenset(zip((pairs // k).tolist(), (pairs % k).tolist()))
    # gcd per state over its out-edges (a cross edge adds 0), then per class
    depth = np.array(depth, dtype=np.intp)
    defect = np.abs(depth[u] + 1 - depth[v])
    defect[cross] = 0
    tails = np.flatnonzero(start[1:] > start[:-1])  # states with an out-edge
    period = np.zeros(k, dtype=np.intp)
    if tails.size:
        np.gcd.at(period, class_of[tails], np.gcd.reduceat(defect, start[tails]))
    period[period == 0] = 1
    phase = depth % period[class_of]
    return (classes, tuple(class_of.tolist()), edges, tuple(period.tolist()),
            tuple(phase.tolist()), tuple(number[c] for c in range(k - 1, -1, -1)))


def classify(chain: TransitionMatrix) -> ClassStructure:
    """Full structural classification of a chain."""
    classes, class_of, edges, period, phase, topological = _condense(chain)
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
        topological=topological,
        recurrent=recurrent,
        period=period,
        class_of=class_of,
        phase=phase,
        irreducible=irreducible,
        recurrent_chain=recurrent_chain,
        periodicity=periodicity,
        chain_period=chain_period,
        ergodic=ergodic,
        absorbing_states=absorbing_states,
        absorbing_chain=len(absorbing_states) == len(closed),
    )
