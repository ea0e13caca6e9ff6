"""A gallery of reversibility behaviors: a reversible chain, a recurrent
chain with circulation, a semi-reversible chain with a transient state,
and a reversibilized version of a cycle."""

import numpy as np

from chainkit import (
    build_chain,
    classify,
    equal_weight,
    flow_matrix,
    k_matrix,
    reversibility,
    reversibilize,
    stationary_basis,
    time_reverse,
)


def report(name, chain):
    structure = classify(chain)
    basis = stationary_basis(chain, structure)
    rep = reversibility(chain, structure, basis)
    print(f"{name}: recurrent={rep.recurrent} reversible={rep.reversible} "
          f"semi_reversible={rep.semi_reversible} residual={rep.db_residual:.2e}")
    if rep.witness is not None:
        print("  witness cycle (state indices):", rep.witness)
    return structure, basis, rep


reversible = build_chain("1234", [[0, 0.3, 0.1, 0.6],
                                  [0.75, 0, 0, 0.25],
                                  [0.5, 0, 0, 0.5],
                                  [0.75, 0.125, 0.125, 0]])
# flow matrix is symmetric for a reversible chain
s, b, _ = report("reversible", reversible)
F = flow_matrix(reversible, equal_weight(b))
print("  flow symmetric:", np.max(np.abs(F - F.T)) < 1e-12)

circulating = build_chain("1234", [[0, 0.3, 0.3, 0.4],
                                   [0.75, 0, 0, 0.25],
                                   [0.5, 0, 0, 0.5],
                                   [0.75, 0.125, 0.125, 0]])
report("circulating", circulating)

semi = build_chain("1234", [[0, 0.75, 0, 0.25],
                            [0.25, 0, 0, 0.75],
                            [0.6, 0, 0, 0.4],
                            [0.1, 0.9, 0, 0]])
report("semi-reversible", semi)

# The time reversal swaps the direction of stationary flow; applying it
# twice gives the original chain back.
basis = stationary_basis(circulating, classify(circulating))
reversed_chain = time_reverse(circulating, basis)
back = time_reverse(reversed_chain,
                    stationary_basis(reversed_chain, classify(reversed_chain)))
print("double reversal returns original:",
      np.max(np.abs(back.p - circulating.p)) < 1e-12)

# Reversibilization: both constructions yield reversible chains sharing pi.
cycle = build_chain("abc", [[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
cb = stationary_basis(cycle, classify(cycle))
for mode in ("additive", "multiplicative"):
    fixed = reversibilize(cycle, cb, mode)
    fs = classify(fixed)
    fb = stationary_basis(fixed, fs)
    print(f"{mode}: reversible={reversibility(fixed, fs, fb).reversible} "
          f"pi={np.round(equal_weight(fb), 3)}")

# The similarity kernel is symmetric exactly when the chain is reversible.
for name, c in (("reversible", reversible), ("circulating", circulating)):
    basis = stationary_basis(c, classify(c))
    k = k_matrix(c, basis)
    print(f"K symmetric for {name}:", np.max(np.abs(k - k.T)) < 1e-10)
