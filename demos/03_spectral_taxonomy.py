"""Eigenvalues as a catalog of long-run behaviors: persistent versus
transient, structure versus oscillation versus cycle, and evolving a
distribution directly in the eigenbasis."""

import numpy as np

from chainkit import (
    build_chain,
    classify,
    decompose,
    evolve,
    spectral_evolve,
    taxonomy,
)

# A period-3 cycle puts three eigenvalues on the unit circle.
cycle = build_chain("abc", [[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
dec = decompose(cycle, classify(cycle))
for lam, label in zip(dec.values, taxonomy(dec)):
    print(f"lambda = {lam.real:+.3f}{lam.imag:+.3f}i  |lambda| = "
          f"{abs(lam):.3f}  -> {label}")

# An ergodic chain: a single persistent eigenvalue, everything else decays.
ergodic = build_chain("1234", [[0.5, 0.1, 0.2, 0.2],
                               [1.0, 0.0, 0.0, 0.0],
                               [0.3, 0.0, 0.5, 0.2],
                               [0.0, 0.0, 0.5, 0.5]])
dec = decompose(ergodic, classify(ergodic))
print()
for lam, label in zip(dec.values, taxonomy(dec)):
    print(f"lambda = {lam.real:+.3f}{lam.imag:+.3f}i  -> {label}")

# Evolution through the eigenbasis splits the trajectory into a persistent
# part (what survives forever) and a transient part (what decays).
mu = np.array([1.0, 0.0, 0.0, 0.0])
for k in (1, 4, 16, 256):
    ev = spectral_evolve(dec, mu, k)
    direct = evolve(ergodic, mu, k)
    print(f"k={k:4d} basis route max error {np.max(np.abs(ev.evolved - direct)):.2e} "
          f"transient mass {np.max(np.abs(ev.transient_part)):.2e}")

print("\npersistent part is the stationary distribution:",
      np.round(spectral_evolve(dec, mu, 1).persistent_part, 4))
