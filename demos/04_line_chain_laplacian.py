"""A biased walk on a line: its stationary profile, the directed
Laplacian's smoothest eigenvectors, and how teleportation changes the
ranking of states."""

import numpy as np

from chainkit import (
    classify,
    directed_laplacian,
    equal_weight,
    line_chain,
    pagerank,
    smooth_spectrum,
    stationary_basis,
)

chain = line_chain(n=100, p_right=0.52)
structure = classify(chain)
basis = stationary_basis(chain, structure)
pi = equal_weight(basis)

print("rightward bias 0.52 tilts the stationary profile:")
print("  pi[0:5] =", np.round(pi[:5], 5))
print("  pi[-5:] =", np.round(pi[-5:], 5))
print("  strictly increasing:", bool(np.all(np.diff(pi) > 0)))

lap = directed_laplacian(chain, basis)
spec = smooth_spectrum(lap, k=4)
print("\nsmoothest Laplacian values:", np.round(spec.values, 6))
r0 = spec.right_transformed[:, 0]
print("lambda=0 right transform is constant:",
      np.max(np.abs(r0 / r0[0] - 1.0)) < 1e-8)

# The next-smoothest eigenvectors give the coordinates of a spectral
# embedding; for a path they look like the lowest cosine modes.
coords = spec.right_transformed[:, 1]
print("second eigenvector changes sign once:",
      int(np.sum(np.diff(np.sign(coords)) != 0)) == 1)

# Teleportation flattens the profile as the damping factor drops.
for alpha in (0.99, 0.9, 0.5):
    ranks, _ = pagerank(chain, alpha)
    print(f"alpha={alpha:4}: ratio last/first = {ranks[-1] / ranks[0]:8.2f}")
print(f"no teleport: ratio last/first = {pi[-1] / pi[0]:8.2f}")
