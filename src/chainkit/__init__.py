"""chainkit: finite Markov chains and random walks on weighted digraphs.

Structural classification, stationary and flow analysis, spectral
decomposition with an eigenvalue taxonomy, reversibility testing and
reversibilization, graph Laplacians, absorbing-chain fundamental
matrices, and teleporting random walks. See README.md for a tour.

`import chainkit` runs none of the submodules: each one below is put in
sys.modules through importlib.util.LazyLoader and runs on its first
attribute access, so an error raised while a module loads appears at
first use. The public names are served from `_EXPORTS` by __getattr__.
`chainkit.cli` is an ordinary submodule, imported when asked for.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# every submodule but cli, with the public names it exports
_EXPORTS = {
    "absorbing": ("canonical_form", "fundamental_matrix"),
    "chain": ("TransitionMatrix", "build_chain", "conditional_expectation", "evolve",
              "occupancy", "point_mass", "sample", "validate_distribution"),
    "demo": ("line_chain",),
    "errors": (),
    "graph": ("WeightedDigraph", "build_graph", "random_walk", "rw_set_representative",
              "same_rw_set"),
    "gth": (),
    "laplacian": ("build_laplacian", "directed_laplacian", "gft", "inverse_gft",
                  "quadratic_form", "smooth_spectrum"),
    "numlin": ("eigen_from_schur", "real_schur", "solve_linear", "sym_eigen"),
    "reversal": ("k_matrix", "reversibility", "reversibilize", "time_reverse"),
    "spectral": ("decompose", "perron_report", "spectral_evolve", "taxonomy"),
    "stationary": ("combine", "equal_weight", "flow_matrix", "stationary_basis"),
    "structure": ("classify",),
    "surfer": ("google_matrix", "pagerank"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["errors", *_OWNER])

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER})
