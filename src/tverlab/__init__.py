"""Configuration spaces of the colored Tverberg problem at desk scale:
chessboard and rainbow complexes, deleted joins and products, homology over
Z_p, index-bound arithmetic, and exact search for disjoint rainbow faces
with intersecting hulls.

Submodules load on first use: ``import tverlab`` imports none of them, and
the first access to a public name (``tverlab.chessboard``) or to a submodule
(``tverlab.geometry``) imports just the submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

# each public name under the submodule that defines it
_EXPORTS = {
    "complexes": (
        "SimplicialComplex", "ProductCellComplex", "DecompositionWitness",
        "chessboard", "rainbow_complex", "join", "join_many",
        "deleted_join", "deleted_product", "decomposition_isomorphism",
        "apply_symmetry", "regular_embedding",
        "discrete_points", "full_simplex", "boundary_simplex",
    ),
    "homology": (
        "ChainComplexModP", "BettiProfile", "HConn",
        "chain_complex", "cellular_chain_complex", "betti", "betti_numbers", "hconn",
    ),
    "bounds": (
        "TheoremInstance", "IndexBound", "Verdict", "FaceCountUpgrade",
        "SizeThresholdError", "InapplicableError",
        "conn_lower_bound_join", "index_lower_bound_deleted_join",
        "index_lower_bound_deleted_product", "volovikov_condition",
        "strict_inequality_note", "evaluate_bundle",
    ),
    "geometry": (
        "ColoredConfiguration", "RainbowFace", "Witness", "SearchResult",
        "ExperimentReport", "enumerate_rainbow_faces", "hulls_intersect",
        "find_disjoint_intersecting_family", "random_configuration",
        "verify_theorem_empirically",
    ),
    "records": ("Coloring", "DecompositionError", "FaceBudgetError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule also binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
