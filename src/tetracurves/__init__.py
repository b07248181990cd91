"""Tetrahedral curves: reduction by basic double linkage, graded Betti
tables, componentwise linearity, regularity, and generic initial ideals,
cross-validated by independent monomial and Groebner oracles.

The public names load lazily: each is imported from its submodule when it
is first used, so importing the package loads no submodule."""

__version__ = "0.1.0"

import importlib as _importlib

# each public name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BettiTable", "betti_table_oracle", "reduced_homology_ranks"), "koszul"),
    **dict.fromkeys(("HilbertData", "Monomial", "MonomialIdeal", "hilbert_data", "ideal_of_tuple"), "monomials"),
    **dict.fromkeys(
        (
            "ascent_candidates", "betti_table", "ci_power_betti", "classify", "enumerate_linear_in_class",
            "minimal_curve_betti",
        ),
        "resolution",
    ),
    **dict.fromkeys(
        ("StableIdeal", "ek_betti", "gin_buchsbaum_minimal", "gin_of_curve", "is_strongly_stable"), "gin"
    ),
    "gin_oracle": "groebner",
    **dict.fromkeys(
        (
            "ClassificationReport", "ReductionStep", "ReductionTrace", "TetTuple", "apply_reduction",
            "canonicalize", "ci_power_form", "degree_of_tuple", "facet_weights", "is_cwl",
            "is_minimal", "reduction_applicable", "reduction_trace", "regularity_closed_form",
        ),
        "tuples",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
