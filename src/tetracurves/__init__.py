"""Tetrahedral curves: reduction by basic double linkage, graded Betti
tables, componentwise linearity, regularity, and generic initial ideals,
cross-validated by independent monomial and Groebner oracles."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .koszul import BettiTable, betti_table_oracle, reduced_homology_ranks
from .monomials import (
    HilbertData,
    Monomial,
    MonomialIdeal,
    basic_double_link,
    component_ideal,
    hilbert_data,
    ideal_of_tuple,
    truncate,
)
from .resolution import (
    acm_linear_family,
    ascent_candidates,
    betti_table,
    ci_power_betti,
    classify,
    enumerate_linear_in_class,
    gin_betti_prediction,
    minimal_curve_betti,
)
from .gin import (
    StableIdeal,
    ek_betti,
    gin_acm,
    gin_buchsbaum_minimal,
    gin_of_curve,
    is_strongly_stable,
)
from .groebner import gin_oracle
from .tuples import (
    ClassificationReport,
    ReductionStep,
    ReductionTrace,
    ReductionType,
    TetTuple,
    apply_reduction,
    canonicalize,
    ci_power_form,
    degree_of_tuple,
    facet_weights,
    is_cwl,
    is_minimal,
    reduction_applicable,
    reduction_trace,
    regularity_closed_form,
    schwartau_status,
)

# the submodules are bound here by the imports above; they are not exports
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
