"""Cross-module invariants tying the closed-form theory to the oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from tetracurves import exceptions
from tetracurves.exceptions import OracleTooLargeError
from tetracurves.groebner import gin_oracle
from tetracurves.koszul import betti_table_oracle, cached_betti_oracle
from tetracurves.monomials import MonomialIdeal, hilbert_data, ideal_of_tuple
from tetracurves.resolution import betti_table
from tetracurves.gin import ek_betti, gin_buchsbaum_minimal, gin_of_curve
from tetracurves.tuples import (
    TetTuple,
    apply_reduction,
    degree_of_tuple,
    is_acm,
    is_cwl,
    reduction_applicable,
    reduction_trace,
    regularity_closed_form,
)
from tetracurves.verify import basic_double_link, component_ideal, gin_betti_prediction, truncate

small_tuples = st.tuples(*[st.integers(0, 3)] * 6).map(TetTuple)
tiny_tuples = st.tuples(*[st.integers(0, 2)] * 6).map(TetTuple)


@given(small_tuples, st.sampled_from(range(4)))
@settings(max_examples=40)
def test_basic_double_link_reconstruction(t, G):
    if not reduction_applicable(t, G):
        return
    step = apply_reduction(t, G)
    assert basic_double_link(ideal_of_tuple(step.child), step.G, step.F) == ideal_of_tuple(t)


@given(small_tuples)
@settings(max_examples=30)
def test_builder_equals_oracle(t):
    if t.is_trivial:
        return
    assert betti_table(t) == cached_betti_oracle(ideal_of_tuple(t))


@given(small_tuples)
@settings(max_examples=25)
def test_regularity_closed_form_equals_oracle(t):
    if t.is_trivial:
        return
    assert regularity_closed_form(t) == cached_betti_oracle(ideal_of_tuple(t)).regularity


@given(tiny_tuples, st.integers(1, 5))
@settings(max_examples=25)
def test_truncation_preserves_high_strands(t, d):
    if t.is_trivial:
        return
    ideal = ideal_of_tuple(t)
    full = cached_betti_oracle(ideal).as_dict()
    cut = cached_betti_oracle(truncate(ideal, d)).as_dict()
    assert {k: v for k, v in full.items() if k[1] >= k[0] + d + 1} == {
        k: v for k, v in cut.items() if k[1] >= k[0] + d + 1
    }


@given(small_tuples)
@settings(max_examples=30)
def test_hilbert_degree_matches_formula(t):
    upto = (regularity_closed_form(t) if not t.is_trivial else 0) + 3
    assert hilbert_data(ideal_of_tuple(t), upto).degree == degree_of_tuple(t)


@given(tiny_tuples)
@settings(max_examples=20)
def test_cwl_matches_componentwise_oracle(t):
    if t.is_trivial:
        return
    ideal = ideal_of_tuple(t)
    componentwise = True
    for d in range(ideal.min_generator_degree, regularity_closed_form(t) + 1):
        piece = component_ideal(ideal, d)
        if not piece.is_zero and not cached_betti_oracle(piece).is_linear:
            componentwise = False
            break
    assert is_cwl(t) == componentwise


@given(tiny_tuples)
@settings(max_examples=20)
def test_gin_prediction_matches_eliahou_kervaire(t):
    if t.is_trivial or not is_acm(t):
        return
    assert ek_betti(gin_of_curve(t)) == gin_betti_prediction(t)


@given(small_tuples)
@settings(max_examples=30)
def test_trace_is_a_valid_reduction_chain(t):
    trace = reduction_trace(t)
    for step in trace.steps:
        assert reduction_applicable(step.parent, step.G)
        assert apply_reduction(step.parent, step.G) == step
    if trace.steps:
        assert trace.steps[-1].child == trace.terminal
        assert trace.steps[0].parent == t


_IDEAL = ideal_of_tuple(TetTuple((1, 2, 1, 2, 0, 2)))


@pytest.mark.parametrize("call", [
    lambda: ideal_of_tuple(TetTuple((1, 2, 1, 2, 0, 2))),
    lambda: hilbert_data(_IDEAL, 5),
    lambda: betti_table_oracle(_IDEAL),
    lambda: gin_oracle(_IDEAL),
    lambda: betti_table(TetTuple((50, 50, 50, 1, 1, 1))),  # a run of 48 with degree drift -2
    lambda: gin_of_curve(TetTuple((1, 2, 1, 2, 0, 2))),  # ACM
    lambda: gin_of_curve(TetTuple((3, 3, 3, 1, 2, 4))),  # Buchsbaum-rooted
    lambda: reduction_trace(TetTuple((3, 3, 3, 1, 2, 4))).steps[0],
    lambda: reduction_trace(TetTuple((3, 3, 3, 1, 2, 4))).weights,
    lambda: gin_buchsbaum_minimal(2),
])
def test_memory_limit_has_one_home(monkeypatch, call):
    """Every size guard reads the one limit in `exceptions`."""
    monkeypatch.setattr(exceptions, "ORACLE_MEMORY_LIMIT", 0)
    with pytest.raises(OracleTooLargeError):
        call()


def test_guard_leaves_room_for_the_mapped_process():
    """An estimate is compared with the limit less what the interpreter has
    already mapped (numpy and the oracles loaded)."""
    room = exceptions.ORACLE_MEMORY_LIMIT - exceptions.PROCESS_FOOTPRINT
    exceptions.refuse_over_limit(room, "an estimate that fits")
    with pytest.raises(OracleTooLargeError):
        exceptions.refuse_over_limit(room + 1, "an estimate one byte over")
