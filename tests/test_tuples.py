import random

import pytest
from hypothesis import given, strategies as st

from tetracurves.exceptions import NotApplicableError, OracleTooLargeError, TrivialCurveError
from tetracurves import resolution, tuples
from tetracurves.monomials import EDGES, Monomial
from tetracurves.tuples import (
    ReductionType,
    TetTuple,
    TerminalKind,
    VERTEX_PERMUTATIONS,
    apply_reduction,
    canonicalize,
    ci_power_form,
    buchsbaum_minimal_r,
    degree_of_tuple,
    facet_weights,
    is_cwl,
    is_minimal,
    minimal_by_weight_test,
    permute,
    reduction_applicable,
    reduction_trace,
    regularity_closed_form,
    schwartau_status,
)
from tetracurves.verify import iter_tuples

tet_tuples = st.tuples(*[st.integers(0, 4)] * 6).map(TetTuple)
small_tuples = st.tuples(*[st.integers(0, 3)] * 6).map(TetTuple)
permutations = st.sampled_from(VERTEX_PERMUTATIONS)


def T(text):
    return TetTuple.parse(text)


class TestTetTuple:
    def test_parse_and_format(self):
        t = T("3,3,3,1,2,4")
        assert t.entries == (3, 3, 3, 1, 2, 4)
        assert str(t) == "3,3,3,1,2,4"
        assert TetTuple.parse(" 1, 0,0,0,0, 1 ").entries == (1, 0, 0, 0, 0, 1)

    @pytest.mark.parametrize("bad", ["3,3,3", "1,2,3,4,5,x", "1,2,3,4,5,-1", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            TetTuple.parse(bad)

    @pytest.mark.parametrize(
        "bad", [(1.5, 0, 0, 0, 0, 1), (True, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 2.0), ("1", 0, 0, 0, 0, 1)]
    )
    def test_rejects_non_int_weights(self, bad):
        with pytest.raises(ValueError):
            TetTuple(bad)

    def test_trivial(self):
        assert T("0,0,0,0,0,0").is_trivial
        assert not T("1,0,0,0,0,0").is_trivial

    def test_is_its_plain_entries(self):
        t = T("3,3,3,1,2,4")
        plain = (3, 3, 3, 1, 2, 4)
        assert t == plain and plain == t
        assert hash(t) == hash(plain)
        assert {t: "t"}[plain] == "t"
        assert type(t.entries) is tuple and t.entries == plain
        assert sorted([T("1,0,0,0,0,1"), (0, 0, 1, 1, 0, 0), T("0,1,0,0,1,0")]) == [
            (0, 0, 1, 1, 0, 0), (0, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1)
        ]
        assert T("0,1,0,0,1,0") < plain and not plain < T("0,1,0,0,1,0")
        assert str(t) == "3,3,3,1,2,4"
        assert repr(t) == "TetTuple(3,3,3,1,2,4)"


class TestFacetWeights:
    def test_worked_example(self):
        assert facet_weights(T("3,3,3,1,2,4")) == (9, 6, 8, 9)

    def test_trivial(self):
        assert facet_weights(T("0,0,0,0,0,0")) == (0, 0, 0, 0)

    def test_two_skew_lines(self):
        assert facet_weights(T("1,0,0,0,0,1")) == (1, 1, 1, 1)


class TestApplicability:
    def test_worked_example(self):
        t = T("3,3,3,1,2,4")
        assert reduction_applicable(t, ReductionType.A)
        assert not reduction_applicable(t, ReductionType.B)
        assert reduction_applicable(t, ReductionType.C)
        assert reduction_applicable(t, ReductionType.D)

    def test_trivial_admits_nothing(self):
        for ty in ReductionType:
            assert not reduction_applicable(T("0,0,0,0,0,0"), ty)


class TestApplyReduction:
    def test_type_a(self):
        step = apply_reduction(T("3,3,3,1,2,4"), ReductionType.A)
        assert step.child == T("2,2,2,1,2,4")
        assert step.F == Monomial.parse("b^3*c^3*d^3")
        assert step.G_name == "a"

    def test_type_d(self):
        step = apply_reduction(T("3,3,3,1,2,4"), ReductionType.D)
        assert step.child == T("3,3,2,1,1,3")
        assert step.F == Monomial.parse("a^3*b^2*c^4")
        assert step.G_name == "d"

    def test_single_line(self):
        step = apply_reduction(T("1,0,0,0,0,0"), ReductionType.A)
        assert step.child.is_trivial
        assert step.F == Monomial.parse("b")
        assert step.G_name == "a"

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            apply_reduction(T("3,3,3,1,2,4"), ReductionType.B)
        with pytest.raises(NotApplicableError):
            apply_reduction(T("0,0,0,0,0,0"), ReductionType.A)


def max_weight_reduction(t):
    """Test-only reference for one step of `reduction_trace`: reduce an
    applicable facet of maximal weight, ties broken A < B < C < D; None at
    the trivial curve and at minimal curves."""
    weights = facet_weights(t)
    for ty in ReductionType:
        if weights[ty.vertex] == max(weights) and reduction_applicable(t, ty):
            return apply_reduction(t, ty)
    return None


class TestMaxWeightReduction:
    """The first step of a trace is the maximal-weight choice."""

    def test_tie_break_prefers_a(self):
        step = reduction_trace(T("3,3,3,1,2,4")).steps[0]
        assert step.type is ReductionType.A
        assert step.child == T("2,2,2,1,2,4")

    def test_chain_element(self):
        step = reduction_trace(T("2,2,1,1,1,3")).steps[0]
        assert step.type is ReductionType.C
        assert step.child == T("2,1,1,0,1,2")


class TestReductionTrace:
    def test_worked_example(self):
        trace = reduction_trace(T("3,3,3,1,2,4"))
        assert trace.terminal == T("1,0,0,0,0,1")
        assert trace.terminal_kind is TerminalKind.MINIMAL
        chain = [str(c) for c in trace.chain]
        for expected in ("2,2,2,1,2,4", "2,2,1,1,1,3", "2,1,1,0,1,2"):
            assert expected in chain

    def test_acm_chain(self):
        trace = reduction_trace(T("1,2,1,2,0,2"))
        assert [str(c) for c in trace.chain] == [
            "1,2,1,2,0,2",
            "1,1,1,1,0,1",
            "0,0,0,1,0,1",
            "0,0,0,0,0,0",
        ]
        assert trace.is_acm
        assert trace.first_ci_power is None

    def test_first_ci_power(self):
        trace = reduction_trace(T("1,3,4,2,3,0"))
        index, r = trace.first_ci_power
        assert r == 2
        assert trace.chain[index] == T("0,2,2,2,2,0")
        assert trace.is_acm

    def test_trace_of_trivial(self):
        trace = reduction_trace(T("0,0,0,0,0,0"))
        assert trace.steps == ()
        assert trace.terminal_kind is TerminalKind.TRIVIAL


def stepwise_trace(t):
    """Test-only reference for `reduction_trace`: one `max_weight_reduction`
    per step, as (vertices, weights, terminal, kind, first_ci_power, the
    CI-power element)."""
    vertices, weights, ci = [], [], None
    cur = t
    while True:
        if ci is None and (r := ci_power_form(cur)) is not None:
            ci = ((len(vertices), r), cur)
        step = max_weight_reduction(cur)
        if step is None:
            break
        vertices.append(step.type.vertex)
        weights.append(step.weight)
        cur = step.child
    kind = TerminalKind.TRIVIAL if cur.is_trivial else TerminalKind.MINIMAL
    return tuple(vertices), tuple(weights), cur, kind, ci and ci[0], ci and ci[1]


def trace_record(t):
    trace = reduction_trace(t)
    return (
        tuple(step.type.vertex for step in trace.steps),
        trace.weights,
        trace.terminal,
        trace.terminal_kind,
        trace.first_ci_power,
        trace.ci_power_element,
    )


class TestCompressedTrace:
    def test_matches_stepwise_up_to_weight_12(self):
        for t in iter_tuples(12):
            assert trace_record(t) == stepwise_trace(t), t

    def test_matches_stepwise_on_large_entries(self):
        rng = random.Random(20261018)
        for _ in range(50):
            t = TetTuple(tuple(rng.randint(0, 10**4) for _ in range(6)))
            assert trace_record(t) == stepwise_trace(t), t

    def test_steps_and_chain_match_stepwise(self):
        for t in iter_tuples(6):
            steps, cur = [], t
            while (step := max_weight_reduction(cur)) is not None:
                steps.append(step)
                cur = step.child
            trace = reduction_trace(t)
            assert trace.steps == tuple(steps)
            assert trace.chain == tuple(s.parent for s in steps) + (cur,)

    def test_len_of_steps_builds_no_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ReductionStep was built")

        monkeypatch.setattr(tuples, "apply_reduction", refuse)
        assert len(reduction_trace(T("7,5,5,2,1,6")).steps) == 4
        assert len(reduction_trace(TetTuple((200000,) * 6)).steps) == 400000


class TestMinimality:
    @pytest.mark.parametrize(
        "text,expected",
        [("1,0,0,0,0,1", True), ("4,1,2,1,1,5", True), ("0,1,1,1,1,0", False)],
    )
    def test_examples(self, text, expected):
        assert is_minimal(T(text)) is expected

    def test_trivial_not_minimal(self):
        assert not is_minimal(T("0,0,0,0,0,0"))

    @given(tet_tuples)
    def test_weight_criterion_agrees(self, t):
        assert is_minimal(t) == minimal_by_weight_test(t)


def reference_permute(t, pi):
    """Test-only reference for `permute`: the weight at edge {x,y} is moved
    to edge {pi(x),pi(y)}, the edges looked up by their vertex sets."""
    edge_index = {frozenset(e): i for i, e in enumerate(EDGES)}
    out = [0] * 6
    for i, (x, y) in enumerate(EDGES):
        out[edge_index[frozenset((pi[x], pi[y]))]] = t[i]
    return tuple(out)


class TestCanonicalize:
    def test_two_skew_lines(self):
        canon = canonicalize(T("0,1,0,0,1,0"))
        assert canon == T("0,0,1,1,0,0") and type(canon) is TetTuple

    def test_trivial_fixed(self):
        assert canonicalize(T("0,0,0,0,0,0")) == T("0,0,0,0,0,0")

    def test_buchsbaum_orbit(self):
        model = T("3,0,2,2,0,3")
        expected = canonicalize(model)
        for pi in VERTEX_PERMUTATIONS:
            assert canonicalize(permute(model, pi)) == expected

    @given(tet_tuples, permutations)
    def test_orbit_invariant(self, t, pi):
        assert canonicalize(permute(t, pi)) == canonicalize(t)

    def test_matches_brute_force_up_to_weight_8(self):
        for t in iter_tuples(8, include_trivial=True):
            assert canonicalize(t) == min(reference_permute(t, pi) for pi in VERTEX_PERMUTATIONS), t

    @given(tet_tuples)
    def test_is_orbit_minimum(self, t):
        canon = canonicalize(t)
        assert all(canon <= permute(t, pi) for pi in VERTEX_PERMUTATIONS)


class TestPermutationAction:
    def test_matches_edge_map_reference_up_to_weight_4(self):
        for t in iter_tuples(4, include_trivial=True):
            for pi in VERTEX_PERMUTATIONS:
                assert permute(t, pi) == reference_permute(t, pi), (t, pi)

    @given(tet_tuples, permutations, permutations)
    def test_composition(self, t, pi, sigma):
        composed = tuple(sigma[pi[v]] for v in range(4))
        assert permute(permute(t, pi), sigma) == permute(t, composed)

    @given(tet_tuples)
    def test_identity(self, t):
        assert permute(t, (0, 1, 2, 3)) == t


class TestCiPowerForm:
    @pytest.mark.parametrize(
        "text,expected",
        [("0,2,2,2,2,0", 2), ("1,1,0,0,1,1", 1), ("1,2,1,2,0,2", None), ("0,0,0,0,0,0", None)],
    )
    def test_examples(self, text, expected):
        assert ci_power_form(T(text)) == expected


class TestBuchsbaumDetection:
    def test_examples(self):
        assert buchsbaum_minimal_r(T("1,0,0,0,0,1")) == 1
        assert buchsbaum_minimal_r(T("2,0,1,1,0,2")) == 2
        assert buchsbaum_minimal_r(T("0,2,1,1,2,0")) == 2
        assert buchsbaum_minimal_r(T("4,1,2,1,1,5")) is None

    def test_matches_canonicalize_only_up_to_weight_8(self):
        # test-only copy of the former detection: canonicalize every tuple
        def canonical_r(t):
            if t.is_trivial:
                return None
            r = max(t.entries)
            model = TetTuple((r, 0, r - 1, r - 1, 0, r))
            return r if canonicalize(t) == canonicalize(model) else None

        for t in iter_tuples(8, include_trivial=True):
            assert buchsbaum_minimal_r(t) == canonical_r(t)


class TestComponentwiseLinearity:
    @pytest.mark.parametrize(
        "text,expected",
        [("10,1,2,3,10,1", True), ("0,2,2,2,2,0", False), ("7,5,5,2,1,6", True)],
    )
    def test_examples(self, text, expected):
        assert is_cwl(T(text)) is expected
        assert reduction_trace(T(text)).is_cwl is expected

    def test_trivial_raises(self):
        with pytest.raises(TrivialCurveError):
            is_cwl(T("0,0,0,0,0,0"))


class TestSchwartau:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,0,1,1,0,1", (True, False)),
            ("2,0,1,1,0,1", (True, True)),
            ("1,1,1,1,1,1", (False, True)),
        ],
    )
    def test_examples(self, text, expected):
        assert schwartau_status(T(text)) == expected

    @given(tet_tuples)
    def test_agrees_with_is_cwl(self, t):
        if t.is_trivial:
            return
        assert schwartau_status(t)[1] == is_cwl(t)


class TestDegree:
    def test_buchsbaum_series(self):
        for r in range(1, 5):
            assert degree_of_tuple(TetTuple((r + 1, 0, r, r, 0, r + 1))) == 2 * (r + 1) ** 2

    def test_examples(self):
        assert degree_of_tuple(T("0,0,0,0,0,0")) == 0
        assert degree_of_tuple(T("3,3,3,1,2,4")) == 32

    @given(tet_tuples)
    def test_additive_along_steps(self, t):
        for step in reduction_trace(t).steps:
            assert degree_of_tuple(step.parent) == degree_of_tuple(step.child) + step.weight


class TestRegularityClosedForm:
    @pytest.mark.parametrize(
        "text,expected",
        [("0,2,2,2,2,0", 5), ("4,1,2,1,1,5", 9), ("7,5,5,2,1,6", 17)],
    )
    def test_examples(self, text, expected):
        assert regularity_closed_form(T(text)) == expected

    def test_trivial_raises(self):
        with pytest.raises(TrivialCurveError):
            regularity_closed_form(T("0,0,0,0,0,0"))

    def test_minimal_exceeds_facet_weight(self):
        t = T("1,0,0,0,0,1")
        assert regularity_closed_form(t) == 2 > max(facet_weights(t))

    @given(small_tuples, permutations)
    def test_symmetry_invariant(self, t, pi):
        if t.is_trivial:
            return
        assert regularity_closed_form(t) == regularity_closed_form(permute(t, pi))


class TestRunRecord:
    """The trace record is a tuple of runs whose length does not grow with
    the weights; only the expanded views do."""

    def test_runs_expand_to_the_stepwise_trace(self):
        rng = random.Random(20261019)
        for _ in range(30):
            t = TetTuple(tuple(rng.randint(0, 300) for _ in range(6)))
            trace = reduction_trace(t)
            vertices, weights = stepwise_trace(t)[:2]
            assert tuple(step.type.vertex for step in trace.steps) == vertices and trace.weights == weights
            assert trace.step_count == len(trace.steps) == len(vertices)
            assert len(trace.runs) <= 25

    def test_huge_weights_build_no_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ReductionStep was built")

        monkeypatch.setattr(tuples, "apply_reduction", refuse)
        # (w,w,w,1,1,1) takes w + 2 steps, stepwise for small w
        for w in range(1, 30):
            assert len(stepwise_trace(TetTuple((w, w, w, 1, 1, 1)))[0]) == w + 2
        for w in (10**18, 10**100):
            t = TetTuple((w, w, w, 1, 1, 1))
            report = resolution.classify(t)
            trace = reduction_trace(t)
            assert report.acm and not report.linear_resolution
            assert trace.step_count == w + 2 and len(trace.runs) == 3
            # deg F is additive along the chain of an ACM curve, so the step
            # weights, summed run by run, give the degree
            total = sum(
                run.count * sum(run.weights) + sum(run.drift) * run.count * (run.count - 1) // 2
                for run in trace.runs
            )
            assert total == degree_of_tuple(t) == report.degree
        assert len(reduction_trace(TetTuple((10**18, 10**18, 10**18, 1, 1, 1))).steps) == 10**18 + 2

    def test_huge_step_list_is_typed_error(self):
        trace = reduction_trace(TetTuple((10**8, 10**8, 10**8, 1, 1, 1)))
        with pytest.raises(OracleTooLargeError):
            trace.steps[0]

    def test_huge_weights_are_typed_error(self, capped_python):
        # 10^8 weights ran out of memory before the guard
        done = capped_python("from tetracurves.tuples import TetTuple, reduction_trace; "
                             "reduction_trace(TetTuple((10**8,) * 3 + (1, 1, 1))).weights")
        assert "OracleTooLargeError: the weights of a trace of 100000002 steps need" in done.stderr
