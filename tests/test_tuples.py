import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from tetracurves.exceptions import NotApplicableError, TrivialCurveError
from tetracurves import resolution, tuples, verify
from tetracurves.koszul import BettiTable
from tetracurves.monomials import Monomial
from tetracurves.tuples import (
    EDGES,
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
    pair_profile,
    permute,
    reduction_applicable,
    reduction_trace,
    regularity_closed_form,
)
from tetracurves.verify import iter_tuples

tet_tuples = st.tuples(*[st.integers(0, 4)] * 6).map(TetTuple)
small_tuples = st.tuples(*[st.integers(0, 3)] * 6).map(TetTuple)
permutations = st.sampled_from(VERTEX_PERMUTATIONS)


def T(text):
    return TetTuple.parse(text)


def chain_of(trace):
    """The trace's chain: the parents of its steps, then its terminal."""
    return tuple(s.parent for s in trace.steps) + (trace.terminal,)


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
        assert reduction_applicable(t, 0)
        assert not reduction_applicable(t, 1)
        assert reduction_applicable(t, 2)
        assert reduction_applicable(t, 3)

    def test_trivial_admits_nothing(self):
        for v in range(4):
            assert not reduction_applicable(T("0,0,0,0,0,0"), v)


class TestVertexValidation:
    """Both entry points take a vertex as `variable_index` accepts it."""

    @pytest.mark.parametrize("call", [apply_reduction, reduction_applicable])
    @pytest.mark.parametrize("G", [-1, 4, True, "", "bc", "A"])
    def test_refuses_a_non_vertex(self, call, G):
        with pytest.raises(ValueError, match="not a variable"):
            call(T("3,3,3,1,2,4"), G)

    @pytest.mark.parametrize("call", [apply_reduction, reduction_applicable])
    @pytest.mark.parametrize("v", range(4))
    def test_index_and_letter_agree(self, call, v):
        def outcome(G):
            try:
                return call(t, G)
            except NotApplicableError as exc:
                return str(exc)

        for t in (T("3,3,3,1,2,4"), T("1,0,0,0,0,1"), T("0,0,0,0,0,0")):
            assert outcome(v) == outcome("abcd"[v]), (t, v)


class TestApplyReduction:
    def test_type_a(self):
        step = apply_reduction(T("3,3,3,1,2,4"), 0)
        assert step.child == T("2,2,2,1,2,4")
        assert step.F == Monomial.parse("b^3*c^3*d^3")
        assert step.G_name == "a"

    def test_type_d(self):
        step = apply_reduction(T("3,3,3,1,2,4"), 3)
        assert step.child == T("3,3,2,1,1,3")
        assert step.F == Monomial.parse("a^3*b^2*c^4")
        assert step.G_name == "d"

    def test_single_line(self):
        step = apply_reduction(T("1,0,0,0,0,0"), 0)
        assert step.child.is_trivial
        assert step.F == Monomial.parse("b")
        assert step.G_name == "a"

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError, match=r"reduction B not applicable to \(3,3,3,1,2,4\)"):
            apply_reduction(T("3,3,3,1,2,4"), 1)
        with pytest.raises(NotApplicableError):
            apply_reduction(T("0,0,0,0,0,0"), 0)


def reference_form(t, v):
    """Test-only reference for `ReductionStep.F`: F of the reduction at
    vertex v, each other vertex u raised to the weight of the edge {v, u},
    found through the edge index rather than the facet positions."""
    exps = [0, 0, 0, 0]
    for u in range(4):
        if u != v:
            exps[u] = t[tuples._EDGE_INDEX[frozenset((v, u))]]
    return Monomial(tuple(exps))


class TestDerivedStepForms:
    """A step holds its vertex G, parent and child; F, G_name and deg F
    are read off them and must equal the reference forms."""

    @staticmethod
    def assert_forms(step):
        v = step.G
        F = reference_form(step.parent, v)
        assert (step.F, step.G, step.G_name, step.weight) == (F, v, "abcd"[v], F.degree), step

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(tuples.ReductionStep)] == ["G", "parent", "child"]

    def test_every_applicable_reduction_up_to_weight_6(self):
        for t in iter_tuples(6):
            for v in range(4):
                if reduction_applicable(t, v):
                    self.assert_forms(apply_reduction(t, v))

    def test_every_trace_step_up_to_weight_6(self):
        for t in iter_tuples(6):
            for step in reduction_trace(t).steps:
                self.assert_forms(step)


def max_weight_reduction(t):
    """Test-only reference for one step of `reduction_trace`: reduce an
    applicable facet of maximal weight, ties broken A < B < C < D; None at
    the trivial curve and at minimal curves."""
    weights = facet_weights(t)
    for v in range(4):
        if weights[v] == max(weights) and reduction_applicable(t, v):
            return apply_reduction(t, v)
    return None


class TestMaxWeightReduction:
    """The first step of a trace is the maximal-weight choice."""

    def test_tie_break_prefers_a(self):
        step = reduction_trace(T("3,3,3,1,2,4")).steps[0]
        assert step.G == 0
        assert step.child == T("2,2,2,1,2,4")

    def test_chain_element(self):
        step = reduction_trace(T("2,2,1,1,1,3")).steps[0]
        assert step.G == 2
        assert step.child == T("2,1,1,0,1,2")


class TestReductionTrace:
    def test_worked_example(self):
        trace = reduction_trace(T("3,3,3,1,2,4"))
        assert trace.terminal == T("1,0,0,0,0,1")
        assert trace.terminal_kind is TerminalKind.MINIMAL
        chain = [str(c) for c in chain_of(trace)]
        for expected in ("2,2,2,1,2,4", "2,2,1,1,1,3", "2,1,1,0,1,2"):
            assert expected in chain

    def test_acm_chain(self):
        trace = reduction_trace(T("1,2,1,2,0,2"))
        assert [str(c) for c in chain_of(trace)] == [
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
        assert chain_of(trace)[index] == T("0,2,2,2,2,0")
        assert trace.is_acm

    def test_trace_of_trivial(self):
        trace = reduction_trace(T("0,0,0,0,0,0"))
        assert trace.steps == ()
        assert trace.terminal_kind is TerminalKind.TRIVIAL

    def test_fields(self):
        # the CI-power base is kept once, as (chain index, r)
        assert [f.name for f in dataclasses.fields(tuples.ReductionTrace)] == [
            "start", "runs", "step_count", "terminal", "first_ci_power"
        ]


def stepwise_trace(t):
    """Test-only reference for `reduction_trace`: one `max_weight_reduction`
    per step, as (vertices, weights, terminal, kind, first_ci_power); the
    start, the vertices and first_ci_power fix the CI-power element."""
    vertices, weights, ci = [], [], None
    cur = t
    while True:
        if ci is None and (r := ci_power_form(cur)) is not None:
            ci = (len(vertices), r)
        step = max_weight_reduction(cur)
        if step is None:
            break
        vertices.append(step.G)
        weights.append(step.weight)
        cur = step.child
    kind = TerminalKind.TRIVIAL if cur.is_trivial else TerminalKind.MINIMAL
    return tuple(vertices), tuple(weights), cur, kind, ci


def trace_record(t):
    trace = reduction_trace(t)
    return (
        tuple(step.G for step in trace.steps),
        trace.weights,
        trace.terminal,
        trace.terminal_kind,
        trace.first_ci_power,
    )


def latin_hypercube(seed, count, top=300):
    """Tuples whose every entry takes one value from each of count equal
    strata of [0, top]: the draw of perfbench's deep workload."""
    rng, columns = random.Random(seed), []
    for _ in range(6):
        column = [int((i + rng.random()) * (top + 1) / count) for i in range(count)]
        rng.shuffle(column)
        columns.append(column)
    return [TetTuple(e) for e in zip(*columns) if any(e)]


def zero_pair_draws(rng, count):
    """Pairs of tuples with one opposite pair zeroed: the other four near one r
    (CI powers nearby), then uniform in [0, 300]."""
    for _ in range(count):
        i, j = rng.choice(tuples.OPPOSITE_PAIRS)
        r = rng.randint(1, 200)
        for e in ([max(0, r + rng.randint(-2, 2)) for _ in range(6)], [rng.randint(0, 300) for _ in range(6)]):
            e[i] = e[j] = 0
            yield TetTuple(e)


class TestCompressedTrace:
    def test_matches_stepwise_up_to_weight_12(self):
        for t in iter_tuples(12):
            assert trace_record(t) == stepwise_trace(t), t

    def test_matches_stepwise_on_large_entries(self):
        rng = random.Random(20261018)
        for _ in range(50):
            t = TetTuple(tuple(rng.randint(0, 10**4) for _ in range(6)))
            assert trace_record(t) == stepwise_trace(t), t

    def test_matches_stepwise_beside_a_zero_opposite_pair(self):
        # the trace tests for a CI power only beside a zero opposite pair,
        # which uniform draws almost never have
        ci_powers = 0
        for t in zero_pair_draws(random.Random(20261020), 150):
            assert trace_record(t) == stepwise_trace(t), t
            ci_powers += reduction_trace(t).first_ci_power is not None
        assert ci_powers >= 10

    def test_matches_stepwise_on_the_deep_draw(self):
        # entries in [0, 300] tie far more often than uniform draws in [0, 10^4]
        for t in latin_hypercube(20261022, 300):
            assert trace_record(t) == stepwise_trace(t), t

    def test_steps_and_chain_match_stepwise(self):
        for t in iter_tuples(6):
            steps, cur = [], t
            while (step := max_weight_reduction(cur)) is not None:
                steps.append(step)
                cur = step.child
            trace = reduction_trace(t)
            assert trace.steps == tuple(steps)
            assert trace.terminal == cur

    def test_len_of_steps_builds_no_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ReductionStep was built")

        monkeypatch.setattr(tuples, "apply_reduction", refuse)
        assert len(reduction_trace(T("7,5,5,2,1,6")).steps) == 4
        assert len(reduction_trace(TetTuple((200000,) * 6)).steps) == 400000


class TestPeriodSolver:
    """Every bound K that `_periods_ahead` returns holds stepwise: the period
    repeats exactly at states[j] + k * drift for k = 1..K."""

    def test_bounds_hold_stepwise(self, monkeypatch):
        solves, solve = [], tuples._periods_ahead

        def checked(states, drift, period, watch_ci):
            K, p = solve(states, drift, period, watch_ci), len(period)

            def at(j, k):  # the j-th parent of the period, k periods on
                return TetTuple(a + k * s for a, s in zip(states[j % p], drift))

            for k in range(1, K + 1):
                for j, v in enumerate(period):
                    step = max_weight_reduction(at(j, k))
                    assert step is not None and step.G == v, (states, drift, period, K, k)
                    assert step.child == at(j + 1, k + (j + 1) // p), (states, drift, period, K, k)
                    assert not (watch_ci and ci_power_form(step.parent)), (states, drift, period, K, k)
            solves.append((p, K))
            return K

        monkeypatch.setattr(tuples, "_periods_ahead", checked)
        ladder = [TetTuple((r, 0, r - 1, r - 1, 0, r)) for r in range(1, 5)]  # with weight <= 5, gin-check's inputs
        for t in (*latin_hypercube(20261023, 300), *iter_tuples(5), *ladder, *zero_pair_draws(random.Random(7), 50)):
            reduction_trace(t)
        assert {p for p, _ in solves} >= {1, 2, 3, 4, 5}
        assert any(K == 0 for _, K in solves)


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
        assert is_minimal(t) == verify.minimal_by_weight(t)


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


# test-only copies of the shape tests the pair profile replaced: scans over
# the opposite pairs, a sorted-entries prefilter with canonical forms, and
# the normal form with the maximal weight at a_6 and a_1 on the edge opposite
OPPOSITE = (5, 4, 3, 2, 1, 0)
FIXED_FAMILY_MODELS = {"b": (1, 1, 0, 1, 0, 0), "c": (1, 1, 1, 1, 1, 1), "d": (2, 1, 0, 1, 0, 1), "e": (2, 1, 1, 1, 1, 2)}


def reference_ci_power_form(t):
    for i, j in tuples.OPPOSITE_PAIRS:
        if t[i] == 0 and t[j] == 0:
            rest = [t[k] for k in range(6) if k not in (i, j)]
            r = rest[0]
            if r >= 1 and all(x == r for x in rest):
                return r
    return None


def reference_buchsbaum_minimal_r(t):
    if t.is_trivial:
        return None
    r = max(t)
    if sorted(t) != [0, 0, r - 1, r - 1, r, r]:
        return None
    return r if canonicalize(t) == canonicalize((r, 0, r - 1, r - 1, 0, r)) else None


def reference_cycle_family_degree(t):
    for i in range(3):
        if t[i] == t[OPPOSITE[i]] == 0:
            low, m, mid, high = sorted(a for k, a in enumerate(t) if k not in (i, OPPOSITE[i]))
            if m >= 1 and mid == m and (low, high) in ((m - 1, m), (m, m + 1)):
                return m + high
    return None


def reference_acm_linear_family(t):
    if t.is_trivial:
        return None
    nonzero = [a for a in t if a > 0]
    if len(nonzero) == 1:
        return ("a", nonzero[0])
    s = reference_cycle_family_degree(t)
    if s is not None:
        return ("f", s)
    tags = [tag for tag, model in FIXED_FAMILY_MODELS.items() if canonicalize(t) == canonicalize(model)]
    return (tags[0], None) if tags else None


def reference_minimal_normal_form(t):
    """(a_1, a_6, the four other weights)."""
    i = max(range(6), key=t.__getitem__)
    return t[OPPOSITE[i]], t[i], [t[k] for k in range(6) if k not in (i, OPPOSITE[i])]


def built_to_profile(rng, profile):
    """A tuple with this pair profile: pairs placed and ordered at random."""
    e = [0] * 6
    for (x, y), (i, j) in zip(rng.sample(profile, 3), tuples.OPPOSITE_PAIRS):
        e[i], e[j] = (x, y) if rng.random() < 0.5 else (y, x)
    return TetTuple(e)


def profile_cases():
    """Every tuple of weight <= 10, seeded tuples with entries <= 300, and
    seeded tuples built to the profiles of CI powers, minimal Buchsbaum
    curves, fat lines and the 4-cycle family, and minimal curves."""
    yield from iter_tuples(10, include_trivial=True)
    rng = random.Random(20261024)
    for _ in range(500):
        yield TetTuple(tuple(rng.randint(0, 300) for _ in range(6)))
        r, m = rng.randint(1, 300), rng.randint(1, 299)
        yield built_to_profile(rng, [(0, 0), (r, r), (r, r)])
        yield built_to_profile(rng, [(0, 0), (r - 1, r - 1), (r, r)])
        yield built_to_profile(rng, [(0, 0), (0, 0), (0, r)])
        yield built_to_profile(rng, rng.choice([[(0, 0), (m - 1, m), (m, m)], [(0, 0), (m, m), (m, m + 1)]]))
        a2, a3, a4, a5 = (rng.randint(0, 100) for _ in range(4))
        a1 = max(a3 + a5, a2 + a4) + rng.randint(1, 50)
        a6 = max(a1, a4 + a5 + 1, a2 + a3 + 1) + rng.randint(0, 50)
        yield permute((a1, a2, a3, a4, a5, a6), rng.choice(VERTEX_PERMUTATIONS))


class TestPairProfile:
    def test_shape_tests_match_the_former_ones(self):
        counts = dict.fromkeys(("ci", "buchsbaum", "a", "f", "minimal"), 0)
        for t in profile_cases():
            assert ci_power_form(t) == reference_ci_power_form(t), t
            assert buchsbaum_minimal_r(t) == reference_buchsbaum_minimal_r(t), t
            family = verify.acm_linear_family(t)
            assert family == reference_acm_linear_family(t), t
            counts["ci"] += ci_power_form(t) is not None
            counts["buchsbaum"] += buchsbaum_minimal_r(t) is not None
            if family is not None and family[0] in counts:
                counts[family[0]] += 1
            if is_minimal(t):
                counts["minimal"] += 1
                a1, a6, rest = reference_minimal_normal_form(t)
                s = sum(a * (a + 1) // 2 for a in rest)
                expected = {(0, a1 + a6): (a1 + 1) * (a6 + 1) - s, (1, a1 + a6 + 1): 2 * a1 * a6 + a1 + a6 - 2 * s,
                            (2, a1 + a6 + 2): a1 * a6 - s}
                assert resolution.minimal_curve_betti(t) == BettiTable.from_dict(expected), t
                assert regularity_closed_form(t) == a1 + a6, t
        assert min(counts.values()) >= 500, counts

    def test_is_an_orbit_invariant_complete_below_two_unequal_pairs(self):
        profiles = {}
        for t in iter_tuples(9, include_trivial=True):
            profiles.setdefault(canonicalize(t), set()).add(tuple(pair_profile(t)))
        assert all(len(found) == 1 for found in profiles.values())
        near = [found.pop() for found in profiles.values()]
        near = [p for p in near if sum(a != b for a, b in p) <= 1]
        assert len(set(near)) == len(near) == 81

    def test_star_and_triangle_share_a_profile(self):
        # so the fixed ACM families (b)-(e) are matched by canonical form
        star, triangle = T("1,1,1,0,0,0"), T("1,1,0,1,0,0")
        assert pair_profile(star) == pair_profile(triangle) == [(0, 1)] * 3
        assert canonicalize(star) != canonicalize(triangle)
        assert verify.acm_linear_family(triangle) == ("b", None)
        assert verify.acm_linear_family(star) is None


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
        t = T(text)
        report = resolution.classify(t)
        assert (report.schwartau, report.componentwise_linear) == expected
        assert not (report.schwartau and verify.check_schwartau.fails(t))

    def test_trivial_raises(self):
        # the criterion's verdict is compared with is_cwl, which refuses the trivial curve
        with pytest.raises(TrivialCurveError):
            verify.check_schwartau.fails(T("0,0,0,0,0,0"))

    @given(tet_tuples.map(lambda t: TetTuple((t[0], 0, t[2], t[3], 0, t[5]))))
    def test_agrees_with_is_cwl(self, t):
        if t.is_trivial:
            return
        assert not verify.check_schwartau.fails(t)


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
            assert tuple(step.G for step in trace.steps) == vertices and trace.weights == weights
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

    def test_huge_step_list_is_typed_error(self, capped_python):
        done = capped_python("from tetracurves.tuples import TetTuple, reduction_trace; "
                             "reduction_trace(TetTuple((10**8,) * 3 + (1, 1, 1))).steps[0]")
        assert "OracleTooLargeError: a trace of 100000002 steps needs" in done.stderr

    def test_huge_weights_are_typed_error(self, capped_python):
        # 10^8 weights ran out of memory before the guard
        done = capped_python("from tetracurves.tuples import TetTuple, reduction_trace; "
                             "reduction_trace(TetTuple((10**8,) * 3 + (1, 1, 1))).weights")
        assert "OracleTooLargeError: the weights of a trace of 100000002 steps need" in done.stderr
