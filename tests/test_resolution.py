import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tetracurves import resolution, tuples, verify
from tetracurves.exceptions import (
    EnumerationCapError,
    IsACMError,
    NotMinimalError,
    TrivialCurveError,
)
from tetracurves.gin import gin_buchsbaum_minimal, gin_of_curve
from tetracurves.koszul import BettiTable, cached_betti_oracle
from tetracurves.monomials import Monomial, MonomialIdeal, ideal_of_tuple
from tetracurves.resolution import (
    ResolutionRecipe,
    ascent_candidates,
    betti_table,
    ci_power_betti,
    classify,
    enumerate_linear_in_class,
    minimal_curve_betti,
    recipe_from_chain,
    resolution_recipe,
)
from tetracurves.tuples import (
    TetTuple,
    apply_reduction,
    buchsbaum_minimal_r,
    canonicalize,
    ci_power_form,
    facet_weights,
    reduction_applicable,
    reduction_trace,
)
from tetracurves.verify import (
    PUBLISHED_TWO_SKEW_ORBITS,
    TWO_SKEW_ERRATA,
    acm_linear_family,
    check_two_skew_vs_published,
    gin_betti_prediction,
    iter_tuples,
)

small_tuples = st.tuples(*[st.integers(0, 3)] * 6).map(TetTuple)


def T(text):
    return TetTuple.parse(text)


def orbits(*texts):
    return {canonicalize(T(s)) for s in texts}


class TestMinimalCurveBetti:
    def test_two_skew_lines(self):
        assert minimal_curve_betti(T("1,0,0,0,0,1")).as_dict() == {
            (0, 2): 4,
            (1, 3): 4,
            (2, 4): 1,
        }

    def test_worked_example(self):
        assert minimal_curve_betti(T("4,1,2,1,1,5")).as_dict() == {
            (0, 9): 24,
            (1, 10): 37,
            (2, 11): 14,
        }

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_buchsbaum_series(self, r):
        t = TetTuple((r, 0, r - 1, r - 1, 0, r))
        assert minimal_curve_betti(t).as_dict() == {
            (0, 2 * r): 3 * r + 1,
            (1, 2 * r + 1): 4 * r,
            (2, 2 * r + 2): r,
        }

    def test_rejects_non_minimal(self):
        with pytest.raises(NotMinimalError):
            minimal_curve_betti(T("3,3,3,1,2,4"))


class TestCiPowerBetti:
    @pytest.mark.parametrize("r,gens,syz", [(1, 2, 1), (2, 3, 2), (4, 5, 4)])
    def test_series(self, r, gens, syz):
        assert ci_power_betti(r).as_dict() == {(0, 2 * r): gens, (1, 2 * r + 2): syz}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ci_power_betti(0)


WORKED_TABLES = {
    "1,2,1,2,0,2": {(0, 6): 1, (0, 4): 2, (0, 3): 1, (1, 7): 1, (1, 5): 2},
    "1,3,4,2,3,0": {(0, 8): 1, (0, 7): 1, (0, 6): 3, (1, 9): 1, (1, 8): 3},
    "7,5,5,2,1,6": {
        (0, 17): 1,
        (0, 15): 1,
        (0, 13): 26,
        (1, 18): 1,
        (1, 16): 1,
        (1, 14): 39,
        (2, 15): 14,
    },
}


class TestBettiTableAssembly:
    @pytest.mark.parametrize("text,expected", WORKED_TABLES.items())
    def test_worked_examples(self, text, expected):
        assert betti_table(T(text)).as_dict() == expected

    def test_ci_power_direct(self):
        assert betti_table(T("0,2,2,2,2,0")) == ci_power_betti(2)

    def test_trivial_raises(self):
        with pytest.raises(TrivialCurveError):
            betti_table(T("0,0,0,0,0,0"))

    @staticmethod
    def steps_above_base(recipe):
        return sum(len(run.weights) * run.count for run in recipe.runs)

    def test_recipe_structure_non_acm(self):
        trace = reduction_trace(T("7,5,5,2,1,6"))
        recipe = resolution_recipe(trace)
        assert trace.terminal == T("4,1,2,1,1,5")
        assert recipe.base_betti == minimal_curve_betti(trace.terminal)
        assert recipe.runs == trace.runs and trace.weights == (17, 14, 11, 10)

    def test_recipe_structure_acm_cwl(self):
        trace = reduction_trace(T("1,2,1,2,0,2"))
        recipe = resolution_recipe(trace)
        assert trace.terminal.is_trivial
        assert recipe.base_betti.as_dict() == {(0, 0): 1}
        assert self.steps_above_base(recipe) == 3

    def test_recipe_structure_acm_not_cwl(self):
        trace = reduction_trace(T("1,3,4,2,3,0"))
        recipe = resolution_recipe(trace)
        assert trace.steps[trace.first_ci_power[0]].parent == T("0,2,2,2,2,0")
        assert recipe.base_betti == ci_power_betti(2)
        assert self.steps_above_base(recipe) == 2

    def test_recipe_fields(self):
        # the recipe keeps the base's table only, not the base curve
        assert [f.name for f in dataclasses.fields(ResolutionRecipe)] == ["base_betti", "runs"]

    @given(small_tuples)
    @settings(max_examples=40)
    def test_matches_oracle(self, t):
        if t.is_trivial:
            return
        assert betti_table(t) == cached_betti_oracle(ideal_of_tuple(t))

    def test_tie_break_independent(self):
        t = T("3,3,3,1,2,4")
        expected = betti_table(t)
        chains = list(verify.max_weight_chains(t))
        assert len(chains) > 1
        for chain in chains:
            assert recipe_from_chain(chain).assemble() == expected


def pairwise_assemble(recipe):
    """Test-only copy of the former `ResolutionRecipe.assemble`: one
    `BettiTable` sum per step of a chain recipe, whose runs are single steps."""
    assert all(run.count == 1 for run in recipe.runs)
    weights = [w for run in recipe.runs for w in run.weights]
    n = len(weights)
    table = BettiTable(tuple((i, j + n, r) for i, j, r in recipe.base_betti.entries))
    for shift, f_degree in enumerate(weights):
        table = table + BettiTable.from_dict(
            {(0, f_degree + shift): 1, (1, f_degree + shift + 1): 1}
        )
    return table


def stepwise_chain(t):
    """Test-only reference chain: the first maximal-weight choice at each step."""
    return next(verify.max_weight_chains(t))


class TestLinearAssembly:
    """The one-pass assembly from the trace record against the former
    pairwise assembly over the step-by-step chain."""

    @staticmethod
    def check(t):
        chain = stepwise_chain(t)
        table = pairwise_assemble(recipe_from_chain(chain))
        assert betti_table(t) == table
        assert resolution_recipe(reduction_trace(t)).is_linear is table.is_linear
        prediction = table
        ci = next((c for c in chain if ci_power_form(c) is not None), None)
        if chain[-1].is_trivial and ci is not None:
            r, p = ci_power_form(ci), table.min_generator_degree
            prediction = table + BettiTable.from_dict({(0, p + 1): r, (1, p + 1): r})
        assert gin_betti_prediction(t) == prediction
        if not chain[-1].is_trivial:  # ACM gins are compared in test_gin
            r = buchsbaum_minimal_r(chain[-1])
            gin = r and gin_buchsbaum_minimal(r)
            for c in reversed(chain[:-1] if r else ()):  # gin(J) = a * gin(I) + (b^e)
                b_e = Monomial((0, max(facet_weights(c)), 0, 0))
                gin = gin.scaled(Monomial((1, 0, 0, 0))) + MonomialIdeal((b_e,))
            assert gin_of_curve(t) == gin

    def test_up_to_weight_9(self):
        for t in iter_tuples(9):
            self.check(t)

    @pytest.mark.parametrize("entries", [(7, 5, 5, 2, 1, 6), (20, 18, 17, 9, 8, 20)])
    def test_ladder(self, entries):
        self.check(TetTuple(entries))


def element_ci_recipe(trace):
    """Test-only copy of the former derivation of a CI-power base: its table
    from the chain element itself, via ci_power_form, over the runs above
    the element's chain index."""
    index, _ = trace.first_ci_power
    runs, above = [], 0
    for run in trace.runs:
        if above == index:
            break
        runs.append(run)
        above += len(run.weights) * run.count
    assert above == index  # a run starts at the element
    return ResolutionRecipe(ci_power_betti(ci_power_form(trace.steps[index].parent)), tuple(runs))


class TestCiPowerBase:
    """The recipe built from (chain index, r) alone against the former one
    built from the CI-power element."""

    def test_matches_element_up_to_weight_10(self):
        checked = 0
        for t in iter_tuples(10):
            trace = reduction_trace(t)
            if trace.is_acm and not trace.is_cwl:
                assert resolution_recipe(trace) == element_ci_recipe(trace), t
                checked += 1
        assert checked >= 100

    def test_matches_element_on_large_entries(self):
        # uniform draws seldom reach a CI power, so each draw has a zero opposite pair
        rng = random.Random(20261023)
        checked = 0
        while checked < 200:
            i, j = rng.choice(tuples.OPPOSITE_PAIRS)
            r = rng.randint(1, 300)
            near = rng.random() < 0.5  # near (0,r,r,r,r,0), or anywhere
            e = [min(300, max(0, r + rng.randint(-3, 3))) if near else rng.randint(0, 300) for _ in range(6)]
            e[i] = e[j] = 0
            trace = reduction_trace(TetTuple(e))
            if trace.first_ci_power is not None:
                assert resolution_recipe(trace) == element_ci_recipe(trace), e
                checked += 1


class TestRunAssembly:
    """Assembly and linearity read off the runs of long traces."""

    def test_run_read_is_linear_matches_assembly(self):
        rng = random.Random(20261019)
        seeded = [TetTuple(tuple(rng.randint(0, 300) for _ in range(6))) for _ in range(1000)]
        for t in itertools.chain(iter_tuples(10), seeded):
            recipe = resolution_recipe(reduction_trace(t))
            assert recipe.is_linear is recipe.assemble().is_linear, t

    def test_matches_pairwise_above_a_ci_power_base(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(3000):
            t = TetTuple(tuple(rng.randint(0, 60) for _ in range(6)))
            trace = reduction_trace(t)
            if trace.is_acm and trace.first_ci_power is not None:
                # a run starts at the CI-power element, where the recipe's base cuts the runs
                starts = itertools.accumulate((len(run.vertices) * run.count for run in trace.runs), initial=0)
                assert trace.first_ci_power[0] in set(starts)
                assert betti_table(t) == pairwise_assemble(recipe_from_chain(stepwise_chain(t))), t
                checked += 1
        assert checked >= 20

    def test_huge_table_is_typed_error(self, capped_python):
        t = TetTuple((10**8, 10**8, 10**8, 1, 1, 1))
        assert classify(t).acm
        # the gin counts its own generators before any table is built
        for call, refusal in (("resolution.betti_table", "a Betti table of over 199999996 entries needs"),
                              ("gin.gin_of_curve", "100000003 gin generators need")):
            done = capped_python("from tetracurves import gin, resolution; from tetracurves.tuples import TetTuple; "
                                 f"{call}(TetTuple((10**8,) * 3 + (1, 1, 1)))")
            assert f"OracleTooLargeError: {refusal}" in done.stderr, call


class TestLinearResolution:
    @pytest.mark.parametrize(
        "text,expected",
        [("2,1,1,1,1,2", True), ("1,2,1,2,0,2", False), ("3,2,1,1,2,3", True)],
    )
    def test_examples(self, text, expected):
        assert betti_table(T(text)).is_linear is expected


class TestAcmLinearFamily:
    def test_fat_line(self):
        assert acm_linear_family(T("3,0,0,0,0,0")) == ("a", 3)
        assert acm_linear_family(T("0,0,0,0,7,0")) == ("a", 7)

    def test_fixed_families(self):
        assert acm_linear_family(T("1,1,0,1,0,0")) == ("b", None)
        assert acm_linear_family(T("1,1,1,1,1,1")) == ("c", None)
        assert acm_linear_family(T("2,1,0,1,0,1")) == ("d", None)
        assert acm_linear_family(T("2,1,1,1,1,2")) == ("e", None)
        assert acm_linear_family(T("1,2,1,1,2,1")) == ("e", None)

    @pytest.mark.parametrize(
        "text,s",
        [
            ("0,0,1,1,0,1", 2),
            ("0,1,1,1,2,0", 3),
            ("0,1,2,2,2,0", 4),
            ("0,2,2,2,3,0", 5),
            ("0,2,3,3,3,0", 6),
            ("0,3,3,3,4,0", 7),
            ("0,3,4,4,4,0", 8),
            ("2,1,0,0,2,2", 4),  # a non-canonical member of the s = 4 orbit
        ],
    )
    def test_cycle_family(self, text, s):
        assert acm_linear_family(T(text)) == ("f", s)
        table = cached_betti_oracle(ideal_of_tuple(T(text)))
        assert table.as_dict() == {(0, s): s + 1, (1, s + 1): s}

    def test_non_members(self):
        assert acm_linear_family(T("2,1,1,1,1,1")) is None
        assert acm_linear_family(T("0,0,0,0,0,0")) is None

    @pytest.mark.parametrize(
        "text,acm,linear",
        [
            ("0,1,1,1,1,0", True, False),  # complete intersection of two quadrics
            ("0,2,2,2,2,0", True, False),
            ("0,1,1,2,2,0", True, False),
            ("0,1,1,1,3,0", False, True),
        ],
    )
    def test_near_misses_of_the_cycle_family(self, text, acm, linear):
        table = cached_betti_oracle(ideal_of_tuple(T(text)))
        assert (table.projective_dimension <= 1, table.is_linear) == (acm, linear)
        assert acm_linear_family(T(text)) is None


class TestAscentCandidates:
    def test_two_skew_lines_degree_three(self):
        got = ascent_candidates(T("1,0,0,0,0,1"), 3)
        parents = {p for p, _ in got}
        assert T("2,1,0,0,0,1") in parents
        assert T("2,0,1,0,0,1") in parents
        assert all(
            apply_reduction(p, G).child == T("1,0,0,0,0,1") and
            apply_reduction(p, G).weight == 3
            for p, G in got
        )

    def test_single_lines_over_trivial(self):
        got = ascent_candidates(T("0,0,0,0,0,0"), 1)
        parents = {p for p, _ in got}
        lines = {TetTuple(tuple(1 if i == k else 0 for i in range(6))) for k in range(6)}
        assert parents == lines

    def test_round_trip_at_degree_ten(self):
        target = T("0,4,4,4,4,0")
        got = ascent_candidates(target, 10)
        assert got
        for parent, G in got:
            step = apply_reduction(parent, G)
            assert step.child == target and step.weight == 10
        assert all(p != T("2,5,5,5,5,0") for p, _ in got)

    @given(small_tuples)
    @settings(max_examples=30)
    def test_every_candidate_reduces_back(self, t):
        for parent, G in ascent_candidates(t):
            assert apply_reduction(parent, G).child == t

    def test_equals_brute_force_up_to_weight_6(self):
        # every (p, G) with each p_i in {t_i, t_i + 1} that reduces to t,
        # found by applying the reduction: a dropped or extra candidate fails
        for t in verify.iter_tuples(6, include_trivial=True):
            by_degree = {}
            for p in map(TetTuple, itertools.product(*((a, a + 1) for a in t))):
                for G in range(4):
                    if p != t and reduction_applicable(p, G) and (step := apply_reduction(p, G)).child == t:
                        by_degree.setdefault(step.weight, set()).add((p, G))
            assert ascent_candidates(t) == set().union(*by_degree.values()), t
            # deg F is at most the parent's largest facet weight, sum(t) + 3
            for d in range(sum(t) + 5):
                assert ascent_candidates(t, d) == by_degree.get(d, set()), (t, d)


class TestEnumerateLinearInClass:
    def test_two_skew_lines_class(self):
        # Verified against brute-force search and the Koszul oracle; the
        # published seven-orbit list misses the (3,1,0,0,1,1) orbit and
        # misprints (2,1,1,1,0,2) as the ACM tuple (2,1,1,1,0,1).
        got = enumerate_linear_in_class(T("1,0,0,0,0,1"))
        assert got == orbits(
            "1,0,0,0,0,1",
            "2,1,0,0,0,1",
            "3,1,0,1,0,1",
            "3,1,0,0,1,1",
            "2,2,0,0,0,2",
            "2,1,1,1,0,2",
            "3,2,0,1,1,2",
            "3,2,1,1,2,3",
        )

    def test_double_line_pair_class(self):
        # frozen from an exhaustive scan over entries <= 5, oracle-checked
        got = enumerate_linear_in_class(T("2,0,0,0,0,2"))
        assert got == orbits(
            "0,0,2,2,0,0",
            "0,0,3,2,1,1",
            "0,1,3,3,1,2",
            "1,1,2,4,1,1",
            "1,1,3,4,2,2",
            "2,2,4,4,2,2",
        )

    def test_isolated_class(self):
        assert enumerate_linear_in_class(T("3,0,0,0,0,3")) == orbits("3,0,0,0,0,3")

    def test_rejects_non_minimal(self):
        with pytest.raises(NotMinimalError):
            enumerate_linear_in_class(T("3,3,3,1,2,4"))

    def test_rejects_acm(self):
        with pytest.raises(IsACMError):
            enumerate_linear_in_class(T("1,1,1,1,1,1"))

    def test_ascent_past_the_level_cap_is_typed_error(self, monkeypatch):
        # the two-skew-lines ascent needs more than one level
        monkeypatch.setattr(resolution, "_ASCENT_LEVEL_CAP", 1)
        with pytest.raises(EnumerationCapError):
            enumerate_linear_in_class(T("1,0,0,0,0,1"))


class TestTwoSkewPublishedCheck:
    @pytest.mark.parametrize("dropped", range(len(TWO_SKEW_ERRATA)))
    def test_fails_when_an_erratum_is_dropped(self, monkeypatch, dropped):
        errata = TWO_SKEW_ERRATA[:dropped] + TWO_SKEW_ERRATA[dropped + 1:]
        monkeypatch.setattr(verify, "TWO_SKEW_ERRATA", errata)
        result = check_two_skew_vs_published()
        assert not result.passed
        action, entries = TWO_SKEW_ERRATA[dropped]
        side = "missing" if action == "remove" else "extra"
        assert f"{side} ['{canonicalize(TetTuple(entries))}']" in result.detail

    def test_fails_on_an_unlisted_published_tuple(self, monkeypatch):
        published = PUBLISHED_TWO_SKEW_ORBITS + ((2, 1, 1, 1, 1, 1),)
        monkeypatch.setattr(verify, "PUBLISHED_TWO_SKEW_ORBITS", published)
        result = check_two_skew_vs_published()
        assert not result.passed
        assert "missing ['1,1,1,1,1,2']" in result.detail

    @pytest.mark.parametrize(
        "erratum",
        [
            ("remove", (3, 2, 1, 1, 2, 3)),  # linear and non-ACM: stays in the class
            ("add", (2, 1, 1, 1, 1, 1)),  # not linear
            ("add", (2, 1, 1, 1, 0, 1)),  # ACM, projective dimension 1
        ],
    )
    def test_fails_on_an_erratum_the_oracle_refutes(self, monkeypatch, erratum):
        monkeypatch.setattr(verify, "TWO_SKEW_ERRATA", TWO_SKEW_ERRATA + (erratum,))
        result = check_two_skew_vs_published()
        assert not result.passed
        assert f"{erratum[0]} {TetTuple(erratum[1])}" in result.detail


class TestGinBettiPrediction:
    def test_adds_generators_at_degree_eleven(self):
        t = T("2,5,5,5,5,0")
        base = betti_table(t)
        predicted = gin_betti_prediction(t)
        assert predicted.rank(0, 11) == 4 and predicted.rank(1, 11) == 4
        delta = {
            key: predicted.as_dict()[key] - base.as_dict().get(key, 0)
            for key in predicted.as_dict()
            if predicted.as_dict()[key] != base.as_dict().get(key, 0)
        }
        assert delta == {(0, 11): 4, (1, 11): 4}

    @pytest.mark.parametrize("r", [2, 3])
    def test_ci_power_adds_r(self, r):
        t = TetTuple((0, r, r, r, r, 0))
        predicted = gin_betti_prediction(t)
        assert predicted.rank(0, 2 * r + 1) == r and predicted.rank(1, 2 * r + 1) == r

    def test_cwl_unchanged(self):
        t = T("10,1,2,3,10,1")
        assert gin_betti_prediction(t) == betti_table(t)


class TestClassify:
    def test_trivial(self):
        report = classify(T("0,0,0,0,0,0"))
        assert report.trivial and not report.acm and not report.minimal
        assert report.degree == 0 and report.regularity is None

    def test_cwl_acm(self):
        report = classify(T("10,1,2,3,10,1"))
        assert report.acm and report.componentwise_linear and not report.minimal

    def test_ci_power(self):
        report = classify(T("0,2,2,2,2,0"))
        assert report.acm and not report.componentwise_linear
        assert report.ci_power_r == 2 and report.regularity == 5

    def test_buchsbaum_minimal(self):
        report = classify(T("2,0,1,1,0,2"))
        assert report.minimal and not report.acm
        assert report.buchsbaum_minimal_r == 2
        assert report.linear_resolution and report.componentwise_linear

    def test_traces_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(resolution, "reduction_trace", lambda t: calls.append(t) or reduction_trace(t))
        classify(T("1,3,4,2,3,0"))
        assert calls == [T("1,3,4,2,3,0")]

    def test_flag_implications(self):
        for text in ("1,0,0,0,0,1", "1,2,1,2,0,2", "0,2,2,2,2,0", "4,1,2,1,1,5"):
            report = classify(T(text))
            if report.minimal:
                assert not report.acm
            if report.linear_resolution:
                assert report.componentwise_linear
