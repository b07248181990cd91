import pytest
from hypothesis import given, settings, strategies as st

from tetracurves import gin as gin_module, monomials
from tetracurves.exceptions import NotACMError, NotStableError, TrivialCurveError
from tetracurves.gin import (
    StableIdeal,
    ek_betti,
    gin_acm,
    gin_buchsbaum_minimal,
    gin_of_curve,
    is_strongly_stable,
    max_variable_index,
)
from tetracurves.koszul import BettiTable
from tetracurves.monomials import Monomial, MonomialIdeal, hilbert_data, ideal_of_tuple
from tetracurves.resolution import gin_betti_prediction
from tetracurves.tuples import TetTuple, buchsbaum_minimal_r, is_acm, reduction_trace, regularity_closed_form
from tetracurves.verify import iter_tuples

small_tuples = st.tuples(*[st.integers(0, 2)] * 6).map(TetTuple)


def T(text):
    return TetTuple.parse(text)


def hilbert_gin_acm(t):
    """Test-only copy of the former `gin_acm`: the h-vector counted by
    `hilbert_data` on the curve's ideal, every lex monomial of every degree,
    then one `StableIdeal`."""
    h = hilbert_data(ideal_of_tuple(t), regularity_closed_form(t) + 3).h_vector
    gens = []
    for d in range(len(h) + 1):
        h_d = h[d] if d < len(h) else 0
        gens += (Monomial((d - i, i, 0, 0)) for i in range(d + 1 - h_d))
    return StableIdeal(tuple(gens))


def stepwise_gin_buchsbaum_minimal(r):
    """Test-only copy of the former recursion: one ideal per step."""
    gin = MonomialIdeal.of("a^2", "a*b", "b^2", "a*c")
    for k in range(1, r):
        gin = gin.scaled(Monomial((2, 0, 0, 0))) + MonomialIdeal(
            (Monomial((1, 2 * k + 1, 0, 0)), Monomial((0, 2 * k + 2, 0, 0)), Monomial((k + 1, k, 1, 0)))
        )
    return StableIdeal(gin.generators)


def gin_bdl_step(gin_ideal, e):
    """Test-only reference for one basic double link of the gin, which
    `gin_of_curve` folds along the chain: a * gin(I) + (b^e), where e is the
    maximal facet weight of the parent curve."""
    stepped = gin_ideal.scaled(Monomial((1, 0, 0, 0))) + MonomialIdeal((Monomial((0, e, 0, 0)),))
    return StableIdeal(stepped.generators)


def stepwise_gin_of_curve(t):
    """Test-only copy of the former non-ACM route: `gin_bdl_step` folded
    along the trace, one `StableIdeal` per step."""
    trace = reduction_trace(t)
    gin = stepwise_gin_buchsbaum_minimal(buchsbaum_minimal_r(trace.terminal))
    for weight in reversed(trace.weights):
        gin = gin_bdl_step(gin, weight)
    return gin


class TestStability:
    def test_stable_examples(self):
        assert is_strongly_stable(MonomialIdeal.of("a^2", "a*b", "b^2", "a*c"))
        assert is_strongly_stable(MonomialIdeal.of("a", "b"))
        assert is_strongly_stable(MonomialIdeal.of("1"))

    def test_unstable_examples(self):
        assert not is_strongly_stable(MonomialIdeal.of("b"))
        assert not is_strongly_stable(MonomialIdeal.of("a*b", "c*d"))

    def test_stable_ideal_guard(self):
        with pytest.raises(NotStableError):
            StableIdeal((Monomial.parse("b"),))

    def test_max_variable_index(self):
        assert max_variable_index(Monomial.parse("a^3")) == 1
        assert max_variable_index(Monomial.parse("a*c")) == 3
        assert max_variable_index(Monomial.parse("d")) == 4


class TestGinAcm:
    def test_worked_example_one(self):
        assert gin_acm(T("1,2,2,2,1,2")) == MonomialIdeal.of(
            "a^4", "a^3*b", "a^2*b^3", "a*b^4", "b^6"
        )

    def test_worked_example_two(self):
        assert gin_acm(T("2,1,4,1,1,3")) == MonomialIdeal.of(
            "a^5", "a^4*b", "a^3*b^3", "a^2*b^4", "a*b^6", "b^8"
        )

    def test_single_line_fixed(self):
        assert gin_acm(T("1,0,0,0,0,0")) == MonomialIdeal.of("a", "b")

    def test_rejects_non_acm(self):
        with pytest.raises(NotACMError):
            gin_acm(T("1,0,0,0,0,1"))
        with pytest.raises(TrivialCurveError):
            gin_acm(T("0,0,0,0,0,0"))

    @given(small_tuples)
    @settings(max_examples=25)
    def test_stable_two_variable_hilbert_preserving(self, t):
        if t.is_trivial or not is_acm(t):
            return
        g = gin_acm(t)
        assert is_strongly_stable(g)
        assert all(m.exps[2] == 0 and m.exps[3] == 0 for m in g.generators)
        upto = regularity_closed_form(t) + 3
        assert hilbert_data(g, upto).values == hilbert_data(ideal_of_tuple(t), upto).values


class TestClosedFormReferences:
    def test_gin_acm_matches_hilbert_construction_up_to_weight_9(self):
        for t in iter_tuples(9):
            if is_acm(t):
                assert gin_acm(t) == hilbert_gin_acm(t), t

    @pytest.mark.parametrize("weight", [20, 60])
    def test_gin_acm_matches_hilbert_construction_on_thick_curves(self, weight):
        t = TetTuple((weight,) * 6)
        assert gin_acm(t) == hilbert_gin_acm(t)

    def test_buchsbaum_gin_matches_recursion(self):
        for r in range(1, 13):
            assert gin_buchsbaum_minimal(r) == stepwise_gin_buchsbaum_minimal(r), r

    def test_bdl_fold_matches_stepwise(self):
        t = TetTuple((79, 63, 51, 44, 18, 18))
        assert not is_acm(t)
        assert gin_of_curve(t) == stepwise_gin_of_curve(t)

    def test_gin_of_curve_stays_off_the_monomial_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gin_of_curve reached the monomial engine")

        for module in (monomials, gin_module):
            for name in ("ideal_of_tuple", "hilbert_data"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        acm = [T("1,2,2,2,1,2"), T("2,1,4,1,1,3"), T("2,5,5,5,5,0"), TetTuple((20,) * 6)]
        rooted = [T("1,0,0,0,0,1"), T("2,1,0,0,0,1"), TetTuple((79, 63, 51, 44, 18, 18))]
        assert all(is_acm(t) for t in acm) and not any(is_acm(t) for t in rooted)
        for t in acm + rooted:
            assert gin_of_curve(t) is not None
        assert len(gin_of_curve(TetTuple((100,) * 6)).generators) == 201


class TestEkBetti:
    def test_quadric_example(self):
        got = ek_betti(StableIdeal(MonomialIdeal.of("a^2", "a*b", "b^2", "a*c").generators))
        assert got.as_dict() == {(0, 2): 4, (1, 3): 4, (2, 4): 1}

    def test_two_variables(self):
        got = ek_betti(StableIdeal(MonomialIdeal.of("a", "b").generators))
        assert got.as_dict() == {(0, 1): 2, (1, 2): 1}

    def test_matches_prediction_for_ginprocess_curve(self):
        t = T("2,5,5,5,5,0")
        assert ek_betti(gin_acm(t)) == gin_betti_prediction(t)


class TestBuchsbaumGin:
    def test_base_case(self):
        assert gin_buchsbaum_minimal(1) == MonomialIdeal.of("a^2", "a*b", "b^2", "a*c")

    def test_first_recursion(self):
        assert gin_buchsbaum_minimal(2) == MonomialIdeal.of(
            "a^4", "a^3*b", "a^2*b^2", "a^3*c", "a*b^3", "b^4", "a^2*b*c"
        )

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_ek_ranks(self, r):
        expected = BettiTable.from_dict(
            {(0, 2 * r): 3 * r + 1, (1, 2 * r + 1): 4 * r, (2, 2 * r + 2): r}
        )
        assert ek_betti(gin_buchsbaum_minimal(r)) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gin_buchsbaum_minimal(0)

    def test_huge_r_is_typed_error(self, capped_python):
        # 3 * 10^8 + 1 generators ran out of memory before the guard
        done = capped_python("from tetracurves.gin import gin_buchsbaum_minimal; gin_buchsbaum_minimal(10**8)")
        assert "OracleTooLargeError: 300000001 gin generators need" in done.stderr


class TestGinBdlStep:
    def test_example(self):
        stepped = gin_bdl_step(MonomialIdeal.of("a^2", "a*b", "b^2", "a*c"), 5)
        assert stepped == MonomialIdeal.of("a^3", "a^2*b", "a*b^2", "a^2*c", "b^5")
        assert is_strongly_stable(stepped)

    def test_two_steps_structure(self):
        first = gin_bdl_step(gin_buchsbaum_minimal(1), 3)
        second = gin_bdl_step(first, 4)
        pure_b = [m for m in second.generators if m.exps[0] == 0]
        assert pure_b == [Monomial.parse("b^4")]
        assert ek_betti(second).projective_dimension == 2


class TestGinOfCurve:
    def test_buchsbaum_base(self):
        assert gin_of_curve(T("1,0,0,0,0,1")) == MonomialIdeal.of("a^2", "a*b", "b^2", "a*c")

    def test_one_step_above(self):
        assert gin_of_curve(T("2,1,0,0,0,1")) == MonomialIdeal.of(
            "a^3", "a^2*b", "a*b^2", "b^3", "a^2*c"
        )

    def test_acm_routes_through_hilbert(self):
        assert gin_of_curve(T("1,2,2,2,1,2")) == gin_acm(T("1,2,2,2,1,2"))

    def test_unsupported_minimal_curve(self):
        assert gin_of_curve(T("4,1,2,1,1,5")) is None

    def test_trivial_raises(self):
        with pytest.raises(TrivialCurveError):
            gin_of_curve(T("0,0,0,0,0,0"))

    @given(small_tuples)
    @settings(max_examples=25)
    def test_hilbert_function_preserved(self, t):
        if t.is_trivial:
            return
        g = gin_of_curve(t)
        if g is None:
            return
        assert is_strongly_stable(g)
        upto = regularity_closed_form(t) + 3
        assert hilbert_data(g, upto).values == hilbert_data(ideal_of_tuple(t), upto).values
