import itertools
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from tetracurves.exceptions import (
    BoundTooSmallError,
    FNotInIdealError,
    GDividesFError,
    OracleTooLargeError,
)
from tetracurves.monomials import (
    Monomial,
    MonomialIdeal,
    basic_double_link,
    component_ideal,
    edge_power_ideal,
    EDGES,
    hilbert_data,
    ideal_of_tuple,
    minimalize,
    monomials_of_degree,
    truncate,
)

monomials = st.tuples(*[st.integers(0, 4)] * 4).map(Monomial)

KOSZUL_LADDER = (
    (3, 3, 3, 1, 2, 4),
    (7, 5, 5, 2, 1, 6),
    (10, 9, 8, 4, 4, 10),
    (20, 18, 17, 9, 8, 20),
)


def intersection_reference(t):
    """The tetrahedral ideal by intersecting the powers of the edge ideals."""
    ideal = MonomialIdeal.unit()
    for edge, a in zip(EDGES, t):
        if a > 0:
            ideal = ideal.intersect(edge_power_ideal(edge, a))
    return ideal


def hilbert_reference(ideal, upto):
    """Hilbert data by testing every monomial of degree <= upto for membership."""
    values = [
        sum(not ideal.contains(m) for m in monomials_of_degree(d)) for d in range(upto + 1)
    ]
    first = [v - u for u, v in zip([0] + values, values)]
    if upto < 1 or first[-1] != first[-2]:
        raise BoundTooSmallError("not stabilized")
    h = [v - u for u, v in zip([0] + first, first)]
    while h and h[-1] == 0:
        h.pop()
    return tuple(values), tuple(h), first[-1]


@st.composite
def ideals(draw):
    """Monomial ideals with exponents up to 6, among them the zero and unit
    ideals and ideals in which a variable never occurs."""
    gens = draw(st.lists(st.tuples(*[st.integers(0, 6)] * 4), max_size=6))
    unused = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if unused is not None:
        gens = [tuple(0 if i == unused else e for i, e in enumerate(g)) for g in gens]
    return MonomialIdeal(tuple(Monomial(g) for g in gens))


def M(text):
    return Monomial.parse(text)


class TestMonomial:
    def test_parse_and_str(self):
        assert str(M("a^2*b*c^3")) == "a^2*b*c^3"
        assert M("1") == Monomial.one()
        assert str(Monomial.one()) == "1"
        assert M("b^2").exps == (0, 2, 0, 0)

    def test_arith(self):
        assert M("a*b") * M("b*c") == M("a*b^2*c")
        assert M("a*b^2*c") / M("b*c") == M("a*b")
        assert M("a").lcm(M("b")) == M("a*b")
        with pytest.raises(ValueError):
            M("a") / M("b")

    def test_divides(self):
        assert M("a*b").divides(M("a^2*b"))
        assert not M("a*b").divides(M("a*c"))

    @given(monomials, monomials)
    def test_lcm_divisible(self, u, v):
        assert u.divides(u.lcm(v)) and v.divides(u.lcm(v))

    @given(monomials)
    def test_parse_round_trip(self, m):
        assert Monomial.parse(str(m)) == m


class TestMinimalize:
    def test_drops_multiples(self):
        gens = [M("a"), M("a*b"), M("b^2"), M("a^2")]
        assert minimalize(gens) == [M("a"), M("b^2")]

    @given(st.lists(monomials, min_size=1, max_size=12))
    def test_result_is_antichain(self, ms):
        kept = minimalize(ms)
        for i, u in enumerate(kept):
            for j, v in enumerate(kept):
                if i != j:
                    assert not u.divides(v)

    def test_bulk_over_memory_limit_is_typed_error(self):
        # 15,000 monomials would need a 1.05 GiB pairwise comparison
        ms = [Monomial((k, 15_000 - k, 0, 0)) for k in range(15_000)]
        tracemalloc.start()
        try:
            with pytest.raises(OracleTooLargeError):
                minimalize(ms)
            assert tracemalloc.get_traced_memory()[1] < 2**25
        finally:
            tracemalloc.stop()

    def test_bulk_path_matches_small_path(self):
        import itertools

        ms = [Monomial(e) for e in itertools.product(range(4), repeat=4)]
        small = minimalize(ms[:50])
        assert set(minimalize(ms)) <= set(ms)
        assert minimalize(small) == small


class TestIdealOfTuple:
    def test_two_skew_lines(self):
        assert ideal_of_tuple((1, 0, 0, 0, 0, 1)) == MonomialIdeal.of("a*c", "a*d", "b*c", "b*d")

    def test_complete_intersection(self):
        assert ideal_of_tuple((0, 1, 1, 1, 1, 0)) == MonomialIdeal.of("a*b", "c*d")

    def test_trivial_is_unit(self):
        assert ideal_of_tuple((0, 0, 0, 0, 0, 0)).is_unit

    def test_ci_power(self):
        assert ideal_of_tuple((0, 2, 2, 2, 2, 0)) == MonomialIdeal.of(
            "a^2*b^2", "a*b*c*d", "c^2*d^2"
        )

    def test_matches_intersection_reference(self):
        # every tuple of weight <= 10, then the Koszul ladder; equality of
        # generator tuples also checks the minimality and the display order
        small = (t for t in itertools.product(range(11), repeat=6) if sum(t) <= 10)
        for t in itertools.chain(small, KOSZUL_LADDER):
            got = ideal_of_tuple(t)
            assert got == intersection_reference(t), t
            assert all(type(e) is int for g in got.generators for e in g.exps)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            ideal_of_tuple((1, 0, 0, 0, 1))
        with pytest.raises(ValueError):
            ideal_of_tuple((1, 0, 0, -1, 0, 1))


class TestContains:
    def test_examples(self):
        I = MonomialIdeal.of("a*b", "c*d")
        assert I.contains(M("a^2*b"))
        assert not I.contains(M("a*c"))
        assert ideal_of_tuple((0, 1, 1, 1, 1, 0)).contains(M("a*b*c*d"))


class TestBasicDoubleLink:
    def test_line_from_trivial(self):
        assert basic_double_link(MonomialIdeal.unit(), "a", M("b")) == MonomialIdeal.of("a", "b")

    def test_from_worked_chain(self):
        assert basic_double_link(MonomialIdeal.unit(), "c", M("b*d")) == MonomialIdeal.of(
            "c", "b*d"
        )

    def test_reconstructs_parent_ideal(self):
        child = ideal_of_tuple((2, 2, 2, 1, 2, 4))
        rebuilt = basic_double_link(child, "a", M("b^3*c^3*d^3"))
        assert rebuilt == ideal_of_tuple((3, 3, 3, 1, 2, 4))

    def test_f_not_in_ideal(self):
        with pytest.raises(FNotInIdealError):
            basic_double_link(MonomialIdeal.of("a*b"), "c", M("a*d"))

    def test_g_divides_f(self):
        with pytest.raises(GDividesFError):
            basic_double_link(MonomialIdeal.of("a*b"), "a", M("a*b"))


class TestComponentIdeal:
    def test_all_degree_two_members(self):
        # every degree-2 monomial divisible by a or b, not just those in a, b
        assert component_ideal(MonomialIdeal.of("a", "b"), 2) == MonomialIdeal.of(
            "a^2", "a*b", "b^2", "a*c", "a*d", "b*c", "b*d"
        )

    def test_equigenerated(self):
        I = MonomialIdeal.of("a*b", "c*d")
        assert component_ideal(I, 2) == I

    def test_degree_three_part_of_two_skew_lines(self):
        piece = component_ideal(ideal_of_tuple((1, 0, 0, 0, 0, 1)), 3)
        assert len(piece.generators) == 12
        assert all(g.degree == 3 for g in piece.generators)
        expected = {
            m
            for m in monomials_of_degree(3)
            if ideal_of_tuple((1, 0, 0, 0, 0, 1)).contains(m)
        }
        assert set(piece.generators) == expected


class TestTruncate:
    def test_below_generators(self):
        assert truncate(MonomialIdeal.of("a", "b"), 1) == MonomialIdeal.of("a", "b")

    def test_above_generators(self):
        assert truncate(MonomialIdeal.of("a", "b"), 2) == MonomialIdeal.of(
            "a^2", "a*b", "b^2", "a*c", "a*d", "b*c", "b*d"
        )

    def test_ci_degree_three(self):
        got = truncate(ideal_of_tuple((0, 1, 1, 1, 1, 0)), 3)
        assert got == MonomialIdeal.of(
            "a^2*b", "a*b^2", "a*b*c", "a*b*d", "a*c*d", "b*c*d", "c^2*d", "c*d^2"
        )


class TestHilbertData:
    def test_line(self):
        data = hilbert_data(MonomialIdeal.of("a", "b"), 3)
        assert data.values == (1, 2, 3, 4)
        assert data.degree == 1
        assert data.h_vector == (1,)

    def test_two_skew_lines_degree(self):
        assert hilbert_data(ideal_of_tuple((1, 0, 0, 0, 0, 1)), 6).degree == 2

    def test_degree_formula_agreement(self):
        assert hilbert_data(ideal_of_tuple((2, 0, 1, 1, 0, 2)), 8).degree == 8

    def test_unit_ideal(self):
        data = hilbert_data(MonomialIdeal.unit(), 2)
        assert data.values == (0, 0, 0)
        assert data.degree == 0
        assert data.h_vector == ()

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmallError):
            hilbert_data(MonomialIdeal.zero(), 6)
        with pytest.raises(BoundTooSmallError):
            hilbert_data(MonomialIdeal.of("a", "b"), 0)

    def test_huge_bound_is_typed_error(self):
        # the lists of values alone would take about 61 GiB
        with pytest.raises(OracleTooLargeError):
            hilbert_data(ideal_of_tuple((1, 0, 0, 0, 0, 1)), 10**9)

    @given(ideals(), st.integers(0, 12))
    @example(MonomialIdeal.zero(), 3)
    @example(MonomialIdeal.unit(), 0)
    @example(MonomialIdeal.unit(), 4)
    @example(MonomialIdeal.of("a^9", "b^9", "c^9", "d^9"), 5)
    @example(MonomialIdeal.of("a^9*b", "c^2"), 7)
    def test_matches_brute_force_count(self, ideal, upto):
        try:
            expected = hilbert_reference(ideal, upto)
        except BoundTooSmallError:
            with pytest.raises(BoundTooSmallError):
                hilbert_data(ideal, upto)
            return
        got = hilbert_data(ideal, upto)
        assert (got.values, got.h_vector, got.degree) == expected
        assert all(type(v) is int for v in got.values + got.h_vector + (got.degree,))

    def test_ladder_matches_brute_force_count(self):
        # reg + 3 for the first two rungs of the Koszul ladder
        for t, upto in (((3, 3, 3, 1, 2, 4), 12), ((7, 5, 5, 2, 1, 6), 20)):
            got = hilbert_data(ideal_of_tuple(t), upto)
            assert (got.values, got.h_vector, got.degree) == hilbert_reference(
                ideal_of_tuple(t), upto
            )


class TestIdealEquality:
    @given(st.lists(monomials, min_size=1, max_size=8))
    def test_normalization_idempotent(self, gens):
        I = MonomialIdeal(tuple(gens))
        assert MonomialIdeal(I.generators) == I
        assert I + I == I

    @given(st.lists(monomials, min_size=1, max_size=8), monomials)
    def test_scaling_membership(self, gens, m):
        I = MonomialIdeal(tuple(gens))
        scaled = I.scaled(m)
        assert all(scaled.contains(m * g) for g in I.generators)
