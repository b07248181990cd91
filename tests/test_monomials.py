import copy
import functools
import itertools
import math
import operator
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tetracurves.exceptions import (
    BoundTooSmallError,
    FNotInIdealError,
    GDividesFError,
    OracleTooLargeError,
)
from tetracurves import monomials as monomials_module
from tetracurves.gin import _buchsbaum_generators, gin_of_curve
from tetracurves.koszul import betti_table_oracle, cached_betti_oracle
from tetracurves.monomials import (
    HilbertData,
    Monomial,
    MonomialIdeal,
    display_key,
    exponent_box,
    hilbert_data,
    ideal_of_tuple,
    minimalize,
    variable_index,
)
from tetracurves.tuples import EDGES, TetTuple, degree_of_tuple, regularity_closed_form
from tetracurves.verify import basic_double_link, component_ideal, iter_tuples, monomials_of_degree, truncate

monomials = st.tuples(*[st.integers(0, 4)] * 4).map(Monomial)

KOSZUL_LADDER = (
    (3, 3, 3, 1, 2, 4),
    (7, 5, 5, 2, 1, 6),
    (10, 9, 8, 4, 4, 10),
    (20, 18, 17, 9, 8, 20),
)


def lcm(u, v):
    return Monomial(tuple(map(max, u.exps, v.exps)))


def pairwise_minimalize(ms):
    """Test-only copy of the former small-input path: each monomial in
    `display_key` order is kept unless a kept one divides it."""
    kept = []
    for m in sorted(set(ms), key=display_key):
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return kept


def edge_power_ideal(edge, n):
    """(x, y)^n for the two variables of an edge: generated by x^i y^(n-i)."""
    x, y = edge
    gens = []
    for i in range(n + 1):
        e = [0, 0, 0, 0]
        e[x], e[y] = i, n - i
        gens.append(Monomial(tuple(e)))
    return MonomialIdeal(tuple(gens))


def intersection_reference(t):
    """The tetrahedral ideal by intersecting the powers of the edge ideals;
    two monomial ideals meet in the ideal of their generators' pairwise lcms."""
    ideal = MonomialIdeal.of("1")
    for edge, a in zip(EDGES, t):
        if a > 0:
            power = edge_power_ideal(edge, a)
            ideal = MonomialIdeal(tuple(lcm(u, v) for u in ideal.generators for v in power.generators))
    return ideal


def component_reference(ideal, d):
    """(I_d) by testing every degree-d monomial for membership."""
    return MonomialIdeal(tuple(m for m in monomials_of_degree(d) if ideal.contains(m)))


def truncate_reference(ideal, d, piece):
    """I_{>=d} from the reference piece (I_d) and I's generators of higher degree."""
    return MonomialIdeal(tuple(g for g in ideal.generators if g.degree > d) + piece.generators)


@functools.lru_cache(maxsize=4096)
def series_numerator(gens):
    """K with sum_d dim (R/I)_d t^d = K(t) / (1 - t)^4, as coefficients, for
    the ideal of these exponent vectors, by HS(R/(J + (m))) = HS(R/J) -
    t^deg(m) HS(R/(J : m)) on the last generator m."""
    if not gens:
        return (1,)
    *rest, m = gens
    colon = {tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest}
    colon = tuple(sorted(g for g in colon if not any(h != g and all(map(operator.le, h, g)) for h in colon)))
    out = dict(enumerate(series_numerator(tuple(rest))))
    for j, c in enumerate(series_numerator(colon)):
        out[j + sum(m)] = out.get(j + sum(m), 0) - c
    return tuple(out.get(j, 0) for j in range(max((j for j, c in out.items() if c), default=-1) + 1))


def hilbert_reference(ideal, upto):
    """Hilbert data by testing every monomial of degree <= upto for membership.

    The bound must fix the answer: h_d = 0 for every d >= upto.  When no
    generator has an exponent above upto, the values go on, read off the
    series, to the degree sum of the generators' lcm plus two, past which h
    is zero on a quotient of dimension <= 2 and never zero on another;
    otherwise only h_upto is read."""
    values = [
        sum(not ideal.contains(m) for m in monomials_of_degree(d)) for d in range(upto + 1)
    ]
    gens = [g.exps for g in ideal.generators]
    if all(e <= upto for g in gens for e in g):
        lcm_sum = sum(max((g[k] for g in gens), default=0) for k in range(4))
        numerator = series_numerator(tuple(sorted(gens)))
        values += [
            sum(c * math.comb(d - j + 3, 3) for j, c in enumerate(numerator) if j <= d)
            for d in range(upto + 1, lcm_sum + 3)
        ]
    first = [v - u for u, v in zip([0] + values, values)]
    h = [v - u for u, v in zip([0] + first, first)]
    if upto < 1 or any(h[upto:]):
        raise BoundTooSmallError("not stabilized")
    while h and h[-1] == 0:
        h.pop()
    return tuple(values[: upto + 1]), tuple(h), first[upto]


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
        assert M("1") == Monomial((0, 0, 0, 0))
        assert str(Monomial((0, 0, 0, 0))) == "1"
        assert M("b^2").exps == (0, 2, 0, 0)

    def test_arith(self):
        assert M("a*b") * M("b*c") == M("a*b^2*c")

    def test_divides(self):
        assert M("a*b").divides(M("a^2*b"))
        assert not M("a*b").divides(M("a*c"))

    @given(monomials, monomials)
    def test_lcm_divisible(self, u, v):
        # the intersection reference's lcm
        assert lcm(M("a"), M("b")) == M("a*b")
        assert u.divides(lcm(u, v)) and v.divides(lcm(u, v))

    @given(monomials)
    def test_parse_round_trip(self, m):
        assert Monomial.parse(str(m)) == m

    @pytest.mark.parametrize(
        "read, bad",
        [
            (Monomial.parse, "ab"),
            (Monomial.parse, "b*"),
            (Monomial.parse, "*"),
            (Monomial.parse, "cd^2"),
            (variable_index, "bc"),
            (variable_index, ""),
            (variable_index, True),
            (variable_index, False),
            (variable_index, 4),
            (variable_index, -1),
            (lambda g: basic_double_link(MonomialIdeal.of("1"), g, Monomial.parse("a")), "bc"),
        ],
    )
    def test_bad_variable_raises(self, read, bad):
        # a substring of "abcd" or a bool is not a variable
        with pytest.raises(ValueError):
            read(bad)

    @pytest.mark.parametrize(
        "build",
        [Monomial, lambda e: ideal_of_tuple((*e, 0, 1)), lambda e: MonomialIdeal([(1, 0, 0, 0), e])],
        ids=["Monomial", "ideal_of_tuple", "MonomialIdeal"],
    )
    @pytest.mark.parametrize(
        "entries",
        [(1.5, 0, 0, 0), (True, 0, 0, 0), (0, -1, 0, 0), (1, 0, 0), (1, 0, 0, 0, 0), (None, 0, 0, 0)],
        ids=["float", "bool", "negative", "short", "long", "None"],
    )
    def test_rejects_bad_entries(self, build, entries):
        # a float or a bool used to pass as an exponent (a^1.5, or a for True)
        with pytest.raises(ValueError):
            build(entries)

    def test_list_of_exponents_is_the_tuple(self):
        # a Monomial over a list printed, but did not hash
        m = Monomial([1, 2, 3, 4])
        assert m == (1, 2, 3, 4) and hash(m) == hash((1, 2, 3, 4))
        assert MonomialIdeal((Monomial([1, 0, 0, 0]),)) == MonomialIdeal.of("a")

    @pytest.mark.parametrize(
        "gens", [((1, 0, 0, 0), (0, 1, 0, 0)), ([1, 0, 0, 0], [0, 1, 0, 0])], ids=["tuples", "lists"]
    )
    def test_ideal_wraps_plain_generators(self, gens):
        # plain generators used to be kept as they were, and `in` then ended in an AttributeError
        I = MonomialIdeal(gens)
        assert all(type(g) is Monomial for g in I)
        assert Monomial((1, 1, 0, 0)) in I and Monomial((0, 0, 1, 1)) not in I
        assert I == MonomialIdeal.of("a", "b")


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

    def test_large_antichain_minimalizes_in_bounded_memory(self):
        # 15,000 monomials of one degree in one (c, d) group; a pairwise
        # comparison of them would need about 1 GiB
        ms = [Monomial((k, 15_000 - k, 0, 0)) for k in range(15_000)]
        tracemalloc.start()
        try:
            assert minimalize(ms) == sorted(ms, key=display_key)
            assert tracemalloc.get_traced_memory()[1] < 2**22
        finally:
            tracemalloc.stop()

    def test_bulk_path_matches_small_path(self):
        import itertools

        ms = [Monomial(e) for e in itertools.product(range(4), repeat=4)]
        small = minimalize(ms[:50])
        assert set(minimalize(ms)) <= set(ms)
        assert minimalize(small) == small

    @given(st.lists(monomials, max_size=40), st.data())
    def test_matches_pairwise_with_duplicates(self, ms, data):
        ms = ms + (data.draw(st.lists(st.sampled_from(ms), max_size=10)) if ms else [])
        assert minimalize(ms) == pairwise_minimalize(ms)

    @pytest.mark.parametrize("d", [0, 1, 5, 12])
    def test_matches_pairwise_on_single_degree_antichains(self, d):
        ms = monomials_of_degree(d)
        assert minimalize(ms) == pairwise_minimalize(ms) == list(ms)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 7), st.integers(0, 7)).map(Monomial),
                    max_size=60))
    def test_matches_pairwise_over_many_groups(self, ms):
        assert minimalize(ms) == pairwise_minimalize(ms)

    def test_matches_pairwise_on_groups_that_divide_each_other(self):
        # (c, d) groups in a chain and an antichain, each with an (a, b) staircase
        ms = [Monomial((i, 6 - i, c, d)) for i in range(7) for c in range(4) for d in range(4)]
        ms += [Monomial((1, 1, i, 9 - i)) for i in range(10)]
        assert minimalize(ms) == pairwise_minimalize(ms)

    @pytest.mark.parametrize("r", [1, 2, 5, 12, 100, 1000])
    def test_matches_pairwise_on_buchsbaum_generators(self, r):
        gens = _buchsbaum_generators(r)
        assert minimalize(gens) == pairwise_minimalize(gens)

    def test_matches_pairwise_on_raw_gin_generators(self, monkeypatch):
        # every generator list gin_of_curve minimalizes, up to weight 8
        raw = []
        monkeypatch.setattr(monomials_module, "minimalize", lambda ms: raw.append(list(ms)) or minimalize(raw[-1]))
        for t in iter_tuples(8):
            gin_of_curve(t)
        assert len(raw) > 1000
        for gens in raw:
            assert minimalize(gens) == pairwise_minimalize(gens), gens


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


class TestExponentBox:
    def test_carried_box_is_the_box_of_the_generators(self):
        # every tuple of weight <= 8 and 200 seeded tuples with entries up to
        # 25, uncapped and at every cap from 0 to one past the lcm's largest entry
        rng = random.Random(20261021)
        seeded = (TetTuple(rng.randint(0, 25) for _ in range(6)) for _ in range(200))
        for t in itertools.chain(iter_tuples(8), seeded):
            ideal = ideal_of_tuple(t)
            plain = MonomialIdeal._from_minimal(tuple(ideal))
            assert (ideal, hash(ideal), repr(ideal)) == (plain, hash(plain), repr(plain))
            lcm = exponent_box(plain)[1]
            for bound in (None, *range(int(lcm.max()) + 2)):
                least, top = exponent_box(ideal, bound)
                expected_least, expected_top = exponent_box(plain, bound)
                assert top.tolist() == expected_top.tolist(), (t, bound)
                assert np.array_equal(least, expected_least), (t, bound)

    def test_carried_arrays_are_read_only(self):
        least, top = exponent_box(ideal_of_tuple((7, 5, 5, 2, 1, 6)))
        with pytest.raises(ValueError):
            least[0, 0, 0] = 0
        with pytest.raises(ValueError):
            top[3] = 0

    @pytest.mark.parametrize("copier", [lambda I: pickle.loads(pickle.dumps(I)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_copies_hold_only_the_generators(self, copier):
        # a copy that carried the box carried a writable one: zeros written
        # into it changed the Koszul oracle's table of the copy
        ideal = ideal_of_tuple((2, 1, 0, 0, 0, 1))
        copied = copier(ideal)
        assert type(copied) is MonomialIdeal and copied == ideal
        exponent_box(copied)[0][...] = 0
        assert betti_table_oracle(copied) == betti_table_oracle(ideal)

    def test_huge_box_is_typed_error(self, capped_python):
        # a 7.47 GiB least array ran out of memory before the oracles' guards
        for call in ("koszul.betti_table_oracle", "groebner.gin_oracle"):
            done = capped_python("from tetracurves import groebner, koszul; "
                                 "from tetracurves.monomials import MonomialIdeal; "
                                 f"{call}(MonomialIdeal.of('a*b', 'a*c', 'b*c', 'a^1000', 'b^1000', 'c^1000'))")
            assert "OracleTooLargeError: the exponent box [1001, 1001, 1001] needs" in done.stderr, call


class TestContains:
    def test_in_is_ideal_membership(self):
        # a tuple's `in` would ask whether a^2 is one of the generators
        assert Monomial.parse("a^2") in MonomialIdeal.of("a")
        assert Monomial.parse("b") not in MonomialIdeal.of("a")

    def test_examples(self):
        I = MonomialIdeal.of("a*b", "c*d")
        assert I.contains(M("a^2*b"))
        assert not I.contains(M("a*c"))
        assert ideal_of_tuple((0, 1, 1, 1, 1, 0)).contains(M("a*b*c*d"))


class TestBasicDoubleLink:
    def test_line_from_trivial(self):
        assert basic_double_link(MonomialIdeal.of("1"), "a", M("b")) == MonomialIdeal.of("a", "b")

    def test_from_worked_chain(self):
        assert basic_double_link(MonomialIdeal.of("1"), "c", M("b*d")) == MonomialIdeal.of(
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


class TestMonomialsOfDegree:
    def test_every_monomial_once_in_display_order(self):
        for d in range(8):
            expected = sorted(
                (Monomial(e) for e in itertools.product(range(d + 1), repeat=4) if sum(e) == d), key=display_key
            )
            assert list(monomials_of_degree(d)) == expected


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

    def test_zero_ideal(self):
        # the zero ideal's box has least = 1 at its one point, so the d axis must be clipped too
        for d in range(4):
            assert component_ideal(MonomialIdeal(()), d).is_zero
            assert truncate(MonomialIdeal(()), d).is_zero

    def test_unit_ideal(self):
        for d in range(4):
            assert component_ideal(MonomialIdeal.of("1"), d) == MonomialIdeal(monomials_of_degree(d))
            assert truncate(MonomialIdeal.of("1"), d) == MonomialIdeal(monomials_of_degree(d))

    def test_lcm_below_d_on_an_axis(self):
        I = MonomialIdeal.of("a*b", "c^2", "a^3*d")
        for d in range(7):
            piece = component_reference(I, d)
            assert component_ideal(I, d) == piece, d
            assert truncate(I, d) == truncate_reference(I, d, piece), d

    def test_matches_contains_reference_up_to_weight_6(self):
        for t in iter_tuples(6):
            ideal = ideal_of_tuple(t)
            for d in range(cached_betti_oracle(ideal).regularity + 2):
                piece = component_reference(ideal, d)
                assert component_ideal(ideal, d) == piece, (t, d)
                assert truncate(ideal, d) == truncate_reference(ideal, d, piece), (t, d)

    @given(st.lists(monomials, max_size=6), st.integers(0, 6))
    def test_matches_contains_reference(self, gens, d):
        I = MonomialIdeal(tuple(gens))
        piece = component_reference(I, d)
        assert component_ideal(I, d) == piece
        assert truncate(I, d) == truncate_reference(I, d, piece)


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
        data = hilbert_data(MonomialIdeal.of("1"), 2)
        assert data.values == (0, 0, 0)
        assert data.degree == 0
        assert data.h_vector == ()

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmallError):
            hilbert_data(MonomialIdeal(()), 6)
        with pytest.raises(BoundTooSmallError):
            hilbert_data(MonomialIdeal.of("a", "b"), 0)

    def test_refusal_names_the_ideal_briefly(self):
        # the message listed all 961 generators, 18,245 characters
        with pytest.raises(BoundTooSmallError, match="not stabilized by degree 20") as exc:
            hilbert_data(ideal_of_tuple((30, 0, 0, 0, 0, 30)), 20)
        assert "961 generators, the largest of degree 60," in str(exc.value)
        assert len(str(exc.value)) < 120

    def test_huge_bound_is_typed_error(self):
        # the lists of values alone would take about 61 GiB
        with pytest.raises(OracleTooLargeError):
            hilbert_data(ideal_of_tuple((1, 0, 0, 0, 0, 1)), 10**9)

    @given(ideals(), st.integers(0, 12))
    @example(MonomialIdeal(()), 3)
    @example(MonomialIdeal.of("1"), 0)
    @example(MonomialIdeal.of("1"), 4)
    @example(MonomialIdeal.of("a^9", "b^9", "c^9", "d^9"), 5)
    @example(MonomialIdeal.of("a^9*b", "c^2"), 7)
    @example(ideal_of_tuple((0, 0, 3, 1, 1, 2)), 4)  # h = (1, 2, 3, 4, 0, 1)
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

    def test_zero_inside_the_h_vector_is_refused(self):
        # h = (1, 2, 3, 4, 0, 1): equal first differences at 3 and 4 read
        # as degree 10 before; the degree is 11
        ideal = ideal_of_tuple((0, 0, 3, 1, 1, 2))
        with pytest.raises(BoundTooSmallError, match="not stabilized by degree 4"):
            hilbert_data(ideal, 4)
        data = hilbert_data(ideal, 8)
        assert (data.h_vector, data.degree) == ((1, 2, 3, 4, 0, 1), 11)

    def test_every_answer_up_to_reg_plus_3_is_fixed_up_to_weight_8(self):
        # each answer is a refusal or the answer at a bound past every exponent
        for t in iter_tuples(8):
            ideal = ideal_of_tuple(t)
            reg = regularity_closed_form(t)
            full = hilbert_data(ideal, reg + 8)
            assert full.degree == degree_of_tuple(t), t
            for upto in range(1, reg + 4):
                try:
                    got = hilbert_data(ideal, upto)
                except BoundTooSmallError:
                    continue
                assert got == HilbertData(full.values[: upto + 1], full.h_vector, full.degree), (t, upto)

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
