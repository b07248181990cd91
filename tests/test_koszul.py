import itertools

import pytest
from hypothesis import example, given, strategies as st

from tetracurves.koszul import (
    BettiTable,
    SimplicialComplex4,
    betti_table_oracle,
    cached_betti_oracle,
    reduced_homology_ranks,
    upper_koszul,
)
from tetracurves.monomials import Monomial, MonomialIdeal, ideal_of_tuple

monomials = st.tuples(*[st.integers(0, 3)] * 4).map(Monomial)


def M(text):
    return Monomial.parse(text)


def koszul_reference(ideal):
    """Betti table from the upper Koszul complex of every multidegree in the
    box below the lcm of the generators: beta_{i, |m|} += rank H~_{i-1}."""
    top = [max(g.exps[v] for g in ideal.generators) for v in range(4)]
    table = {}
    for m in itertools.product(*(range(e + 1) for e in top)):
        for dim, rank in reduced_homology_ranks(upper_koszul(ideal, Monomial(m))).items():
            if rank:
                key = (dim + 1, sum(m))
                table[key] = table.get(key, 0) + rank
    return BettiTable.from_dict(table)


class TestSimplicialComplex:
    def test_downward_closure_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex4(frozenset({frozenset({0, 1})}))

    def test_from_faces_closes(self):
        K = SimplicialComplex4.from_faces([{0, 1}])
        assert frozenset() in K.faces
        assert frozenset({0}) in K.faces

    def test_void_vs_empty(self):
        void = SimplicialComplex4(frozenset())
        empty = SimplicialComplex4(frozenset({frozenset()}))
        assert void.is_void and not empty.is_void
        assert reduced_homology_ranks(void) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_homology_ranks(empty) == {-1: 1, 0: 0, 1: 0, 2: 0}


class TestHomology:
    def test_full_simplex_contractible(self):
        K = SimplicialComplex4.from_faces([{0, 1, 2, 3}])
        assert reduced_homology_ranks(K) == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_two_points(self):
        K = SimplicialComplex4.from_faces([{0}, {1}])
        assert reduced_homology_ranks(K) == {-1: 0, 0: 1, 1: 0, 2: 0}

    def test_circle(self):
        K = SimplicialComplex4.from_faces([{0, 1}, {1, 2}, {0, 2}])
        assert reduced_homology_ranks(K) == {-1: 0, 0: 0, 1: 1, 2: 0}

    def test_sphere(self):
        K = SimplicialComplex4.from_faces(
            [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}]
        )
        assert reduced_homology_ranks(K) == {-1: 0, 0: 0, 1: 0, 2: 1}


class TestUpperKoszul:
    def test_koszul_syzygy_of_two_variables(self):
        K = upper_koszul(MonomialIdeal.of("a", "b"), M("a*b"))
        assert K.faces == frozenset(
            {frozenset(), frozenset({0}), frozenset({1})}
        )
        assert reduced_homology_ranks(K)[0] == 1

    def test_generator_multidegree(self):
        K = upper_koszul(MonomialIdeal.of("a", "b"), M("a"))
        assert K.faces == frozenset({frozenset()})
        assert reduced_homology_ranks(K)[-1] == 1

    def test_ci_syzygy(self):
        K = upper_koszul(MonomialIdeal.of("a*b", "c*d"), M("a*b*c*d"))
        assert reduced_homology_ranks(K)[0] == 1

    def test_nonmember_is_void(self):
        assert upper_koszul(MonomialIdeal.of("a*b"), M("c")).is_void


class TestBettiTable:
    def test_accessors(self):
        table = BettiTable.from_dict({(0, 2): 4, (1, 3): 4, (2, 4): 1})
        assert table.projective_dimension == 2
        assert table.regularity == 2
        assert table.min_generator_degree == 2
        assert table.is_linear
        assert table.rank(1, 3) == 4 and table.rank(3, 9) == 0

    def test_not_linear(self):
        assert not BettiTable.from_dict({(0, 2): 2, (1, 4): 1}).is_linear
        assert not BettiTable.from_dict({(0, 2): 1, (0, 3): 1, (1, 4): 2}).is_linear

    def test_shift_and_add(self):
        table = BettiTable.from_dict({(0, 2): 1})
        assert table.shifted(3).as_dict() == {(0, 5): 1}
        total = table + BettiTable.from_dict({(0, 2): 2, (1, 4): 1})
        assert total.as_dict() == {(0, 2): 3, (1, 4): 1}

    def test_json_round_trip(self):
        table = BettiTable.from_dict({(0, 2): 4, (1, 3): 4, (2, 4): 1})
        assert BettiTable.from_json(table.to_json()) == table
        assert table.json_entries() == [[0, 2, 4], [1, 3, 4], [2, 4, 1]]

    def test_render(self):
        table = BettiTable.from_dict({(0, 2): 2, (1, 4): 1})
        assert table.render_resolution() == "0 -> R(-4) -> R(-2)^2 -> J -> 0"

    def test_drops_zero_ranks(self):
        assert BettiTable.from_dict({(0, 2): 1, (1, 3): 0}).entries == ((0, 2, 1),)


class TestBettiOracle:
    def test_line_ideal(self):
        assert betti_table_oracle(MonomialIdeal.of("a", "b")).as_dict() == {
            (0, 1): 2,
            (1, 2): 1,
        }

    def test_ci_power(self):
        got = betti_table_oracle(ideal_of_tuple((0, 2, 2, 2, 2, 0)))
        assert got.as_dict() == {(0, 4): 3, (1, 6): 2}

    def test_minimal_curve(self):
        got = betti_table_oracle(ideal_of_tuple((4, 1, 2, 1, 1, 5)))
        assert got.as_dict() == {(0, 9): 24, (1, 10): 37, (2, 11): 14}

    @given(st.lists(monomials, min_size=1, max_size=6))
    @example([M("a"), M("b"), M("c"), M("d")])
    @example([M("a^3*b"), M("c^2")])
    @example([M("a*b*c*d")])
    def test_matches_upper_koszul_reference(self, gens):
        I = MonomialIdeal(tuple(gens))
        if I.is_unit:
            return
        got = betti_table_oracle(I)
        assert got == koszul_reference(I)
        assert all(type(x) is int for entry in got.entries for x in entry)

    def test_tetrahedral_ideals_match_upper_koszul_reference(self):
        for t in ((1, 0, 0, 0, 0, 1), (2, 0, 1, 1, 0, 2), (3, 3, 3, 1, 2, 4), (2, 1, 1, 1, 0, 2)):
            I = ideal_of_tuple(t)
            assert betti_table_oracle(I) == koszul_reference(I), t

    def test_rejects_unit_and_zero(self):
        with pytest.raises(ValueError):
            betti_table_oracle(MonomialIdeal.unit())
        with pytest.raises(ValueError):
            betti_table_oracle(MonomialIdeal.zero())

    def test_cache_returns_same_table(self):
        I = ideal_of_tuple((1, 0, 0, 0, 0, 1))
        assert cached_betti_oracle(I) is cached_betti_oracle(I)

    @given(st.lists(monomials, min_size=1, max_size=5))
    def test_generator_row_counts_generators(self, gens):
        I = MonomialIdeal(tuple(gens))
        if I.is_unit or I.is_zero:
            return
        table = betti_table_oracle(I)
        by_degree = {}
        for g in I.generators:
            by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
        assert {j: r for i, j, r in table.entries if i == 0} == by_degree
