import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tetracurves.koszul import (
    BettiTable,
    _complexes,
    betti_table_oracle,
    cached_betti_oracle,
    reduced_homology_ranks,
)
from tetracurves.monomials import Monomial, MonomialIdeal, ideal_of_tuple
from tetracurves.verify import iter_tuples

monomials = st.tuples(*[st.integers(0, 3)] * 4).map(Monomial)


def M(text):
    return Monomial.parse(text)


def from_faces(*faces):
    """Face mask of the complex generated by these vertex sets: every subset
    of a listed face is a face."""
    mask = 0
    for face in faces:
        bits = sum(1 << v for v in face)
        for s in range(16):
            if s & bits == s:
                mask |= 1 << s
    return mask


def upper_koszul(ideal, m):
    """Face mask of the upper Koszul complex K(I, m): bit s is set when the
    variables of s divide m and m / prod(s) lies in I."""
    mask = 0
    for s in range(16):
        quotient = tuple(e - (s >> v & 1) for v, e in enumerate(m.exps))
        if min(quotient) >= 0 and ideal.contains(Monomial(quotient)):
            mask |= 1 << s
    return mask


def koszul_reference(ideal):
    """Betti table from the upper Koszul complex of every multidegree in the
    box below the lcm of the generators: beta_{i, |m|} += rank H~_{i-1}."""
    top = [max(g.exps[v] for g in ideal.generators) for v in range(4)]
    table = {}
    for m in itertools.product(*(range(e + 1) for e in top)):
        for i, rank in enumerate(reduced_homology_ranks(upper_koszul(ideal, Monomial(m)))):
            if rank:
                table[(i, sum(m))] = table.get((i, sum(m)), 0) + rank
    return BettiTable.from_dict(table)


def exact_rank(rows):
    """Rank of an integer matrix by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / m[rank][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def homology_reference(mask):
    """Reduced homology ranks in dimensions -1..2 from the ranks of the
    simplicial boundary matrices: dim C_k - rank d_k - rank d_(k+1)."""
    by_dim = {k: [] for k in range(-2, 5)}
    for s in range(16):
        if mask >> s & 1:
            by_dim[bin(s).count("1") - 1].append(tuple(v for v in range(4) if s >> v & 1))

    def boundary_rank(k):
        lower = {face: j for j, face in enumerate(by_dim[k - 1])}
        rows = []
        for face in by_dim[k]:
            row = [0] * len(lower)
            for j in range(len(face)):
                row[lower[face[:j] + face[j + 1 :]]] = (-1) ** j
            rows.append(row)
        return exact_rank(rows) if lower else 0

    return tuple(len(by_dim[k]) - boundary_rank(k) - boundary_rank(k + 1) for k in range(-1, 3))


def downward_closed_masks():
    """Every simplicial complex on {a,b,c,d}, the void one included."""
    return [
        mask
        for mask in range(1 << 16)
        if all(mask >> (s & ~(1 << v)) & 1 for s in range(16) if mask >> s & 1 for v in range(4))
    ]


class TestSimplicialComplex:
    def test_from_faces_closes(self):
        # faces {}, {a}, {b}, {a,b}: the subsets 0, 1, 2, 3
        assert from_faces({0, 1}) == 0b1111

    def test_void_vs_empty(self):
        assert reduced_homology_ranks(0) == (0, 0, 0, 0)
        assert reduced_homology_ranks(from_faces(set())) == (1, 0, 0, 0)


class TestHomology:
    def test_full_simplex_contractible(self):
        assert reduced_homology_ranks(from_faces({0, 1, 2, 3})) == (0, 0, 0, 0)

    def test_two_points(self):
        assert reduced_homology_ranks(from_faces({0}, {1})) == (0, 1, 0, 0)

    def test_circle(self):
        assert reduced_homology_ranks(from_faces({0, 1}, {1, 2}, {0, 2})) == (0, 0, 1, 0)

    def test_sphere(self):
        K = from_faces({0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3})
        assert reduced_homology_ranks(K) == (0, 0, 0, 1)

    def test_matches_boundary_matrix_reference_on_every_complex(self):
        masks = downward_closed_masks()
        assert len(masks) == 168  # the Dedekind number M(4)
        for mask in masks:
            assert reduced_homology_ranks(mask) == homology_reference(mask), bin(mask)

    @pytest.mark.parametrize("mask", [
        sum(1 << s for s in (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b111)),  # abc without the edge bc
        1 << 0b0011,  # the edge ab alone, without its vertices or the empty face
        1 << 16,
        -1,
    ])
    def test_rejects_masks_that_are_not_complexes(self, mask):
        with pytest.raises(ValueError, match="not a simplicial complex"):
            reduced_homology_ranks(mask)

    def test_table_lists_every_complex_with_its_reference_ranks(self):
        number, ranks = _complexes()
        masks = np.flatnonzero(number >= 0).tolist()
        assert masks == downward_closed_masks()
        assert number[masks].tolist() == list(range(len(masks)))
        assert [tuple(row) for row in ranks.tolist()] == [homology_reference(m) for m in masks]


class TestUpperKoszul:
    def test_koszul_syzygy_of_two_variables(self):
        K = upper_koszul(MonomialIdeal.of("a", "b"), M("a*b"))
        assert K == from_faces({0}, {1})
        assert reduced_homology_ranks(K)[1] == 1

    def test_generator_multidegree(self):
        K = upper_koszul(MonomialIdeal.of("a", "b"), M("a"))
        assert K == from_faces(set())
        assert reduced_homology_ranks(K)[0] == 1

    def test_ci_syzygy(self):
        K = upper_koszul(MonomialIdeal.of("a*b", "c*d"), M("a*b*c*d"))
        assert reduced_homology_ranks(K)[1] == 1

    def test_nonmember_is_void(self):
        assert upper_koszul(MonomialIdeal.of("a*b"), M("c")) == 0


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

    def test_add(self):
        total = BettiTable.from_dict({(0, 2): 1}) + BettiTable.from_dict({(0, 2): 2, (1, 4): 1})
        assert total.as_dict() == {(0, 2): 3, (1, 4): 1}

    def test_json_round_trip(self):
        table = BettiTable.from_dict({(0, 2): 4, (1, 3): 4, (2, 4): 1})
        assert table.json_entries() == [[0, 2, 4], [1, 3, 4], [2, 4, 1]]
        assert BettiTable.from_dict({(i, j): r for i, j, r in table.json_entries()}) == table

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
        # every tuple of weight <= 5 (about 1 s), then three heavier ones
        heavier = ((2, 0, 1, 1, 0, 2), (3, 3, 3, 1, 2, 4), (2, 1, 1, 1, 0, 2))
        for t in [*(t for t in iter_tuples(5) if t.total), *heavier]:
            I = ideal_of_tuple(t)
            assert betti_table_oracle(I) == koszul_reference(I), t

    def test_rejects_unit_and_zero(self):
        with pytest.raises(ValueError):
            betti_table_oracle(MonomialIdeal.of("1"))
        with pytest.raises(ValueError):
            betti_table_oracle(MonomialIdeal(()))

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
