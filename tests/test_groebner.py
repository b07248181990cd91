import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tetracurves import groebner
from tetracurves.exceptions import DisagreementError, NotBorelFixedError, OracleTooLargeError
from tetracurves.gin import gin_buchsbaum_minimal, gin_of_curve, is_strongly_stable
from tetracurves.groebner import (
    DEFAULT_PRIMES,
    _degree,
    _images,
    _read,
    _row_echelon,
    _staircase,
    check_primes,
    gin_oracle,
    random_invertible_matrix,
)
from tetracurves.koszul import betti_table_oracle
from tetracurves.monomials import Monomial, MonomialIdeal, exponent_box, ideal_of_tuple
from tetracurves.tuples import TetTuple
from tetracurves.verify import iter_tuples, monomials_of_degree, truncate

P = DEFAULT_PRIMES[0]
IDENTITY = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
# A change of coordinates under which the initial ideal of (2,1,0,0,0,1) is
# strongly stable up to its regularity 3, yet not the gin: it gains b^3*c.
DEGENERATE = [[1, 2, 0, 2], [0, 1, 0, 1], [1, 2, 1, 2], [1, 1, 2, 0]]


def columns(d):
    """Exponent vectors of the degree-d Macaulay-matrix columns."""
    return tuple(m.exps for m in monomials_of_degree(d))


def plane(d):
    """The columns of the hyperplane section in degree d: those free of d."""
    return columns(d)[: math.comb(d + 2, 2)]


def poly(*terms):
    """Coefficient row of a homogeneous polynomial given as (exps, coeff) pairs."""
    d = sum(terms[0][0])
    row = [0] * len(columns(d))
    for exps, coeff in terms:
        row[columns(d).index(exps)] += coeff
    return row


def determinant(m):
    """Leibniz formula over the integers."""
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(4))
    return total


def leads(rows, top):
    """Reference leads of coefficient rows, each placed in the degree its
    length gives."""
    degree_of = {len(columns(d)): d for d in range(top + 1)}
    by_degree = {}
    for row in rows:
        by_degree.setdefault(degree_of[len(row)], []).append(row)
    return reference_leading_monomials(by_degree, top, P)


# Single-run reference kernel: one Macaulay matrix per degree, holding the
# degree-d generators and the a, b, c, d shifts of the degree-(d-1) echelon
# rows, row-reduced on its own, in four variables.  In generic coordinates the
# oracle's kernel (the hyperplane section, every run and degree in one
# elimination) must give every run these leads.


@functools.lru_cache(maxsize=None)
def reference_shifts(d):
    """Row j maps each degree-d column to the degree-(d+1) column of x_j times it."""
    index = {m: k for k, m in enumerate(monomials_of_degree(d + 1))}
    return np.array([[index[m * Monomial.variable(j)] for m in monomials_of_degree(d)] for j in range(4)])


def reference_row_echelon(rows, p):
    """Row echelon form mod p of int64 rows with entries in [0, p), and its pivot columns."""
    rows = rows[rows.any(axis=1)]
    pivots = []
    while len(pivots) < len(rows):
        rank = len(pivots)
        nonzero = rows[rank:] != 0
        occupied = nonzero.any(axis=0)
        col = int(occupied.argmax())
        if not occupied[col]:
            break
        k = rank + int(nonzero[:, col].argmax())
        if k != rank:
            rows[[rank, k]] = rows[[k, rank]]
        pivot, below = rows[rank], rows[rank + 1 :]
        factor = below[:, col, None] * pivot
        below *= pivot[col]
        below -= factor
        below %= p
        pivots.append(col)
    return rows[: len(pivots)], pivots


def reference_leading_monomials(polys, top, p):
    """The degrevlex initial ideal up to degree `top` of one ideal over F_p,
    generated by {degree d: rows of coefficients over monomials_of_degree(d)}."""
    polys = {d: np.asarray(rows, dtype=np.int64) % p for d, rows in polys.items()}
    leads = []
    echelon, inherited = np.zeros((0, 0), dtype=np.int64), set()
    for d in range(min(polys), top + 1):
        width = len(columns(d))
        shifted = np.zeros((4, len(echelon), width), dtype=np.int64)
        if len(echelon):
            for j, cols in enumerate(reference_shifts(d - 1)):
                shifted[j][:, cols] = echelon
        fresh = polys.get(d, np.zeros((0, width), dtype=np.int64))
        echelon, pivots = reference_row_echelon(np.vstack([shifted.reshape(-1, width), fresh]), p)
        leads += [monomials_of_degree(d)[c] for c in pivots if c not in inherited]
        inherited = set(reference_shifts(d)[:, pivots].ravel().tolist())
    return MonomialIdeal(tuple(leads))


def reference_random_invertible_matrix(seed, prime):
    """The matrix drawn from the same stream, kept when its numpy rank mod p is 4."""
    rng = random.Random(seed)
    while True:
        matrix = [[rng.randrange(prime) for _ in range(4)] for _ in range(4)]
        if len(reference_row_echelon(np.array(matrix, dtype=np.int64), prime)[1]) == 4:
            return matrix


def reference_image(exps, matrix, p):
    """Coefficient row over monomials_of_degree(sum(exps)) of the product of
    the linear forms x_i -> sum_j matrix[i][j] x_j, multiplied out term by term."""
    poly = {(0, 0, 0, 0): 1}
    for i, e in enumerate(exps):
        for _ in range(e):
            product = {}
            for m, c in poly.items():
                for j in range(4):
                    shifted = tuple(x + (k == j) for k, x in enumerate(m))
                    product[shifted] = (product.get(shifted, 0) + c * matrix[i][j]) % p
            poly = product
    return [poly.get(m, 0) for m in columns(sum(exps))]


def generator_images(ideal, matrices, primes):
    """{degree d: stacked coefficient rows, on the hyperplane section, of the degree-d minimal generators}."""
    degrees = sorted({g.degree for g in ideal})
    return {d: _images([[g for g in ideal if g.degree == d]], d, matrices, primes) for d in degrees}


def four_variable_images(ideal, matrix, p):
    """{degree d: coefficient rows over monomials_of_degree(d) of the images of the degree-d minimal generators}."""
    degrees = sorted({g.degree for g in ideal})
    return {d: [reference_image(g, matrix, p) for g in ideal if g.degree == d] for d in degrees}


def kernel_leads(ideal, matrices, primes, top):
    """The oracle kernel's lead ideal of each run: the images of the
    staircase rows of each degree up to `top` on the hyperplane section, one
    stacked elimination, read degree by degree."""
    low = min(ideal.min_generator_degree, top)
    rows = _staircase(*exponent_box(ideal, bound=top + 1), top, low)[1]
    masks = _row_echelon(_images(rows, low, matrices, primes), np.repeat(primes, len(rows)))
    return [_read(mask, low)[0] for mask in masks.reshape(len(matrices), len(rows), -1)]


def single_run_leads(ideal, matrices, primes, top):
    """Reference leads of each run, reduced degree by degree on its own in four variables."""
    return [reference_leading_monomials(four_variable_images(ideal, m, p), top, p) for m, p in zip(matrices, primes)]


def section_leads(ideal, matrices, primes, top):
    """The reference leads less their generators divisible by d: the initial
    ideal of the hyperplane section, as in(J + (d)) = in(J) + (d) in revlex."""
    return [MonomialIdeal(tuple(g for g in lead if not g[3])) for lead in single_run_leads(ideal, matrices, primes, top)]


class TestSubstitution:
    def test_identity_matrix_fixes_generators(self):
        # on the hyperplane section d -> 0: a*c and b*c stay, a*d and b*d vanish
        I = ideal_of_tuple((1, 0, 0, 0, 0, 1))
        rows = generator_images(I, [IDENTITY], [P])
        assert list(rows) == [2]
        expected = [[1 if e == g.exps else 0 for e in plane(2)] for g in I.generators]
        assert rows[2].tolist() == [expected]
        assert [any(row) for row in expected] == [not g[3] for g in I.generators] == [True, True, False, False]

    def test_deterministic_in_seed(self):
        gens = [[(1, 0, 0, 0), (0, 1, 0, 0)]]
        first = _images(gens, 1, [random_invertible_matrix(7, P)], [P])
        second = _images(gens, 1, [random_invertible_matrix(7, P)], [P])
        assert (first == second).all()

    def test_linear_forms_stay_linear(self):
        rows = _images([[(1, 0, 0, 0), (0, 1, 0, 0)]], 1, [random_invertible_matrix(3, P)], [P])
        assert rows.shape == (1, 2, 3)

    def test_matrix_invertible_and_deterministic(self):
        m1 = random_invertible_matrix(11, P)
        m2 = random_invertible_matrix(11, P)
        assert m1 == m2
        assert determinant(m1) % P != 0
        assert _row_echelon(np.array([m1], dtype=np.int64), [P]).tolist() == [[True] * 4]

    def test_matrices_match_numpy_rank_check(self):
        # the determinant test keeps exactly the matrices the numpy rank check kept
        for seed in range(1, 51):
            for prime in DEFAULT_PRIMES:
                expected = reference_random_invertible_matrix(seed, prime)
                assert random_invertible_matrix(seed, prime) == tuple(map(tuple, expected))

    def test_matrix_drawn_once_per_seed_and_prime(self):
        random_invertible_matrix.cache_clear()
        for _ in range(3):
            gin_oracle(ideal_of_tuple((1, 0, 0, 0, 0, 1)))
        assert random_invertible_matrix.cache_info().misses == 4
        # the memo hands every caller the same matrix, so it must not be mutable
        assert isinstance(random_invertible_matrix(1, P), tuple)
        assert all(isinstance(row, tuple) for row in random_invertible_matrix(1, P))

    def test_members_keep_their_own_matrix_and_prime(self):
        I = ideal_of_tuple((2, 1, 0, 0, 0, 1))
        matrices = [random_invertible_matrix(s, p) for s in (1, 2) for p in DEFAULT_PRIMES]
        primes = [p for _ in (1, 2) for p in DEFAULT_PRIMES]
        stacked = generator_images(I, matrices, primes)
        for k, (m, p) in enumerate(zip(matrices, primes)):
            single = generator_images(I, [m], [p])
            assert list(single) == list(stacked)
            assert all((single[d][0] == stacked[d][k]).all() for d in stacked)

    def test_products_of_linear_forms(self):
        # (a + 2b)(a - b) = a^2 + a*b - 2b^2 under x_0 -> a + 2b, x_1 -> a - b
        matrix = [[1, 2, 0, 0], [1, P - 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rows = _images([[(1, 1, 0, 0)]], 2, [matrix], [P])
        expected = poly(((2, 0, 0, 0), 1), ((1, 1, 0, 0), 1), ((0, 2, 0, 0), -2))[: len(plane(2))]
        assert rows.tolist() == [[[c % P for c in expected]]]

    def test_images_match_term_by_term_products(self):
        # every monomial of degrees 3 to 5, each degree's rows injected at its
        # level of the ancestor tree, against the product multiplied out with
        # d -> 0, which keeps the coefficients of the d-free monomials
        matrices = [random_invertible_matrix(s, p) for s in (1, 2) for p in DEFAULT_PRIMES]
        primes = [p for _ in (1, 2) for p in DEFAULT_PRIMES]
        degrees = range(3, 6)
        stack = _images([list(monomials_of_degree(d)) for d in degrees], 3, matrices, primes)
        stack = stack.reshape(len(matrices), len(degrees), *stack.shape[1:])
        for k, (m, p) in enumerate(zip(matrices, primes)):
            section = [row[:3] + (0,) for row in m]
            for member, d in zip(stack[k], degrees):
                width, count = len(plane(d)), len(monomials_of_degree(d))
                expected = [reference_image(e, section, p)[:width] for e in monomials_of_degree(d)]
                assert member[:count, :width].tolist() == expected
                assert not member[count:].any() and not member[:, width:].any()

    @pytest.mark.parametrize("d", range(13))
    def test_degree_tables_match_monomial_lists(self, d):
        exps, shifts = _degree(d)
        assert list(map(tuple, exps.tolist())) == list(monomials_of_degree(d))
        assert (shifts == reference_shifts(d)).all()
        # the planar tables are their first C(d+2, 2) entries, listed on their own
        exps, shifts = _degree(d, planar=True)
        assert list(map(tuple, exps.tolist())) == list(plane(d))
        assert (shifts[:3] == reference_shifts(d)[:3, : len(plane(d))]).all()


class TestGroebnerBasis:
    """The reference kernel: leading monomials of the row-reduced Macaulay
    matrices, i.e. of a degrevlex Groebner basis truncated at the top degree."""

    def test_basis_is_descending_degrevlex(self):
        assert columns(2)[:4] == ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0))
        assert columns(2)[-1] == (0, 0, 0, 2)

    def test_lead_degrevlex(self):
        f = poly(((0, 0, 2, 0), 1), ((1, 1, 0, 0), 1))  # c^2 + ab
        assert leads([f], 2) == MonomialIdeal.of("a*b")

    def test_zero_coefficients_dropped(self):
        assert leads([poly(((1, 0, 0, 0), P), ((0, 1, 0, 0), 1))], 1) == MonomialIdeal.of("b")

    def test_already_reduced(self):
        assert leads([poly(((1, 0, 0, 0), 1)), poly(((0, 1, 0, 0), 1))], 3) == MonomialIdeal.of("a", "b")

    def test_linear_algebra(self):
        f = poly(((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1))
        g = poly(((1, 0, 0, 0), 1), ((0, 1, 0, 0), -1))
        assert leads([f, g], 1) == MonomialIdeal.of("a", "b")

    def test_coprime_leads_unchanged(self):
        f = poly(((2, 0, 0, 0), 1), ((0, 0, 1, 1), 1))  # a^2 + cd
        g = poly(((0, 0, 3, 0), 1), ((0, 0, 0, 3), 1))  # c^3 + d^3
        assert leads([f, g], 5) == MonomialIdeal.of("a^2", "c^3")

    def test_new_lead_from_higher_degree(self):
        # (ab - c^2, b^2): b*(ab - c^2) - a*b^2 = -b*c^2 adds b*c^2 in degree 3
        f = poly(((1, 1, 0, 0), 1), ((0, 0, 2, 0), -1))
        g = poly(((0, 2, 0, 0), 1))
        assert leads([f, g], 2) == MonomialIdeal.of("a*b", "b^2")
        assert leads([f, g], 4) == MonomialIdeal.of("a*b", "b^2", "b*c^2", "c^4")

    def test_matches_sympy_groebner(self):
        sympy = pytest.importorskip("sympy")
        a, b, c, d = sympy.symbols("a b c d")
        rng = random.Random(5)
        for _ in range(4):
            rows, exprs = [], []
            for degree in (2, 2, 3):
                row = [rng.randrange(P) if rng.random() < 0.4 else 0 for _ in columns(degree)]
                rows.append(row)
                exprs.append(sum(k * a**i * b**j * c**l * d**m for k, (i, j, l, m) in zip(row, columns(degree))))
            basis = sympy.groebner(exprs, a, b, c, d, order="grevlex", modulus=P)
            expected = MonomialIdeal(
                tuple(Monomial(sympy.Poly(g, a, b, c, d).monoms(order="grevlex")[0]) for g in basis.exprs)
            )
            assert leads(rows, max(g.degree for g in expected.generators)) == expected

    def test_monomial_input_round_trip(self):
        # the reference keeps the ideal; the kernel, on the hyperplane section
        # d -> 0, keeps its generators free of d
        I = ideal_of_tuple((2, 1, 0, 0, 0, 1))
        assert single_run_leads(I, [IDENTITY], [P], 6) == [I]
        assert kernel_leads(I, [IDENTITY], [P], 6) == [MonomialIdeal.of("a^2*c", "a*b*c", "b^2*c")]
        assert kernel_leads(I, [IDENTITY], [P], 6) == section_leads(I, [IDENTITY], [P], 6)

    def test_dependent_rows_take_no_pivot(self):
        # a zero member, and a member with a dependent row, in stacks with
        # full-rank members: no pivot for the zero rows, the others unchanged
        got = _row_echelon(np.array([[[1] + [0] * 9]], dtype=np.int64) * [[[1]], [[0]]], [P, P])
        assert got.tolist() == [[True] + [False] * 9, [False] * 10]
        got = _row_echelon(np.array([[[1, 2, 0], [2, 4, 0]], [[0, 1, 0], [1, 0, 0]]], dtype=np.int64), [P, P])
        assert got.tolist() == [[True, False, False], [True, True, False]]


GIN_SUPPORTED = [t for t in iter_tuples(5) if gin_of_curve(t) is not None]
LADDER = [TetTuple((r, 0, r - 1, r - 1, 0, r)) for r in range(1, 5)]


class TestStackedKernel:
    """One elimination in the top degree over a stack of (matrix, prime) runs,
    read down to the lower degrees, gives every member the lead ideal of its
    own degree-by-degree single-run elimination."""

    RUNS = [(s, p) for s in (1, 2) for p in DEFAULT_PRIMES]

    def test_matches_single_run_reference(self):
        matrices = [random_invertible_matrix(s, p) for s, p in self.RUNS]
        primes = [p for _, p in self.RUNS]
        for t in GIN_SUPPORTED + LADDER:
            I = ideal_of_tuple(t)
            top = betti_table_oracle(I).regularity
            assert kernel_leads(I, matrices, primes, top) == single_run_leads(I, matrices, primes, top), t

    def test_matches_single_run_reference_up_to_weight_6(self):
        # every tuple, not only those with a closed-form gin, in one run each
        for k, t in enumerate(t for t in iter_tuples(6) if t.total):
            I = ideal_of_tuple(t)
            top = betti_table_oracle(I).regularity
            matrix, p = random_invertible_matrix(k, DEFAULT_PRIMES[k % 2]), DEFAULT_PRIMES[k % 2]
            assert kernel_leads(I, [matrix], [p], top) == single_run_leads(I, [matrix], [p], top), t

    def test_mixed_stack_reaches_different_pivots(self):
        # degenerate, identity and generic coordinates in one stack: the members
        # reach different pivots, and each keeps the leads of its own section
        q = DEFAULT_PRIMES[1]
        matrices = [DEGENERATE, IDENTITY, random_invertible_matrix(1, P), random_invertible_matrix(2, q)]
        primes = [P, q, P, q]
        for t in [t for t in GIN_SUPPORTED if t.total <= 4] + LADDER:
            I = ideal_of_tuple(t)
            top = betti_table_oracle(I).regularity
            assert kernel_leads(I, matrices, primes, top) == section_leads(I, matrices, primes, top), t
        # (2,1,0,0,0,1) up to its regularity: three distinct leads in one stack
        got = kernel_leads(ideal_of_tuple((2, 1, 0, 0, 0, 1)), matrices, primes, 3)
        assert len(set(got)) == 3


class TestCheckPrimes:
    def test_accepts_defaults_and_large_primes(self):
        assert check_primes(DEFAULT_PRIMES) == DEFAULT_PRIMES
        assert check_primes([2**31 - 1, 16411]) == (2**31 - 1, 16411)

    @pytest.mark.parametrize(
        "primes",
        [(32003, 32003), (32003,), (32003, 31991, 40009), (1, 32003), (2, 32003),
         (32001, 32003), (16381, 32003), (32003, 2147483659), (32003, 32003.0)],
    )
    def test_rejects(self, primes):
        with pytest.raises(ValueError):
            check_primes(primes)

    def test_each_prime_is_proved_once(self):
        groebner._is_prime.cache_clear()
        for _ in range(3):
            check_primes(DEFAULT_PRIMES)
        assert groebner._is_prime.cache_info().misses == 2
        # a float equal to a proved prime is still refused
        with pytest.raises(ValueError):
            check_primes((float(DEFAULT_PRIMES[0]), DEFAULT_PRIMES[1]))

    def test_oracle_checks_primes(self):
        with pytest.raises(ValueError):
            gin_oracle(MonomialIdeal.of("a", "b"), primes=(32003, 32003))


class TestGinOracle:
    def test_linear_ideal(self):
        assert gin_oracle(MonomialIdeal.of("a", "b")) == MonomialIdeal.of("a", "b")

    def test_two_skew_lines(self):
        got = gin_oracle(ideal_of_tuple((1, 0, 0, 0, 0, 1)))
        assert got == MonomialIdeal.of("a^2", "a*b", "b^2", "a*c")

    def test_acm_worked_example(self):
        got = gin_oracle(ideal_of_tuple((1, 2, 2, 2, 1, 2)))
        assert got == MonomialIdeal.of("a^4", "a^3*b", "a^2*b^3", "a*b^4", "b^6")
        assert got == gin_of_curve(TetTuple((1, 2, 2, 2, 1, 2)))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_buchsbaum_recursion(self, r):
        got = gin_oracle(ideal_of_tuple((r, 0, r - 1, r - 1, 0, r)))
        assert got == gin_buchsbaum_minimal(r)

    def test_non_buchsbaum_minimal_curve_still_stable(self):
        # the combinatorial side has no answer here; the oracle still works
        got = gin_oracle(ideal_of_tuple((2, 0, 0, 0, 0, 2)))
        assert gin_of_curve(TetTuple((2, 0, 0, 0, 0, 2))) is None
        assert got == MonomialIdeal.of(
            "a^4", "a^3*b", "a^2*b^2", "a*b^3", "b^4", "a^3*c", "a^2*b*c", "a*b^2*c", "a^2*c^2"
        )

    @pytest.mark.parametrize("t, extra", [((3, 1, 0, 0, 0, 3), ()), ((3, 0, 0, 0, 0, 3), ("a^3*c^3",))])
    def test_pinned_gins_without_closed_form(self, t, extra):
        assert gin_of_curve(TetTuple(t)) is None
        expected = MonomialIdeal.of(
            "a^6", "a^5*b", "a^4*b^2", "a^3*b^3", "a^2*b^4", "a*b^5", "b^6",
            "a^5*c", "a^4*b*c", "a^3*b^2*c", "a^2*b^3*c", "a*b^4*c",
            "a^4*c^2", "a^3*b*c^2", "a^2*b^2*c^2", *extra,
        )
        assert gin_oracle(ideal_of_tuple(t)) == expected

    @given(st.lists(st.tuples(*[st.integers(0, 5)] * 4).map(Monomial), min_size=1, max_size=6))
    def test_regularity_cap_cuts_no_generator(self, gens):
        # the oracle reads reg and the Hilbert counts off one uncapped box:
        # capped at reg + 1 it is the same box
        I = MonomialIdeal(tuple(gens))
        assume(not I.is_unit)
        least, top = exponent_box(I)
        capped_least, capped_top = exponent_box(I, bound=betti_table_oracle(I).regularity + 1)
        assert np.array_equal(least, capped_least) and np.array_equal(top, capped_top)

    def test_rejects_unit(self):
        with pytest.raises(ValueError):
            gin_oracle(MonomialIdeal.of("1"))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gin_oracle(MonomialIdeal(()))


class TestOracleFailures:
    def test_disagreement(self, monkeypatch):
        I = ideal_of_tuple((2, 1, 0, 0, 0, 1))
        assert is_strongly_stable(kernel_leads(I, [DEGENERATE], [P], 3)[0])
        real = groebner.random_invertible_matrix
        monkeypatch.setattr(
            groebner, "random_invertible_matrix", lambda seed, p: DEGENERATE if seed == 1 else real(seed, p)
        )
        with pytest.raises(DisagreementError, match="disagree"):
            gin_oracle(I)

    def test_not_borel_fixed_after_reseeds(self, monkeypatch):
        tried = []

        def identity(seed, prime):
            tried.append(seed)
            return IDENTITY

        monkeypatch.setattr(groebner, "random_invertible_matrix", identity)
        with pytest.raises(NotBorelFixedError, match="seed 1, prime 32003"):
            gin_oracle(ideal_of_tuple((1, 0, 0, 0, 0, 1)))
        # every run is drawn at each attempt, in stacked order
        assert tried == [1, 1, 2, 2, 7920, 7920, 7921, 7921, 15839, 15839, 15840, 15840]

    def test_reseeds_only_the_unstable_runs(self, monkeypatch):
        I = ideal_of_tuple((1, 0, 0, 0, 0, 1))
        expected = gin_oracle(I)
        real, tried = groebner.random_invertible_matrix, []

        def identity_for_seed_1(seed, prime):
            tried.append((seed, prime))
            return IDENTITY if seed == 1 else real(seed, prime)

        monkeypatch.setattr(groebner, "random_invertible_matrix", identity_for_seed_1)
        assert gin_oracle(I) == expected
        # (a*c, a*d, b*c, b*d) is not strongly stable: both seed-1 runs, and only they, redraw
        assert tried == [(1, P), (1, 31991), (2, P), (2, 31991), (7920, P), (7920, 31991)]

    def test_stability_checked_once_per_distinct_lead(self, monkeypatch):
        real, checked = groebner.is_strongly_stable, []
        monkeypatch.setattr(groebner, "is_strongly_stable", lambda lead: checked.append(lead) or real(lead))
        gin_oracle(ideal_of_tuple((2, 1, 0, 0, 0, 1)))
        assert len(checked) == 1

    def test_hilbert_check_catches_low_top_degree(self, monkeypatch):
        real = groebner._box_betti_table

        class OneTooLow:
            def __init__(self, least, top):
                self.regularity = real(least, top).regularity - 1

        monkeypatch.setattr(groebner, "_box_betti_table", OneTooLow)
        with pytest.raises(DisagreementError, match="Hilbert function in degree 6"):
            gin_oracle(ideal_of_tuple((3, 0, 0, 0, 0, 3)))

    def test_hilbert_check_catches_shared_degenerate_coordinates(self, monkeypatch):
        monkeypatch.setattr(groebner, "random_invertible_matrix", lambda seed, p: DEGENERATE)
        with pytest.raises(DisagreementError, match="Hilbert function in degree 4"):
            gin_oracle(ideal_of_tuple((2, 1, 0, 0, 0, 1)))

    def test_count_check_catches_a_lower_degree(self, monkeypatch):
        # rows of the least degree, 4, that are all dependent: every run reads
        # the gin from degree 5 on, which is Borel-fixed, and the runs agree,
        # but degree 4 has no pivot where I_4 has two monomials
        real = groebner._images

        def dependent_low_degree(rows, low, matrices, primes):
            stack = real(rows, low, matrices, primes)
            stack.reshape(len(matrices), len(rows), *stack.shape[1:])[:, 0] = 0
            return stack

        monkeypatch.setattr(groebner, "_images", dependent_low_degree)
        with pytest.raises(DisagreementError, match="Hilbert function in degree 4$"):
            gin_oracle(ideal_of_tuple((1, 2, 2, 2, 1, 2)))

    def test_unsaturated_input_refused_up_front(self, monkeypatch):
        # I_(>=3) of two skew lines has no quadrics, but (I_3 : S_1)_2 has four
        monkeypatch.setattr(groebner, "random_invertible_matrix", lambda seed, p: pytest.fail("drew a matrix"))
        with pytest.raises(ValueError, match="saturated up to its regularity 3"):
            gin_oracle(truncate(ideal_of_tuple((1, 0, 0, 0, 0, 1)), 3))


class TestOracleSize:
    @pytest.mark.parametrize("t", [(16,) * 6, (40, 0, 0, 0, 0, 40), (300, 0, 0, 0, 0, 0)])
    def test_huge_stack_refused_before_elimination(self, t, monkeypatch):
        # estimates of 1.16, 1.25 and 3.06 GiB: the stacks and the largest image
        # layers, sized from counts before any monomial of the top degree is listed
        monkeypatch.setattr(groebner, "random_invertible_matrix", lambda seed, p: pytest.fail("drew a matrix"))
        monkeypatch.setattr(groebner, "_degree", lambda d, planar=False: pytest.fail("listed the monomials"))
        with pytest.raises(OracleTooLargeError, match="Macaulay"):
            gin_oracle(ideal_of_tuple(t))

    def test_moderate_stack_accepted(self, monkeypatch):
        # a 45 MiB estimate (29 MiB tracemalloc peak) passes and reaches the first draw
        class Drawn(Exception):
            pass

        def draw(seed, prime):
            raise Drawn

        monkeypatch.setattr(groebner, "random_invertible_matrix", draw)
        with pytest.raises(Drawn):
            gin_oracle(ideal_of_tuple((8,) * 6))
