import itertools
import math
import random

import numpy as np
import pytest

from tetracurves import groebner
from tetracurves.exceptions import DisagreementError, NotBorelFixedError, OracleTooLargeError
from tetracurves.gin import gin_acm, gin_buchsbaum_minimal, gin_of_curve, is_strongly_stable
from tetracurves.groebner import (
    DEFAULT_PRIMES,
    _row_echelon,
    _substituted,
    check_primes,
    gin_oracle,
    leading_monomials,
    random_invertible_matrix,
)
from tetracurves.koszul import betti_table_oracle
from tetracurves.monomials import Monomial, MonomialIdeal, ideal_of_tuple, monomials_of_degree
from tetracurves.tuples import TetTuple
from tetracurves.verify import iter_tuples

P = DEFAULT_PRIMES[0]
IDENTITY = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
# A change of coordinates under which the initial ideal of (2,1,0,0,0,1) is
# strongly stable up to its regularity 3, yet not the gin: it gains b^3*c.
DEGENERATE = [[1, 2, 0, 2], [0, 1, 0, 1], [1, 2, 1, 2], [1, 1, 2, 0]]


def columns(d):
    """Exponent vectors of the degree-d Macaulay-matrix columns."""
    return tuple(m.exps for m in monomials_of_degree(d))


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
    """Kernel leads of coefficient rows, each placed in the degree its length
    gives, as a stack of one."""
    degree_of = {len(columns(d)): d for d in range(top + 1)}
    by_degree = {}
    for row in rows:
        by_degree.setdefault(degree_of[len(row)], []).append(row)
    return leading_monomials({d: [rows] for d, rows in by_degree.items()}, top, [P])[0]


# Single-run reference kernel: one Macaulay matrix per degree, row-reduced on
# its own.  The stacked kernel must give every member these leads.


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
            for j, cols in enumerate(groebner._shifts(d - 1)):
                shifted[j][:, cols] = echelon
        fresh = polys.get(d, np.zeros((0, width), dtype=np.int64))
        echelon, pivots = reference_row_echelon(np.vstack([shifted.reshape(-1, width), fresh]), p)
        leads += [monomials_of_degree(d)[c] for c in pivots if c not in inherited]
        inherited = set(groebner._shifts(d)[:, pivots].ravel().tolist())
    return MonomialIdeal(tuple(leads))


def reference_random_invertible_matrix(seed, prime):
    """The matrix drawn from the same stream, kept when its numpy rank mod p is 4."""
    rng = random.Random(seed)
    while True:
        matrix = [[rng.randrange(prime) for _ in range(4)] for _ in range(4)]
        if len(reference_row_echelon(np.array(matrix, dtype=np.int64), prime)[1]) == 4:
            return matrix


def single_run_leads(ideal, matrices, primes, top):
    """Reference leads of each member, substituted and reduced on its own."""
    return [
        reference_leading_monomials({d: rows[0] for d, rows in _substituted(ideal, [m], [p]).items()}, top, p)
        for m, p in zip(matrices, primes)
    ]


class TestSubstitution:
    def test_identity_matrix_fixes_generators(self):
        I = ideal_of_tuple((1, 0, 0, 0, 0, 1))
        rows = _substituted(I, [IDENTITY], [P])
        assert list(rows) == [2]
        expected = [[1 if e == g.exps else 0 for e in columns(2)] for g in I.generators]
        assert rows[2].tolist() == [expected]

    def test_deterministic_in_seed(self):
        I = MonomialIdeal.of("a", "b")
        first = _substituted(I, [random_invertible_matrix(7, P)], [P])
        second = _substituted(I, [random_invertible_matrix(7, P)], [P])
        assert (first[1] == second[1]).all()

    def test_linear_forms_stay_linear(self):
        rows = _substituted(MonomialIdeal.of("a", "b"), [random_invertible_matrix(3, P)], [P])
        assert list(rows) == [1] and rows[1].shape == (1, 2, 4)

    def test_matrix_invertible_and_deterministic(self):
        m1 = random_invertible_matrix(11, P)
        m2 = random_invertible_matrix(11, P)
        assert m1 == m2
        assert determinant(m1) % P != 0
        assert _row_echelon(np.array([m1], dtype=np.int64), np.array([P]))[1] == [[0, 1, 2, 3]]

    def test_matrices_match_numpy_rank_check(self):
        # the determinant test keeps exactly the matrices the numpy rank check kept
        for seed in range(1, 51):
            for prime in DEFAULT_PRIMES:
                assert random_invertible_matrix(seed, prime) == reference_random_invertible_matrix(seed, prime)

    def test_members_keep_their_own_matrix_and_prime(self):
        I = ideal_of_tuple((2, 1, 0, 0, 0, 1))
        matrices = [random_invertible_matrix(s, p) for s in (1, 2) for p in DEFAULT_PRIMES]
        primes = [p for _ in (1, 2) for p in DEFAULT_PRIMES]
        stacked = _substituted(I, matrices, primes)
        for k, (m, p) in enumerate(zip(matrices, primes)):
            single = _substituted(I, [m], [p])
            assert list(single) == list(stacked)
            assert all((single[d][0] == stacked[d][k]).all() for d in stacked)

    def test_products_of_linear_forms(self):
        # (a + 2b)(a - b) = a^2 + a*b - 2b^2 under x_0 -> a + 2b, x_1 -> a - b
        matrix = [[1, 2, 0, 0], [1, P - 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rows = _substituted(MonomialIdeal.of("a*b"), [matrix], [P])
        expected = poly(((2, 0, 0, 0), 1), ((1, 1, 0, 0), 1), ((0, 2, 0, 0), -2))
        assert rows[2].tolist() == [[[c % P for c in expected]]]


class TestGroebnerBasis:
    """The kernel: leading monomials of the row-reduced Macaulay matrices,
    i.e. of a degrevlex Groebner basis truncated at the top degree."""

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
        I = ideal_of_tuple((2, 1, 0, 0, 0, 1))
        assert leading_monomials(_substituted(I, [IDENTITY], [P]), 6, [P]) == [I]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            leading_monomials({2: [[[0] * 10]]}, 3, [P])
        # a stack is refused when any one member has no non-zero polynomial
        with pytest.raises(ValueError):
            leading_monomials({2: [[[1] + [0] * 9], [[0] * 10]]}, 3, [P, P])


GIN_SUPPORTED = [t for t in iter_tuples(5) if gin_of_curve(t) is not None]
LADDER = [TetTuple((r, 0, r - 1, r - 1, 0, r)) for r in range(1, 5)]


class TestStackedKernel:
    """One elimination over a stack of (matrix, prime) runs gives every member
    the lead ideal of its own single-run elimination."""

    RUNS = [(s, p) for s in (1, 2) for p in DEFAULT_PRIMES]

    def test_matches_single_run_reference(self):
        matrices = [random_invertible_matrix(s, p) for s, p in self.RUNS]
        primes = [p for _, p in self.RUNS]
        for t in GIN_SUPPORTED + LADDER:
            I = ideal_of_tuple(t)
            top = betti_table_oracle(I).regularity
            got = leading_monomials(_substituted(I, matrices, primes), top, primes)
            assert got == single_run_leads(I, matrices, primes, top), t

    def test_mixed_stack_reaches_different_pivots(self):
        # degenerate, identity and generic coordinates in one stack: the members
        # reach different pivots and ranks, and each keeps its single-run leads
        q = DEFAULT_PRIMES[1]
        matrices = [DEGENERATE, IDENTITY, random_invertible_matrix(1, P), random_invertible_matrix(2, q)]
        primes = [P, q, P, q]
        for t in [t for t in GIN_SUPPORTED if t.total <= 4] + LADDER:
            I = ideal_of_tuple(t)
            top = betti_table_oracle(I).regularity
            got = leading_monomials(_substituted(I, matrices, primes), top, primes)
            assert got == single_run_leads(I, matrices, primes, top), t
        # (2,1,0,0,0,1) up to its regularity: three distinct leads in one stack
        got = leading_monomials(_substituted(ideal_of_tuple((2, 1, 0, 0, 0, 1)), matrices, primes), 3, primes)
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
        assert got == gin_acm(TetTuple((1, 2, 2, 2, 1, 2)))

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

    def test_rejects_unit(self):
        with pytest.raises(ValueError):
            gin_oracle(MonomialIdeal.of("1"))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gin_oracle(MonomialIdeal(()))


class TestOracleFailures:
    def test_disagreement(self, monkeypatch):
        I = ideal_of_tuple((2, 1, 0, 0, 0, 1))
        assert is_strongly_stable(leading_monomials(_substituted(I, [DEGENERATE], [P]), 3, [P])[0])
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
        real = groebner.betti_table_oracle

        class OneTooLow:
            def __init__(self, ideal):
                self.regularity = real(ideal).regularity - 1

        monkeypatch.setattr(groebner, "betti_table_oracle", OneTooLow)
        with pytest.raises(DisagreementError, match="Hilbert function in degree 6"):
            gin_oracle(ideal_of_tuple((3, 0, 0, 0, 0, 3)))

    def test_hilbert_check_catches_shared_degenerate_coordinates(self, monkeypatch):
        monkeypatch.setattr(groebner, "random_invertible_matrix", lambda seed, p: DEGENERATE)
        with pytest.raises(DisagreementError, match="Hilbert function in degree 4"):
            gin_oracle(ideal_of_tuple((2, 1, 0, 0, 0, 1)))


class TestOracleSize:
    @pytest.mark.parametrize("t", [(16,) * 6, (40, 0, 0, 0, 0, 40)])
    def test_huge_stack_refused_before_elimination(self, t, monkeypatch):
        # their int64 stacks alone would take 5.2 GiB and 4.7 GiB
        monkeypatch.setattr(groebner, "random_invertible_matrix", lambda seed, p: pytest.fail("drew a matrix"))
        with pytest.raises(OracleTooLargeError, match="Macaulay"):
            gin_oracle(ideal_of_tuple(t))

    def test_moderate_stack_accepted(self, monkeypatch):
        # a 91 MiB int64 stack passes the estimate and reaches the first draw
        class Drawn(Exception):
            pass

        def draw(seed, prime):
            raise Drawn

        monkeypatch.setattr(groebner, "random_invertible_matrix", draw)
        with pytest.raises(Drawn):
            gin_oracle(ideal_of_tuple((8,) * 6))
