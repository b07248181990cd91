import itertools
import math
import random

import numpy as np
import pytest

from tetracurves import groebner
from tetracurves.exceptions import DisagreementError, NotBorelFixedError
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
from tetracurves.monomials import Monomial, MonomialIdeal, ideal_of_tuple, monomials_of_degree
from tetracurves.tuples import TetTuple

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
    """Kernel leads of coefficient rows, each placed in the degree its length gives."""
    degree_of = {len(columns(d)): d for d in range(top + 1)}
    by_degree = {}
    for row in rows:
        by_degree.setdefault(degree_of[len(row)], []).append(row)
    return leading_monomials(by_degree, top, P)


class TestSubstitution:
    def test_identity_matrix_fixes_generators(self):
        I = ideal_of_tuple((1, 0, 0, 0, 0, 1))
        rows = _substituted(I, IDENTITY, P)
        assert list(rows) == [2]
        expected = [[1 if e == g.exps else 0 for e in columns(2)] for g in I.generators]
        assert rows[2].tolist() == expected

    def test_deterministic_in_seed(self):
        I = MonomialIdeal.of("a", "b")
        first = _substituted(I, random_invertible_matrix(7, P), P)
        second = _substituted(I, random_invertible_matrix(7, P), P)
        assert (first[1] == second[1]).all()

    def test_linear_forms_stay_linear(self):
        rows = _substituted(MonomialIdeal.of("a", "b"), random_invertible_matrix(3, P), P)
        assert list(rows) == [1] and rows[1].shape == (2, 4)

    def test_matrix_invertible_and_deterministic(self):
        m1 = random_invertible_matrix(11, P)
        m2 = random_invertible_matrix(11, P)
        assert m1 == m2
        assert determinant(m1) % P != 0
        assert _row_echelon(np.array(m1, dtype=np.int64), P)[1] == [0, 1, 2, 3]

    def test_products_of_linear_forms(self):
        # (a + 2b)(a - b) = a^2 + a*b - 2b^2 under x_0 -> a + 2b, x_1 -> a - b
        matrix = [[1, 2, 0, 0], [1, P - 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rows = _substituted(MonomialIdeal.of("a*b"), matrix, P)
        expected = poly(((2, 0, 0, 0), 1), ((1, 1, 0, 0), 1), ((0, 2, 0, 0), -2))
        assert rows[2].tolist() == [[c % P for c in expected]]


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
        assert leading_monomials(_substituted(I, IDENTITY, P), 6, P) == I

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            leading_monomials({2: [[0] * 10]}, 3, P)


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
            gin_oracle(MonomialIdeal.unit())

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gin_oracle(MonomialIdeal.zero())


class TestOracleFailures:
    def test_disagreement(self, monkeypatch):
        I = ideal_of_tuple((2, 1, 0, 0, 0, 1))
        assert is_strongly_stable(leading_monomials(_substituted(I, DEGENERATE, P), 3, P))
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
        with pytest.raises(NotBorelFixedError):
            gin_oracle(ideal_of_tuple((1, 0, 0, 0, 0, 1)))
        assert tried == [1, 1 + 7919, 1 + 2 * 7919]

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
