"""Reverse-lexicographic generic initial ideals of tetrahedral curves.

In characteristic zero the gin is strongly stable, and its graded Betti
numbers follow from the Eliahou-Kervaire resolution.  For ACM curves the
gin lives in the two variables a, b and is the unique lex ideal whose
artinian quotient realizes the curve's h-vector.  For non-ACM curves the
gin transforms along a maximal-weight basic double link as
gin(J) = a*gin(I) + (b^e) with e the maximal facet weight of J, so it is
determined by the gin of the minimal curve of the class; that minimal gin
is known when the minimal curve is arithmetically Buchsbaum, i.e. of shape
(r, 0, r-1, r-1, 0, r) up to symmetry, where an explicit recursion applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exceptions import NotACMError, NotStableError, TrivialCurveError
from .koszul import BettiTable
from .monomials import Monomial, MonomialIdeal, hilbert_data, ideal_of_tuple
from .tuples import (
    TetTuple,
    buchsbaum_minimal_r,
    reduction_trace,
    regularity_closed_form,
)


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Closed under swapping any variable of a generator for an earlier one
    (order a > b > c > d)."""
    for u in ideal.generators:
        for k in range(1, 4):
            if u.exps[k] == 0:
                continue
            for j in range(k):
                swapped = list(u.exps)
                swapped[k] -= 1
                swapped[j] += 1
                if not ideal.contains(Monomial(tuple(swapped))):
                    return False
    return True


@dataclass(frozen=True, eq=False)
class StableIdeal(MonomialIdeal):
    """A strongly stable (Borel-fixed) monomial ideal."""

    def __post_init__(self):
        super().__post_init__()
        if not is_strongly_stable(self):
            raise NotStableError(f"{MonomialIdeal(self.generators)} is not strongly stable")


def max_variable_index(m: Monomial) -> int:
    """Position (a=1, ..., d=4) of the last variable dividing m."""
    return max(i + 1 for i, e in enumerate(m.exps) if e > 0)


def ek_betti(stable: StableIdeal) -> BettiTable:
    """Eliahou-Kervaire Betti numbers of a strongly stable ideal:
    beta_{i, deg(u)+i} += C(max_index(u) - 1, i) over minimal generators u."""
    if not isinstance(stable, StableIdeal):
        stable = StableIdeal(stable.generators)
    table: dict[tuple[int, int], int] = {}
    for u in stable.generators:
        top = max_variable_index(u) - 1
        for i in range(top + 1):
            key = (i, u.degree + i)
            table[key] = table.get(key, 0) + comb(top, i)
    return BettiTable.from_dict(table)


def gin_acm(t: TetTuple) -> StableIdeal:
    """gin of an ACM curve: the lex ideal in a, b whose artinian quotient
    has the curve's h-vector; in each degree d it spans the first
    d+1-h_d monomials of k[a,b]_d in lex order."""
    if t.is_trivial:
        raise TrivialCurveError("gin is undefined for the trivial curve")
    if not reduction_trace(t).is_acm:
        raise NotACMError(f"({t}) is not arithmetically Cohen-Macaulay")
    data = hilbert_data(ideal_of_tuple(t), regularity_closed_form(t) + 3)
    h = data.h_vector
    gens = []
    for d in range(len(h) + 1):
        h_d = h[d] if d < len(h) else 0
        for i in range(d + 1 - h_d):
            gens.append(Monomial((d - i, i, 0, 0)))
    return StableIdeal(tuple(gens))


def gin_buchsbaum_minimal(r: int) -> StableIdeal:
    """gin of the minimal Buchsbaum curve (r,0,r-1,r-1,0,r), by the
    recursion gin(r+1) = (a^2)*gin(r) + (a b^(2r+1), b^(2r+2), a^(r+1) b^r c)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    gin = MonomialIdeal.of("a^2", "a*b", "b^2", "a*c")
    for k in range(1, r):
        gin = gin.scaled(Monomial.of(2, 0, 0, 0)) + MonomialIdeal(
            (
                Monomial((1, 2 * k + 1, 0, 0)),
                Monomial((0, 2 * k + 2, 0, 0)),
                Monomial((k + 1, k, 1, 0)),
            )
        )
    return StableIdeal(gin.generators)


def gin_bdl_step(gin_ideal: MonomialIdeal, e: int) -> StableIdeal:
    """gin of a maximal-weight basic double link: a * gin(I) + (b^e), where
    e is the maximal facet weight of the parent curve."""
    stepped = gin_ideal.scaled(Monomial.of(1, 0, 0, 0)) + MonomialIdeal(
        (Monomial((0, e, 0, 0)),)
    )
    return StableIdeal(stepped.generators)


def gin_of_curve(t: TetTuple) -> StableIdeal | None:
    """gin of a tetrahedral curve where it is known: ACM curves via the
    h-vector, non-ACM curves whose minimal curve is Buchsbaum via the basic
    double link recursion folded along the reduction chain.  Returns None
    for non-ACM curves over other minimal curves."""
    if t.is_trivial:
        raise TrivialCurveError("gin is undefined for the trivial curve")
    trace = reduction_trace(t)
    if trace.is_acm:
        return gin_acm(t)
    r = buchsbaum_minimal_r(trace.terminal)
    if r is None:
        return None
    gin: MonomialIdeal = gin_buchsbaum_minimal(r)
    for weight in reversed(trace.weights):
        gin = gin_bdl_step(gin, weight)
    return StableIdeal(gin.generators)
