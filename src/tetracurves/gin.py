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

Both routes are closed forms over one reduction trace and never build the
curve's ideal: the h-vector comes from the closed-form Betti table, and the
basic double links are folded into one generator list, so the ideal is
minimalized and checked for strong stability once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .exceptions import NotACMError, NotStableError, TrivialCurveError, refuse_over_limit
from .koszul import BettiTable
from .monomials import DivisorIndex, Monomial, MonomialIdeal
from .resolution import resolution_recipe
from .tuples import ReductionTrace, TetTuple, buchsbaum_minimal_r, reduction_trace


# peak per generator or h-vector entry of a whole gin build (tracemalloc: 263, 345, 392
# for gin_of_curve((r,0,r-1,r-1,0,r)); r = 10^3, 4*10^3, 10^4)
_BYTES_PER_GENERATOR = 400


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Closed under swapping any variable of a generator for an earlier one
    (order a > b > c > d).  Adjacent swaps suffice: every swap is a chain of
    them, and an adjacent swap of a multiple u*w of a generator u moves a
    variable of u (in the ideal by the check) or of w (a multiple of u)."""
    index = DivisorIndex(g.exps for g in ideal.generators)
    for g in ideal.generators:
        for k in range(1, 4):
            if g.exps[k]:
                swapped = list(g.exps)
                swapped[k] -= 1
                swapped[k - 1] += 1
                if not index.divides(swapped):
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


def _lex_gin(trace: ReductionTrace) -> StableIdeal:
    """gin of the ACM curve traced, read off its closed-form Betti table.
    The Hilbert series numerator 1 + sum (-1)^(i+1) beta_ij t^j divided by
    (1 - t)^2 (two prefix sums) is the h-vector; with k_d = d - h_d the lex
    ideal's minimal generators in degree d are a^(d-i) b^i for i from
    k_(d-1) + 2 (or 0 when k_(d-1) < 0) to k_d."""
    numerator = Counter({0: 1})
    for i, j, r in resolution_recipe(trace).assemble().entries:
        numerator[j] += (-1) ** (i + 1) * r
    n = max(numerator) + 1
    refuse_over_limit(n * _BYTES_PER_GENERATOR, f"an h-vector of length {n} needs")
    h = list(accumulate(accumulate(numerator[d] for d in range(n))))
    while h and h[-1] == 0:
        h.pop()
    gens, last = [], -1
    for d in range(len(h) + 1):
        k = d - (h[d] if d < len(h) else 0)
        gens += (Monomial((d - i, i, 0, 0)) for i in range(last + 2 if last >= 0 else 0, k + 1))
        last = k
    return StableIdeal(tuple(gens))


def gin_acm(t: TetTuple) -> StableIdeal:
    """gin of an ACM curve: the lex ideal in a, b whose artinian quotient
    has the curve's h-vector; in each degree d it spans the first
    d+1-h_d monomials of k[a,b]_d in lex order."""
    if t.is_trivial:
        raise TrivialCurveError("gin is undefined for the trivial curve")
    trace = reduction_trace(t)
    if not trace.is_acm:
        raise NotACMError(f"({t}) is not arithmetically Cohen-Macaulay")
    return _lex_gin(trace)


def _buchsbaum_generators(r: int, shift: int = 0) -> list[Monomial]:
    """Generators of a^shift * gin(r,0,r-1,r-1,0,r), not all minimal: the
    recursion below unrolled from gin(0) = (1), step k's triple times
    a^(2(r-1-k))."""
    gens = [Monomial((2 * r + shift, 0, 0, 0))]
    for k in range(r):
        s = 2 * (r - 1 - k) + shift
        gens += (Monomial((s + 1, 2 * k + 1, 0, 0)), Monomial((s, 2 * k + 2, 0, 0)), Monomial((s + k + 1, k, 1, 0)))
    return gens


def gin_buchsbaum_minimal(r: int) -> StableIdeal:
    """gin of the minimal Buchsbaum curve (r,0,r-1,r-1,0,r), by the
    recursion gin(r+1) = (a^2)*gin(r) + (a b^(2r+1), b^(2r+2), a^(r+1) b^r c):
    `gin_of_curve` of the model, which has no reduction steps."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return gin_of_curve(TetTuple((r, 0, r - 1, r - 1, 0, r)))


def gin_of_curve(t: TetTuple) -> StableIdeal | None:
    """gin of a tetrahedral curve where it is known: ACM curves via the
    h-vector, non-ACM curves whose minimal curve is Buchsbaum via the basic
    double link recursion folded along the reduction chain.  Returns None
    for non-ACM curves over other minimal curves."""
    if t.is_trivial:
        raise TrivialCurveError("gin is undefined for the trivial curve")
    trace = reduction_trace(t)
    if trace.is_acm:
        return _lex_gin(trace)
    r = buchsbaum_minimal_r(trace.terminal)
    if r is None:
        return None
    n = trace.step_count + 3 * r + 1
    refuse_over_limit(n * _BYTES_PER_GENERATOR, f"{n} gin generators need")
    # gin(J) = a * gin(I) + (b^e) folded along the chain: the j-th step from
    # the top multiplies by a^j
    gens = _buchsbaum_generators(r, trace.step_count)
    gens += (Monomial((j, e, 0, 0)) for j, e in enumerate(trace.weights))
    return StableIdeal(tuple(gens))
