"""Reverse-lexicographic generic initial ideals of tetrahedral curves.

In characteristic zero the gin is strongly stable, and its graded Betti
numbers follow from the Eliahou-Kervaire resolution.  Along a
maximal-weight basic double link the gin transforms as
gin(J) = a*gin(I) + (b^e) with e the maximal facet weight of J, so the
links of a curve's reduction chain fold over the gin of a base: the
trivial curve or the chain's first CI power (0,r,r,r,r,0) for ACM curves,
whose gin is then the lex ideal in a, b of the h-vector (in each degree d
the first d+1-h_d monomials of k[a,b]_d), or a minimal arithmetically
Buchsbaum curve (r,0,r-1,r-1,0,r) up to symmetry.  The fold reads one
reduction trace, never builds the curve's ideal, and minimalizes its one
generator list and checks it for strong stability once.  The paper's
prediction of the gin's Betti table is a published claim, checked in
`verify` against `ek_betti` of these gins.
"""

from __future__ import annotations

from math import comb

from .exceptions import NotStableError, TrivialCurveError, refuse_over_limit
from .koszul import BettiTable
from .monomials import DivisorIndex, Monomial, MonomialIdeal
from .tuples import TetTuple, buchsbaum_minimal_r, reduction_trace


# peak per generator of a whole gin build, tracemalloc in a fresh process: 384, 433, 381
# at 2,001, 20,001, 80,001 generators for the fat line (w,0,0,0,0,0) and for (r/2,r,r,r,r,0)
# above a CI power; at most 435, near 19,700 generators, also for (r,0,r-1,r-1,0,r)
_BYTES_PER_GENERATOR = 440


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Closed under swapping any variable of a generator for an earlier one
    (order a > b > c > d).  Adjacent swaps suffice: every swap is a chain of
    them, and an adjacent swap of a multiple u*w of a generator u moves a
    variable of u (in the ideal by the check) or of w (a multiple of u)."""
    index = DivisorIndex(ideal)
    for g in ideal:
        for k in range(1, 4):
            if g[k]:
                swapped = list(g)
                swapped[k] -= 1
                swapped[k - 1] += 1
                if not index.divides(swapped):
                    return False
    return True


class StableIdeal(MonomialIdeal):
    """A strongly stable (Borel-fixed) monomial ideal."""

    __slots__ = ()

    def __new__(cls, generators):
        self = super().__new__(cls, generators)
        if not is_strongly_stable(self):
            raise NotStableError(f"{self} is not strongly stable")
        return self


def max_variable_index(m: Monomial) -> int:
    """Position (a=1, ..., d=4) of the last variable dividing m; 1 for m = 1,
    so the unit ideal's table is the trivial ((0, 0, 1),)."""
    return max((i + 1 for i, e in enumerate(m) if e > 0), default=1)


def ek_betti(stable: StableIdeal) -> BettiTable:
    """Eliahou-Kervaire Betti numbers of a strongly stable ideal:
    beta_{i, deg(u)+i} += C(max_index(u) - 1, i) over minimal generators u."""
    if not isinstance(stable, StableIdeal):
        stable = StableIdeal(stable)
    table: dict[tuple[int, int], int] = {}
    for u in stable:
        top = max_variable_index(u) - 1
        for i in range(top + 1):
            key = (i, u.degree + i)
            table[key] = table.get(key, 0) + comb(top, i)
    return BettiTable.from_dict(table)


def _ci_power_generators(r: int, shift: int) -> list[Monomial]:
    """Minimal generators of a^shift * gin(0,r,r,r,r,0): a^(2r-i) b^i for
    i <= r in degree 2r, and the r extra generators a^(r-1-k) b^(r+2+k) for
    k < r in degree 2r+1.  r = 0 gives a^shift, the trivial curve's (1)."""
    gens = [Monomial((2 * r - i + shift, i, 0, 0)) for i in range(r + 1)]
    return gens + [Monomial((r - 1 - k + shift, r + 2 + k, 0, 0)) for k in range(r)]


def _buchsbaum_generators(r: int, shift: int = 0) -> list[Monomial]:
    """Generators of a^shift * gin(r,0,r-1,r-1,0,r), not all minimal: the
    recursion below unrolled from gin(0) = (1), step k's triple times
    a^(2(r-1-k))."""
    gens = [Monomial((2 * r + shift, 0, 0, 0))]
    for k in range(r):
        s = 2 * (r - 1 - k) + shift
        gens += (Monomial((s + 1, 2 * k + 1, 0, 0)), Monomial((s, 2 * k + 2, 0, 0)), Monomial((s + k + 1, k, 1, 0)))
    return gens


def _folded_gin(trace) -> StableIdeal | None:
    """The chain's links folded over its base: the first CI power, else the trivial
    curve, of an ACM chain, or a minimal Buchsbaum terminal (None for other terminals)."""
    if trace.is_acm:
        n, r = trace.first_ci_power or (trace.step_count, 0)
        size, base = 2 * r + 1, _ci_power_generators
    else:
        n, r = trace.step_count, buchsbaum_minimal_r(trace.terminal)
        if r is None:
            return None
        size, base = 3 * r + 1, _buchsbaum_generators
    refuse_over_limit((n + size) * _BYTES_PER_GENERATOR, f"{n + size} gin generators need")
    # gin(J) = a * gin(I) + (b^e) folded along the chain: the j-th step from
    # the top multiplies by a^j
    gens = base(r, n)
    gens += (Monomial((j, e, 0, 0)) for j, e in zip(range(n), trace.weights))
    return StableIdeal(gens)


def gin_buchsbaum_minimal(r: int) -> StableIdeal:
    """gin of the minimal Buchsbaum curve (r,0,r-1,r-1,0,r), by the
    recursion gin(r+1) = (a^2)*gin(r) + (a b^(2r+1), b^(2r+2), a^(r+1) b^r c):
    `gin_of_curve` of the model, which has no reduction steps."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return gin_of_curve(TetTuple((r, 0, r - 1, r - 1, 0, r)))


def gin_of_curve(t: TetTuple) -> StableIdeal | None:
    """gin of a tetrahedral curve where it is known: its chain's basic double
    links folded over the gin of a base (`_folded_gin`).  Returns None for
    non-ACM curves over minimal curves that are not arithmetically Buchsbaum."""
    if t.is_trivial:
        raise TrivialCurveError("gin is undefined for the trivial curve")
    return _folded_gin(reduction_trace(t))
