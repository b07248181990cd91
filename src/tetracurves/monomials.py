"""Exact arithmetic with monomials and monomial ideals in k[a,b,c,d].

Monomials are exponent vectors over the four variables a, b, c, d.  A
monomial ideal is stored by its minimal generating set (which is unique),
so equality of `MonomialIdeal` values is equality of ideals.  The module
covers the constructions needed for tetrahedral curves: the curve's ideal
(the intersection of powers of edge ideals), basic double links
``g*I + (F)``, graded components ``(I_d)``, truncations ``I_{>=d}``, and
Hilbert-function data for the quotient ring.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exceptions import BoundTooSmallError, FNotInIdealError, GDividesFError, refuse_over_limit
from .tuples import NVARS, VARIABLES, variable_index

# the grid's peak bytes per cell (two int64 arrays of the least d-exponent
# and boolean masks; 17.0 measured) and hilbert_data's per degree up to the
# bound (Python lists of ints; 65.4 measured)
_GRID_BYTES_PER_CELL = 17
_HILBERT_BYTES_PER_DEGREE = 66


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial in a, b, c, d given by its exponent vector."""

    exps: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.exps) != NVARS or min(self.exps) < 0:
            raise ValueError(f"bad exponent vector {self.exps}")

    @classmethod
    def variable(cls, g: int | str) -> "Monomial":
        i = variable_index(g)
        return cls(tuple(1 if j == i else 0 for j in range(NVARS)))

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        """Parse the ``a^2*b*d^3`` form (zero exponents omitted, ``1`` allowed)."""
        text = text.strip()
        exps = [0, 0, 0, 0]
        if text in ("1", ""):
            return cls(tuple(exps))
        for factor in text.split("*"):
            factor = factor.strip()
            if "^" in factor:
                var, _, power = factor.partition("^")
                exps[variable_index(var.strip())] += int(power)
            else:
                exps[variable_index(factor)] += 1
        return cls(tuple(exps))

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def divides(self, other: "Monomial") -> bool:
        return all(s <= o for s, o in zip(self.exps, other.exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(s + o for s, o in zip(self.exps, other.exps)))

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for var, e in zip(VARIABLES, self.exps):
            if e == 1:
                parts.append(var)
            elif e > 1:
                parts.append(f"{var}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def display_key(m: Monomial) -> tuple:
    """Generator-list order: ascending degree, descending degrevlex within."""
    e = m.exps
    return (sum(e), e[3], e[2], e[1], e[0])


class DivisorIndex:
    """An antichain of exponent vectors, each kept as a pair (b, a) in a
    sorted list per (c, d).  No pair of a list bounds another, so with the
    b's ascending the a's strictly descend: of the pairs with b' <= b, the
    last has the least a'.  `display_key` order, which puts b ascending
    within a degree, mostly appends."""

    def __init__(self, antichain: Iterable[Sequence[int]] = ()):
        self._groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for e in antichain:
            self.add(e)

    def divides(self, e: Sequence[int]) -> bool:
        """Whether a member divides x^e: some list (c', d') <= (c, d) has a
        pair with b' <= b and a' <= a."""
        a, b, c, d = e
        for (gc, gd), pairs in self._groups.items():
            if gc <= c and gd <= d:
                i = bisect.bisect_right(pairs, (b, math.inf))
                if i and pairs[i - 1][1] <= a:
                    return True
        return False

    def add(self, e: Sequence[int]) -> None:
        """Add x^e, which must neither divide nor be divisible by a member."""
        bisect.insort(self._groups.setdefault((e[2], e[3]), []), (e[1], e[0]))


def minimalize(monomials: Iterable[Monomial]) -> list[Monomial]:
    """Drop every monomial divisible by another one; keep the minimal set.
    A proper divisor has lower degree, so it comes first in `display_key`
    order, and the monomials kept on one walk stay an antichain."""
    index, kept = DivisorIndex(), []
    for m in sorted(set(monomials), key=display_key):
        if not index.divides(m.exps):
            index.add(m.exps)
            kept.append(m)
    return kept


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A monomial ideal, normalized to its minimal sorted generating set.

    Minimal generating sets are unique, so equality of values is equality
    of ideals (also across subclasses)."""

    generators: tuple[Monomial, ...]

    def __post_init__(self):
        gens = tuple(minimalize(self.generators))
        object.__setattr__(self, "generators", gens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    @classmethod
    def _from_minimal(cls, generators: tuple[Monomial, ...]) -> "MonomialIdeal":
        """Wrap generators that are already minimal and in `display_key` order."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "generators", generators)
        return ideal

    @classmethod
    def of(cls, *texts: str) -> "MonomialIdeal":
        return cls(tuple(Monomial.parse(t) for t in texts))

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].degree == 0

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def min_generator_degree(self) -> int:
        return min(g.degree for g in self.generators)

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.generators)

    def scaled(self, m: Monomial) -> "MonomialIdeal":
        """The ideal m * I."""
        return MonomialIdeal(tuple(m * g for g in self.generators))

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(self.generators + other.generators)

    def generator_strings(self) -> list[str]:
        return [str(g) for g in self.generators]

    def __str__(self) -> str:
        return "(" + ", ".join(self.generator_strings()) + ")" if self.generators else "(0)"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"


def ideal_of_tuple(t: Sequence[int]) -> MonomialIdeal:
    """The saturated ideal of a tetrahedral curve: the intersection of the
    powers (x,y)^a_i over the six coordinate lines; the unit ideal when every
    weight is 0.

    Built from the definition, not by intersecting: x^e lies in the ideal
    exactly when e_x + e_y >= a_xy on every edge.  For each (e0, e1, e2) that
    meets the three inequalities among vertices 0-2, the least admissible e3
    is max(0, a03 - e0, a13 - e1, a23 - e2).  That point is a minimal
    generator unless lowering e0, e1 or e2 by one keeps the same least e3.
    Exponents of minimal generators never exceed the largest weight at their
    vertex, which bounds the grid.  Raises OracleTooLargeError when the grid
    would need more than ORACLE_MEMORY_LIMIT bytes."""
    import numpy as np
    entries = tuple(t)
    if len(entries) != 6 or any(a < 0 for a in entries):
        raise ValueError(f"need six non-negative weights, got {entries}")
    a01, a02, a03, a12, a13, a23 = entries
    shape = (max(a01, a02, a03) + 1, max(a01, a12, a13) + 1, max(a02, a12, a23) + 1)
    refuse_over_limit(math.prod(shape) * _GRID_BYTES_PER_CELL, f"the ideal's exponent grid {list(shape)} needs")
    e0, e1, e2 = np.indices(shape, sparse=True)
    meets = (e0 + e1 >= a01) & (e0 + e2 >= a02) & (e1 + e2 >= a12)
    least = np.maximum(np.maximum(a03 - e0, a13 - e1), np.maximum(a23 - e2, 0))
    least = np.where(meets, least, max(a03, a13, a23) + 1)
    minimal = meets.copy()
    minimal[1:] &= least[:-1] > least[1:]
    minimal[:, 1:] &= least[:, :-1] > least[:, 1:]
    minimal[:, :, 1:] &= least[:, :, :-1] > least[:, :, 1:]
    exps = np.column_stack((np.argwhere(minimal), least[minimal]))
    # display order (`display_key`): ascending degree, then ascending e3, e2,
    # e1, e0, which is descending degrevlex
    order = np.lexsort((exps[:, 0], exps[:, 1], exps[:, 2], exps[:, 3], exps.sum(axis=1)))
    return MonomialIdeal._from_minimal(
        tuple(Monomial(tuple(e)) for e in exps[order].tolist())
    )


def exponent_box(
    ideal: MonomialIdeal, bound: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ideal's membership on the exponent box below its generators' lcm.

    The box holds the exponent vectors p with 0 <= p_i <= top_i, where top is
    the lcm of the generators, capped at `bound` in each axis when one is
    given.  Since no generator reaches past the lcm, an exponent vector
    clipped to the box along uncapped axes keeps its membership.

    Membership along the d axis is a threshold, so the box is returned as
    `(least, top)`: least[p0, p1, p2] is the least p3 <= top[3] with x^p in
    the ideal, or top[3] + 1 when there is none.  It is the prefix minimum of
    the generators' d-exponents; a generator past a cap divides no box point
    and is dropped."""
    import numpy as np
    gens = np.array([g.exps for g in ideal.generators], dtype=np.int64).reshape(-1, NVARS)
    top = gens.max(axis=0, initial=0)
    if bound is not None:
        top = np.minimum(top, bound)
        gens = gens[(gens <= top).all(axis=1)]
    least = np.full(top[:3] + 1, top[3] + 1)
    # minimal generators differ in (e0, e1, e2), so no entry is written twice
    least[gens[:, 0], gens[:, 1], gens[:, 2]] = gens[:, 3]
    for axis in range(3):
        np.minimum.accumulate(least, axis=axis, out=least)
    return least, top


def basic_double_link(ideal: MonomialIdeal, g: int | str, F: Monomial) -> MonomialIdeal:
    """Minimal generators of g*I + (F) for a variable g and F in I."""
    gi = variable_index(g)
    if F.exps[gi] > 0:
        raise GDividesFError(f"{VARIABLES[gi]} divides {F}; (g, F) is not a regular sequence")
    if not ideal.contains(F):
        raise FNotInIdealError(f"{F} is not in {ideal}")
    xg = Monomial.variable(gi)
    return MonomialIdeal(tuple(xg * m for m in ideal.generators) + (F,))


@functools.lru_cache(maxsize=64)
def monomials_of_degree(d: int) -> tuple[Monomial, ...]:
    """All monomials of total degree d in four variables, in `display_key` order."""
    return tuple(
        Monomial((d - e3 - e2 - e1, e1, e2, e3))
        for e3 in range(d + 1)
        for e2 in range(d - e3 + 1)
        for e1 in range(d - e3 - e2 + 1)
    )


def component_ideal(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """(I_d): the ideal generated by the degree-d monomials of I.

    Membership is read off `exponent_box` capped at d: a degree-d exponent
    vector clipped to the box on all four axes keeps its membership.  The
    members are minimal as they stand, since no monomial divides another of
    the same degree."""
    import numpy as np
    if d < 0:
        raise ValueError("degree must be non-negative")
    least, top = exponent_box(ideal, bound=d)
    basis = monomials_of_degree(d)
    e = np.minimum(np.array([m.exps for m in basis]), top)
    member = e[:, 3] >= least[e[:, 0], e[:, 1], e[:, 2]]
    return MonomialIdeal._from_minimal(tuple(itertools.compress(basis, member.tolist())))


def truncate(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """I_{>=d}: the ideal generated by all elements of I of degree at least d.

    No element of I_d divides a minimal generator of higher degree, so the
    union is minimal."""
    high = tuple(g for g in ideal.generators if g.degree > d)
    return MonomialIdeal._from_minimal(component_ideal(ideal, d).generators + high)


@dataclass(frozen=True)
class HilbertData:
    """Hilbert function of R/I up to a bound, with derived invariants.

    `values[d]` is dim_k (R/I)_d.  `degree` is the stabilized first
    difference (the degree of the scheme for a curve ideal), and `h_vector`
    the finitely supported second difference.
    """

    values: tuple[int, ...]
    h_vector: tuple[int, ...]
    degree: int


def hilbert_data(ideal: MonomialIdeal, upto: int) -> HilbertData:
    """Count standard monomials of R/I in degrees 0..upto.

    Raises BoundTooSmallError unless the values up to `upto` fix the degree
    and the h-vector, that is when upto < 1 or some h_d with d >= upto is
    nonzero; callers should pass roughly regularity + 3.  Raises
    OracleTooLargeError when the lists of values would need more than
    ORACLE_MEMORY_LIMIT bytes.

    The count runs over the columns (p0, p1, p2) of `exponent_box` capped at
    `upto`, so its cost is the box below the generators' lcm (or below upto,
    whichever is smaller), not the (upto + 1)^4 grid.  A monomial of degree
    <= upto has no exponent above upto, so clipping it to the box keeps its
    membership.  A box point p outside the ideal with t coordinates on the
    box's upper face stands for the monomials that clip to it, x^p / (1 - x)^t
    as a series.  Summed over the standard points of one column (p3 below
    least[p0, p1, p2]) that is (x^s - x^(s + least)) / (1 - x)^(u + 1), with
    s = p0 + p1 + p2 and u the number of p0, p1, p2 on the upper face; the
    second term drops when no p3 in the box is in the ideal.  When no
    generator has an exponent above upto, every term starts and ends by
    degree top.sum(), so h_d vanishes past top.sum() + 1 when R/I has
    dimension <= 2 (a curve) and not at top.sum() + 2 otherwise: the count
    runs on that far to read every h_d with d >= upto.
    """
    import numpy as np
    if upto < 0:
        raise ValueError("upto must be non-negative")
    refuse_over_limit((upto + 1) * _HILBERT_BYTES_PER_DEGREE, f"the Hilbert function up to degree {upto} needs")
    least, top = exponent_box(ideal, bound=upto)
    capped = any(e > upto for g in ideal.generators for e in g.exps)
    last = upto if capped else max(upto, int(top.sum()) + 2)  # the degree counted to
    axes = np.indices(least.shape, sparse=True)
    start = sum(axes)
    faces = sum(axis == n for axis, n in zip(axes, top[:3]))
    end = start + least
    size = (min(last, int(top.sum())) + 1) * NVARS
    starts = np.bincount((start * NVARS + faces)[start <= last], minlength=size)
    ends = np.bincount((end * NVARS + faces)[(least <= top[3]) & (end <= last)], minlength=size)
    by_degree = (starts - ends).reshape(-1, NVARS).tolist()
    # sum over u of B_u(x) / (1 - x)^(u + 1) by Horner's rule; a prefix sum
    # divides by 1 - x
    values = [0] * (last + 1)
    for u in range(NVARS - 1, -1, -1):
        for s, counts in enumerate(by_degree):
            values[s] += counts[u]
        values = list(itertools.accumulate(values))
    first = [b - a for a, b in zip([0] + values, values)]
    h = [b - a for a, b in zip([0] + first, first)]
    if upto < 1 or any(h[upto:]):
        raise BoundTooSmallError(f"Hilbert function of {ideal} not stabilized by degree {upto}")
    while h and h[-1] == 0:
        h.pop()
    return HilbertData(values=tuple(values[: upto + 1]), h_vector=tuple(h), degree=first[upto])
