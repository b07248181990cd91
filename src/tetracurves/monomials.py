"""Exact arithmetic with monomials and monomial ideals in k[a,b,c,d].

Monomials are exponent vectors over the four variables a, b, c, d.  A
monomial ideal is stored by its minimal generating set (which is unique),
so equality of `MonomialIdeal` values is equality of ideals.  The module
covers what the answers and the oracles read: the curve's ideal (the
intersection of powers of edge ideals), its membership on the exponent box,
and Hilbert-function data for the quotient ring.  The curve's ideal carries
the grid it is built from, its `exponent_box`, which the oracles read as is.
The constructions that only checks read (basic double links ``g*I + (F)``,
graded components ``(I_d)`` and truncations ``I_{>=d}``) live in `verify`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exceptions import BoundTooSmallError, refuse_over_limit
from .tuples import NVARS, VARIABLES, TetTuple, variable_index

# the grid's peak bytes per cell (two int64 arrays of the least d-exponent
# and boolean masks; 17.0 measured) and hilbert_data's per degree up to the
# bound (the lists of values and the JSON answer; 125 to 147 as the slope of
# peak RSS of `hilbert --format json` from 1 to 2..6 million)
_GRID_BYTES_PER_CELL = 17
_BOX_BYTES_PER_CELL = 8  # exponent_box's int64 least, accumulated in place
_HILBERT_BYTES_PER_DEGREE = 150


class Monomial(tuple):
    """A monomial in a, b, c, d: the tuple of its four non-negative integer
    exponents, so it compares, hashes and sorts like that plain tuple."""

    __slots__ = ()

    def __new__(cls, exps):
        self = tuple.__new__(cls, exps)
        if len(self) != NVARS or any(type(e) is not int or e < 0 for e in self):
            raise ValueError(f"bad exponent vector {tuple(self)}")
        return self

    @classmethod
    def variable(cls, g: int | str) -> "Monomial":
        i = variable_index(g)
        return cls(1 if j == i else 0 for j in range(NVARS))

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        """Parse the ``a^2*b*d^3`` form (zero exponents omitted, ``1`` allowed)."""
        text = text.strip()
        exps = [0, 0, 0, 0]
        if text in ("1", ""):
            return cls(exps)
        for factor in text.split("*"):
            factor = factor.strip()
            if "^" in factor:
                var, _, power = factor.partition("^")
                exps[variable_index(var.strip())] += int(power)
            else:
                exps[variable_index(factor)] += 1
        return cls(exps)

    @property
    def exps(self) -> tuple[int, int, int, int]:
        """The exponents as a plain tuple."""
        return tuple(self)

    @property
    def degree(self) -> int:
        return sum(self)

    def divides(self, other: Sequence[int]) -> bool:
        return all(s <= o for s, o in zip(self, other))

    def __mul__(self, other: Sequence[int]) -> "Monomial":
        return Monomial(s + o for s, o in zip(self, other))

    def __str__(self) -> str:
        return "*".join(var if e == 1 else f"{var}^{e}" for var, e in zip(VARIABLES, self) if e) or "1"

    def __repr__(self) -> str:
        return f"Monomial({self})"


def display_key(m: Monomial) -> tuple:
    """Generator-list order: ascending degree, descending degrevlex within."""
    return (sum(m), m[3], m[2], m[1], m[0])


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
        if not index.divides(m):
            index.add(m)
            kept.append(m)
    return kept


class MonomialIdeal(tuple):
    """A monomial ideal: the tuple of its minimal generators in `display_key`
    order.  Minimal generating sets are unique, so equality of values (also
    across subclasses) is equality of ideals, and `m in I` is membership of
    the monomial m in the ideal."""

    __slots__ = ()

    def __new__(cls, generators: Iterable[Sequence[int]]):
        return tuple.__new__(cls, minimalize(m if type(m) is Monomial else Monomial(m) for m in generators))

    @classmethod
    def _from_minimal(cls, generators: Iterable[Monomial]) -> "MonomialIdeal":
        """Wrap generators that are already minimal and in `display_key` order."""
        return tuple.__new__(cls, generators)

    @classmethod
    def of(cls, *texts: str) -> "MonomialIdeal":
        return cls(tuple(Monomial.parse(t) for t in texts))

    @property
    def generators(self) -> tuple[Monomial, ...]:
        """The minimal generators as a plain tuple."""
        return tuple(self)

    @property
    def is_unit(self) -> bool:
        return len(self) == 1 and self[0].degree == 0

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def min_generator_degree(self) -> int:
        return min(g.degree for g in self)

    def contains(self, m: Sequence[int]) -> bool:
        return any(g.divides(m) for g in self)

    __contains__ = contains

    def scaled(self, m: Monomial) -> "MonomialIdeal":
        """The ideal m * I."""
        return MonomialIdeal(m * g for g in self)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(self.generators + other.generators)

    def generator_strings(self) -> list[str]:
        return [str(g) for g in self]

    def __str__(self) -> str:
        return "(" + ", ".join(self.generator_strings()) + ")" if self else "(0)"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"


class _BoxedIdeal(MonomialIdeal):
    """An `ideal_of_tuple` ideal: a `MonomialIdeal` carrying its `exponent_box`.
    A copy (`pickle`, `copy`, `deepcopy`) is a plain `MonomialIdeal` of the same
    generators, so no writable copy of the box stands in for the ideal."""

    def __reduce__(self):
        return MonomialIdeal._from_minimal, (tuple(self),)


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
    vertex, and one reaches it (those free of y have x^w, w = a_xy): the grid
    is the `exponent_box` the ideal carries, read-only, for as long as the
    ideal lives (prod(top[:3] + 1) int64 cells; a long-lived collection can
    keep copies, `copy.copy(I)` or `MonomialIdeal._from_minimal(tuple(I))`,
    which hold only the generators).  Raises OracleTooLargeError when the
    grid would need more memory than `refuse_over_limit` allows."""
    import numpy as np
    a01, a02, a03, a12, a13, a23 = TetTuple(t)
    top = (max(a01, a02, a03), max(a01, a12, a13), max(a02, a12, a23), max(a03, a13, a23))
    shape = tuple(k + 1 for k in top[:3])
    refuse_over_limit(math.prod(shape) * _GRID_BYTES_PER_CELL, f"the ideal's exponent grid {list(shape)} needs")
    e0, e1, e2 = np.indices(shape, sparse=True)
    meets = (e0 + e1 >= a01) & (e0 + e2 >= a02) & (e1 + e2 >= a12)
    least = np.maximum(np.maximum(a03 - e0, a13 - e1), np.maximum(a23 - e2, 0))
    least = np.where(meets, least, top[3] + 1)
    minimal = meets.copy()
    minimal[1:] &= least[:-1] > least[1:]
    minimal[:, 1:] &= least[:, :-1] > least[:, 1:]
    minimal[:, :, 1:] &= least[:, :, :-1] > least[:, :, 1:]
    exps = np.column_stack((np.argwhere(minimal), least[minimal]))
    # display order (`display_key`): ascending degree, then ascending e3, e2,
    # e1, e0, which is descending degrevlex
    order = np.lexsort((exps[:, 0], exps[:, 1], exps[:, 2], exps[:, 3], exps.sum(axis=1)))
    ideal = _BoxedIdeal._from_minimal(map(Monomial, exps[order].tolist()))
    ideal._box = least, np.array(top)
    least.flags.writeable = ideal._box[1].flags.writeable = False
    return ideal


def _exponent_rows(monomials: Sequence[Monomial]) -> np.ndarray:
    """The exponent vectors as rows of an int64 array, read entry by entry:
    numpy has no fast path for a list of tuple subclasses."""
    import numpy as np
    return np.fromiter(itertools.chain.from_iterable(monomials), np.int64, NVARS * len(monomials)).reshape(-1, NVARS)


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
    and is dropped.  An `ideal_of_tuple` ideal carries its uncapped box,
    read-only, which is returned when no cap cuts it.
    Raises OracleTooLargeError before a box built from the generators would
    need more memory than `refuse_over_limit` allows."""
    import numpy as np
    if isinstance(ideal, _BoxedIdeal) and (bound is None or bound >= ideal._box[1].max()):
        return ideal._box
    gens = _exponent_rows(ideal)
    top = gens.max(axis=0, initial=0)
    if bound is not None:
        top = np.minimum(top, bound)
        gens = gens[(gens <= top).all(axis=1)]
    shape = (top[:3] + 1).tolist()
    refuse_over_limit(math.prod(shape) * _BOX_BYTES_PER_CELL, f"the exponent box {shape} needs")
    least = np.full(shape, top[3] + 1)
    # minimal generators differ in (e0, e1, e2), so no entry is written twice
    least[gens[:, 0], gens[:, 1], gens[:, 2]] = gens[:, 3]
    for axis in range(3):
        np.minimum.accumulate(least, axis=axis, out=least)
    return least, top


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
    OracleTooLargeError when the lists of values would need more memory
    than `refuse_over_limit` allows.

    The count runs over the columns (p0, p1, p2) of `exponent_box` capped at
    upto + 1, whose top shows whether a generator passes upto, so its cost is
    the box below the generators' lcm (or below upto + 1), not the
    (upto + 1)^4 grid.  A monomial of degree <= upto has no exponent above
    upto, so clipping it to the box keeps its membership.  A box point p
    outside the ideal with t coordinates on the box's upper face stands for
    the monomials that clip to it, x^p / (1 - x)^t as a series.  Summed over
    the standard points of one column (p3 below least[p0, p1, p2]) that is
    (x^s - x^(s + least)) / (1 - x)^(u + 1), with s = p0 + p1 + p2 and u the
    number of p0, p1, p2 on the upper face; the second term drops when no p3
    in the box is in the ideal.  When no generator has an exponent above
    upto, every term starts and ends by degree top.sum(), so h_d vanishes
    past top.sum() + 1 when R/I has dimension <= 2 (a curve) and not at
    top.sum() + 2 otherwise: the count runs on that far to read every h_d
    with d >= upto.
    """
    if upto < 0:
        raise ValueError("upto must be non-negative")
    refuse_over_limit((upto + 1) * _HILBERT_BYTES_PER_DEGREE, f"the Hilbert function up to degree {upto} needs")
    least, top = exponent_box(ideal, bound=upto + 1)
    capped = bool((top > upto).any())
    last = upto if capped else max(upto, int(top.sum()) + 2)  # the degree counted to
    values = standard_counts(least, top, last)
    first = [b - a for a, b in zip([0] + values, values)]
    h = [b - a for a, b in zip([0] + first, first)]
    if upto < 1 or any(h[upto:]):
        top_degree = max((g.degree for g in ideal), default=0)
        raise BoundTooSmallError(
            f"Hilbert function of an ideal of {len(ideal)} generators, the largest of degree {top_degree},"
            f" not stabilized by degree {upto}"
        )
    while h and h[-1] == 0:
        h.pop()
    return HilbertData(values=tuple(values[: upto + 1]), h_vector=tuple(h), degree=first[upto])


def standard_counts(least: np.ndarray, top: np.ndarray, last: int) -> list[int]:
    """dim_k (R/I)_d for d = 0..last, counted as `hilbert_data` describes on
    I's `exponent_box` (least, top), whose cap must be at least `last` or cut
    no generator."""
    import numpy as np
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
    return values
