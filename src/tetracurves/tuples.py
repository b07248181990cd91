"""Tetrahedral 6-tuples, the tetrahedron symmetry action, and the reduction
calculus by basic double linkage.

A tetrahedral curve is encoded by six non-negative weights on the edges
(a,b), (a,c), (a,d), (b,c), (b,d), (c,d) of the coordinate tetrahedron.
Each vertex v determines a reduction: when the three edges at v dominate
the opposite triangle, the curve is a basic double link ``G*I + (F)`` of
the curve with those three edge weights lowered by one, where G is the
vertex variable and F collects the edge weights at v.  Iterating along
facets of maximal weight drives every curve down to the trivial curve or
to a minimal one, and the shape of that chain decides ACM-ness,
componentwise linearity, and regularity.

`reduction_trace` works on the six integers and jumps over periods.  When
the last 2p reduced vertices repeat with period p, every quantity a step's
decision reads is affine in the number k of further periods: the reduced
vertex's triangle slacks, its facet-weight gaps to the other facets (and,
for an earlier vertex that ties and is skipped, one violated slack), every
lowered edge, and, until a CI-power curve is seen, each opposite-pair sum
and, beside a zero pair, one nonzero difference of the other four.  The
decisions repeat while each of these keeps its sign at k = 0 (zero
counting as non-negative); the least k where one would lose it is solved
by floor division and jumped at once, and the step weights of the jump
are arithmetic sequences.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .exceptions import NotApplicableError, TrivialCurveError
from .monomials import EDGES, Monomial, VARIABLES

OPPOSITE = (5, 4, 3, 2, 1, 0)  # opposite edge pairs: (1,6), (2,5), (3,4)
OPPOSITE_PAIRS = ((0, 5), (1, 4), (2, 3))


@dataclass(frozen=True, order=True)
class TetTuple:
    """Six non-negative edge weights of a tetrahedral curve."""

    entries: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.entries) != 6 or any(type(a) is not int or a < 0 for a in self.entries):
            raise ValueError(f"need six non-negative integer weights, got {self.entries}")

    @classmethod
    def of(cls, *entries: int) -> "TetTuple":
        return cls(tuple(entries))

    @classmethod
    def parse(cls, text: str) -> "TetTuple":
        """Parse the comma-separated form, e.g. "3,3,3,1,2,4"."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6:
            raise ValueError(f"need six comma-separated weights, got {text!r}")
        try:
            entries = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"non-integer weight in {text!r}") from None
        return cls(entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return 6

    @property
    def is_trivial(self) -> bool:
        return not any(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)

    def __repr__(self) -> str:
        return f"TetTuple({self})"


TRIVIAL = TetTuple((0, 0, 0, 0, 0, 0))

_EDGE_INDEX = {frozenset(e): i for i, e in enumerate(EDGES)}
VERTEX_PERMUTATIONS: tuple[tuple[int, ...], ...] = tuple(
    itertools.permutations(range(4))
)


@functools.lru_cache(maxsize=32)
def _edge_map(pi: tuple[int, ...]) -> tuple[int, ...]:
    """For each edge position i, the position the weight moves to under pi."""
    return tuple(_EDGE_INDEX[frozenset((pi[x], pi[y]))] for x, y in EDGES)


def permute(t: TetTuple, pi: tuple[int, ...]) -> TetTuple:
    """Apply a vertex permutation: the weight at edge {x,y} moves to {pi(x),pi(y)}."""
    em = _edge_map(pi)
    out = [0] * 6
    for i, a in enumerate(t.entries):
        out[em[i]] = a
    return TetTuple(tuple(out))


def canonicalize(t: TetTuple) -> tuple[TetTuple, tuple[int, ...]]:
    """Lexicographically smallest tuple in the 24-element orbit, with a
    permutation that achieves it."""
    best, best_pi = t, (0, 1, 2, 3)
    for pi in VERTEX_PERMUTATIONS:
        cand = permute(t, pi)
        if cand < best:
            best, best_pi = cand, pi
    return best, best_pi


class ReductionType(Enum):
    """The four reduction systems; each is attached to one vertex of the
    tetrahedron (A to a, ..., D to d) and uses that vertex variable as G."""

    A = 0
    B = 1
    C = 2
    D = 3

    @property
    def vertex(self) -> int:
        return self.value


def _facet_positions(v: int) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(EDGES) if v in e)


def _triangle_rows(v: int) -> tuple[tuple[int, int, int], ...]:
    """Inequality rows for vertex v: edges (v,x), (v,y) against edge (x,y)."""
    others = [u for u in range(4) if u != v]
    rows = []
    for x, y in itertools.combinations(others, 2):
        rows.append(
            (
                _EDGE_INDEX[frozenset((v, x))],
                _EDGE_INDEX[frozenset((v, y))],
                _EDGE_INDEX[frozenset((x, y))],
            )
        )
    return tuple(rows)


FACET_POSITIONS = tuple(_facet_positions(v) for v in range(4))
TRIANGLE_ROWS = tuple(_triangle_rows(v) for v in range(4))


def facet_weights(t: TetTuple) -> tuple[int, int, int, int]:
    """The four facet weights (w_A, w_B, w_C, w_D)."""
    return _facets(t.entries)


def _facets(e) -> tuple[int, int, int, int]:
    return tuple(e[i] + e[j] + e[k] for i, j, k in FACET_POSITIONS)


def _slack(e, row: tuple[int, int, int]) -> int:
    i, j, k = row
    return e[i] + e[j] - e[k]


def _applicable(e, v: int) -> bool:
    return all(_slack(e, row) >= 0 for row in TRIANGLE_ROWS[v])


def reduction_applicable(t: TetTuple, ty: ReductionType) -> bool:
    """True when t is non-trivial and the three inequalities of system ty hold."""
    return not t.is_trivial and _applicable(t.entries, ty.vertex)


def _reduction_form(t: TetTuple, v: int) -> Monomial:
    exps = [0, 0, 0, 0]
    for u in range(4):
        if u != v:
            exps[u] = t.entries[_EDGE_INDEX[frozenset((v, u))]]
    return Monomial(tuple(exps))


@dataclass(frozen=True)
class ReductionStep:
    """One basic double link: parent = G * I(child) + (F)."""

    type: ReductionType
    parent: TetTuple
    child: TetTuple
    F: Monomial
    G: int

    @property
    def weight(self) -> int:
        """deg F, the facet weight of the reduced facet on the parent."""
        return self.F.degree

    @property
    def G_name(self) -> str:
        return VARIABLES[self.G]


def apply_reduction(t: TetTuple, ty: ReductionType) -> ReductionStep:
    """Reduce the facet of type ty, lowering its three edge weights by one."""
    if not reduction_applicable(t, ty):
        raise NotApplicableError(f"reduction {ty.name} not applicable to ({t})")
    v = ty.vertex
    child = list(t.entries)
    for i in FACET_POSITIONS[v]:
        child[i] = max(0, child[i] - 1)
    return ReductionStep(
        type=ty, parent=t, child=TetTuple(tuple(child)), F=_reduction_form(t, v), G=v
    )


def is_minimal(t: TetTuple) -> bool:
    """True when t is non-trivial and admits none of the four reductions."""
    if t.is_trivial:
        return False
    return not any(reduction_applicable(t, ty) for ty in ReductionType)


def minimal_by_weight_test(t: TetTuple) -> bool:
    """The numerical minimality test: after moving a maximal weight to the
    last edge, a_1 > max(a_3+a_5, a_2+a_4) and a_6 > max(a_4+a_5, a_2+a_3).

    Checked over every normalization with the maximum in last position;
    must agree with `is_minimal`.
    """
    if t.is_trivial:
        return False
    top = max(t.entries)
    for pi in VERTEX_PERMUTATIONS:
        a1, a2, a3, a4, a5, a6 = permute(t, pi)
        if a6 != top:
            continue
        if a1 > max(a3 + a5, a2 + a4) and a6 > max(a4 + a5, a2 + a3):
            return True
    return False


def _max_weight_vertex(e) -> int | None:
    """An applicable vertex of maximal facet weight at entries e, ties broken
    A < B < C < D, or None when e is trivial or minimal."""
    fw = _facets(e)
    top = max(fw)
    if not top:
        return None
    v = next((v for v in range(4) if fw[v] == top and _applicable(e, v)), None)
    # a non-minimal curve can always be reduced along a maximal-weight facet
    if v is None and any(_applicable(e, u) for u in range(4)):
        raise AssertionError(f"no maximal-weight reduction found for {e}")
    return v


def max_weight_reduction(t: TetTuple) -> ReductionStep:
    """Reduce an applicable facet of maximal weight, ties broken A < B < C < D."""
    if t.is_trivial:
        raise NotApplicableError("the trivial curve admits no reduction")
    v = _max_weight_vertex(t.entries)
    if v is None:
        raise NotApplicableError(f"({t}) is minimal")
    return apply_reduction(t, ReductionType(v))


def max_weight_choices(t: TetTuple) -> list[ReductionType]:
    """All applicable reductions along facets of maximal weight."""
    if t.is_trivial or is_minimal(t):
        return []
    weights = facet_weights(t)
    top = max(weights)
    return [
        ty
        for ty in ReductionType
        if weights[ty.vertex] == top and reduction_applicable(t, ty)
    ]


class TerminalKind(Enum):
    TRIVIAL = "trivial"
    MINIMAL = "minimal"


def ci_power_form(t: TetTuple) -> int | None:
    """r >= 1 when t is, up to symmetry, (0,r,r,r,r,0): the r-th power of a
    (2,2) complete intersection supported on two pairs of opposite edges."""
    return _ci_power(t.entries)


def _ci_power(e) -> int | None:
    for i, j in OPPOSITE_PAIRS:
        if e[i] == 0 and e[j] == 0:
            rest = [e[k] for k in range(6) if k not in (i, j)]
            r = rest[0]
            if r >= 1 and all(x == r for x in rest):
                return r
    return None


class _TraceSteps(Sequence):
    """The steps of a trace, made from its record when an item is first read;
    `len` reads the record and makes no `ReductionStep`."""

    def __init__(self, start: TetTuple, vertices: tuple[int, ...]):
        self._start, self._vertices = start, vertices

    def __len__(self) -> int:
        return len(self._vertices)

    @functools.cached_property
    def _items(self) -> tuple[ReductionStep, ...]:
        steps, cur = [], self._start
        for v in self._vertices:
            steps.append(apply_reduction(cur, ReductionType(v)))
            cur = steps[-1].child
        return tuple(steps)

    def __getitem__(self, index):
        return self._items[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self._items == tuple(other)


@dataclass(frozen=True)
class ReductionTrace:
    """The maximal-weight reduction chain from a curve down to its terminal.

    The record holds the reduced vertex and the step weight (the maximal
    facet weight of the parent) of every step, top first.  `first_ci_power`
    records the topmost chain element of complete-intersection-power shape,
    as (chain index, r), and `ci_power_element` is that element: the base of
    the Betti-table assembly for ACM curves that are not componentwise
    linear.  `steps` and `chain` (which includes the terminal) are rebuilt
    from the record when read.
    """

    start: TetTuple
    vertices: tuple[int, ...]
    weights: tuple[int, ...]
    terminal: TetTuple
    terminal_kind: TerminalKind
    first_ci_power: tuple[int, int] | None
    ci_power_element: TetTuple | None

    @functools.cached_property
    def steps(self) -> _TraceSteps:
        return _TraceSteps(self.start, self.vertices)

    @property
    def chain(self) -> tuple[TetTuple, ...]:
        return tuple(s.parent for s in self.steps) + (self.terminal,)

    @property
    def is_acm(self) -> bool:
        return self.terminal_kind is TerminalKind.TRIVIAL


def _periods_ahead(states, drift, period, watch_ci: bool) -> int:
    """How many more times the period just run repeats exactly: the largest K
    such that every decision of the period, made at states[j] + k * drift,
    is the same for k = 1..K (see the module docstring)."""
    bounds = []

    def keep(value: int, slope: int) -> None:  # the sign of value; zero stays >= 0
        if value < 0:
            value, slope = -value, -slope
        if slope < 0:
            bounds.append((value - (value > 0)) // -slope)

    fd = _facets(drift)
    for x, v in zip(states, period):
        fx = _facets(x)
        for row in TRIANGLE_ROWS[v]:
            keep(_slack(x, row), _slack(drift, row))
        for u in range(4):
            keep(fx[v] - fx[u], fd[v] - fd[u])
            if u < v and fx[u] == fx[v]:  # a tied earlier vertex stays inapplicable
                row = next(r for r in TRIANGLE_ROWS[u] if _slack(x, r) < 0)
                keep(_slack(x, row), _slack(drift, row))
        for i in FACET_POSITIONS[v]:
            keep(x[i], drift[i])
        for i, j in OPPOSITE_PAIRS if watch_ci else ():
            keep(x[i] + x[j], drift[i] + drift[j])
            if not x[i] + x[j]:  # a zero pair: keep two of the other four apart
                a, *rest = (k for k in range(6) if k not in (i, j))
                b = next(k for k in rest if x[k] != x[a])
                keep(x[b] - x[a], drift[b] - drift[a])
    return min(bounds, default=0)


def reduction_trace(t: TetTuple) -> ReductionTrace:
    """Iterate maximal-weight reductions down to the trivial or a minimal
    curve, jumping over repeated periods."""
    e = list(t.entries)
    vertices: list[int] = []
    weights: list[int] = []
    states: list[tuple[int, ...]] = []  # parents of the steps since the last jump
    ci = None  # ((chain index, r), element) of the first CI-power element
    while (v := _max_weight_vertex(e)) is not None:
        if ci is None and (r := _ci_power(e)) is not None:
            ci = (len(vertices), r), TetTuple(tuple(e))
        states.append(tuple(e))
        vertices.append(v)
        weights.append(_facets(e)[v])
        for i in FACET_POSITIONS[v]:
            e[i] = max(0, e[i] - 1)
        for p in range(1, min(6, len(states) // 2) + 1):
            if vertices[-p:] != vertices[-2 * p : -p]:
                continue
            drift = [b - a for a, b in zip(states[-p], e)]
            ahead = _periods_ahead(states[-p:], drift, vertices[-p:], ci is None)
            if ahead:
                fd, last = _facets(drift), list(zip(weights[-p:], vertices[-p:]))
                weights.extend(w + m * fd[u] for m in range(1, ahead + 1) for w, u in last)
                vertices.extend(vertices[-p:] * ahead)
                e = [a + ahead * s for a, s in zip(e, drift)]
                states.clear()
            break
    terminal = TetTuple(tuple(e))
    return ReductionTrace(
        start=t,
        vertices=tuple(vertices),
        weights=tuple(weights),
        terminal=terminal,
        terminal_kind=TerminalKind.TRIVIAL if terminal.is_trivial else TerminalKind.MINIMAL,
        first_ci_power=ci and ci[0],
        ci_power_element=ci and ci[1],
    )


def is_acm(t: TetTuple) -> bool:
    """A curve is arithmetically Cohen-Macaulay iff it reduces to the trivial
    curve (the trivial curve itself is treated as its own kind)."""
    if t.is_trivial:
        return False
    return reduction_trace(t).is_acm


def is_cwl(t: TetTuple) -> bool:
    """Componentwise linearity: every non-ACM curve is componentwise linear;
    an ACM curve is iff its reduction chain avoids CI-power curves."""
    if t.is_trivial:
        raise TrivialCurveError("componentwise linearity is undefined for the trivial curve")
    trace = reduction_trace(t)
    if trace.terminal_kind is TerminalKind.MINIMAL:
        return True
    return trace.first_ci_power is None


def schwartau_status(t: TetTuple) -> tuple[bool, bool]:
    """(is_schwartau, componentwise_linear).

    A Schwartau curve has a_2 = a_5 = 0; it fails componentwise linearity
    exactly when a_1, a_3, a_4, a_6 are all positive and a_1+a_6 = a_3+a_4.
    """
    a1, a2, a3, a4, a5, a6 = t
    is_schwartau = a2 == 0 and a5 == 0
    if is_schwartau:
        fails = a1 > 0 and a3 > 0 and a4 > 0 and a6 > 0 and a1 + a6 == a3 + a4
        return True, not fails
    return False, is_cwl(t)


def degree_of_tuple(t: TetTuple) -> int:
    """deg C = sum a_i (a_i + 1) / 2; additive with deg F along reductions."""
    return sum(a * (a + 1) // 2 for a in t)


def buchsbaum_minimal_r(t: TetTuple) -> int | None:
    """r when t is, up to symmetry, the minimal arithmetically Buchsbaum
    curve (r, 0, r-1, r-1, 0, r); otherwise None."""
    if t.is_trivial:
        return None
    r = max(t.entries)
    # S4 only permutes the entries, so other sorted entries mean another orbit
    if sorted(t.entries) != [0, 0, r - 1, r - 1, r, r]:
        return None
    model = TetTuple((r, 0, r - 1, r - 1, 0, r))
    if canonicalize(t)[0] == canonicalize(model)[0]:
        return r
    return None


def regularity_closed_form(t: TetTuple) -> int:
    """Castelnuovo-Mumford regularity read off the tuple: 2r+1 for CI-power
    curves, a_1+a_6 (max edge plus its opposite) for minimal curves, and the
    maximal facet weight otherwise."""
    if t.is_trivial:
        raise TrivialCurveError("regularity is undefined for the trivial curve")
    r = ci_power_form(t)
    if r is not None:
        return 2 * r + 1
    if is_minimal(t):
        i = max(range(6), key=lambda k: t.entries[k])
        return t.entries[i] + t.entries[OPPOSITE[i]]
    return max(facet_weights(t))


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregated classification flags for one tuple."""

    trivial: bool
    acm: bool
    minimal: bool
    buchsbaum_minimal_r: int | None
    schwartau: bool
    componentwise_linear: bool
    linear_resolution: bool
    ci_power_r: int | None
    degree: int
    regularity: int | None
