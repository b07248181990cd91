"""Tetrahedral 6-tuples, the tetrahedron symmetry action, and the reduction
calculus by basic double linkage.

A tetrahedral curve is encoded by six non-negative weights on the edges
(a,b), (a,c), (a,d), (b,c), (b,d), (c,d) of the coordinate tetrahedron.  A
`TetTuple` is a tuple of these six ints, validated once when it is made;
the calculus indexes any sequence of six ints.  S4 acts on the vertices,
and so on the edges, through one table of 24 edge-index rows: `permute`
applies it, and only `canonicalize` reads orbits off it.  S4 moves
the three pairs of opposite edges and the weights inside them, so
`pair_profile` is an orbit invariant, complete where at most one pair has
unequal weights: the shapes the calculus names are read off it.

Each vertex v determines a reduction: when the three edges at v dominate
the opposite triangle, the curve is a basic double link ``G*I + (F)`` of
the curve with those three edge weights lowered by one, where G is the
vertex variable and F collects the edge weights at v.  A reduction is named
by its vertex G, an index 0..3 (`variable_index` also reads a..d), and a
`ReductionStep` is G, parent and child; F and deg F are read off them, and
F, the one `Monomial`, is formed only when read.  Iterating along facets of
maximal weight drives every curve down to the trivial curve or to a minimal
one, and the shape of that chain decides ACM-ness, componentwise
linearity, and regularity.

`reduction_trace` works on the six integers and jumps over periods.  Each
step's vertex comes from `_max_weight_vertex`, which forms the four facet
weights once.  Two cheap tests are exact: `ci_power_form` runs only beside a
zero opposite-pair sum, which every CI-power shape has, and a period p is
compared in full only when the newest vertex equals the one p steps back, a
pair the full comparison reads.  When
the last 2p reduced vertices repeat with period p, every quantity a step's
decision reads is affine in the number k of further periods: the reduced
vertex's triangle slacks, its facet-weight gaps to the other facets (and,
for an earlier vertex that ties and is skipped, one violated slack), every
lowered edge, and, until a CI-power curve is seen, each opposite-pair sum
and, beside a zero pair, one nonzero difference of the other four.  The
decisions repeat while each of these keeps its sign at k = 0 (zero
counting as non-negative); the least k where one would lose it is solved
by floor division and jumped at once.  A jump is recorded as one `Run`:
the period's vertices, its first step weights, their drift per repetition
and the repeat count, so the trace's record does not grow with the
weights.  Its views `weights` and `steps` are expanded from the runs when
read, each refused with OracleTooLargeError beyond the memory limit; the
classification flags, the linearity of the Betti table and
`len(steps)` are read off the runs and the CI-power base, kept as (chain
index, r) alone, where a run starts.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .exceptions import NotApplicableError, TrivialCurveError, refuse_over_limit

if TYPE_CHECKING:
    from .monomials import Monomial

VARIABLES = "abcd"
NVARS = 4


def variable_index(g: int | str) -> int:
    """Accept a variable as an index 0..3 or as one letter of a..d; anything
    else, a bool, "" or "bc" too, raises ValueError."""
    if isinstance(g, str) and len(g) == 1 and g in VARIABLES:
        return VARIABLES.index(g)
    if isinstance(g, int) and not isinstance(g, bool) and 0 <= g < NVARS:
        return g
    raise ValueError(f"not a variable: {g!r}")


# Edge i of the tetrahedron (0-based) joins these two vertices; opposite
# edges are at positions (0,5), (1,4), (2,3).
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
OPPOSITE_PAIRS = ((0, 5), (1, 4), (2, 3))


class TetTuple(tuple):
    """Six non-negative edge weights of a tetrahedral curve: a tuple of six
    ints, so it compares, hashes and sorts like the plain tuple of its
    entries."""

    __slots__ = ()

    def __new__(cls, entries):
        self = tuple.__new__(cls, entries)
        if len(self) != 6 or any(type(a) is not int or a < 0 for a in self):
            raise ValueError(f"need six non-negative integer weights, got {tuple(self)}")
        return self

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

    @property
    def entries(self) -> tuple[int, int, int, int, int, int]:
        """The weights as a plain tuple."""
        return tuple(self)

    @property
    def is_trivial(self) -> bool:
        return not any(self)

    @property
    def total(self) -> int:
        return sum(self)

    def __str__(self) -> str:
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"TetTuple({self})"


_EDGE_INDEX = {frozenset(e): i for i, e in enumerate(EDGES)}
VERTEX_PERMUTATIONS: tuple[tuple[int, ...], ...] = tuple(
    itertools.permutations(range(4))
)


def _edge_row(pi: tuple[int, ...]) -> tuple[int, ...]:
    """Position j of the image of a tuple under pi holds the weight of edge
    row[j]: the weight at edge {x,y} moves to edge {pi(x),pi(y)}."""
    row = [0] * 6
    for i, (x, y) in enumerate(EDGES):
        row[_EDGE_INDEX[frozenset((pi[x], pi[y]))]] = i
    return tuple(row)


# the edge-index row of each vertex permutation, in VERTEX_PERMUTATIONS order
_PERMUTED_EDGES: dict[tuple[int, ...], tuple[int, ...]] = {
    pi: _edge_row(pi) for pi in VERTEX_PERMUTATIONS
}


def permute(t: Sequence[int], pi: tuple[int, ...]) -> TetTuple:
    """Apply a vertex permutation: the weight at edge {x,y} moves to {pi(x),pi(y)}."""
    return TetTuple([t[i] for i in _PERMUTED_EDGES[pi]])


def canonicalize(t: Sequence[int]) -> TetTuple:
    """Lexicographically smallest tuple in the 24-element orbit."""
    return TetTuple(min(tuple([t[i] for i in row]) for row in _PERMUTED_EDGES.values()))


def pair_profile(t: Sequence[int]) -> list[tuple[int, int]]:
    """The three opposite-edge pairs of t, each sorted, in sorted order: the
    same on a whole orbit, and on no other orbit when at most one pair has
    unequal weights ((1,1,1,0,0,0) and (1,1,0,1,0,0) share [(0, 1)] * 3)."""
    return sorted((t[i], t[j]) if t[i] <= t[j] else (t[j], t[i]) for i, j in OPPOSITE_PAIRS)


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


def facet_weights(t: Sequence[int]) -> tuple[int, int, int, int]:
    """The four facet weights (w_A, w_B, w_C, w_D)."""
    return tuple(t[i] + t[j] + t[k] for i, j, k in FACET_POSITIONS)


def _slack(e, row: tuple[int, int, int]) -> int:
    i, j, k = row
    return e[i] + e[j] - e[k]


def _applicable(t: Sequence[int], v: int) -> bool:
    return all(_slack(t, row) >= 0 for row in TRIANGLE_ROWS[v]) and any(t)


def reduction_applicable(t: Sequence[int], G: int | str) -> bool:
    """True when t is non-trivial and the three inequalities at vertex G hold."""
    return _applicable(t, variable_index(G))


@dataclass(frozen=True)
class ReductionStep:
    """One basic double link: parent = G * I(child) + (F), with G the vertex
    index 0..3 and F read off G and the parent."""

    G: int
    parent: TetTuple
    child: TetTuple

    @property
    def G_name(self) -> str:
        return VARIABLES[self.G]

    @property
    def weight(self) -> int:
        """deg F, the facet weight of the reduced facet on the parent."""
        return sum(self.parent[i] for i in FACET_POSITIONS[self.G])

    @property
    def F(self) -> Monomial:
        from .monomials import Monomial  # the monomial engine loads only when F is read

        v, exps = self.G, [0] * NVARS
        for i in FACET_POSITIONS[v]:
            exps[sum(EDGES[i]) - v] = self.parent[i]  # the edge's other end
        return Monomial(exps)


def apply_reduction(t: TetTuple, G: int | str) -> ReductionStep:
    """Reduce the facet at vertex G, lowering its three edge weights by one."""
    return _reduce(t, variable_index(G))


def _reduce(t: TetTuple, v: int) -> ReductionStep:
    if not _applicable(t, v):
        raise NotApplicableError(f"reduction {VARIABLES[v].upper()} not applicable to ({t})")
    child = list(t)
    for i in FACET_POSITIONS[v]:
        child[i] = max(0, child[i] - 1)
    return ReductionStep(v, t, TetTuple(child))


def is_minimal(t: Sequence[int]) -> bool:
    """True when t is non-trivial and admits none of the four reductions."""
    return any(t) and not any(_applicable(t, v) for v in range(NVARS))


def _max_weight_vertex(e: Sequence[int]) -> tuple[int | None, tuple[int, int, int, int]]:
    """The vertex of an applicable reduction of maximal facet weight at e,
    ties broken A < B < C < D (None when e is trivial or minimal), and the
    four facet weights."""
    e0, e1, e2, e3, e4, e5 = e
    fw = (e0 + e1 + e2, e0 + e3 + e4, e1 + e3 + e5, e2 + e4 + e5)
    top = max(fw)
    if top:
        for v, rows in enumerate(TRIANGLE_ROWS):
            if fw[v] == top:
                for i, j, k in rows:
                    if e[i] + e[j] < e[k]:
                        break
                else:
                    return v, fw
        # a non-minimal curve can always be reduced along a maximal-weight facet
        if not is_minimal(e):
            raise AssertionError(f"no maximal-weight reduction found for {tuple(e)}")
    return None, fw


class TerminalKind(Enum):
    TRIVIAL = "trivial"
    MINIMAL = "minimal"


def ci_power_form(t: Sequence[int]) -> int | None:
    """r >= 1 when t is, up to symmetry, (0,r,r,r,r,0): the r-th power of a
    (2,2) complete intersection supported on two pairs of opposite edges."""
    if t[0] + t[5] and t[1] + t[4] and t[2] + t[3]:  # every CI power has a zero opposite pair
        return None
    r = max(t)
    return r if r and pair_profile(t) == [(0, 0), (r, r), (r, r)] else None


class Run(NamedTuple):
    """A period of a trace repeated `count` times: the step weights of its
    first repetition, per position their drift from one repetition to the
    next, and its reduced vertices (none for a chain given without them).
    Steps that do not repeat make a run of one."""

    weights: tuple[int, ...]
    drift: tuple[int, ...]
    count: int
    vertices: tuple[int, ...] = ()


# peak RSS per step of `reduce --trace --format json` (slope over two sizes:
# 2,022-2,027) and per weight of `ReductionTrace.weights` (40.0-40.1)
_BYTES_PER_STEP = 2030
_BYTES_PER_WEIGHT = 41


class _TraceSteps(Sequence):
    """The steps of a trace, made from its runs when an item is first read;
    `len` makes no `ReductionStep`."""

    def __init__(self, start: TetTuple, runs: tuple[Run, ...], count: int):
        self._start, self._runs, self._count = start, runs, count

    def __len__(self) -> int:
        return self._count

    @functools.cached_property
    def _items(self) -> tuple[ReductionStep, ...]:
        refuse_over_limit(self._count * _BYTES_PER_STEP, f"a trace of {self._count} steps needs")
        steps, cur = [], self._start
        for run in self._runs:
            for v in run.vertices * run.count:
                steps.append(_reduce(cur, v))
                cur = steps[-1].child
        return tuple(steps)

    def __getitem__(self, index):
        return self._items[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self._items == tuple(other)


@dataclass(frozen=True)
class ReductionTrace:
    """The maximal-weight reduction chain from a curve down to its terminal.

    The record holds its runs, top first.  `first_ci_power` is the CI-power
    base the Betti table of an ACM, not componentwise linear curve is built
    on: the topmost chain element (0,r,r,r,r,0), as (chain index, r), where
    a run starts.  The views `weights` (the maximal facet weight of each
    parent) and `steps` are expanded from the runs when read, behind the
    size guard; the chain is the steps' parents, then `terminal`.
    """

    start: TetTuple
    runs: tuple[Run, ...]
    step_count: int  # len(steps), also past sys.maxsize, where len overflows
    terminal: TetTuple
    first_ci_power: tuple[int, int] | None

    @property
    def terminal_kind(self) -> TerminalKind:
        return TerminalKind.TRIVIAL if self.terminal.is_trivial else TerminalKind.MINIMAL

    @property
    def weights(self) -> tuple[int, ...]:
        n = self.step_count
        refuse_over_limit(n * _BYTES_PER_WEIGHT, f"the weights of a trace of {n} steps need")
        return tuple(w + m * d for ws, ds, count, _ in self.runs for m in range(count) for w, d in zip(ws, ds))

    @functools.cached_property
    def steps(self) -> _TraceSteps:
        return _TraceSteps(self.start, self.runs, self.step_count)

    @property
    def is_acm(self) -> bool:
        return self.terminal.is_trivial

    @property
    def is_cwl(self) -> bool:
        """Componentwise linearity: every non-ACM curve is componentwise
        linear; an ACM curve is iff its chain avoids CI-power curves."""
        return not self.is_acm or self.first_ci_power is None


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

    fd = facet_weights(drift)
    for x, v in zip(states, period):
        fx = facet_weights(x)
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


def _stretch(vertices: list[int], weights: list[int]) -> list[Run]:
    """Steps that do not repeat: one run of count 1, or none."""
    return [Run(tuple(weights), (0,) * len(weights), 1, tuple(vertices))] if vertices else []


def reduction_trace(t: TetTuple) -> ReductionTrace:
    """Iterate maximal-weight reductions down to the trivial or a minimal
    curve, jumping over repeated periods."""
    e = list(t)
    runs: list[Run] = []
    done = 0  # steps in runs
    # the steps since the last run: reduced vertices, step weights and parents
    vertices: list[int] = []
    weights: list[int] = []
    states: list[tuple[int, ...]] = []
    ci = None  # (chain index, r) of the first CI-power element
    v, fw = _max_weight_vertex(e)
    while v is not None:
        # every CI-power shape has a zero opposite pair
        if ci is None and not (e[0] + e[5] and e[1] + e[4] and e[2] + e[3]) and (r := ci_power_form(e)):
            ci = done + len(vertices), r
            runs += _stretch(vertices, weights)  # a run starts at the CI-power element
            done, vertices, weights, states = done + len(vertices), [], [], []
        states.append(tuple(e))
        vertices.append(v)
        weights.append(fw[v])
        for i in FACET_POSITIONS[v]:
            if e[i]:
                e[i] -= 1
        for p in range(1, min(6, len(states) // 2) + 1):
            if vertices[-1] != vertices[-1 - p] or vertices[-p:] != vertices[-2 * p : -p]:
                continue
            drift = [b - a for a, b in zip(states[-p], e)]
            ahead = _periods_ahead(states[-p:], drift, vertices[-p:], ci is None)
            if ahead:
                fd, period = facet_weights(drift), tuple(vertices[-p:])
                runs += _stretch(vertices[:-p], weights[:-p])
                runs.append(Run(tuple(weights[-p:]), tuple(fd[u] for u in period), ahead + 1, period))
                done += len(vertices) + ahead * p
                e = [a + ahead * s for a, s in zip(e, drift)]
                vertices, weights, states = [], [], []
            break
        v, fw = _max_weight_vertex(e)
    return ReductionTrace(
        start=t,
        runs=tuple(runs + _stretch(vertices, weights)),
        step_count=done + len(vertices),
        terminal=TetTuple(e),
        first_ci_power=ci,
    )


def is_acm(t: TetTuple) -> bool:
    """A curve is arithmetically Cohen-Macaulay iff it reduces to the trivial
    curve (the trivial curve itself is treated as its own kind)."""
    if t.is_trivial:
        return False
    return reduction_trace(t).is_acm


def is_cwl(t: TetTuple) -> bool:
    """Componentwise linearity of a non-trivial curve (`ReductionTrace.is_cwl`)."""
    if t.is_trivial:
        raise TrivialCurveError("componentwise linearity is undefined for the trivial curve")
    return reduction_trace(t).is_cwl


def degree_of_tuple(t: TetTuple) -> int:
    """deg C = sum a_i (a_i + 1) / 2; additive with deg F along reductions."""
    return sum(a * (a + 1) // 2 for a in t)


def buchsbaum_minimal_r(t: TetTuple) -> int | None:
    """r when t is, up to symmetry, the minimal arithmetically Buchsbaum
    curve (r, 0, r-1, r-1, 0, r); otherwise None."""
    r = max(t)
    return r if r and pair_profile(t) == [(0, 0), (r - 1, r - 1), (r, r)] else None


def regularity_closed_form(t: TetTuple) -> int:
    """Castelnuovo-Mumford regularity read off the tuple: 2r+1 for CI-power
    curves, a_1+a_6 (max edge plus its opposite, the profile's last pair) for
    minimal curves, and the maximal facet weight otherwise."""
    if t.is_trivial:
        raise TrivialCurveError("regularity is undefined for the trivial curve")
    r = ci_power_form(t)
    if r is not None:
        return 2 * r + 1
    if is_minimal(t):
        return sum(pair_profile(t)[-1])
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
