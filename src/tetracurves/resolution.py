"""Closed-form graded Betti tables of tetrahedral curves.

The table of any curve is assembled from its maximal-weight reduction
chain: each step contributes one generator in degree (facet weight of the
chain element) plus the accumulated shift and one first syzygy one degree
higher, and everything sits on top of a base resolution that is shifted by
the number of steps.  The base is the terminal minimal curve (non-ACM
case), the unit ideal contributing a single shifted generator (ACM
componentwise-linear case), or the topmost chain element of CI-power shape
(0,r,r,r,r,0) (ACM non-componentwise-linear case), whose mapping cone is
the one step where minimality fails.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product

from .exceptions import (
    EnumerationCapError,
    IsACMError,
    NotMinimalError,
    TrivialCurveError,
    refuse_over_limit,
)
from .koszul import BettiTable
from .tuples import (
    ClassificationReport,
    ReductionTrace,
    Run,
    TetTuple,
    apply_reduction,
    buchsbaum_minimal_r,
    canonicalize,
    ci_power_form,
    degree_of_tuple,
    facet_weights,
    is_minimal,
    max_weight_choices,
    pair_profile,
    reduction_applicable,
    reduction_trace,
    regularity_closed_form,
    FACET_POSITIONS,
)

_BYTES_PER_ENTRY = 610  # peak RSS of `betti --format json` per entry (slope over two sizes: 606-607)


def minimal_curve_betti(t: TetTuple) -> BettiTable:
    """Linear resolution of a minimal curve.  With the maximal weight moved
    to a_6 (so a_1 sits on the opposite edge; the pair is the profile's last,
    the one pair that holds the maximal weight), the ranks are

        b1 = (a1+1)(a6+1) - S,  b2 = 2 a1 a6 + a1 + a6 - 2S,  b3 = a1 a6 - S,

    where S = sum a_i(a_i+1)/2 over the four other edges, in degrees
    a1+a6, a1+a6+1, a1+a6+2."""
    if not is_minimal(t):
        raise NotMinimalError(f"({t}) is not a minimal curve")
    *rest, (a1, a6) = pair_profile(t)
    s = sum(a * (a + 1) // 2 for pair in rest for a in pair)
    d = a1 + a6
    return BettiTable.from_dict(
        {
            (0, d): (a1 + 1) * (a6 + 1) - s,
            (1, d + 1): 2 * a1 * a6 + a1 + a6 - 2 * s,
            (2, d + 2): a1 * a6 - s,
        }
    )


def ci_power_betti(r: int) -> BettiTable:
    """Pure non-linear resolution of the r-th power of the (2,2) complete
    intersection: r+1 generators in degree 2r, r syzygies in degree 2r+2."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return BettiTable.from_dict({(0, 2 * r): r + 1, (1, 2 * r + 2): r})


@dataclass(frozen=True)
class ResolutionRecipe:
    """Assembly plan for a Betti table from a reduction chain: a base table
    shifted by the number of steps, plus one generator/syzygy pair per step
    at (F degree + shift, F degree + shift + 1), where the k-th step from
    the top has shift k.  The F degrees come as `Run`s, top first."""

    base_betti: BettiTable
    runs: tuple[Run, ...]

    def assemble(self) -> BettiTable:
        """The table, counted run by run: position q of a run of period p at
        shift n has generator degrees w_q + n + q + m (p + drift_q).  Raises
        OracleTooLargeError before a run takes it past ORACLE_MEMORY_LIMIT."""
        degrees, n = Counter(), 0
        for weights, drift, count, _ in self.runs:
            p = len(weights)
            firsts = map(operator.add, weights, range(n, n + p))
            if count == 1:
                degrees.update(firsts)
            for first, d in zip(firsts, drift) if count > 1 else ():
                if not p + d:
                    degrees[first] += count
                else:
                    refuse_over_limit(2 * (len(degrees) + count) * _BYTES_PER_ENTRY,
                                      f"a Betti table of over {2 * count} entries needs")
                    degrees.update(range(first, first + count * (p + d), p + d))
            n += p * count
        rows = (degrees, {j + 1: r for j, r in degrees.items()}, {})
        for i, j, r in self.base_betti.entries:
            rows[i][j + n] = rows[i].get(j + n, 0) + r
        entries = tuple((i, j, row[j]) for i, row in enumerate(rows) for j in sorted(row))
        if any(r < 0 for _, _, r in entries):
            raise ValueError("negative Betti number")
        return BettiTable(entries)

    @property
    def is_linear(self) -> bool:
        """`assemble().is_linear` read off the runs: every entry lies on one
        strand j - i, so no repeated position changes degree (drift -p)."""
        strands, n = set(), 0
        for weights, drift, count, _ in self.runs:
            if count > 1 and any(len(weights) + d for d in drift):
                return False
            strands.update(map(operator.add, weights, range(n, n + len(weights))))
            n += len(weights) * count
        strands.update(j + n - i for i, j, _ in self.base_betti.entries)
        return len(strands) == 1


def _recipe(runs: tuple[Run, ...], terminal: TetTuple, ci: tuple[int, int] | None) -> ResolutionRecipe:
    """The plan for a chain with these runs of step weights (top first) and
    this terminal; ci is the CI-power base as (chain index, r), where a run
    starts, and the plan then keeps the runs above it on ci_power_betti(r)."""
    if not terminal.is_trivial:
        return ResolutionRecipe(minimal_curve_betti(terminal), runs)
    if ci is None:
        return ResolutionRecipe(BettiTable(((0, 0, 1),)), runs)
    index, r = ci
    head = list(accumulate((len(run.weights) * run.count for run in runs), initial=0)).index(index)
    return ResolutionRecipe(ci_power_betti(r), runs[:head])


def recipe_from_chain(chain: tuple[TetTuple, ...]) -> ResolutionRecipe:
    """Build the assembly plan for an explicit maximal-weight reduction
    chain (top curve first, trivial or minimal terminal last)."""
    ci = next(((k, r) for k, c in enumerate(chain) if (r := ci_power_form(c)) is not None), None)
    return _recipe(tuple(Run((max(facet_weights(c)),), (0,), 1) for c in chain[:-1]), chain[-1], ci)


def resolution_recipe(trace: ReductionTrace) -> ResolutionRecipe:
    """The assembly plan of the traced curve's maximal-weight chain."""
    return _recipe(trace.runs, trace.terminal, trace.first_ci_power)


def betti_table(t: TetTuple) -> BettiTable:
    """Graded Betti table of a non-trivial tetrahedral curve."""
    if t.is_trivial:
        raise TrivialCurveError("the trivial curve has no resolution recipe")
    return resolution_recipe(reduction_trace(t)).assemble()


# the canonical form of each fixed family's model; the profile cannot stand
# in, as two pairs of (1,1,0,1,0,0) have unequal weights
_FIXED_LINEAR_ACM_FAMILIES = {
    canonicalize(model): tag
    for tag, model in (
        ("b", (1, 1, 0, 1, 0, 0)),
        ("c", (1, 1, 1, 1, 1, 1)),
        ("d", (2, 1, 0, 1, 0, 1)),
        ("e", (2, 1, 1, 1, 1, 2)),
    )
}


def acm_linear_family(t: TetTuple) -> tuple[str, int | None] | None:
    """Match t against the six families of ACM curves with linear
    resolution, all up to symmetry:

    (a) fat lines (r,0,0,0,0,0), returned as ("a", r);
    (b) three concurrent non-coplanar lines (1,1,0,1,0,0);
    (c) (1,1,1,1,1,1);
    (d) (2,1,0,1,0,1);
    (e) (2,1,1,1,1,2);
    (f) one orbit per generator degree s >= 2, returned as ("f", s):
        (0,0,1,1,0,1), a chain of three lines, then (0,1,1,1,2,0),
        (0,1,2,2,2,0), (0,2,2,2,3,0), ...: the pair profile is
        [(0,0), (m-1,m), (m,m)] (s = 2m) or [(0,0), (m,m), (m,m+1)] (s = 2m+1).

    Every family is matched by its shape alone, without a Betti table: (a)
    and (f) by `pair_profile`, (b)-(e) by their canonical forms.
    Returns (family tag, r or s or None), or None outside the families."""
    if t.is_trivial:
        return None
    zero, (a, b), (c, d) = pair_profile(t)
    if zero == (0, 0) and b == c == 0:
        return ("a", d)  # [(0,0), (0,0), (0,r)]
    if zero == (0, 0) and b == c >= 1 and (a, d) in ((b - 1, b), (b, b + 1)):
        return ("f", c + d)
    return (tag, None) if (tag := _FIXED_LINEAR_ACM_FAMILIES.get(canonicalize(t))) else None


def ascent_candidates(t: TetTuple, required_F_degree: int | None = None) -> set[tuple[TetTuple, int]]:
    """All (parent, G) with apply_reduction(parent, G).child == t and, when
    a degree is given, deg F equal to it.  Facet entries of the parent
    are a_i + 1 where a_i > 0 and independently 0 or 1 where a_i = 0, and
    deg F is their sum."""
    out: set[tuple[TetTuple, int]] = set()
    for G, positions in enumerate(FACET_POSITIONS):
        for raised in product(*((t[i] + 1,) if t[i] else (0, 1) for i in positions)):
            if required_F_degree is not None and sum(raised) != required_F_degree:
                continue
            parent = list(t)
            for i, a in zip(positions, raised):
                parent[i] = a
            # a parent equal to t has a zero facet, which no reduction applies to
            if reduction_applicable(parent, G):
                out.add((TetTuple(parent), G))
    return out


_ASCENT_LEVEL_CAP = 10


def enumerate_linear_in_class(minimal: TetTuple) -> set[TetTuple]:
    """Canonical orbits of all curves with linear resolution in the even
    liaison class of a minimal non-ACM curve, found by ascending basic
    double links whose F degree is forced by linearity.

    The ascent is provably finite; a safety cap aborts runaway levels."""
    if not minimal.is_trivial and reduction_trace(minimal).is_acm:
        raise IsACMError(f"({minimal}) is arithmetically Cohen-Macaulay")
    if not is_minimal(minimal):
        raise NotMinimalError(f"({minimal}) is not a minimal curve")
    found = {canonicalize(minimal)}
    level = set(found)
    generator_degree = minimal_curve_betti(minimal).min_generator_degree
    rounds = 0
    while level:
        rounds += 1
        if rounds > _ASCENT_LEVEL_CAP:
            raise EnumerationCapError(
                f"linear-resolution ascent from ({minimal}) exceeded "
                f"{_ASCENT_LEVEL_CAP} levels"
            )
        next_level: set[TetTuple] = set()
        for t in level:
            for parent, _ in ascent_candidates(t, generator_degree + 1):
                canon = canonicalize(parent)
                if canon not in found and betti_table(parent).is_linear:
                    found.add(canon)
                    next_level.add(canon)
        level = next_level
        generator_degree += 1
    return found


def gin_betti_prediction(t: TetTuple) -> BettiTable:
    """Betti table of the reverse-lex generic initial ideal: identical to
    the curve's table when componentwise linear; otherwise r extra
    generators and syzygies appear one above the least generator degree,
    with r taken from the CI-power curve in the reduction chain."""
    if t.is_trivial:
        raise TrivialCurveError("gin is undefined for the trivial curve")
    trace = reduction_trace(t)
    table = resolution_recipe(trace).assemble()
    if trace.is_cwl:
        return table
    r = trace.first_ci_power[1]
    p = table.min_generator_degree
    return table + BettiTable.from_dict({(0, p + 1): r, (1, p + 1): r})


def classify(t: TetTuple) -> ClassificationReport:
    """Full classification of one tuple; the trivial curve is reported only
    as trivial."""
    if t.is_trivial:
        return ClassificationReport(
            trivial=True,
            acm=False,
            minimal=False,
            buchsbaum_minimal_r=None,
            schwartau=True,
            componentwise_linear=False,
            linear_resolution=False,
            ci_power_r=None,
            degree=0,
            regularity=None,
        )
    trace = reduction_trace(t)
    minimal = not trace.runs  # t is its own terminal
    return ClassificationReport(
        trivial=False,
        acm=trace.is_acm,
        minimal=minimal,
        buchsbaum_minimal_r=buchsbaum_minimal_r(t) if minimal else None,
        schwartau=t[1] == 0 and t[4] == 0,
        componentwise_linear=trace.is_cwl,
        linear_resolution=resolution_recipe(trace).is_linear,
        ci_power_r=ci_power_form(t),
        degree=degree_of_tuple(t),
        regularity=regularity_closed_form(t),
    )


def all_max_weight_chains(t: TetTuple):
    """Yield every maximal-weight reduction chain (all tie-break choices)."""
    choices = max_weight_choices(t)
    if not choices:
        yield (t,)
        return
    for G in choices:
        child = apply_reduction(t, G).child
        for rest in all_max_weight_chains(child):
            yield (t,) + rest
