"""Named verification suites cross-validating the closed-form theory
against the independent oracles.

Every suite runs a batch of checks over all tuples up to a weight bound
(plus seeded random samples where stated) and reports one result per
check.  The betti/cwl/regularity/truncation suites compare closed-form
results with the Koszul-homology oracle; the gin suite compares the
combinatorial gin constructions with the finite-field Groebner oracle.

Every check is called as check(bound, seeds, primes): most are `Check`
rows, a stream of cases and a test of one case, and five that build
their own result are functions.  `SUITES` lists each suite's default
bound and checks.

What only checks read lives here, beside them: basic double links,
components (I_d), truncations I_{>=d}, the walk over every tie-break, and
the published claims (numerical minimality, Schwartau's criterion, the six
ACM families with linear resolution, the gin's Betti table).
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from math import comb

from . import gin as gin_mod
from . import groebner, monomials, resolution, tuples
from .exceptions import FNotInIdealError, GDividesFError, TetracurvesError, TrivialCurveError, refuse_over_limit
from .koszul import BettiTable, cached_betti_oracle
from .monomials import Monomial, MonomialIdeal, hilbert_data, ideal_of_tuple
from .tuples import TetTuple, TerminalKind


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": [asdict(c) for c in self.checks],
        }


def iter_tuples(max_total: int, include_trivial: bool = False):
    """All 6-tuples with weight sum at most max_total."""
    for total in range(0 if include_trivial else 1, max_total + 1):
        for cuts in itertools.combinations(range(total + 5), 5):
            yield TetTuple(b - a - 1 for a, b in zip((-1, *cuts), (*cuts, total + 5)))


def _sweep(name: str, cases, fails) -> CheckResult:
    """Run `fails` on every case and summarize.  `fails(case)` is falsy when
    the case passes; otherwise it is True (the case is the failing input),
    a list of the case's failing inputs, or its one failing input."""
    failures, total = [], 0
    for case in cases:
        total += 1
        bad = fails(case)
        if bad:
            failures += bad if isinstance(bad, list) else [case if bad is True else bad]
    if failures:
        shown = "; ".join(map(str, failures[:3]))
        return CheckResult(name, False, f"{len(failures)}/{total} failed, e.g. {shown}")
    return CheckResult(name, True, f"{total} cases")


@dataclass(frozen=True)
class Check:
    """A sweep row: `cases(bound, seeds, primes)` streams the cases, `fails`
    tests one (see `_sweep`), and the bound is lowered to `cap` when set.
    Both look the closed forms and oracles up by name when they run."""

    name: str
    cases: Callable
    fails: Callable
    cap: int | None = None

    def __call__(self, bound=None, seeds=(1, 2), primes=groebner.DEFAULT_PRIMES) -> CheckResult:
        bound = bound if self.cap is None else min(bound, self.cap)
        return _sweep(self.name, self.cases(bound, seeds, primes), self.fails)


def row(name: str, cases, cap: int | None = None):
    """Make the decorated case test the `fails` of a `Check` row."""
    return lambda fails: Check(name, cases, fails, cap)


def oracle_table(t: TetTuple) -> BettiTable:
    return cached_betti_oracle(ideal_of_tuple(t))


@functools.lru_cache(maxsize=8192)
def _oracle_gin(t: TetTuple, seeds: tuple[int, int], primes: tuple[int, int]) -> gin_mod.StableIdeal:
    """The Groebner gin of a curve, computed once per (tuple, seeds, primes)."""
    return groebner.gin_oracle(ideal_of_tuple(t), seeds=seeds, primes=primes)


# the case streams that several checks share

def _tuples(bound, *_):
    return iter_tuples(bound)


def _traces(bound, *_):
    return (tuples.reduction_trace(t) for t in iter_tuples(bound))


def _steps(bound, *_):
    return (s for trace in _traces(bound) for s in trace.steps)


def _acm_tuples(bound, *_):
    return (t for t in iter_tuples(bound) if tuples.is_acm(t))


def _gin_tuples(bound, seeds, primes):
    """The tuples that gin_of_curve supports, with their gins, seeds and primes."""
    return ((t, g, seeds, primes) for t in iter_tuples(bound) if (g := gin_mod.gin_of_curve(t)) is not None)


# ---------------------------------------------------------------- reduction

@row("degree formula equals Hilbert-polynomial degree", lambda b, *_: iter_tuples(b, include_trivial=True))
def check_degree_vs_hilbert(t):
    ideal = ideal_of_tuple(t)
    upto = (cached_betti_oracle(ideal).regularity if not t.is_trivial else 0) + 3
    return hilbert_data(ideal, upto).degree != tuples.degree_of_tuple(t)


check_degree_additivity = Check(
    "degree additive along reduction steps", _steps,
    lambda s: tuples.degree_of_tuple(s.parent) != tuples.degree_of_tuple(s.child) + s.weight and s.parent,
)


def basic_double_link(ideal: MonomialIdeal, g: int | str, F: Monomial) -> MonomialIdeal:
    """Minimal generators of g*I + (F) for a variable g and F in I."""
    gi = tuples.variable_index(g)
    if F[gi] > 0:
        raise GDividesFError(f"{tuples.VARIABLES[gi]} divides {F}; (g, F) is not a regular sequence")
    if not ideal.contains(F):
        raise FNotInIdealError(f"{F} is not in {ideal}")
    xg = Monomial.variable(gi)
    return MonomialIdeal((*(xg * m for m in ideal), F))


@row("G*I(child) + (F) rebuilds the parent ideal",
     lambda b, *_: ((t, G) for t in iter_tuples(b) for G in range(tuples.NVARS) if tuples.reduction_applicable(t, G)))
def check_bdl_reconstruction(case):
    step = tuples.apply_reduction(*case)
    rebuilt = basic_double_link(ideal_of_tuple(step.child), step.G, step.F)
    return rebuilt != ideal_of_tuple(step.parent) and (step.parent, step.G_name.upper())


def minimal_by_weight(t: TetTuple, margin: int = 0) -> bool:
    """The paper's numerical minimality test at margin 0, and the deep minimal
    curves at margin 2: some relabelling with a maximal weight a_6 has
    a_1 > max(a_3+a_5, a_2+a_4) + margin and a_6 > max(a_4+a_5, a_2+a_3) + margin."""
    top = max(t)
    return any(
        a6 == top and a1 > max(a3 + a5, a2 + a4) + margin and a6 > max(a4 + a5, a2 + a3) + margin
        for a1, a2, a3, a4, a5, a6 in (tuples.permute(t, pi) for pi in tuples.VERTEX_PERMUTATIONS)
    )


check_minimality_criterion = Check("definitional minimality equals the weight criterion", _tuples,
                                   lambda t: tuples.is_minimal(t) != minimal_by_weight(t))
check_maxweight_monotone = Check(
    "maximal facet weight strictly drops along traces",
    lambda b, *_: (s for s in _steps(b) if tuples.ci_power_form(s.parent) is None),
    lambda s: max(tuples.facet_weights(s.parent)) <= max(tuples.facet_weights(s.child)) and s.parent,
)

# above the CI-power base of a non-componentwise-linear ACM curve, each F
# degree exceeds the parent's lowest generator degree
check_fdegree = Check("F degree exceeds lowest generator degree above CI base", lambda b, *_: (
    trace.steps[k]
    for trace in _traces(b)
    if trace.is_acm and trace.first_ci_power is not None
    for k in range(trace.first_ci_power[0])
), lambda s: s.weight < resolution.betti_table(s.parent).min_generator_degree + 1 and s.parent)


def _invariants(t):
    trace = tuples.reduction_trace(t)
    return (tuples.is_minimal(t), trace.is_acm, trace.is_cwl, tuples.degree_of_tuple(t),
            tuples.regularity_closed_form(t), tuples.ci_power_form(t),
            resolution.resolution_recipe(trace).assemble().entries)


@row("classifiers invariant under the symmetry action", _tuples, cap=5)
def check_s4_invariance(t):
    reference = _invariants(t)
    perms = tuples.VERTEX_PERMUTATIONS
    return next(((t, pi) for pi in perms if _invariants(tuples.permute(t, pi)) != reference), False)


# ---------------------------------------------------------------- betti

def max_weight_chains(t: TetTuple):
    """Every maximal-weight reduction chain of t, top first and terminal last:
    one per way of breaking the facet-weight ties, the first choices first."""
    weights = tuples.facet_weights(t)
    choices = [G for G in range(tuples.NVARS) if weights[G] == max(weights) and tuples.reduction_applicable(t, G)]
    if not choices:
        yield (t,)
    for G in choices:
        for rest in max_weight_chains(tuples.apply_reduction(t, G).child):
            yield (t, *rest)


def check_builder_vs_oracle_all_choices(bound: int, seeds=None, primes=None) -> CheckResult:
    failed = set()  # a tuple's tie-breaks after its first failing one are skipped

    def fails(case):
        t, expected, chain = case
        if resolution.recipe_from_chain(chain).assemble() != expected:
            failed.add(t)
            return t, [str(c) for c in chain]
        return False

    cases = (
        (t, expected, chain)
        for t in iter_tuples(bound)
        for expected in [oracle_table(t)]
        for chain in max_weight_chains(t)
        if t not in failed
    )
    return _sweep("assembled table equals oracle for every tie-break", cases, fails)


def _random_tuples(bound, seeds, primes):
    rng = random.Random(seeds[0])
    draws = (TetTuple(rng.randint(0, 4) for _ in range(6)) for _ in itertools.count())
    return itertools.islice((t for t in draws if not t.is_trivial), 200)


check_random_builder_vs_oracle = Check("random builder vs oracle (entries <= 4)", _random_tuples,
                                       lambda t: resolution.betti_table(t) != oracle_table(t))

_MINIMAL_SPOTS = {TetTuple((4, 1, 2, 1, 1, 5)): {(0, 9): 24, (1, 10): 37, (2, 11): 14}}  # with their oracle tables


@row("minimal-curve formulas equal oracle", lambda *_: itertools.chain(
    (t for t in map(TetTuple, itertools.product(range(4), repeat=6)) if tuples.is_minimal(t)),  # entries <= 3
    _MINIMAL_SPOTS,
))
def check_minimal_formula(t):
    return resolution.minimal_curve_betti(t) != oracle_table(t) or (
        t in _MINIMAL_SPOTS and oracle_table(t) != BettiTable.from_dict(_MINIMAL_SPOTS[t]))


@row("alternating sums match the Hilbert numerator", _tuples, cap=6)
def check_sum_rule(t):
    """Alternating Betti sums reproduce the Hilbert-series numerator of R/I."""
    table = oracle_table(t)
    top = max(j for _, j, _ in table.entries)
    values = hilbert_data(ideal_of_tuple(t), top + 4).values
    return any(
        sum((-1) ** k * comb(4, k) * values[j - k] for k in range(min(j, 4) + 1))
        != (j == 0) - sum((-1) ** i * table.rank(i, j) for i in range(4))
        for j in range(top + 1)
    )


@row("non-ACM tables keep the step/base shape", lambda b, *_: (tr for tr in _traces(b) if not tr.is_acm))
def check_non_acm_shape(trace):
    """Non-ACM tables: one generator/syzygy pair per step at strictly
    decreasing facet weights, all above the shifted minimal-curve block."""
    recipe, weights = resolution.resolution_recipe(trace), trace.weights
    e0 = recipe.base_betti.min_generator_degree
    strictly_decreasing = all(a > b for a, b in zip(weights, weights[1:]))
    above_base = not weights or weights[-1] > e0
    shifted_block = recipe.assemble().rank(0, e0 + len(weights)) >= recipe.base_betti.rank(0, e0)
    return not (strictly_decreasing and above_base and shifted_block) and trace.start


check_projective_dimension = Check("projective dimension 1 exactly for ACM ideals", _tuples,
                                   lambda t: oracle_table(t).projective_dimension != (1 if tuples.is_acm(t) else 2))


# ---------------------------------------------------------------- cwl

# component_ideal's peak bytes per monomial of the degree (the monomials and
# their int64 rows; 152 by tracemalloc, 153 as the slope of peak RSS from
# degree 150 to 300)
_BYTES_PER_MONOMIAL = 160


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
    refuse_over_limit(comb(d + 3, 3) * _BYTES_PER_MONOMIAL, f"the monomials of degree {d} need")
    least, top = monomials.exponent_box(ideal, bound=d)
    basis = monomials_of_degree(d)
    e = np.minimum(monomials._exponent_rows(basis), top)
    member = e[:, 3] >= least[e[:, 0], e[:, 1], e[:, 2]]
    return MonomialIdeal._from_minimal(itertools.compress(basis, member.tolist()))


@row("is_cwl equals the componentwise oracle", _tuples)
def check_cwl_oracle(t):
    ideal = ideal_of_tuple(t)
    degrees = range(ideal.min_generator_degree, cached_betti_oracle(ideal).regularity + 1)
    pieces = (component_ideal(ideal, d) for d in degrees)
    return tuples.is_cwl(t) != all(p.is_zero or cached_betti_oracle(p).is_linear for p in pieces)


# Schwartau's criterion: a curve with a_2 = a_5 = 0 fails componentwise
# linearity exactly when a_1, a_3, a_4, a_6 are all positive and a_1 + a_6 = a_3 + a_4
check_schwartau = Check("Schwartau criterion agrees with is_cwl",
                        lambda b, *_: (t for t in iter_tuples(b) if t[1] == 0 and t[4] == 0),
                        lambda t: (min(t[0], t[2], t[3], t[5]) > 0 and t[0] + t[5] == t[2] + t[3]) == tuples.is_cwl(t))

_HOPE_WITNESS = TetTuple((10, 1, 2, 3, 10, 1))


@row("non-CWL forces equal top opposite-edge sums",
     lambda b, *_: itertools.chain((t for t in iter_tuples(b) if not tuples.is_cwl(t)), [_HOPE_WITNESS]))
def check_hope(t):
    """Failing componentwise linearity forces the two larger opposite-edge
    sums to be equal; the converse fails on (10,1,2,3,10,1)."""
    sums = sorted(map(sum, tuples.pair_profile(t)))
    return sums[1] != sums[2] or t == _HOPE_WITNESS and not tuples.is_cwl(t)


# ---------------------------------------------------------------- regularity

# each tuple, with None for the oracle's regularity, then three spot values
@row("closed-form regularity equals oracle", lambda b, *_: itertools.chain(
    ((t, None) for t in iter_tuples(b)),
    {TetTuple((0, 2, 2, 2, 2, 0)): 5, TetTuple((4, 1, 2, 1, 1, 5)): 9, TetTuple((7, 5, 5, 2, 1, 6)): 17}.items(),
))
def check_regularity(case):
    t, expected = case
    return tuples.regularity_closed_form(t) != (oracle_table(t).regularity if expected is None else expected) and t


# ---------------------------------------------------------------- gin

check_gin_acm_examples = Check(
    "worked ACM gin displays reproduced",
    lambda *_: {
        TetTuple((1, 2, 2, 2, 1, 2)): ("a^4", "a^3*b", "a^2*b^3", "a*b^4", "b^6"),
        TetTuple((2, 1, 4, 1, 1, 3)): ("a^5", "a^4*b", "a^3*b^3", "a^2*b^4", "a*b^6", "b^8"),
    }.items(),
    lambda case: gin_mod.gin_of_curve(case[0]) != MonomialIdeal.of(*case[1]) and f"gin({case[0]})",
)


def gin_betti_prediction(t: TetTuple) -> BettiTable:
    """Betti table of the reverse-lex generic initial ideal: identical to
    the curve's table when componentwise linear; otherwise r extra
    generators and syzygies appear one above the least generator degree,
    with r taken from the CI-power curve in the reduction chain."""
    if t.is_trivial:
        raise TrivialCurveError("gin is undefined for the trivial curve")
    trace = tuples.reduction_trace(t)
    table = resolution.resolution_recipe(trace).assemble()
    if trace.is_cwl:
        return table
    r = trace.first_ci_power[1]
    p = table.min_generator_degree
    return table + BettiTable.from_dict({(0, p + 1): r, (1, p + 1): r})


check_ek_vs_prediction = Check("Eliahou-Kervaire table equals gin Betti prediction", _acm_tuples,
                               lambda t: gin_mod.ek_betti(gin_mod.gin_of_curve(t)) != gin_betti_prediction(t))


@row("gin_acm stable, in a and b, Hilbert-preserving", _acm_tuples, cap=6)
def check_gin_acm_wellformed(t):
    # gin_of_curve reads no Hilbert function or Betti table, so comparing
    # Hilbert functions here checks it against the counter on the curve's ideal
    g = gin_mod.gin_of_curve(t)
    ideal = ideal_of_tuple(t)
    in_two_vars = all(m[2] == 0 and m[3] == 0 for m in g)
    upto = cached_betti_oracle(ideal).regularity + 3
    hilbert_match = hilbert_data(g, upto).values == hilbert_data(ideal, upto).values
    cwl_gens_ok = not tuples.is_cwl(t) or len(ideal) == ideal.min_generator_degree + 1
    return not (gin_mod.is_strongly_stable(g) and in_two_vars and hilbert_match and cwl_gens_ok)


@row("Buchsbaum gin recursion matches the oracle",
     lambda b, seeds, primes: itertools.product(range(1, 4), ("oracle", "ek"), [seeds], [primes]))  # r = 1..3
def check_buchsbaum_gin(case):
    r, side, seeds, primes = case
    built = gin_mod.gin_buchsbaum_minimal(r)
    if side == "oracle":
        return built != _oracle_gin((r, 0, r - 1, r - 1, 0, r), seeds, primes) and f"r={r} oracle"
    expected = BettiTable.from_dict({(0, 2 * r): 3 * r + 1, (1, 2 * r + 1): 4 * r, (2, 2 * r + 2): r})
    return gin_mod.ek_betti(built) != expected and f"r={r} ek"


@row("gin_of_curve equals the Groebner oracle", _gin_tuples, cap=6)
def check_gin_vs_oracle(case):
    t, built, seeds, primes = case
    return built != _oracle_gin(t, seeds, primes) and t


@row("gin regularity equals closed-form regularity", _gin_tuples, cap=5)
def check_gin_regularity(case):
    t, _, seeds, primes = case
    return gin_mod.ek_betti(_oracle_gin(t, seeds, primes)).regularity != tuples.regularity_closed_form(t) and t


# the paper's transfer of a minimal curve's gin up its even liaison class, for
# every minimal base, with both gins from the oracle: gin(C) = a^n gin(C_0) +
# (a^j b^(e_j) : j < n) over the n links, e_j the j-th link's weight from the top
@row("links folded over the terminal's oracle gin equal the oracle", lambda b, seeds, primes: (
    (trace, seeds, primes)
    for t in iter_tuples(10)  # the non-ACM, non-minimal orbits of weight <= 10
    if t == tuples.canonicalize(t) and not (trace := tuples.reduction_trace(t)).is_acm and trace.step_count
))
def check_gin_transfer(case):
    trace, seeds, primes = case
    base = (Monomial((trace.step_count, 0, 0, 0)) * g for g in _oracle_gin(trace.terminal, seeds, primes))
    links = (Monomial((j, e, 0, 0)) for j, e in enumerate(trace.weights))
    return MonomialIdeal((*base, *links)) != _oracle_gin(trace.start, seeds, primes) and trace.start


# ---------------------------------------------------------------- enumeration

PUBLISHED_TWO_SKEW_ORBITS = (
    (1, 0, 0, 0, 0, 1),
    (2, 1, 0, 0, 0, 1),
    (3, 1, 0, 1, 0, 1),
    (2, 2, 0, 0, 0, 2),
    (2, 1, 1, 1, 0, 1),
    (3, 2, 0, 1, 1, 2),
    (3, 2, 1, 1, 2, 3),
)

# Corrections to the published list, as (action, tuple).  Each one is
# re-proved by the Koszul oracle on every run of check_two_skew_vs_published:
# a removed tuple is ACM (projective dimension <= 1), so even liaison, which
# keeps the Rao module, cannot put it in the class of two skew lines; an
# added tuple has a linear resolution of projective dimension 2 and reduces
# to two skew lines.
TWO_SKEW_ERRATA = (
    ("remove", (2, 1, 1, 1, 0, 1)),
    ("add", (2, 1, 1, 1, 0, 2)),
    ("add", (3, 1, 0, 0, 1, 1)),
)

TWO_SKEW_LINES = TetTuple((1, 0, 0, 0, 0, 1))


def brute_force_linear_in_class(minimal: TetTuple, max_entry: int) -> set[TetTuple]:
    """Independent of the ascent: scan all tuples up to an entry bound, and
    decide linearity with the Koszul oracle, once per orbit."""
    target = tuples.canonicalize(minimal)
    grid = map(TetTuple, itertools.product(range(max_entry + 1), repeat=6))
    in_class = {
        tuples.canonicalize(t)
        for t in grid
        if not t.is_trivial
        and (trace := tuples.reduction_trace(t)).terminal_kind is TerminalKind.MINIMAL
        and tuples.canonicalize(trace.terminal) == target
    }
    return {c for c in in_class if oracle_table(c).is_linear}


def check_two_skew_vs_brute_force(bound=None, seeds=None, primes=None) -> CheckResult:
    name = "two-skew-lines ascent equals brute force, oracle-linear"
    got = resolution.enumerate_linear_in_class(TWO_SKEW_LINES)
    brute = brute_force_linear_in_class(TWO_SKEW_LINES, 4)
    if got == brute:  # the brute force keeps oracle-linear orbits only
        return CheckResult(name, True, f"{len(got)} orbits")
    return CheckResult(name, False, f"ascent {sorted(map(str, got))} vs brute {sorted(map(str, brute))}")


def _erratum_evidence(action: str, t: TetTuple, listed: bool) -> str | None:
    """Why the erratum holds, from the oracle, or None when it does not;
    `listed` says whether t's orbit is on the published list."""
    table = oracle_table(t)
    if action == "remove":
        holds = listed and table.projective_dimension <= 1
        return f"removed {t} (oracle: ACM, pd {table.projective_dimension})" if holds else None
    terminal = tuples.reduction_trace(t).terminal
    holds = (
        not listed
        and table.is_linear
        and table.projective_dimension == 2
        and tuples.canonicalize(terminal) == tuples.canonicalize(TWO_SKEW_LINES)
    )
    return f"added {t} (oracle: linear, pd 2)" if holds else None


def check_two_skew_vs_published(bound=None, seeds=None, primes=None) -> CheckResult:
    """The ascent's orbits equal the published list amended by the errata,
    and the oracle confirms every erratum."""
    name = "two-skew-lines orbits match the published list"
    got = resolution.enumerate_linear_in_class(TWO_SKEW_LINES)
    published = {tuples.canonicalize(TetTuple(e)) for e in PUBLISHED_TWO_SKEW_ORBITS}
    amended, evidence, refuted = set(published), [], []
    for action, entries in TWO_SKEW_ERRATA:
        t = TetTuple(entries)
        canon = tuples.canonicalize(t)
        note = _erratum_evidence(action, t, canon in published)
        if action == "remove":
            amended.discard(canon)
        else:
            amended.add(canon)
        if note is None:
            refuted.append(f"{action} {t}")
        else:
            evidence.append(note)
    if got == amended and not refuted:
        return CheckResult(name, True, f"{len(got)} orbits = {len(published)} published with "
                           f"{len(TWO_SKEW_ERRATA)} errata: {'; '.join(evidence)}")
    extra, missing = sorted(map(str, got - amended)), sorted(map(str, amended - got))
    refuted_note = f", errata that do not hold {refuted}" if refuted else ""
    return CheckResult(name, False, f"extra {extra}, missing {missing}{refuted_note}")


# the canonical form of each fixed family's model; the profile cannot stand
# in, as two pairs of (1,1,0,1,0,0) have unequal weights
_FIXED_LINEAR_ACM_FAMILIES = {
    tuples.canonicalize(model): tag
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
    zero, (a, b), (c, d) = tuples.pair_profile(t)
    if zero == (0, 0) and b == c == 0:
        return ("a", d)  # [(0,0), (0,0), (0,r)]
    if zero == (0, 0) and b == c >= 1 and (a, d) in ((b - 1, b), (b, b + 1)):
        return ("f", c + d)
    return (tag, None) if (tag := _FIXED_LINEAR_ACM_FAMILIES.get(tuples.canonicalize(t))) else None


def check_acm_linear_families(bound: int, seeds=None, primes=None) -> CheckResult:
    """The shape classifier accepts exactly the ACM curves whose closed-form
    table is linear, and the oracle confirms one tuple of every accepted
    orbit to be ACM (projective dimension <= 1) with a linear table."""
    oracle_checked = set()

    def fails(t):
        is_family = acm_linear_family(t) is not None
        bad = [t] if is_family != (tuples.is_acm(t) and resolution.betti_table(t).is_linear) else []
        if is_family and (canon := tuples.canonicalize(t)) not in oracle_checked:
            oracle_checked.add(canon)
            table = oracle_table(canon)
            if table.projective_dimension > 1 or not table.is_linear:
                bad.append(f"{t} oracle")
        return bad

    result = _sweep("ACM-linear curves are exactly the six families", iter_tuples(bound), fails)
    if result.passed:
        result.detail += f", {len(oracle_checked)} accepted orbits oracle-confirmed"
    return result


check_no_nonmin = Check(
    "deep minimal curves admit only minimal ascents",
    lambda *_: (t for t in iter_tuples(12) if tuples.is_minimal(t) and minimal_by_weight(t, 2)),
    lambda t: any(not tuples.is_minimal(parent) for parent, _ in resolution.ascent_candidates(t)),
)


# ---------------------------------------------------------------- liaison addition

def check_liaison_addition(bound: int, seeds=None, primes=None) -> CheckResult:
    ac = Monomial.parse("a*c")
    base = ideal_of_tuple((1, 0, 0, 0, 0, 1))

    def fails(r):
        bd_r = Monomial((0, r, 0, r))
        combined = ideal_of_tuple((r, 0, r - 1, r - 1, 0, r)).scaled(ac) + base.scaled(bd_r)
        return combined != ideal_of_tuple((r + 1, 0, r, r, 0, r + 1))

    return _sweep(f"liaison addition identity for r = 1..{bound}", range(1, bound + 1), fails)


# ---------------------------------------------------------------- truncation

def truncate(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """I_{>=d}: the ideal generated by all elements of I of degree at least d.

    No element of I_d divides a minimal generator of higher degree, so the
    union is minimal."""
    high = (g for g in ideal if g.degree > d)
    return MonomialIdeal._from_minimal((*component_ideal(ideal, d), *high))


@row("truncation preserves Betti numbers above the cut", lambda b, *_: (
    (t, ideal, oracle, d)
    for t in iter_tuples(b)
    for ideal in [ideal_of_tuple(t)]
    for oracle in [cached_betti_oracle(ideal)]
    for d in range(1, oracle.regularity + 2)
))
def check_truncation(case):
    t, ideal, oracle, d = case
    whole, cut = ({k: v for k, v in table.as_dict().items() if k[1] >= k[0] + d + 1}
                  for table in (oracle, cached_betti_oracle(truncate(ideal, d))))
    return whole != cut and (t, d)


# ---------------------------------------------------------------- suites

# suite -> (default bound, checks); the suite calls each check as
# check(bound, (seed, seed + 1), primes), one at a time, so an abort keeps
# the earlier results
SUITES = {
    "reduction": (7, (check_degree_vs_hilbert, check_degree_additivity, check_bdl_reconstruction,
                      check_minimality_criterion, check_maxweight_monotone, check_fdegree, check_s4_invariance)),
    "betti": (7, (check_builder_vs_oracle_all_choices, check_random_builder_vs_oracle, check_minimal_formula,
                  check_sum_rule, check_projective_dimension, check_non_acm_shape)),
    "cwl": (6, (check_cwl_oracle, check_schwartau, check_hope)),
    "regularity": (7, (check_regularity,)),
    "gin": (6, (check_gin_acm_examples, check_ek_vs_prediction, check_gin_acm_wellformed, check_buchsbaum_gin,
                check_gin_vs_oracle, check_gin_regularity, check_gin_transfer)),
    "enumeration": (10, (check_two_skew_vs_brute_force, check_two_skew_vs_published, check_acm_linear_families,
                         check_no_nonmin)),
    "liaison-addition": (4, (check_liaison_addition,)),
    "truncation": (6, (check_truncation,)),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(
    name: str,
    bound: int | None = None,
    seed: int = 1,
    primes: tuple[int, int] = groebner.DEFAULT_PRIMES,
) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    default_bound, checks = SUITES[name]
    bound = default_bound if bound is None else bound
    start = time.perf_counter()
    results = []
    try:
        for check in checks:
            results.append(check(bound, (seed, seed + 1), primes))
    except Exception as exc:
        # a package error is a typed refusal; anything else is a defect, named by its type
        detail = str(exc) if isinstance(exc, TetracurvesError) else f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(f"{name} suite aborted", False, detail))
    return SuiteResult(suite=name, checks=results, elapsed_s=time.perf_counter() - start)
