"""Named verification suites cross-validating the closed-form theory
against the independent oracles.

Every suite runs a batch of checks over all tuples up to a weight bound
(plus seeded random samples where stated) and reports one result per
check.  The betti/cwl/regularity/truncation suites compare closed-form
results with the Koszul-homology oracle; the gin suite compares the
combinatorial gin constructions with the finite-field Groebner oracle.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from . import gin as gin_mod
from . import groebner, monomials, resolution, tuples
from .exceptions import TetracurvesError
from .koszul import BettiTable, cached_betti_oracle
from .monomials import MonomialIdeal, basic_double_link, component_ideal, hilbert_data, ideal_of_tuple, truncate
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
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def iter_tuples(max_total: int, include_trivial: bool = False):
    """All 6-tuples with weight sum at most max_total."""
    for total in range(0 if include_trivial else 1, max_total + 1):
        for cuts in itertools.combinations(range(total + 5), 5):
            parts = []
            prev = -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(total + 4 - prev)
            yield TetTuple(tuple(parts))


def _summarize(name: str, failures: list, total: int) -> CheckResult:
    if failures:
        shown = "; ".join(str(f) for f in failures[:3])
        return CheckResult(name, False, f"{len(failures)}/{total} failed, e.g. {shown}")
    return CheckResult(name, True, f"{total} cases")


def oracle_table(t: TetTuple) -> BettiTable:
    return cached_betti_oracle(ideal_of_tuple(t))


# ---------------------------------------------------------------- reduction

def check_degree_vs_hilbert(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound, include_trivial=True):
        total += 1
        ideal = ideal_of_tuple(t)
        upto = (cached_betti_oracle(ideal).regularity if not t.is_trivial else 0) + 3
        if hilbert_data(ideal, upto).degree != tuples.degree_of_tuple(t):
            failures.append(t)
    return _summarize("degree formula equals Hilbert-polynomial degree", failures, total)


def check_degree_additivity(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        for step in tuples.reduction_trace(t).steps:
            total += 1
            if tuples.degree_of_tuple(step.parent) != tuples.degree_of_tuple(step.child) + step.weight:
                failures.append(step.parent)
    return _summarize("degree additive along reduction steps", failures, total)


def check_bdl_reconstruction(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        for ty in tuples.ReductionType:
            if not tuples.reduction_applicable(t, ty):
                continue
            total += 1
            step = tuples.apply_reduction(t, ty)
            rebuilt = basic_double_link(ideal_of_tuple(step.child), step.G, step.F)
            if rebuilt != ideal_of_tuple(t):
                failures.append((t, ty.name))
    return _summarize("G*I(child) + (F) rebuilds the parent ideal", failures, total)


def check_minimality_criterion(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        total += 1
        if tuples.is_minimal(t) != tuples.minimal_by_weight_test(t):
            failures.append(t)
    return _summarize("definitional minimality equals the weight criterion", failures, total)


def check_maxweight_monotone(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        for step in tuples.reduction_trace(t).steps:
            if tuples.ci_power_form(step.parent) is not None:
                continue
            total += 1
            if not max(tuples.facet_weights(step.parent)) > max(tuples.facet_weights(step.child)):
                failures.append(step.parent)
    return _summarize("maximal facet weight strictly drops along traces", failures, total)


def check_fdegree(bound: int) -> CheckResult:
    """Above the CI-power base of a non-componentwise-linear ACM curve, each
    F degree exceeds the parent's lowest generator degree."""
    failures, total = [], 0
    for t in iter_tuples(bound):
        trace = tuples.reduction_trace(t)
        if not trace.is_acm or trace.first_ci_power is None:
            continue
        ci_index = trace.first_ci_power[0]
        for k in range(ci_index):
            total += 1
            p = resolution.betti_table(trace.steps[k].parent).min_generator_degree
            if trace.steps[k].weight < p + 1:
                failures.append(trace.steps[k].parent)
    return _summarize("F degree exceeds lowest generator degree above CI base", failures, total)


def check_s4_invariance(bound: int) -> CheckResult:
    failures, total = [], 0
    perms = tuples.VERTEX_PERMUTATIONS
    for t in iter_tuples(bound):
        total += 1
        reference = (
            tuples.is_minimal(t),
            tuples.is_acm(t),
            tuples.is_cwl(t),
            tuples.degree_of_tuple(t),
            tuples.regularity_closed_form(t),
            tuples.ci_power_form(t),
            resolution.betti_table(t).entries,
        )
        for pi in perms:
            image = tuples.permute(t, pi)
            got = (
                tuples.is_minimal(image),
                tuples.is_acm(image),
                tuples.is_cwl(image),
                tuples.degree_of_tuple(image),
                tuples.regularity_closed_form(image),
                tuples.ci_power_form(image),
                resolution.betti_table(image).entries,
            )
            if got != reference:
                failures.append((t, pi))
                break
    return _summarize("classifiers invariant under the symmetry action", failures, total)


# ---------------------------------------------------------------- betti

def check_builder_vs_oracle_all_choices(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        expected = oracle_table(t)
        for chain in resolution.all_max_weight_chains(t):
            total += 1
            got = resolution.recipe_from_chain(chain).assemble()
            if got != expected:
                failures.append((t, [str(c) for c in chain]))
                break
    return _summarize("assembled table equals oracle for every tie-break", failures, total)


def check_random_builder_vs_oracle(count: int, max_entry: int, seed: int) -> CheckResult:
    rng = random.Random(seed)
    failures, total = [], 0
    while total < count:
        t = TetTuple(tuple(rng.randint(0, max_entry) for _ in range(6)))
        if t.is_trivial:
            continue
        total += 1
        if resolution.betti_table(t) != oracle_table(t):
            failures.append(t)
    return _summarize(f"random builder vs oracle (entries <= {max_entry})", failures, total)


def check_minimal_formula(max_entry: int) -> CheckResult:
    failures, total = [], 0
    for entries in itertools.product(range(max_entry + 1), repeat=6):
        t = TetTuple(entries)
        if not tuples.is_minimal(t):
            continue
        total += 1
        if resolution.minimal_curve_betti(t) != oracle_table(t):
            failures.append(t)
    spot = TetTuple((4, 1, 2, 1, 1, 5))
    total += 1
    expected = BettiTable.from_dict({(0, 9): 24, (1, 10): 37, (2, 11): 14})
    if resolution.minimal_curve_betti(spot) != expected or oracle_table(spot) != expected:
        failures.append(spot)
    return _summarize("minimal-curve formulas equal oracle", failures, total)


def check_sum_rule(bound: int) -> CheckResult:
    """Alternating Betti sums reproduce the Hilbert-series numerator of R/I."""
    failures, total = [], 0
    for t in iter_tuples(bound):
        total += 1
        table = oracle_table(t)
        top = max(j for _, j, _ in table.entries)
        values = hilbert_data(ideal_of_tuple(t), top + 4).values
        ok = True
        for j in range(top + 1):
            numerator = sum(
                (-1) ** k * _binom(4, k) * (values[j - k] if 0 <= j - k else 0)
                for k in range(5)
            )
            betti_sum = sum((-1) ** i * table.rank(i, j) for i in range(4))
            if numerator != (1 if j == 0 else 0) - betti_sum:
                ok = False
                break
        if not ok:
            failures.append(t)
    return _summarize("alternating sums match the Hilbert numerator", failures, total)


def _binom(n: int, k: int) -> int:
    from math import comb

    return comb(n, k)


def check_non_acm_shape(bound: int) -> CheckResult:
    """Non-ACM tables: one generator/syzygy pair per step at strictly
    decreasing facet weights, all above the shifted minimal-curve block."""
    failures, total = [], 0
    for t in iter_tuples(bound):
        trace = tuples.reduction_trace(t)
        if trace.is_acm:
            continue
        total += 1
        recipe = resolution.recipe_from_chain(trace.chain)
        weights = [w for w, _ in recipe.steps]
        e0 = recipe.base_betti.min_generator_degree
        strictly_decreasing = all(a > b for a, b in zip(weights, weights[1:]))
        above_base = not weights or weights[-1] > e0
        shifted_block = recipe.assemble().rank(0, e0 + len(weights)) >= recipe.base_betti.rank(0, e0)
        if not (strictly_decreasing and above_base and shifted_block):
            failures.append(t)
    return _summarize("non-ACM tables keep the step/base shape", failures, total)


def check_projective_dimension(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        total += 1
        expected = 1 if tuples.is_acm(t) else 2
        if oracle_table(t).projective_dimension != expected:
            failures.append(t)
    return _summarize("projective dimension 1 exactly for ACM ideals", failures, total)


# ---------------------------------------------------------------- cwl

def check_cwl_oracle(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        total += 1
        ideal = ideal_of_tuple(t)
        reg = cached_betti_oracle(ideal).regularity
        componentwise = True
        for d in range(ideal.min_generator_degree, reg + 1):
            piece = component_ideal(ideal, d)
            if piece.is_zero:
                continue
            if not cached_betti_oracle(piece).is_linear:
                componentwise = False
                break
        if tuples.is_cwl(t) != componentwise:
            failures.append(t)
    return _summarize("is_cwl equals the componentwise oracle", failures, total)


def check_schwartau(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        total += 1
        is_schwartau, cwl = tuples.schwartau_status(t)
        if is_schwartau != (t.entries[1] == 0 and t.entries[4] == 0):
            failures.append(t)
        elif cwl != tuples.is_cwl(t):
            failures.append(t)
    return _summarize("Schwartau criterion agrees with is_cwl", failures, total)


def check_hope(bound: int) -> CheckResult:
    """Failing componentwise linearity forces the two larger opposite-edge
    sums to be equal; the converse fails on (10,1,2,3,10,1)."""
    def top_sums_equal(t: TetTuple) -> bool:
        e = t.entries
        sums = sorted((e[0] + e[5], e[1] + e[4], e[2] + e[3]))
        return sums[1] == sums[2]

    failures, total = [], 0
    for t in iter_tuples(bound):
        if tuples.is_cwl(t):
            continue
        total += 1
        if not top_sums_equal(t):
            failures.append(t)
    witness = TetTuple((10, 1, 2, 3, 10, 1))
    total += 1
    if not (top_sums_equal(witness) and tuples.is_cwl(witness)):
        failures.append(witness)
    return _summarize("non-CWL forces equal top opposite-edge sums", failures, total)


# ---------------------------------------------------------------- regularity

def check_regularity(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        total += 1
        if tuples.regularity_closed_form(t) != oracle_table(t).regularity:
            failures.append(t)
    spots = {
        TetTuple((0, 2, 2, 2, 2, 0)): 5,
        TetTuple((4, 1, 2, 1, 1, 5)): 9,
        TetTuple((7, 5, 5, 2, 1, 6)): 17,
    }
    for t, expected in spots.items():
        total += 1
        if tuples.regularity_closed_form(t) != expected:
            failures.append(t)
    return _summarize("closed-form regularity equals oracle", failures, total)


# ---------------------------------------------------------------- gin

def check_gin_acm_examples() -> CheckResult:
    failures = []
    first = gin_mod.gin_acm(TetTuple((1, 2, 2, 2, 1, 2)))
    if first != MonomialIdeal.of("a^4", "a^3*b", "a^2*b^3", "a*b^4", "b^6"):
        failures.append("gin(1,2,2,2,1,2)")
    second = gin_mod.gin_acm(TetTuple((2, 1, 4, 1, 1, 3)))
    if second != MonomialIdeal.of("a^5", "a^4*b", "a^3*b^3", "a^2*b^4", "a*b^6", "b^8"):
        failures.append("gin(2,1,4,1,1,3)")
    return _summarize("worked ACM gin displays reproduced", failures, 2)


def check_ek_vs_prediction(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        if not tuples.is_acm(t):
            continue
        total += 1
        if gin_mod.ek_betti(gin_mod.gin_acm(t)) != resolution.gin_betti_prediction(t):
            failures.append(t)
    return _summarize("Eliahou-Kervaire table equals gin Betti prediction", failures, total)


def check_gin_acm_wellformed(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        if not tuples.is_acm(t):
            continue
        total += 1
        g = gin_mod.gin_acm(t)
        in_two_vars = all(m.exps[2] == 0 and m.exps[3] == 0 for m in g.generators)
        upto = tuples.regularity_closed_form(t) + 3
        hilbert_match = (
            hilbert_data(g, upto).values == hilbert_data(ideal_of_tuple(t), upto).values
        )
        cwl_gens_ok = True
        if tuples.is_cwl(t):
            d0 = ideal_of_tuple(t).min_generator_degree
            cwl_gens_ok = len(ideal_of_tuple(t).generators) == d0 + 1
        if not (gin_mod.is_strongly_stable(g) and in_two_vars and hilbert_match and cwl_gens_ok):
            failures.append(t)
    return _summarize("gin_acm stable, in a and b, Hilbert-preserving", failures, total)


def check_gin_vs_oracle(bound: int, seeds: tuple[int, int], primes: tuple[int, int]) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        built = gin_mod.gin_of_curve(t)
        if built is None:
            continue
        total += 1
        if built != groebner.gin_oracle(ideal_of_tuple(t), seeds=seeds, primes=primes):
            failures.append(t)
    return _summarize("gin_of_curve equals the Groebner oracle", failures, total)


def check_buchsbaum_gin(r_max: int, seeds: tuple[int, int], primes: tuple[int, int]) -> CheckResult:
    failures, total = [], 0
    for r in range(1, r_max + 1):
        total += 2
        built = gin_mod.gin_buchsbaum_minimal(r)
        model = ideal_of_tuple((r, 0, r - 1, r - 1, 0, r))
        if built != groebner.gin_oracle(model, seeds=seeds, primes=primes):
            failures.append(f"r={r} oracle")
        expected = BettiTable.from_dict(
            {(0, 2 * r): 3 * r + 1, (1, 2 * r + 1): 4 * r, (2, 2 * r + 2): r}
        )
        if gin_mod.ek_betti(built) != expected:
            failures.append(f"r={r} ek")
    return _summarize("Buchsbaum gin recursion matches the oracle", failures, total)


def check_gin_regularity(bound: int, seeds: tuple[int, int], primes: tuple[int, int]) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        if gin_mod.gin_of_curve(t) is None:
            continue
        total += 1
        oracle = groebner.gin_oracle(ideal_of_tuple(t), seeds=seeds, primes=primes)
        if gin_mod.ek_betti(oracle).regularity != tuples.regularity_closed_form(t):
            failures.append(t)
    return _summarize("gin regularity equals closed-form regularity", failures, total)


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


def two_skew_enumeration() -> set[TetTuple]:
    return resolution.enumerate_linear_in_class(TWO_SKEW_LINES)


def brute_force_linear_in_class(minimal: TetTuple, max_entry: int) -> set[TetTuple]:
    """Independent of the ascent: scan all tuples up to an entry bound."""
    target = tuples.canonicalize(minimal)[0]
    found = set()
    for entries in itertools.product(range(max_entry + 1), repeat=6):
        t = TetTuple(entries)
        if t.is_trivial:
            continue
        trace = tuples.reduction_trace(t)
        if trace.terminal_kind is not TerminalKind.MINIMAL:
            continue
        if tuples.canonicalize(trace.terminal)[0] != target:
            continue
        if resolution.betti_table(t).is_linear:
            found.add(tuples.canonicalize(t)[0])
    return found


def check_two_skew_vs_brute_force(max_entry: int = 4) -> CheckResult:
    got = two_skew_enumeration()
    brute = brute_force_linear_in_class(TWO_SKEW_LINES, max_entry)
    oracle_ok = all(
        cached_betti_oracle(ideal_of_tuple(c)).is_linear for c in got
    )
    if got == brute and oracle_ok:
        return CheckResult(
            "two-skew-lines ascent equals brute force, oracle-linear",
            True,
            f"{len(got)} orbits",
        )
    return CheckResult(
        "two-skew-lines ascent equals brute force, oracle-linear",
        False,
        f"ascent {sorted(str(c) for c in got)} vs brute {sorted(str(c) for c in brute)}",
    )


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
        and tuples.canonicalize(terminal)[0] == tuples.canonicalize(TWO_SKEW_LINES)[0]
    )
    return f"added {t} (oracle: linear, pd 2)" if holds else None


def check_two_skew_vs_published(
    published_orbits=PUBLISHED_TWO_SKEW_ORBITS, errata=TWO_SKEW_ERRATA
) -> CheckResult:
    """The ascent's orbits equal the published list amended by the errata,
    and the oracle confirms every erratum."""
    name = "two-skew-lines orbits match the published list"
    got = two_skew_enumeration()
    published = {tuples.canonicalize(TetTuple(e))[0] for e in published_orbits}
    amended = set(published)
    evidence, refuted = [], []
    for action, entries in errata:
        t = TetTuple(entries)
        canon = tuples.canonicalize(t)[0]
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
        return CheckResult(
            name,
            True,
            f"{len(got)} orbits = {len(published)} published with "
            f"{len(errata)} errata: {'; '.join(evidence)}",
        )
    extra = sorted(str(c) for c in got - amended)
    missing = sorted(str(c) for c in amended - got)
    return CheckResult(
        name,
        False,
        f"extra {extra}, missing {missing}"
        + (f", errata that do not hold {refuted}" if refuted else ""),
    )


def check_acm_linear_families(bound: int) -> CheckResult:
    """The shape classifier accepts exactly the ACM curves whose closed-form
    table is linear, and the oracle confirms one tuple of every accepted
    orbit to be ACM (projective dimension <= 1) with a linear table."""
    failures, total = [], 0
    oracle_checked: set[TetTuple] = set()
    for t in iter_tuples(bound):
        total += 1
        is_family = resolution.acm_linear_family(t) is not None
        truth = tuples.is_acm(t) and resolution.betti_table(t).is_linear
        if is_family != truth:
            failures.append(t)
        if not is_family:
            continue
        canon = tuples.canonicalize(t)[0]
        if canon not in oracle_checked:
            oracle_checked.add(canon)
            table = oracle_table(canon)
            if table.projective_dimension > 1 or not table.is_linear:
                failures.append(f"{t} oracle")
    result = _summarize("ACM-linear curves are exactly the six families", failures, total)
    if result.passed:
        result.detail += f", {len(oracle_checked)} accepted orbits oracle-confirmed"
    return result


def check_no_nonmin(bound: int = 12) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        if not tuples.is_minimal(t):
            continue
        top = max(t.entries)
        hypothesis = False
        for pi in tuples.VERTEX_PERMUTATIONS:
            a1, a2, a3, a4, a5, a6 = tuples.permute(t, pi)
            if a6 == top and a1 > max(a3 + a5 + 2, a2 + a4 + 2) and a6 > max(a4 + a5 + 2, a2 + a3 + 2):
                hypothesis = True
                break
        if not hypothesis:
            continue
        total += 1
        if any(not tuples.is_minimal(parent) for parent, _ in resolution.ascent_candidates(t)):
            failures.append(t)
    return _summarize("deep minimal curves admit only minimal ascents", failures, total)


# ---------------------------------------------------------------- liaison addition

def check_liaison_addition(r_max: int = 4) -> CheckResult:
    failures, total = [], 0
    ac = monomials.Monomial.parse("a*c")
    base = ideal_of_tuple((1, 0, 0, 0, 0, 1))
    for r in range(1, r_max + 1):
        total += 1
        bd_r = monomials.Monomial((0, r, 0, r))
        combined = ideal_of_tuple((r, 0, r - 1, r - 1, 0, r)).scaled(ac) + base.scaled(bd_r)
        if combined != ideal_of_tuple((r + 1, 0, r, r, 0, r + 1)):
            failures.append(r)
    return _summarize("liaison addition identity for r = 1..4", failures, total)


# ---------------------------------------------------------------- truncation

def check_truncation(bound: int) -> CheckResult:
    failures, total = [], 0
    for t in iter_tuples(bound):
        ideal = ideal_of_tuple(t)
        oracle = cached_betti_oracle(ideal)
        reference = oracle.as_dict()
        for d in range(1, oracle.regularity + 2):
            total += 1
            truncated = cached_betti_oracle(truncate(ideal, d)).as_dict()
            tail = {k: v for k, v in reference.items() if k[1] >= k[0] + d + 1}
            tail_truncated = {k: v for k, v in truncated.items() if k[1] >= k[0] + d + 1}
            if tail != tail_truncated:
                failures.append((t, d))
    return _summarize("truncation preserves Betti numbers above the cut", failures, total)


# ---------------------------------------------------------------- suites

SUITE_DEFAULT_BOUNDS = {
    "reduction": 7,
    "betti": 7,
    "cwl": 6,
    "regularity": 7,
    "gin": 6,
    "enumeration": 10,
    "liaison-addition": 4,
    "truncation": 6,
}

SUITE_NAMES = tuple(SUITE_DEFAULT_BOUNDS)


def run_suite(
    name: str,
    bound: int | None = None,
    seed: int = 1,
    primes: tuple[int, int] = groebner.DEFAULT_PRIMES,
) -> SuiteResult:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    bound = SUITE_DEFAULT_BOUNDS[name] if bound is None else bound
    seeds = (seed, seed + 1)
    start = time.perf_counter()
    checks: list[CheckResult] = []
    try:
        if name == "reduction":
            checks.append(check_degree_vs_hilbert(bound))
            checks.append(check_degree_additivity(bound))
            checks.append(check_bdl_reconstruction(bound))
            checks.append(check_minimality_criterion(bound))
            checks.append(check_maxweight_monotone(bound))
            checks.append(check_fdegree(bound))
            checks.append(check_s4_invariance(min(bound, 5)))
        elif name == "betti":
            checks.append(check_builder_vs_oracle_all_choices(bound))
            checks.append(check_random_builder_vs_oracle(200, 4, seed))
            checks.append(check_minimal_formula(3))
            checks.append(check_sum_rule(min(bound, 6)))
            checks.append(check_projective_dimension(bound))
            checks.append(check_non_acm_shape(bound))
        elif name == "cwl":
            checks.append(check_cwl_oracle(bound))
            checks.append(check_schwartau(bound))
            checks.append(check_hope(bound))
        elif name == "regularity":
            checks.append(check_regularity(bound))
        elif name == "gin":
            checks.append(check_gin_acm_examples())
            checks.append(check_ek_vs_prediction(bound))
            checks.append(check_gin_acm_wellformed(min(bound, 6)))
            checks.append(check_buchsbaum_gin(3, seeds, primes))
            checks.append(check_gin_vs_oracle(min(bound, 6), seeds, primes))
            checks.append(check_gin_regularity(min(bound, 5), seeds, primes))
        elif name == "enumeration":
            checks.append(check_two_skew_vs_brute_force())
            checks.append(check_two_skew_vs_published())
            checks.append(check_acm_linear_families(bound))
            checks.append(check_no_nonmin(12))
        elif name == "liaison-addition":
            checks.append(check_liaison_addition(bound))
        elif name == "truncation":
            checks.append(check_truncation(bound))
    except TetracurvesError as exc:
        checks.append(CheckResult(f"{name} suite aborted", False, str(exc)))
    return SuiteResult(suite=name, checks=checks, elapsed_s=time.perf_counter() - start)


def run_suites(
    names: tuple[str, ...],
    bound: int | None = None,
    seed: int = 1,
    primes: tuple[int, int] = groebner.DEFAULT_PRIMES,
) -> list[SuiteResult]:
    return [run_suite(n, bound=bound, seed=seed, primes=primes) for n in names]
