"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s) and
asserts the criterion at its stated tolerance and time budget.  Criterion
10 compares two published classification lists with exhaustive
computation: the linear-resolution orbits in the class of two skew lines,
amended by errata that the Koszul oracle re-proves on every run, and the
six families of ACM curves with linear resolution.
"""

import json
import time

from tetracurves.cli import main as cli_main
from tetracurves.gin import ek_betti, gin_of_curve
from tetracurves.koszul import BettiTable
from tetracurves.resolution import betti_table
from tetracurves.tuples import TetTuple, is_cwl, reduction_trace
from tetracurves.verify import (
    PUBLISHED_TWO_SKEW_ORBITS,
    TWO_SKEW_ERRATA,
    check_acm_linear_families,
    check_buchsbaum_gin,
    check_builder_vs_oracle_all_choices,
    check_cwl_oracle,
    check_degree_additivity,
    check_degree_vs_hilbert,
    check_ek_vs_prediction,
    check_liaison_addition,
    check_minimal_formula,
    check_regularity,
    check_truncation,
    check_two_skew_vs_published,
    gin_betti_prediction,
    iter_tuples,
)


def _criterion(num: int, name: str, passed: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert passed, line


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _cli_json(capsys, *argv):
    code = cli_main(["--format", "json", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_01_reduction_trace(capsys):
    code, report = _cli_json(capsys, "reduce", "3,3,3,1,2,4", "--trace")
    steps = report["result"]["steps"]
    visited = [steps[0]["parent"]] + [s["child"] for s in steps]
    through = all(
        c in visited for c in ("2,2,2,1,2,4", "2,2,1,1,1,3", "2,1,1,0,1,2")
    )
    terminal_ok = report["result"]["terminal"] == "1,0,0,0,0,1"
    elapsed = _best_of(lambda: reduction_trace(TetTuple((3, 3, 3, 1, 2, 4))))
    with capsys.disabled():
        _criterion(
            1,
            "reduction trace fidelity",
            code == 0 and through and terminal_ok and elapsed < 1e-3,
            f"{elapsed * 1e6:.0f}us",
        )


WORKED_TABLES = {
    (1, 2, 1, 2, 0, 2): {(0, 6): 1, (0, 4): 2, (0, 3): 1, (1, 7): 1, (1, 5): 2},
    (1, 3, 4, 2, 3, 0): {(0, 8): 1, (0, 7): 1, (0, 6): 3, (1, 9): 1, (1, 8): 3},
    (7, 5, 5, 2, 1, 6): {
        (0, 17): 1,
        (0, 15): 1,
        (0, 13): 26,
        (1, 18): 1,
        (1, 16): 1,
        (1, 14): 39,
        (2, 15): 14,
    },
}


def test_criterion_02_worked_betti_tables(capsys):
    ok = True
    slowest = 0.0
    for entries, expected in WORKED_TABLES.items():
        t = TetTuple(entries)
        ok = ok and betti_table(t).as_dict() == expected
        slowest = max(slowest, _best_of(lambda: betti_table(t), repeats=3))
    with capsys.disabled():
        _criterion(2, "worked Betti tables exact", ok and slowest < 0.010, f"{slowest * 1e3:.2f}ms")


def test_criterion_03_minimal_curve_formulas(capsys):
    start = time.perf_counter()
    result = check_minimal_formula()
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _criterion(
            3,
            "minimal-curve formulas vs oracle (entries <= 3, plus (4,1,2,1,1,5))",
            result.passed and elapsed < 300,
            f"{result.detail}, {elapsed:.1f}s",
        )


def test_criterion_04_builder_vs_oracle_exhaustive(capsys):
    population = sum(1 for _ in iter_tuples(7, include_trivial=True))
    start = time.perf_counter()
    result = check_builder_vs_oracle_all_choices(7)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _criterion(
            4,
            "builder equals oracle for all 1716 tuples, every tie-break",
            result.passed and population == 1716 and elapsed < 600,
            f"{result.detail}, {elapsed:.1f}s",
        )


def test_criterion_05_componentwise_linearity(capsys):
    start = time.perf_counter()
    result = check_cwl_oracle(6)
    elapsed = time.perf_counter() - start
    spot = is_cwl(TetTuple((10, 1, 2, 3, 10, 1)))
    with capsys.disabled():
        _criterion(
            5,
            "componentwise linearity vs component oracle (sum <= 6)",
            result.passed and spot and elapsed < 600,
            f"{result.detail}, {elapsed:.1f}s",
        )


def test_criterion_06_regularity(capsys):
    result = check_regularity(7)
    with capsys.disabled():
        _criterion(6, "closed-form regularity vs oracle (sum <= 7)", result.passed, result.detail)


def test_criterion_07_gin_examples(capsys):
    from tetracurves.monomials import MonomialIdeal

    start = time.perf_counter()
    displays = (
        gin_of_curve(TetTuple((1, 2, 2, 2, 1, 2)))
        == MonomialIdeal.of("a^4", "a^3*b", "a^2*b^3", "a*b^4", "b^6")
        and gin_of_curve(TetTuple((2, 1, 4, 1, 1, 3)))
        == MonomialIdeal.of("a^5", "a^4*b", "a^3*b^3", "a^2*b^4", "a*b^6", "b^8")
    )
    gin_resolution = gin_betti_prediction(TetTuple((2, 5, 5, 5, 5, 0))) == BettiTable.from_dict(
        {(0, 10): 5, (0, 11): 4, (0, 12): 2, (1, 11): 4, (1, 12): 4, (1, 13): 2}
    )
    ek_match = ek_betti(gin_of_curve(TetTuple((2, 5, 5, 5, 5, 0)))) == gin_betti_prediction(
        TetTuple((2, 5, 5, 5, 5, 0))
    )
    sweep = check_ek_vs_prediction(7)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _criterion(
            7,
            "gin worked examples and EK vs prediction (ACM, sum <= 7)",
            displays and gin_resolution and ek_match and sweep.passed and elapsed < 300,
            f"{sweep.detail}, {elapsed:.1f}s",
        )


def test_criterion_08_buchsbaum_gin(capsys):
    start = time.perf_counter()
    result = check_buchsbaum_gin(seeds=(1, 2), primes=(32003, 31991))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _criterion(
            8,
            "Buchsbaum gin recursion vs Groebner oracle (r <= 3)",
            result.passed and elapsed < 120,
            f"{result.detail}, {elapsed:.1f}s",
        )


def test_criterion_09_liaison_addition(capsys):
    start = time.perf_counter()
    result = check_liaison_addition(4)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _criterion(
            9,
            "liaison addition identity (r = 1..4)",
            result.passed and elapsed < 1.0,
            f"{elapsed * 1e3:.0f}ms",
        )


def test_criterion_10_classification_lists(capsys):
    start = time.perf_counter()
    skew = check_two_skew_vs_published()
    families = check_acm_linear_families(10)
    elapsed = time.perf_counter() - start
    detail = []
    if not skew.passed:
        detail.append(f"two-skew list: {skew.detail}")
    if not families.passed:
        detail.append(f"ACM-linear families: {families.detail}")
    with capsys.disabled():
        _criterion(
            10,
            f"published classification lists ({len(PUBLISHED_TWO_SKEW_ORBITS)} orbits, "
            f"{len(TWO_SKEW_ERRATA)} errata, 6 families)",
            skew.passed and families.passed and elapsed < 300,
            "; ".join(detail) or f"{elapsed:.1f}s",
        )


def test_criterion_11_truncation_lemma(capsys):
    start = time.perf_counter()
    result = check_truncation(6)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _criterion(
            11,
            "truncation preserves Betti strands (sum <= 6)",
            result.passed and elapsed < 600,
            f"{result.detail}, {elapsed:.1f}s",
        )


def test_criterion_12_degree(capsys):
    hilbert = check_degree_vs_hilbert(7)
    additive = check_degree_additivity(7)
    with capsys.disabled():
        _criterion(
            12,
            "degree formula vs Hilbert polynomial and additivity (sum <= 7)",
            hilbert.passed and additive.passed,
            f"{hilbert.detail}; {additive.detail}",
        )
