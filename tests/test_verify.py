"""The verify suites: their output at a small bound, and their failure paths.

The snapshot and the failing details were recorded from the loop-per-check
implementation that the case-sweep driver replaced; they pin the suites'
check names, case counts and first failing inputs.
"""

import json
from pathlib import Path

import pytest

from tetracurves import gin, resolution, tuples, verify
from tetracurves.exceptions import FNotInIdealError
from tetracurves.koszul import BettiTable

SNAPSHOT = Path(__file__).parent / "data" / "verify_bound4.json"


def test_suites_at_bound_4_match_the_snapshot():
    suites = [verify.run_suite(name, bound=4) for name in verify.SUITE_NAMES]
    rows = [
        [suite.suite, check.name, check.passed, check.detail]
        for suite in suites
        for check in suite.checks
    ]
    assert rows == json.loads(SNAPSHOT.read_text())


def _shift_regularity(monkeypatch):
    closed_form = tuples.regularity_closed_form
    monkeypatch.setattr(tuples, "regularity_closed_form", lambda t: closed_form(t) + 1)


def _constant_oracle(monkeypatch):
    monkeypatch.setattr(verify, "cached_betti_oracle", lambda ideal: BettiTable.from_dict({(0, 1): 1}))


def _asymmetric_degree(monkeypatch):
    degree = tuples.degree_of_tuple
    monkeypatch.setattr(tuples, "degree_of_tuple", lambda t: degree(t) + t.entries[0])


def _accept_every_family(monkeypatch):
    monkeypatch.setattr(resolution, "acm_linear_family", lambda t: ("a", 1))


@pytest.mark.parametrize(
    "mutate, check, detail",
    [
        (
            _shift_regularity,
            lambda: verify.check_regularity(4),
            "212/212 failed, e.g. 0,0,0,0,0,1; 0,0,0,0,1,0; 0,0,0,1,0,0",
        ),
        (
            # every tie-break fails; only the first one of each tuple is counted
            _constant_oracle,
            lambda: verify.check_builder_vs_oracle_all_choices(4),
            "209/209 failed, e.g. (TetTuple(0,0,0,0,0,1), ['0,0,0,0,0,1', '0,0,0,0,0,0']); "
            "(TetTuple(0,0,0,0,1,0), ['0,0,0,0,1,0', '0,0,0,0,0,0']); "
            "(TetTuple(0,0,0,1,0,0), ['0,0,0,1,0,0', '0,0,0,0,0,0'])",
        ),
        (
            _asymmetric_degree,
            lambda: verify.check_s4_invariance(3),
            "83/83 failed, e.g. (TetTuple(0,0,0,0,0,1), (2, 3, 0, 1)); "
            "(TetTuple(0,0,0,0,1,0), (2, 0, 3, 1)); (TetTuple(0,0,0,1,0,0), (2, 0, 1, 3))",
        ),
        (
            # one tuple can fail twice: as a non-family and by the oracle
            _accept_every_family,
            lambda: verify.check_acm_linear_families(3),
            "54/83 failed, e.g. 0,0,0,0,1,1; 0,0,0,0,1,1 oracle; 0,0,0,1,0,1",
        ),
    ],
)
def test_failing_check_names_its_first_failing_inputs(monkeypatch, mutate, check, detail):
    mutate(monkeypatch)
    result = check()
    assert not result.passed
    assert result.detail == detail


def test_liaison_addition_names_its_bound():
    result = verify.run_suite("liaison-addition", bound=2)
    assert [(c.name, c.passed, c.detail) for c in result.checks] == [
        ("liaison addition identity for r = 1..2", True, "2 cases"),
    ]


def test_symmetry_check_traces_each_image_once(monkeypatch):
    calls = []
    trace = tuples.reduction_trace
    monkeypatch.setattr(tuples, "reduction_trace", lambda t: calls.append(t) or trace(t))
    result = verify.check_s4_invariance(2)
    assert result.passed and result.detail == "27 cases"
    assert len(calls) == 27 * 25  # each tuple and its 24 images


def test_abort_keeps_the_earlier_checks(monkeypatch):
    def refuse(*args):
        raise FNotInIdealError("refused")

    # the third reduction check rebuilds ideals by basic double links
    monkeypatch.setattr(verify, "basic_double_link", refuse)
    result = verify.run_suite("reduction", bound=2)
    assert [c.name for c in result.checks] == [
        "degree formula equals Hilbert-polynomial degree",
        "degree additive along reduction steps",
        "reduction suite aborted",
    ]
    assert [c.passed for c in result.checks] == [True, True, False]
    assert result.checks[2].detail == "refused"
    assert not result.passed


def test_defect_aborts_its_suite_and_the_next_suite_runs(monkeypatch):
    def broken(t):
        raise ValueError("max() arg is an empty sequence")

    monkeypatch.setattr(gin, "gin_acm", broken)
    aborted, after = (verify.run_suite(n, bound=3) for n in ("gin", "liaison-addition"))
    assert [(c.name, c.passed, c.detail) for c in aborted.checks] == [
        ("gin suite aborted", False, "ValueError: max() arg is an empty sequence"),
    ]
    assert after.checks and after.passed
