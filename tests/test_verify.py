"""The verify suites' failure paths.

The failing details were recorded from the loop-per-check implementation
that the case-sweep driver replaced; they pin the suites' first failing
inputs.  Their output at bound 4, check names and case counts, is the
`verify_bound4` entry of `snapshots.py`.
"""

import pytest

from tetracurves import gin, groebner, resolution, tuples, verify
from tetracurves.exceptions import FNotInIdealError
from tetracurves.koszul import BettiTable


def _shift_regularity(monkeypatch):
    closed_form = tuples.regularity_closed_form
    monkeypatch.setattr(tuples, "regularity_closed_form", lambda t: closed_form(t) + 1)


def _constant_oracle(monkeypatch):
    monkeypatch.setattr(verify, "cached_betti_oracle", lambda ideal: BettiTable.from_dict({(0, 1): 1}))


def _asymmetric_degree(monkeypatch):
    degree = tuples.degree_of_tuple
    monkeypatch.setattr(tuples, "degree_of_tuple", lambda t: degree(t) + t.entries[0])


def _accept_every_family(monkeypatch):
    monkeypatch.setattr(verify, "acm_linear_family", lambda t: ("a", 1))


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


def former_minimal_by_weight_test(t):
    """Test-only copy of the former `tuples.minimal_by_weight_test`, over the
    table of 24 edge-index rows (the row of pi is the image of 0..5)."""
    if t.is_trivial:
        return False
    top = max(t)
    for row in (tuples.permute(range(6), pi) for pi in tuples.VERTEX_PERMUTATIONS):
        a1, a2, a3, a4, a5, a6 = (t[i] for i in row)
        if a6 != top:
            continue
        if a1 > max(a3 + a5, a2 + a4) and a6 > max(a4 + a5, a2 + a3):
            return True
    return False


def former_deep(t):
    """Test-only copy of the former `verify._deep`."""
    top = max(t)
    return any(
        a6 == top and a1 > max(a3 + a5 + 2, a2 + a4 + 2) and a6 > max(a4 + a5 + 2, a2 + a3 + 2)
        for a1, a2, a3, a4, a5, a6 in (tuples.permute(t, pi) for pi in tuples.VERTEX_PERMUTATIONS)
    )


def test_weight_criterion_matches_both_former_copies():
    deep = 0
    for t in verify.iter_tuples(10, include_trivial=True):
        assert verify.minimal_by_weight(t) == former_minimal_by_weight_test(t), t
        assert verify.minimal_by_weight(t, 2) == former_deep(t), t
        deep += former_deep(t)
    assert deep  # margin 2 is not vacuous at weight <= 10


def test_two_skew_brute_force_decides_linearity_by_the_oracle(monkeypatch):
    # a closed form that reads the linear orbit (1,2,3,3,2,1), above level 0,
    # as non-linear drops it from the ascent; a brute force that read the
    # same closed form would drop it too and agree
    closed_form, target = resolution.betti_table, tuples.canonicalize((1, 2, 3, 3, 2, 1))

    def broken(t):
        table = closed_form(t)
        if tuples.canonicalize(t) != target:
            return table
        return table + BettiTable.from_dict({(0, table.min_generator_degree + 1): 1})

    assert verify.check_two_skew_vs_brute_force().detail == "8 orbits"
    monkeypatch.setattr(resolution, "betti_table", broken)
    result = verify.check_two_skew_vs_brute_force()
    assert not result.passed
    assert "1,2,3,3,2,1" in result.detail.split(" vs brute ")[1]
    assert "1,2,3,3,2,1" not in result.detail.split(" vs brute ")[0]


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

    monkeypatch.setattr(gin, "gin_of_curve", broken)
    aborted, after = (verify.run_suite(n, bound=3) for n in ("gin", "liaison-addition"))
    assert [(c.name, c.passed, c.detail) for c in aborted.checks] == [
        ("gin suite aborted", False, "ValueError: max() arg is an empty sequence"),
    ]
    assert after.checks and after.passed


def test_gin_checks_share_one_oracle_gin_per_tuple(monkeypatch):
    calls = []
    oracle = groebner.gin_oracle
    monkeypatch.setattr(groebner, "gin_oracle", lambda *args, **kwargs: calls.append(args) or oracle(*args, **kwargs))
    verify._oracle_gin.cache_clear()
    result = verify.run_suite("gin", bound=4)
    assert result.passed
    # three Buchsbaum models, of which (1,0,0,0,0,1) is also a tuple of weight <= 4, then one call
    # per tuple for the oracle and regularity checks together, then one per curve or terminal of
    # the transfer row's 129 orbits (weight <= 10 at any bound) not met before
    assert [c.detail for c in result.checks[-4:]] == ["6 cases", "194 cases", "194 cases", "129 cases"]
    assert len(calls) == len(set(calls)) == 2 + 194 + 167


def test_a_row_lowers_the_bound_to_its_cap():
    capped = verify.Check("capped", lambda bound, *_: range(bound), lambda case: False, cap=3)
    assert capped(10) == verify.CheckResult("capped", True, "3 cases")


def test_caps_of_the_suite_rows():
    caps = {
        check.name: check.cap
        for _, checks in verify.SUITES.values()
        for check in checks
        if isinstance(check, verify.Check) and check.cap is not None
    }
    assert caps == {
        "classifiers invariant under the symmetry action": 5,
        "alternating sums match the Hilbert numerator": 6,
        "gin_acm stable, in a and b, Hilbert-preserving": 6,
        "gin_of_curve equals the Groebner oracle": 6,
        "gin regularity equals closed-form regularity": 5,
    }
