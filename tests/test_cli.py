import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tetracurves
from tetracurves import cli, gin, resolution, verify
from tetracurves.cli import main
from tetracurves.verify import SUITE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


class TestClassifyCommand:
    def test_json_schema(self, capsys):
        code, report = run_json(capsys, "classify", "10,1,2,3,10,1")
        assert code == 0
        assert set(report) == {"command", "input", "result", "provenance"}
        assert report["command"] == "classify"
        assert report["input"] == "10,1,2,3,10,1"
        assert report["result"]["acm"] is True
        assert report["result"]["componentwise_linear"] is True
        assert "version" in report["provenance"]

    def test_text_contains_same_numbers(self, capsys):
        _, report = run_json(capsys, "classify", "3,3,3,1,2,4")
        _, text = run(capsys, "classify", "3,3,3,1,2,4")
        assert f"degree: {report['result']['degree']}" in text
        assert f"regularity: {report['result']['regularity']}" in text

    def test_usage_error_on_bad_tuple(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "3,3,3"])
        assert exc.value.code == 2

    def test_defect_is_json_error_with_traceback(self, capsys, monkeypatch):
        # a ValueError from a closed form is a computation error, not a usage error
        def broken(t):
            raise ValueError("max() arg is an empty sequence")

        monkeypatch.setattr(resolution, "classify", broken)
        code = main(["--format", "json", "classify", "3,3,3,1,2,4"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["result"] == {
            "error": "ValueError",
            "message": "max() arg is an empty sequence",
        }
        assert "Traceback" in captured.err


class TestColdImports:
    # pytest's own process already holds numpy, so the probe runs in a fresh one
    PROBE = """
import contextlib, io, json, sys
import tetracurves
report = {"import": "numpy" in sys.modules}
from tetracurves.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["--format", "json", c, "3,3,3,1,2,4"]) for c in ("classify", "reduce", "betti")]
    report["commands"] = [m for m in ("numpy", "tetracurves.verify", "fractions") if m in sys.modules]
    codes.append(main(["--format", "json", "betti", "--oracle-check", "3,3,3,1,2,4"]))
report["oracle"] = "numpy" in sys.modules
print(json.dumps({"codes": codes, **report}))
"""

    def test_closed_form_commands_load_neither_numpy_nor_verify(self):
        env = dict(os.environ, PYTHONPATH=str(Path(tetracurves.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "codes": [0, 0, 0, 0],
            "import": False,
            "commands": [],
            # positive control: the Koszul oracle does load numpy
            "oracle": True,
        }

    def test_package_import_loads_no_submodule(self):
        loaded = fresh_json(
            "import json, sys, tetracurves\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('tetracurves.')]))"
        )
        assert loaded == []

    def test_closed_form_commands_load_only_the_calculus(self):
        loaded = fresh_json("""
import contextlib, io, json, sys
from tetracurves.cli import main
layers = ("numpy", "tetracurves.monomials", "tetracurves.gin", "tetracurves.groebner", "tetracurves.verify")
loaded = {}
with contextlib.redirect_stdout(io.StringIO()):
    # the positive controls run last: the process keeps what they load
    for command in ("classify", "reduce", "betti", "enumerate-linear", "betti --oracle-check", "gin"):
        # enumerate-linear takes a minimal curve
        t = "1,0,0,0,0,1" if command == "enumerate-linear" else "3,3,3,1,2,4"
        code = main(["--format", "json", *command.split(), t])
        loaded[command] = [code] + [m for m in layers if m in sys.modules]
print(json.dumps(loaded))
""")
        assert loaded["classify"] == loaded["reduce"] == loaded["betti"] == loaded["enumerate-linear"] == [0]
        # positive controls: the oracle loads the monomial engine and numpy,
        # and gin its own layer
        assert {"numpy", "tetracurves.monomials"} <= set(loaded["betti --oracle-check"][1:])
        assert "tetracurves.gin" in loaded["gin"][1:]
        assert loaded["betti --oracle-check"][0] == loaded["gin"][0] == 0

    def test_closed_form_gin_loads_no_betti_layer(self):
        loaded = fresh_json("""
import contextlib, io, json, sys
from tetracurves.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["--format", "json", "gin", "3,3,3,1,2,4"])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("tetracurves."))]))
""")
        # the README "Install" row of gin; groebner brings the default primes
        assert loaded == [0, [f"tetracurves.{m}" for m in ("cli", "exceptions", "gin", "groebner", "koszul",
                                                            "monomials", "tuples")]]

    def test_large_closed_form_gin_loads_no_numpy(self):
        # 3,001 generators, minimalized and checked for stability in pure Python
        loaded = fresh_json("""
import contextlib, io, json, sys
from tetracurves.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["--format", "json", "gin", "1000,0,999,999,0,1000"])
print(json.dumps([code, "numpy" in sys.modules]))
""")
        assert loaded == [0, False]


def fresh_json(source: str):
    """Run Python source in a fresh interpreter and parse what it prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(tetracurves.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestLazyNamespace:
    def test_dir_lists_every_public_name(self):
        assert set(tetracurves.__all__) <= set(dir(tetracurves))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tetracurves.no_such_name

    def test_star_import_binds_exactly_all(self):
        names = fresh_json(
            "import json, tetracurves\n"
            "ns = {}\n"
            "exec('from tetracurves import *', ns)\n"
            "print(json.dumps([sorted(set(ns) - {'__builtins__'}), tetracurves.__all__]))"
        )
        assert names[0] == names[1] == tetracurves.__all__

    def test_from_import_of_a_submodule(self):
        assert fresh_json(
            "import json, types\n"
            "from tetracurves import gin\n"
            "print(json.dumps([isinstance(gin, types.ModuleType), gin.__name__]))"
        ) == [True, "tetracurves.gin"]


class TestPublicApi:
    def test_all_names_resolve_and_none_is_a_module(self):
        assert tetracurves.__all__
        for name in tetracurves.__all__:
            assert not isinstance(getattr(tetracurves, name), types.ModuleType), name

    def test_all_is_the_pinned_list(self):
        assert tetracurves.__all__ == [
            "BettiTable", "ClassificationReport", "HilbertData", "Monomial", "MonomialIdeal",
            "ReductionStep", "ReductionTrace", "StableIdeal", "TetTuple",
            "apply_reduction", "ascent_candidates", "betti_table", "betti_table_oracle", "canonicalize",
            "ci_power_betti", "ci_power_form", "classify", "degree_of_tuple", "ek_betti",
            "enumerate_linear_in_class", "facet_weights", "gin_buchsbaum_minimal", "gin_of_curve",
            "gin_oracle", "hilbert_data", "ideal_of_tuple", "is_cwl", "is_minimal", "is_strongly_stable",
            "minimal_curve_betti", "reduced_homology_ranks", "reduction_applicable", "reduction_trace",
            "regularity_closed_form",
        ]
        assert len(tetracurves.__all__) == 34

    @pytest.mark.parametrize(
        "name, home",
        [
            ("acm_linear_family", "resolution"),
            ("gin_betti_prediction", "resolution"),
            ("basic_double_link", "monomials"),
            ("component_ideal", "monomials"),
            ("truncate", "monomials"),
            ("gin_acm", "gin"),
            ("schwartau_status", "tuples"),
            ("NotACMError", "exceptions"),
        ],
    )
    def test_check_only_names_left_the_package(self, name, home):
        # the five references that only checks read live in verify; gin_acm,
        # schwartau_status and NotACMError are gone
        with pytest.raises(AttributeError):
            getattr(tetracurves, name)
        assert not hasattr(importlib.import_module(f"tetracurves.{home}"), name)
        assert hasattr(verify, name) is (home in ("resolution", "monomials"))


class TestReduceCommand:
    def test_trace(self, capsys):
        code, report = run_json(capsys, "reduce", "3,3,3,1,2,4", "--trace")
        assert code == 0
        result = report["result"]
        assert result["terminal"] == "1,0,0,0,0,1"
        assert result["terminal_kind"] == "minimal"
        children = [s["child"] for s in result["steps"]]
        for expected in ("2,2,2,1,2,4", "2,2,1,1,1,3", "2,1,1,0,1,2"):
            assert expected in children or expected in [s["parent"] for s in result["steps"]]

    def test_summary_has_no_steps(self, capsys):
        _, report = run_json(capsys, "reduce", "3,3,3,1,2,4")
        assert "steps" not in report["result"]


class TestHugeWeights:
    @pytest.mark.parametrize(
        "argv, key, expected",
        [
            (["classify", "1000000,1000000,1000000,1,1,1"], "acm", True),
            (["reduce", "200000,200000,200000,200000,200000,200000"], "step_count", 400000),
        ],
    )
    def test_huge_weights_finish(self, argv, key, expected):
        # one step per unit of weight took minutes; the compressed trace jumps
        env = dict(os.environ, PYTHONPATH=str(Path(tetracurves.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "tetracurves.cli", "--format", "json", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0
        assert json.loads(done.stdout)["result"][key] == expected

    @pytest.mark.parametrize(
        "argv",
        [
            # the ideal's grid has 100001^3 cells; a 74.5 GiB temporary ended in a MemoryError
            ["betti", "--oracle-check", "100000,100000,100000,100000,100000,100000"],
            # its boolean mask alone takes 25.2 GiB
            ["hilbert", "3000,3000,3000,3000,3000,3000", "--upto", "3000"],
            # the 167 million monomials of degree 999 used to be built before the oracle's guard
            ["gin", "--oracle-check", "1000,0,0,0,0,0"],
            # 4.6 million monomials of degree 299 were listed before the guard: 13 s to refuse
            ["gin", "--oracle-check", "300,0,0,0,0,0"],
            # the JSON answer needs about 2 GiB; the guard used to count only the lists of values
            ["hilbert", "1,0,0,0,0,1", "--upto", "15000000"],
        ],
    )
    def test_huge_ideal_grid_is_typed_error(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(tetracurves.__file__).parents[1]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "tetracurves.cli", "--format", "json", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert done.returncode == 1
        assert json.loads(done.stdout)["result"]["error"] == "OracleTooLargeError"

    def test_huge_hilbert_bound_is_typed_error(self):
        # a tiny box, but the lists of values up to 10^9 ended in a MemoryError
        env = dict(os.environ, PYTHONPATH=str(Path(tetracurves.__file__).parents[1]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "tetracurves.cli", "--format", "json",
             "hilbert", "1,0,0,0,0,1", "--upto", "1000000000"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert done.returncode == 1
        assert json.loads(done.stdout)["result"]["error"] == "OracleTooLargeError"


class TestBoundedAnswers:
    """The run-length trace answers classify and reduce at any weight; the
    answers that are large by nature are refused before they are built."""

    HUGE = "100000000,100000000,100000000,1,1,1"  # 10^8 steps, 2 * 10^8 Betti entries

    @staticmethod
    def cli(*argv, limit=None):
        def cap():  # an address-space limit on the child only
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(os.environ, PYTHONPATH=str(Path(tetracurves.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "tetracurves.cli", "--format", "json", *argv],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap if limit else None,
        )

    def test_classify_fits_in_one_gib(self):
        # the step-by-step record took 1.04 GB at 10^7 and ran out at 10^8
        done = self.cli("classify", self.HUGE, limit=1 << 30)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["result"]["regularity"] == 3 * 10**8

    def test_googol_weights(self):
        w = str(10**100)
        for argv, key, expected in [
            (["classify", f"{w},{w},{w},1,1,1"], "acm", True),
            (["reduce", f"{w},{w},{w},1,1,1"], "step_count", 10**100 + 2),
        ]:
            done = self.cli(*argv, limit=1 << 30)
            assert done.returncode == 0, done.stderr
            assert json.loads(done.stdout)["result"][key] == expected

    @pytest.mark.parametrize("argv", [
        ["betti", HUGE], ["gin", HUGE], ["reduce", "--trace", HUGE],
        # 2,000,004 entries: about 1.17 GB of RSS, which the guard once let through
        ["betti", "1000000,1000000,1000000,1,1,1"],
        # the least fat line the oracle's guard refuses: an 892 MiB estimate beside the
        # 140 MiB the interpreter has mapped (80,0,0,0,0,0 was refused at 1,022 MiB before
        # the hyperplane section; at the full 1 GiB it had ended in a MemoryError)
        ["gin", "--oracle-check", "197,0,0,0,0,0"],
    ])
    def test_large_answers_are_typed_errors(self, argv):
        start = time.perf_counter()
        done = self.cli(*argv, limit=1 << 30)
        assert time.perf_counter() - start < 10
        assert done.returncode == 1
        assert json.loads(done.stdout)["result"]["error"] == "OracleTooLargeError"
        assert "Traceback" not in done.stderr


    def test_fat_line_oracle_fits_in_one_gib(self):
        # 81 rows of 3,321 columns on the hyperplane section: a 61 MiB estimate
        done = self.cli("gin", "--oracle-check", "80,0,0,0,0,0", limit=1 << 30)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["result"]["oracle_match"] is True


_small = st.integers(0, 6).map(str)
_bad_weight = st.one_of(
    st.sampled_from(["", "x", "1.5", "2.0", "1e3", "0x10", "True", "False", "None"]),
    st.integers(max_value=-1).map(str),
    # past int()'s 4300-digit limit for strings
    st.integers(4301, 5000).map(lambda n: "9" * n),
)
_bad_tuple = st.one_of(
    st.lists(_small, max_size=12).filter(lambda w: len(w) != 6).map(",".join),
    st.builds(
        lambda w, bad, k: ",".join(w[:k] + [bad] + w[k:]),
        st.lists(_small, min_size=5, max_size=5), _bad_weight, st.integers(0, 5),
    ),
)
_good_tuple = st.lists(st.integers(0, 3).map(str), min_size=6, max_size=6).map(",".join)
_bad_upto = st.one_of(
    st.sampled_from(["", "x", "1.5", "True"]),
    st.integers(max_value=-1).map(str),
    # the values up to 2^24 alone would need over 1 GiB
    st.integers(min_value=2**24).map(str),
)
_bad_prime = st.one_of(
    st.sampled_from(["", "p", "3.5"]),
    st.integers(max_value=2**14).map(str),
    st.integers(min_value=2**31).map(str),
    st.integers(2**13 + 1, 2**30 - 1).map(lambda k: str(2 * k)),
)


def _prime_flags(*primes):
    return [arg for p in primes for arg in ("--prime", p)]


_bad_primes = st.one_of(
    st.builds(_prime_flags, _bad_prime),
    st.builds(_prime_flags, _bad_prime, st.just("32003")),
    st.builds(_prime_flags, st.just("32003"), _bad_prime),
    st.sampled_from(["32003", "31991"]).map(lambda p: _prime_flags(p, p)),
    st.builds(_prime_flags, st.just("32003"), st.just("31991"), st.sampled_from(["4", "32009"])),
)
_bad_suite = st.text(max_size=12).filter(lambda s: s not in SUITE_NAMES + ("all",))
HOSTILE_ARGV = st.one_of(
    st.builds(
        lambda c, t: [c, t],
        st.sampled_from(["classify", "reduce", "betti", "gin", "enumerate-linear"]), _bad_tuple,
    ),
    st.builds(lambda t, u: ["hilbert", t, "--upto", u], _bad_tuple, st.integers(0, 5).map(str)),
    st.builds(lambda t, u: ["hilbert", t, "--upto", u], _good_tuple, _bad_upto),
    st.builds(lambda p: ["gin", "1,0,0,0,0,1", *p], _bad_primes),
    st.builds(lambda p: ["verify", *p], _bad_primes),
    st.builds(lambda s: ["verify", "--suite", s], _bad_suite),
)


class TestHostileArgv:
    @settings(max_examples=300)
    @given(HOSTILE_ARGV)
    def test_usage_error_or_json_error(self, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["--format", "json", *argv])
        except SystemExit as exc:
            assert exc.code == 2
            assert out.getvalue() == ""
        else:
            assert code == 1
            assert set(json.loads(out.getvalue())["result"]) == {"error", "message"}


class TestBettiCommand:
    def test_oracle_check_passes(self, capsys):
        code, report = run_json(capsys, "betti", "1,3,4,2,3,0", "--oracle-check")
        assert code == 0
        assert report["result"]["oracle_match"] is True
        entries = {(i, j): r for i, j, r in report["result"]["entries"]}
        assert entries == {(0, 8): 1, (0, 7): 1, (0, 6): 3, (1, 9): 1, (1, 8): 3}

    def test_oracle_over_memory_limit_is_typed_error(self, capsys):
        # the padded box would be 152^4 cells; the estimate refuses it unallocated
        code, report = run_json(capsys, "betti", "150,150,150,150,150,150", "--oracle-check")
        assert code == 1
        assert report["result"]["error"] == "OracleTooLargeError"

    def test_trivial_curve_reports_error(self, capsys):
        code, report = run_json(capsys, "betti", "0,0,0,0,0,0")
        assert code == 1
        assert report["result"]["error"] == "TrivialCurveError"


class TestGinCommand:
    def test_supported_with_oracle(self, capsys):
        code, report = run_json(capsys, "gin", "2,1,0,0,0,1", "--oracle-check")
        assert code == 0
        assert report["result"]["supported"] is True
        assert report["result"]["oracle_match"] is True

    @pytest.mark.parametrize("t", ["16,16,16,16,16,16", "40,0,0,0,0,40"])
    def test_oracle_over_memory_limit_is_typed_error(self, capsys, t):
        # the stacked Macaulay matrices would take GiBs: refused, not a 20 s+ run
        start = time.perf_counter()
        code, report = run_json(capsys, "gin", t, "--oracle-check")
        assert time.perf_counter() - start < 10
        assert code == 1
        assert report["result"]["error"] == "OracleTooLargeError"

    def test_unsupported_curve(self, capsys):
        code, report = run_json(capsys, "gin", "4,1,2,1,1,5")
        assert code == 0
        assert report["result"]["supported"] is False
        assert "note" in report["result"]

    @pytest.mark.parametrize(
        "primes",
        [["4"], ["0"], ["-7"], ["16381"], ["2147483659"], ["32003", "32003"], ["32003", "31991", "4"]],
    )
    @pytest.mark.parametrize("command", [["gin", "1,0,0,0,0,1", "--oracle-check"], ["verify"]])
    def test_bad_prime_is_usage_error(self, capsys, command, primes):
        argv = command + [arg for p in primes for arg in ("--prime", p)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "prime" in capsys.readouterr().err

    def test_prime_one_exits_promptly(self):
        # mod 1 every matrix is singular, so an unchecked prime 1 resamples forever
        env = dict(os.environ, PYTHONPATH=str(Path(tetracurves.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "tetracurves.cli", "gin", "1,0,0,0,0,1", "--oracle-check", "--prime", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert "not a prime" in done.stderr


class TestHilbertCommand:
    def test_values(self, capsys):
        code, report = run_json(capsys, "hilbert", "1,0,0,0,0,1", "--upto", "5")
        assert code == 0
        assert report["result"]["values"] == [1, 4, 6, 8, 10, 12]
        assert report["result"]["degree"] == 2

    def test_large_bound(self, capsys):
        # used to allocate the dense (upto + 1)^4 grid: 6.4 GiB here
        code, report = run_json(capsys, "hilbert", "1,0,0,0,0,1", "--upto", "120")
        assert code == 0
        values = report["result"]["values"]
        assert values == [1] + [2 * d + 2 for d in range(1, 121)]
        assert report["result"]["degree"] == 2

    def test_negative_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "1,0,0,0,0,1", "--upto", "-1"])
        assert exc.value.code == 2
        assert "--upto" in capsys.readouterr().err

    def test_bound_too_small(self, capsys):
        code, report = run_json(capsys, "hilbert", "2,0,1,1,0,2", "--upto", "1")
        assert code == 1
        assert report["result"]["error"] == "BoundTooSmallError"

    def test_zero_inside_the_h_vector_is_refused(self, capsys):
        # h = (1, 2, 3, 4, 0, 1): --upto 4 answered degree 10 before
        for upto in ("3", "4", "5"):
            code, report = run_json(capsys, "hilbert", "0,0,3,1,1,2", "--upto", upto)
            assert (code, report["result"]["error"]) == (1, "BoundTooSmallError"), upto
        code, report = run_json(capsys, "hilbert", "0,0,3,1,1,2", "--upto", "8")
        assert code == 0
        assert report["result"]["h_vector"] == [1, 2, 3, 4, 0, 1]
        assert report["result"]["degree"] == 11


class TestEnumerateCommand:
    def test_singleton_class(self, capsys):
        code, report = run_json(capsys, "enumerate-linear", "3,0,0,0,0,3")
        assert code == 0
        assert report["result"]["count"] == 1

    def test_rejects_non_minimal(self, capsys):
        code, report = run_json(capsys, "enumerate-linear", "3,3,3,1,2,4")
        assert code == 1
        assert report["result"]["error"] == "NotMinimalError"

    def test_level_cap_is_typed_error(self, capsys, monkeypatch):
        monkeypatch.setattr(resolution, "_ASCENT_LEVEL_CAP", 1)
        code, report = run_json(capsys, "enumerate-linear", "1,0,0,0,0,1")
        assert code == 1
        assert report["result"]["error"] == "EnumerationCapError"


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, report = run_json(
            capsys, "verify", "--suite", "liaison-addition", "--bound", "3"
        )
        assert code == 0
        suite = report["result"]["suites"][0]
        assert suite["passed"] is True

    def test_small_regularity_suite(self, capsys):
        code, report = run_json(capsys, "verify", "--suite", "regularity", "--bound", "4")
        assert code == 0

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bound", ["-1", "0", "13", "1" + "0" * 29])
    def test_bound_outside_one_to_twelve_is_usage_error(self, capsys, bound):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "regularity", "--bound", bound])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--bound" in captured.err

    def test_defect_in_a_closed_form_aborts_the_suite(self, capsys, monkeypatch):
        # a ValueError from a closed form is a failed check, not a usage error
        def broken(t):
            raise ValueError("max() arg is an empty sequence")

        monkeypatch.setattr(gin, "gin_of_curve", broken)
        code, report = run_json(capsys, "verify", "--suite", "gin", "--bound", "2")
        assert code == 1
        assert report["result"]["suites"][0]["checks"] == [
            {
                "name": "gin suite aborted",
                "passed": False,
                "detail": "ValueError: max() arg is an empty sequence",
            }
        ]

    def test_enumeration_suite_reports_published_list_mismatch(self, capsys):
        # the published list differs from the computed one by three errata,
        # which the suite re-proves and names in the check detail
        code, report = run_json(capsys, "verify", "--suite", "enumeration", "--bound", "6")
        assert code == 0
        checks = {c["name"]: c for c in report["result"]["suites"][0]["checks"]}
        assert checks["two-skew-lines ascent equals brute force, oracle-linear"]["passed"]
        published = checks["two-skew-lines orbits match the published list"]
        assert published["passed"]
        for erratum in ("removed 2,1,1,1,0,1", "added 2,1,1,1,0,2", "added 3,1,0,0,1,1"):
            assert erratum in published["detail"]

    def test_determinism(self, capsys):
        def strip_timing(report):
            return [
                {k: v for k, v in suite.items() if k != "elapsed_s"}
                for suite in report["result"]["suites"]
            ]

        _, first = run_json(capsys, "verify", "--suite", "cwl", "--bound", "4", "--seed", "3")
        _, second = run_json(capsys, "verify", "--suite", "cwl", "--bound", "4", "--seed", "3")
        assert strip_timing(first) == strip_timing(second)
