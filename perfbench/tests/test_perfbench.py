"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tetracurves import groebner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170).stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    out = bench("--workload", "all", "--seed", "3", "--seconds", "0.6", "--trace", str(trace))
    summary = json.loads(out.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(summary["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in summary["workloads"].items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, name
    for name, unit in expected.items():
        assert any(name in line and unit in line for line in out.splitlines()), name


def test_corrupted_expected_value_counts_as_failure():
    census = workloads.Census(seed=1)
    census.inputs = census.inputs[:25]
    victim = census.inputs[7].entries
    census.expected[victim] = "0" * 20
    cases, failed = run.timed_phase(census, census.cases(), 0.5, Speed())
    passes = -(-len(cases) // 25)
    assert len(cases) > 25
    assert failed in (passes, passes - 1)
    assert failed >= 1


def first_pass(workload):
    return [item for _, item in itertools.islice(workload.cases(), len(workload.inputs))]


@pytest.mark.parametrize("name", ["census", "koszul-check"])
def test_seed_only_reorders_exhaustive_workloads(name):
    one, two = (workloads.WORKLOADS[name](seed) for seed in (1, 2))
    assert one.inputs == two.inputs
    a, b = first_pass(one), first_pass(two)
    assert sorted(a) == sorted(b) and a != b
    assert a == first_pass(workloads.WORKLOADS[name](1))


@pytest.mark.parametrize("name", ["deep", "cli-cold"])
def test_seed_changes_inputs(name):
    one, two = (workloads.WORKLOADS[name](seed) for seed in (1, 2))
    assert one.inputs != two.inputs
    assert one.inputs == workloads.WORKLOADS[name](1).inputs


def test_seed_changes_gin_oracle_seeds(monkeypatch):
    seen = []
    original = groebner.gin_oracle

    def spy(ideal, seeds, **kwargs):
        seen.append(seeds)
        return original(ideal, seeds, **kwargs)

    monkeypatch.setattr(groebner, "gin_oracle", spy)
    for seed in (1, 2):
        gin_check = workloads.GinCheck(seed)
        case = next(gin_check.cases())
        assert gin_check.check(case, gin_check.run(case), None)
    assert seen == [(1, 2), (2, 3)]


def test_refuses_to_run_without_sources(tmp_path):
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    (bench_copy / "run.py").write_text((BENCH / "run.py").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
