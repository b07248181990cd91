"""The answer snapshots in `tests/data`: one table, `SNAPSHOTS`, says how to
make each file afresh, and one diff compares it with the recorded file.

An entry gives its file, its calls, the projection of their output onto the
file's text, and whether Tier-1 runs it.  A call is a CLI command line run
in process through `cli.main` with `--format json`, or one of the two scripts
under `scripts/`, each with the exit code it must give; or a Python producer.
From the repository root:

    PYTHONPATH=src python tests/snapshots.py                  # diff every entry
    PYTHONPATH=src python tests/snapshots.py gin_examples ... # diff the named ones
    PYTHONPATH=src python tests/snapshots.py --print deep_digests > tests/data/deep_digests.txt

The diff exits 1 on any difference, wrong exit code or crash.  `--print`
writes one entry afresh; only that re-records a file.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import functools
import io
import json
import runpy
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
if __name__ == "__main__":  # run as a script: the package of this checkout
    sys.path.insert(0, str(ROOT / "src"))

from tetracurves import cli  # noqa: E402

from deep_digests import deep_tuples, digest  # noqa: E402


@dataclass(frozen=True)
class Call:
    """A CLI command line (after `--format json`), or a script under
    `scripts/` and its arguments, and the exit code it must give."""

    argv: str
    code: int = 0


class WrongExitCode(AssertionError):
    pass


def run(call: Call | Callable[[], str]) -> str:
    """The call's standard output; a Python producer's text."""
    if callable(call):
        return call()
    out, (head, *args) = io.StringIO(), call.argv.split()
    saved = sys.argv
    try:
        with contextlib.redirect_stdout(out):
            if head.endswith(".py"):
                sys.argv = [str(ROOT / "scripts" / head), *args]
                runpy.run_path(sys.argv[0], run_name="__main__")
                code = 0
            else:
                code = cli.main(["--format", "json", head, *args])
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        sys.argv = saved
    if code != call.code:
        raise WrongExitCode(f"{call.argv!r} exited {code}, expected {call.code}")
    return out.getvalue()


# Projections: the calls and their outputs onto the file's text.

def text(outputs) -> str:
    return "".join(out for _, out in outputs)


def check_rows(outputs) -> str:
    """[suite, check, passed, detail] of every check of `verify`, one per
    line: a changed case count or detail shows, not only a failed check."""
    rows = [
        [suite["suite"], check["name"], check["passed"], check["detail"]]
        for _, out in outputs
        for suite in json.loads(out)["result"]["suites"]
        for check in suite["checks"]
    ]
    return "[\n" + ",\n".join("  " + json.dumps(r) for r in rows) + "\n]\n"


def json_list(row: Callable[[Call, dict], object]):
    """One row per call, of its JSON report, in an indented JSON list."""
    return lambda outputs: json.dumps([row(call, json.loads(out)) for call, out in outputs], indent=2) + "\n"


def without_provenance(call: Call, report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "provenance"}


def oracle_field(key: str):
    return lambda call, report: {"input": report["input"], key: report["result"][key]}


def hilbert_row(call: Call, report: dict) -> dict:
    # a refusal is recorded by its error's name, not by its message
    result = {key: value for key, value in report["result"].items() if key != "message"}
    return {"call": call.argv.removeprefix("hilbert "), "result": result}


def deep_digest_lines() -> str:
    return "".join(f"{t} {digest(t)}\n" for t in deep_tuples())


@dataclass(frozen=True)
class Snapshot:
    file: str  # under tests/data
    calls: tuple
    project: Callable[[list[tuple]], str]
    tier1: bool = True


SNAPSHOTS = {
    # 7-11 s: CI only, until the gin oracle's elimination is blocked (ROADMAP item 2)
    "verify_default": Snapshot("verify_default.json", (Call("verify --suite all"),), check_rows, tier1=False),
    "verify_bound4": Snapshot("verify_bound4.json", (Call("verify --suite all --bound 4"),), check_rows),
    # the scripts print deterministic output: a change to how a tuple
    # prints or sorts shows
    "worked_examples": Snapshot("worked_examples.txt", (Call("worked_examples.py"),), text),
    "census_bound6": Snapshot("census_bound6.txt", (Call("classification_census.py --bound 6"),), text),
    # each step's type, parent, child, F, G and weight, and first_ci_power
    # (set only on 1,3,3,3,3,0)
    "reduce_trace": Snapshot(
        "reduce_trace.json",
        tuple(Call(f"reduce --trace {t}") for t in ("3,3,3,1,2,4", "7,5,5,2,1,6", "1,3,3,3,3,0")),
        json_list(without_provenance),
    ),
    # one gin per route: ACM componentwise linear, a CI power, ACM above a
    # CI^4 base, Buchsbaum-rooted and unsupported
    "gin_examples": Snapshot(
        "gin_examples.json",
        tuple(Call(f"gin {t}") for t in ("1,2,2,2,1,2", "0,3,3,3,3,0", "2,5,5,5,5,0", "2,1,0,0,0,1", "7,5,5,2,1,6")),
        json_list(without_provenance),
    ),
    # the oracle's gins against those the four-variable kernel gave before
    # the hyperplane section replaced it, at weights the tests do not reach;
    # 4 s, CI only until ROADMAP item 2
    "gin_oracle_examples": Snapshot(
        "gin_oracle_examples.json",
        tuple(
            Call(f"gin --oracle-check {t}")
            for t in ("2,1,0,0,0,1", "3,0,2,2,0,3", "6,4,4,2,1,5", "7,5,5,2,1,6", "60,0,0,0,0,0", "20,0,0,0,0,20")
        ),
        json_list(oracle_field("oracle_generators")),
        tier1=False,
    ),
    # the Koszul oracle's Betti tables against those the kernel gave before
    # the table of complexes, on boxes of 5,184 to 1.05 million cells
    "koszul_oracle_examples": Snapshot(
        "koszul_oracle_examples.json",
        tuple(
            Call(f"betti --oracle-check {t}")
            for t in ("7,5,5,2,1,6", "20,18,17,9,8,20", "30,0,0,0,0,30", "12,12,12,12,12,12")
        ),
        json_list(oracle_field("oracle_entries")),
    ),
    # the Hilbert counter's answers against those it gave when every reader
    # rebuilt the exponent box; --upto 20 on 30,0,0,0,0,30 caps the box below
    # its lcm and is refused
    "hilbert_examples": Snapshot(
        "hilbert_examples.json",
        (
            Call("hilbert 7,5,5,2,1,6 --upto 20"),
            Call("hilbert 20,18,17,9,8,20 --upto 58"),
            Call("hilbert 30,0,0,0,0,30 --upto 63"),
            Call("hilbert 12,12,12,12,12,12 --upto 39"),
            Call("hilbert 30,0,0,0,0,30 --upto 20", code=1),
            Call("hilbert 1,0,0,0,0,1 --upto 120"),
        ),
        json_list(hilbert_row),
    ),
    # 200 seeded tuples with entries in [0, 300], recorded before the trace
    # became a run record
    "deep_digests": Snapshot("deep_digests.txt", (deep_digest_lines,), text),
}


@functools.cache
def fresh(name: str) -> str:
    """The entry's text, made afresh."""
    calls = SNAPSHOTS[name].calls
    return SNAPSHOTS[name].project([(call, run(call)) for call in calls])


def recorded(name: str) -> str:
    return (DATA / SNAPSHOTS[name].file).read_text()


def diff(name: str, data: Path = DATA, afresh: str | None = None) -> list[str]:
    """The unified diff from the recorded file to the entry made afresh (or
    to `afresh`); empty when they agree."""
    path = data / SNAPSHOTS[name].file
    new = fresh(name) if afresh is None else afresh
    return list(difflib.unified_diff(path.read_text().splitlines(True), new.splitlines(True), str(path), f"{name} afresh"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Diff the snapshots in tests/data against their producers.")
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"entries to diff (default: all): {', '.join(SNAPSHOTS)}")
    parser.add_argument("--print", dest="show", metavar="NAME", choices=SNAPSHOTS, help="print one entry afresh")
    args = parser.parse_args(argv)
    if args.show:
        sys.stdout.write(fresh(args.show))
        return 0
    unknown = sorted(set(args.names) - set(SNAPSHOTS))
    if unknown:
        parser.error(f"unknown snapshot {', '.join(unknown)}; choose from {', '.join(SNAPSHOTS)}")
    failed = 0
    for name in args.names or SNAPSHOTS:
        started = time.perf_counter()
        try:
            lines = diff(name)
        except Exception:
            lines = [traceback.format_exc()]
        failed += bool(lines)
        sys.stdout.writelines(lines)
        print(f"{name}: {'DIFFERS' if lines else 'ok'} ({time.perf_counter() - started:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
