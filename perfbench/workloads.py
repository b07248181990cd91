"""The five benchmark workloads, one per layer of tetracurves.

Each workload makes its inputs from the seed, warms up on inputs disjoint
from the timed set, runs one case at a time (a closed loop with one client in
one process) and checks every output.  Calls go through the layer modules'
attributes so that the tracer in ``spans.py`` sees them.

Cache hygiene: ``ideal_of_tuple`` is memoised without bound.  Every run is a
fresh process, warm-up inputs never occur in the timed set, and the memo is
cleared at the start of every pass over the inputs, so no timed case is served
from an earlier pass.  The Koszul check calls the uncached
``betti_table_oracle``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

from tetracurves import gin, groebner, koszul, monomials, resolution, tuples
from tetracurves.tuples import TetTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "census_digests.txt"

CACHE_HYGIENE = (
    "fresh process per run; warm-up on inputs disjoint from the timed set; "
    "ideal_of_tuple memo cleared before every pass; uncached betti_table_oracle"
)


def tuples_upto(bound: int) -> list[TetTuple]:
    """Every non-trivial tuple with weight sum <= bound, in lexicographic order."""
    prefixes = [((), bound)]
    for _ in range(6):
        prefixes = [(p + (a,), left - a) for p, left in prefixes for a in range(left + 1)]
    return [TetTuple(p) for p, left in prefixes if left < bound]


def sample_tuple(rng: random.Random, bound: int) -> TetTuple:
    """A uniform non-trivial tuple with weight sum <= bound (stars and bars)."""
    while True:
        cuts = sorted(rng.sample(range(bound + 6), 6))
        entries = tuple(b - a - 1 for a, b in zip([-1] + cuts, cuts))
        if any(entries):
            return TetTuple(entries)


def clear_ideal_memo() -> None:
    memo = getattr(monomials, "_ideal_of_entries", None)
    if hasattr(memo, "cache_clear"):
        memo.cache_clear()


class Workload:
    """Base: subclasses set ``inputs`` and ``warmup_inputs`` and define
    ``run`` (the timed program calls) and ``check`` (the output check)."""

    name = ""
    tail_pct = 99.0  # highest tail percentile reported; lowered when too few cases
    in_process = True  # the timed work runs in this process
    inputs: list
    warmup_inputs: list

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def warmup(self) -> None:
        for item in self.warmup_inputs:
            self.run((0, item))

    def cases(self):
        """Endless passes over the inputs, each pass in a fresh seeded order."""
        for index in itertools.count():
            order = list(self.inputs)
            self.rng.shuffle(order)
            clear_ideal_memo()
            for item in order:
                yield index, item

    def run(self, case):
        raise NotImplementedError

    def check(self, case, out, counts) -> bool:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def closed_form_outputs(t: TetTuple):
    report = resolution.classify(t)
    table = resolution.betti_table(t)
    g = gin.gin_of_curve(t)
    ek = gin.ek_betti(g) if g is not None else None
    return report, table, g, ek, tuples.regularity_closed_form(t), tuples.degree_of_tuple(t)


def census_digest(out) -> str:
    """Digest of every census output of one tuple."""
    report, table, g, ek, reg, deg = out
    payload = [
        dataclasses.asdict(report),
        table.json_entries(),
        None if g is None else [m.exps for m in g.generators],
        None if ek is None else ek.json_entries(),
        reg,
        deg,
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:20]


def load_digests(path: Path = DIGESTS) -> dict[tuple[int, ...], str]:
    out = {}
    with open(path) as f:
        for line in f:
            key, digest = line.split()
            out[tuple(int(a) for a in key.split(","))] = digest
    return out


class Census(Workload):
    name = "census"
    tail_pct = 90.0  # cases take about 1 ms; above p90 machine stalls, not tuples, set the latency

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = tuples_upto(8)
        self.expected = load_digests()
        warm = random.Random(f"census-warmup-{seed}")
        self.warmup_inputs = [t for t in (sample_tuple(warm, 11) for _ in range(200)) if t.total > 8][:40]

    def run(self, case):
        return closed_form_outputs(case[1])

    def check(self, case, out, counts) -> bool:
        return census_digest(out) == self.expected.get(case[1].entries)


class Deep(Workload):
    """The closed-form calculus at depth.  gin_of_curve is not called: at these
    weights its ACM route allocates the dense (reg+4)^4 Hilbert cube, and its
    Buchsbaum route takes tens of seconds for one tuple (35 s at r = 103), so
    a single case could outlast the run.  census covers the gin layer."""

    name = "deep"
    tail_pct = 95.0
    count = 1000  # more than one run completes, so no tuple repeats within a run
    top = 300

    def __init__(self, seed: int):
        super().__init__(seed)
        # Latin hypercube: each entry takes one value from each of count equal
        # strata of [0, top], so every seed covers the range evenly and the
        # run-to-run spread comes from the program, not from lucky draws.
        columns = []
        for _ in range(6):
            column = [int((i + self.rng.random()) * (self.top + 1) / self.count) for i in range(self.count)]
            self.rng.shuffle(column)
            columns.append(column)
        self.inputs = [TetTuple(e) for e in zip(*columns) if any(e)]
        warm = random.Random(f"deep-warmup-{seed}")
        self.warmup_inputs = [TetTuple(tuple(warm.randint(1, 40) for _ in range(6))) for _ in range(5)]

    def run(self, case):
        t = case[1]
        report = resolution.classify(t)
        table = resolution.betti_table(t)
        return report, table, tuples.regularity_closed_form(t), tuples.degree_of_tuple(t)

    def check(self, case, out, counts) -> bool:
        report, table, reg, deg = out
        euler = sum((-1) ** i * r for i, _, r in table.entries)
        return (
            euler == 1
            and table.regularity == reg == report.regularity
            and table.is_linear == report.linear_resolution
            and deg == report.degree
        )


class KoszulCheck(Workload):
    name = "koszul-check"
    tail_pct = 90.0  # as for census

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = tuples_upto(8)
        warm = random.Random(f"koszul-warmup-{seed}")
        self.warmup_inputs = [t for t in (sample_tuple(warm, 11) for _ in range(200)) if t.total > 8][:40]

    def run(self, case):
        t = case[1]
        ideal = monomials.ideal_of_tuple(t)
        oracle = koszul.betti_table_oracle(ideal)
        closed = resolution.betti_table(t)
        degree = monomials.hilbert_data(ideal, tuples.regularity_closed_form(t) + 3).degree
        return oracle, closed, degree, tuples.degree_of_tuple(t)

    def check(self, case, out, counts) -> bool:
        oracle, closed, degree, expected_degree = out
        counts["koszul.mismatches"] += oracle != closed
        return oracle == closed and degree == expected_degree


class GinCheck(Workload):
    name = "gin-check"
    tail_pct = 99.0

    def __init__(self, seed: int):
        super().__init__(seed)
        ladder = [(TetTuple((r, 0, r - 1, r - 1, 0, r)), r) for r in range(1, 5)]
        known = [(t, None) for t in tuples_upto(5) if gin.gin_of_curve(t) is not None]
        self.inputs = ladder + known
        warm = random.Random(f"gin-warmup-{seed}")
        sixes = (t for t in (sample_tuple(warm, 6) for _ in range(500)) if t.total == 6)
        self.warmup_inputs = [(t, None) for t in sixes if gin.gin_of_curve(t) is not None][:2]

    def run(self, case):
        # pass k uses oracle seeds (seed + 2k, seed + 2k + 1): no pass repeats
        # the random coordinate changes of another
        index, (t, r) = case
        first = self.seed + 2 * index
        oracle = groebner.gin_oracle(monomials.ideal_of_tuple(t), seeds=(first, first + 1))
        closed = gin.gin_buchsbaum_minimal(r) if r is not None else gin.gin_of_curve(t)
        return oracle, closed

    def check(self, case, out, counts) -> bool:
        oracle, closed = out
        return oracle == closed


def reduce_payload(t: TetTuple) -> dict:
    """The ``result`` of ``tetracurves reduce`` (without --trace)."""
    trace = tuples.reduction_trace(t)
    ci = trace.first_ci_power
    return {
        "terminal": str(trace.terminal),
        "terminal_kind": trace.terminal_kind.value,
        "step_count": len(trace.steps),
        "first_ci_power": None if ci is None else {"chain_index": ci[0], "r": ci[1]},
    }


def in_process_result(command: str, t: TetTuple) -> dict:
    if command == "classify":
        result = dataclasses.asdict(resolution.classify(t))
    elif command == "reduce":
        result = reduce_payload(t)
    else:
        table = resolution.betti_table(t)
        result = {"entries": table.json_entries(), "display": table.render_resolution()}
    return json.loads(json.dumps(result))


class CliCold(Workload):
    name = "cli-cold"
    tail_pct = 80.0
    in_process = False
    count = 400
    commands = ("classify", "reduce", "betti")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = [(self.rng.choice(self.commands), sample_tuple(self.rng, 10)) for _ in range(self.count)]
        # answers computed here, so traced runs attribute no in-process work to the CLI cases
        self.expected = {item: in_process_result(*item) for item in set(self.inputs)}
        self.warmup_inputs = [("classify", TetTuple((3, 3, 3, 1, 2, 4)))]  # weight 16
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.child_peak_kb = 0

    def run(self, case):
        command, t = case[1]
        return self.call([sys.executable, "-m", "tetracurves.cli", "--format", "json", command, str(t)])

    def call(self, argv):
        """Run one CLI process to completion: (exit code, stdout)."""
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def peak_rss_kb(self) -> int:
        return self.child_peak_kb

    def check(self, case, out, counts) -> bool:
        command, t = case[1]
        code, stdout = out
        if code != 0:
            return False
        report = json.loads(stdout)
        return (
            report["command"] == command
            and report["input"] == str(t)
            and report["result"] == self.expected[case[1]]
        )


WORKLOADS = {w.name: w for w in (Census, Deep, KoszulCheck, GinCheck, CliCold)}

