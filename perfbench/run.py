#!/usr/bin/env python3
"""Layered benchmark for tetracurves.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

runs one workload for --seconds and prints its end-to-end metrics.  With
--trace 1 untraced and traced chunks alternate, and the per-layer metrics
are printed instead, with the tracing overhead.
--workload all runs every workload, each in its own process, and prints a
table.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  Every
run also writes its result, with run metadata, under perfbench/out/.

Times of work done in this process are reported at a reference machine
speed (see speed.py); the raw times are printed beside them and kept in the
result file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7  # fresh-process set-ups timed per run; setup_s is their median
PROBES = 5  # interpreter and import probes per traced run
CHUNK_S = 1.0  # a traced run alternates untraced and traced chunks this long (at most)
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
NAMES = ("census", "deep", "koszul-check", "gin-check", "cli-cold")


def units():
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nearest_rank(sorted_xs, p):
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def tail(sorted_xs, cap):
    """(percentile, value, cases beyond): the highest ladder percentile up to
    cap with at least 10 cases beyond it, else the lowest on the ladder."""
    n = len(sorted_xs)
    ladder = [p for p in TAIL_LADDER if p <= cap]
    for p in ladder:
        beyond = n - math.ceil(p / 100 * n)
        if beyond >= 10 or p == ladder[-1]:
            return p, nearest_rank(sorted_xs, p), beyond


def timed_phase(workload, cases, seconds, speed, tracer=None):
    """Closed loop over the iterator cases until the deadline: [(start,
    seconds)] per case, and the number of failed cases.  Checks and speed
    samples run between cases."""
    timings, failed = [], 0
    counts = tracer.counts if tracer is not None else Counter()
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        speed.maybe_sample()
        if clock() >= deadline:
            break
        case = next(cases)
        if tracer is not None:
            tracer.case += 1
        start = clock()
        try:
            out = workload.run(case)
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        timings.append((start, clock() - start))
        try:
            ok = out is not None and workload.check(case, out, counts)
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
        if not ok:
            failed += 1
            print(f"failed case: {workload.name} {case}", file=sys.stderr)
    speed.sample(3)
    return timings, failed


def latency_summary(latencies, cap):
    """cases_per_s, case_p50_ms, case_tail_ms and the tail (percentile, value, beyond)."""
    xs = sorted(latencies)
    tail_info = tail(xs, cap)
    return {
        "cases_per_s": len(xs) / sum(xs),
        "case_p50_ms": 1000 * nearest_rank(xs, 50),
        "case_tail_ms": 1000 * tail_info[1],
    }, tail_info


def git_sha():
    """HEAD of the checkout's .git, read directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, cases, tail_info):
    import numpy
    from workloads import CACHE_HYGIENE

    pct, _, beyond = tail_info
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": cases,
        "tail_percentile": pct,
        "tail_cases_beyond": beyond,
        "cache_hygiene": CACHE_HYGIENE,
    }


def setup_seconds(args, workload, speed):
    """(scaled, raw) median of SETUP_SAMPLES set-ups, each in a fresh process
    that reports the seconds from the start of its main to the end of warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        speed.sample(3)
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        end = time.perf_counter()
        speed.sample(3)
        raw.append(float(out))
        scaled.append(raw[-1] * scaler(workload, speed)(start, end))
    return statistics.median(scaled), statistics.median(raw)


def probe_ms():
    """Median wall milliseconds of ``python -c pass`` and of ``python -c
    "import tetracurves.cli"`` minus the former, the two run alternately."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = {"pass": [], "import tetracurves.cli": []}
    for _ in range(PROBES):
        for code, times in samples.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            times.append(time.perf_counter() - start)
    interpreter, imported = (1000 * statistics.median(times) for times in samples.values())
    return interpreter, imported - interpreter


def scaler(workload, speed):
    """Scale for a time measured at a given start: the speed scale for work in
    this process; none for whole CLI processes, whose start-up is bound by the
    operating system and does not follow the kernel."""
    return speed.scale if workload.in_process else (lambda start, end=None: 1.0)


def end_to_end(args, workload, speed):
    setup, setup_raw = setup_seconds(args, workload, speed)
    cases, failed = timed_phase(workload, workload.cases(), args.seconds, speed)
    scale = scaler(workload, speed)
    scaled, tail_info = latency_summary([d * scale(s) for s, d in cases], workload.tail_pct)
    raw, _ = latency_summary([d for _, d in cases], workload.tail_pct)
    raw["setup_s"] = setup_raw
    values = {"setup_s": setup, **scaled, "peak_rss_mb": workload.peak_rss_kb() / 1024}
    unit = units()
    for name, value in values.items():
        note = f"   (raw {raw[name]:.4f})" if name in raw else ""
        print(f"{args.workload:>12}  {name:<14} {value:>12.4f} {unit[name]}{note}")
    print(f"{args.workload:>12}  {'failed_frac':<14} {failed / len(cases):>12.4f} "
          f"({failed} of {len(cases)}; tail is p{tail_info[0]:g}, {tail_info[2]} cases beyond)")
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    return metrics, len(cases), failed, tail_info, {"raw": raw}


def per_layer(args, workload, speed):
    """Untraced and traced chunks of CHUNK_S alternate over one stream of
    cases, so both see the same passes and machine states; the per-layer
    metrics are per completed traced case."""
    from spans import ORACLE_ERRORS, TRACED, Tracer

    cases = workload.cases()
    plain, traced, failed = [], [], 0
    tracer = Tracer()
    chunk_s = min(CHUNK_S, args.seconds / 4)
    deadline = time.perf_counter() + args.seconds
    for chunk in itertools.count():
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        if chunk % 2:
            with tracer:
                if not workload.in_process:
                    tracer.trace_call(workload, "call", "cli.call")
                timings, chunk_failed = timed_phase(workload, cases, min(chunk_s, left), speed, tracer)
            traced += timings
        else:
            timings, chunk_failed = timed_phase(workload, cases, min(chunk_s, left), speed)
            plain += timings
        failed += chunk_failed
    interpreter_ms, import_ms = probe_ms()
    scale = scaler(workload, speed)

    n = len(traced)
    (busy, root), calls, counts = tracer.busy(scale), tracer.calls(), tracer.counts
    values = {}
    for layer, names in TRACED.items():
        for fname in names:
            values[f"{layer}.{fname}.busy_s"] = busy[f"{layer}.{fname}"] / n
    values["tuples.reduction_trace.calls"] = calls["tuples.reduction_trace"] / n
    values["groebner.gin_oracle.calls"] = calls["groebner.gin_oracle"] / n
    for name in ("tuples.trace_steps", "resolution.betti_entries", "gin.generators", "gin.unsupported",
                 "monomials.ideal_generators", "monomials.hilbert_monomials", "koszul.multidegrees",
                 "koszul.mismatches", "groebner.oracle_generators"):
        values[name] = counts[name] / n
    values["groebner.errors"] = tracer.errors("groebner.gin_oracle", ORACLE_ERRORS) / n
    values["cli.interpreter_ms"] = interpreter_ms
    values["cli.import_ms"] = import_ms
    cli_calls = [end - start for name, start, end, *_ in tracer.spans if name == "cli.call"]
    values["cli.command_ms"] = 1000 * statistics.median(cli_calls) - import_ms - interpreter_ms if cli_calls else 0.0
    traced_s = [d * scale(s) for s, d in traced]
    values["bench.self_s"] = (sum(traced_s) - root) / n
    plain_rate = len(plain) / sum(d * scale(s) for s, d in plain)
    traced_rate = n / sum(traced_s)
    values["bench.trace_overhead_frac"] = 1 - traced_rate / plain_rate

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_path)
    unit = units()
    print(f"per-layer metrics, {args.workload}, seed {args.seed}: {n} traced cases, "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {unit[name]}")
    print(f"  tracing overhead: untraced {plain_rate:.4g} cases/s, traced {traced_rate:.4g} cases/s")
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    tail_info = tail(sorted(traced_s), workload.tail_pct)
    extra = {"untraced_cases_per_s": plain_rate, "traced_cases_per_s": traced_rate, "spans": spans_path.name}
    return metrics, len(plain) + n, failed, tail_info, extra


def run_all(args):
    """Each workload in its own process; a table, then one JSON line per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tetracurves" / "__init__.py").is_file():
        print(f"no tetracurves sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from speed import REFERENCE_S, Speed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    if args.setup_only:
        print(time.perf_counter() - started)
        return 0

    speed = Speed()
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, tail_info, extra = measure(args, workload, speed)
    meta = {**metadata(args, attempted, tail_info), **extra,
            "kernel_median_s": statistics.median(speed.seconds), "kernel_reference_s": REFERENCE_S}
    print("meta " + json.dumps(meta))
    OUT.mkdir(exist_ok=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
