"""Command-line front end.

Commands: classify, reduce, betti, gin, hilbert, enumerate-linear, verify.
Tuples are written as six comma-separated weights, e.g. "3,3,3,1,2,4".
Output is text by default or JSON with --format json; JSON reports carry
{"command", "input", "result", "provenance"}.  Exit codes: 0 success,
1 verification mismatch or computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import __version__
from .exceptions import TetracurvesError
from .tuples import TetTuple, reduction_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetracurves",
        description="Classification, resolutions, and generic initial ideals of tetrahedral curves.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification flags for one tuple")
    p.add_argument("tuple")

    p = sub.add_parser("reduce", help="maximal-weight reduction to the terminal curve")
    p.add_argument("tuple")
    p.add_argument("--trace", action="store_true", help="list every step")

    p = sub.add_parser("betti", help="graded Betti table")
    p.add_argument("tuple")
    p.add_argument("--oracle-check", action="store_true")

    p = sub.add_parser("gin", help="reverse-lex generic initial ideal")
    p.add_argument("tuple")
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--prime", type=int, action="append")

    p = sub.add_parser("hilbert", help="Hilbert function of the quotient ring")
    p.add_argument("tuple")
    p.add_argument("--upto", type=int, required=True)

    p = sub.add_parser("enumerate-linear", help="linear-resolution orbits in an even liaison class")
    p.add_argument("tuple")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--prime", type=int, action="append")
    return parser


def _primes_from(args) -> tuple[int, int] | None:
    """The primes of the commands that take --prime (gin, verify); None for
    the others, which then load no Groebner code."""
    if not hasattr(args, "prime"):
        return None
    from .groebner import DEFAULT_PRIMES, check_primes

    given = args.prime or []
    if not given:
        return DEFAULT_PRIMES
    if len(given) == 1:
        fallback = next(p for p in DEFAULT_PRIMES if p != given[0])
        return check_primes((given[0], fallback))
    return check_primes(given)


def _betti_payload(table) -> dict:
    return {"entries": table.json_entries(), "display": table.render_resolution()}


def _run_classify(args) -> tuple[dict, int]:
    from .resolution import classify

    report = classify(args.t)
    return dataclasses.asdict(report), 0


def _run_reduce(args) -> tuple[dict, int]:
    trace = reduction_trace(args.t)
    result = {
        "terminal": str(trace.terminal),
        "terminal_kind": trace.terminal_kind.value,
        "step_count": trace.step_count,
        "first_ci_power": (
            None
            if trace.first_ci_power is None
            else {"chain_index": trace.first_ci_power[0], "r": trace.first_ci_power[1]}
        ),
    }
    if args.trace:
        result["steps"] = [
            {
                "type": step.type.name,
                "parent": str(step.parent),
                "child": str(step.child),
                "F": str(step.F),
                "G": step.G_name,
                "weight": step.weight,
            }
            for step in trace.steps
        ]
    return result, 0


def _run_betti(args) -> tuple[dict, int]:
    from .resolution import betti_table

    table = betti_table(args.t)
    result = _betti_payload(table)
    code = 0
    if args.oracle_check:
        from .koszul import cached_betti_oracle
        from .monomials import ideal_of_tuple

        oracle = cached_betti_oracle(ideal_of_tuple(args.t))
        result["oracle_entries"] = oracle.json_entries()
        result["oracle_match"] = oracle == table
        if not result["oracle_match"]:
            code = 1
    return result, code


def _run_gin(args) -> tuple[dict, int]:
    from .gin import ek_betti, gin_of_curve

    built = gin_of_curve(args.t)
    result: dict = {"supported": built is not None}
    if built is not None:
        result["generators"] = built.generator_strings()
        result["betti"] = _betti_payload(ek_betti(built))
    else:
        result["note"] = (
            "gin unknown: the minimal curve of this class is not arithmetically Buchsbaum"
        )
    code = 0
    if args.oracle_check:
        from .groebner import gin_oracle
        from .monomials import ideal_of_tuple

        oracle = gin_oracle(
            ideal_of_tuple(args.t), seeds=(args.seed, args.seed + 1), primes=args.primes
        )
        result["oracle_generators"] = oracle.generator_strings()
        if built is not None:
            result["oracle_match"] = oracle == built
            if not result["oracle_match"]:
                code = 1
    return result, code


def _run_hilbert(args) -> tuple[dict, int]:
    if args.upto < 0:
        raise argparse.ArgumentError(None, "--upto must be non-negative")
    from .monomials import hilbert_data, ideal_of_tuple

    data = hilbert_data(ideal_of_tuple(args.t), args.upto)
    return (
        {"values": list(data.values), "h_vector": list(data.h_vector), "degree": data.degree},
        0,
    )


def _run_enumerate(args) -> tuple[dict, int]:
    from .resolution import enumerate_linear_in_class

    orbits = enumerate_linear_in_class(args.t)
    return {"orbits": sorted(str(c) for c in orbits), "count": len(orbits)}, 0


def _run_verify(args) -> tuple[dict, int]:
    from . import verify

    if args.suite != "all" and args.suite not in verify.SUITES:
        raise argparse.ArgumentError(
            None, f"unknown suite {args.suite!r}; choose from {', '.join(verify.SUITE_NAMES)}"
        )
    if args.bound is not None and args.bound < 1:
        raise argparse.ArgumentError(None, "--bound must be at least 1")
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = [
        verify.run_suite(n, bound=args.bound, seed=args.seed, primes=args.primes)
        for n in names
    ]
    payload = {"suites": [r.as_dict() for r in results]}
    return payload, 0 if all(r.passed for r in results) else 1


_RUNNERS = {
    "classify": _run_classify,
    "reduce": _run_reduce,
    "betti": _run_betti,
    "gin": _run_gin,
    "hilbert": _run_hilbert,
    "enumerate-linear": _run_enumerate,
    "verify": _run_verify,
}


def _render_text(command: str, result: dict, out) -> None:
    if command == "verify":
        for suite in result["suites"]:
            status = "ok" if suite["passed"] else "FAIL"
            print(f"suite {suite['suite']}: {status} ({suite['elapsed_s']}s)", file=out)
            for check in suite["checks"]:
                mark = "pass" if check["passed"] else "FAIL"
                detail = f" -- {check['detail']}" if check["detail"] else ""
                print(f"  [{mark}] {check['name']}{detail}", file=out)
        return
    _render_dict(result, out, indent=0)


def _render_dict(data, out, indent: int) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                print(f"{pad}{key}:", file=out)
                _render_dict(value, out, indent + 1)
            else:
                print(f"{pad}{key}: {_fmt_scalar(value)}", file=out)
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                _render_dict(item, out, indent)
                print(f"{pad}", file=out)
            else:
                print(f"{pad}- {item}", file=out)


def _is_scalar_list(value) -> bool:
    if not isinstance(value, list):
        return False
    return all(
        not isinstance(v, dict)
        and (not isinstance(v, list) or all(not isinstance(w, (dict, list)) for w in v))
        for v in value
    )


def _fmt_scalar(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_fmt_scalar(v) for v in value) + "]"
    if isinstance(value, str) and "," in value:
        return f"({value})"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tuple"):
            args.t = TetTuple.parse(args.tuple)
        args.primes = _primes_from(args)
    except ValueError as exc:
        parser.error(str(exc))

    started = time.perf_counter()
    try:
        result, code = _RUNNERS[args.command](args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except Exception as exc:
        if not isinstance(exc, TetracurvesError):  # a defect, not a typed refusal
            import traceback

            traceback.print_exc()
        result, code = {"error": type(exc).__name__, "message": str(exc)}, 1

    provenance = {
        "version": __version__,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
    for key in ("bound", "seed"):
        if hasattr(args, key) and getattr(args, key) is not None:
            provenance[key] = getattr(args, key)
    if getattr(args, "prime", None):
        provenance["primes"] = list(args.primes)

    if args.format == "json":
        report = {
            "command": args.command,
            "input": getattr(args, "tuple", None) or getattr(args, "suite", None),
            "result": result,
            "provenance": provenance,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _render_text(args.command, result, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
