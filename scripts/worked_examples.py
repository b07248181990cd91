#!/usr/bin/env python3
"""Reproduce the worked examples: a full reduction chain with forms and
weights, the three assembled minimal free resolutions, the gin displays for
two ACM curves, and the Buchsbaum gin recursion checked against the
finite-field Groebner oracle."""

from tetracurves.gin import ek_betti, gin_acm, gin_buchsbaum_minimal
from tetracurves.groebner import gin_oracle
from tetracurves.monomials import ideal_of_tuple
from tetracurves.resolution import betti_table, gin_betti_prediction
from tetracurves.tuples import TetTuple, facet_weights, reduction_trace


def show_reduction(text: str) -> None:
    t = TetTuple.parse(text)
    print(f"reduction of ({t}), facet weights {facet_weights(t)}:")
    trace = reduction_trace(t)
    for step in trace.steps:
        print(
            f"  ({step.parent})  --{step.G_name.upper()}:  G={step.G_name}, F={step.F},"
            f" deg F={step.weight}-->  ({step.child})"
        )
    print(f"  terminal: ({trace.terminal}) [{trace.terminal_kind.value}]\n")


def show_resolution(text: str) -> None:
    t = TetTuple.parse(text)
    print(f"minimal free resolution of ({t}):")
    print(f"  {betti_table(t).render_resolution()}\n")


def show_gin(text: str) -> None:
    t = TetTuple.parse(text)
    g = gin_acm(t)
    print(f"gin({t}) = ({', '.join(g.generator_strings())})")
    print(f"  {ek_betti(g).render_resolution('gin(J)')}\n")


def main() -> None:
    show_reduction("3,3,3,1,2,4")
    for text in ("1,2,1,2,0,2", "1,3,4,2,3,0", "7,5,5,2,1,6"):
        show_resolution(text)
    for text in ("1,2,2,2,1,2", "2,1,4,1,1,3"):
        show_gin(text)

    t = TetTuple.parse("2,5,5,5,5,0")
    print(f"gin Betti prediction for ({t}):")
    print(f"  {gin_betti_prediction(t).render_resolution('gin(J)')}\n")

    for r in (1, 2, 3):
        built = gin_buchsbaum_minimal(r)
        oracle = gin_oracle(ideal_of_tuple((r, 0, r - 1, r - 1, 0, r)))
        status = "agrees with" if built == oracle else "DISAGREES with"
        print(f"Buchsbaum gin r={r}: ({', '.join(built.generator_strings())})")
        print(f"  recursion {status} the Groebner oracle")


if __name__ == "__main__":
    main()
