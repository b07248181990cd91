#!/usr/bin/env python3
"""Census of tetrahedral curves up to a weight bound: how many are ACM,
componentwise linear, minimal, or have a linear resolution, plus the
linear-resolution orbits in the even liaison class of two skew lines with
their oracle-verified Betti tables."""

import argparse
from collections import Counter

from tetracurves.koszul import cached_betti_oracle
from tetracurves.monomials import ideal_of_tuple
from tetracurves.resolution import classify, enumerate_linear_in_class
from tetracurves.tuples import TetTuple, canonicalize
from tetracurves.verify import iter_tuples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=8, help="max weight sum")
    args = parser.parse_args()

    counts = Counter()
    orbits_seen = set()
    for t in iter_tuples(args.bound):
        canon = canonicalize(t)
        if canon in orbits_seen:
            continue
        orbits_seen.add(canon)
        counts["orbits"] += 1
        report = classify(canon)
        counts["acm"] += report.acm
        counts["minimal"] += report.minimal
        counts["cwl"] += report.componentwise_linear
        counts["linear"] += report.linear_resolution

    print(f"orbits with weight sum <= {args.bound}: {counts['orbits']}")
    for key in ("acm", "cwl", "linear", "minimal"):
        print(f"  {key:>8}: {counts[key]}")

    print("\nlinear-resolution orbits in the class of two skew lines:")
    for canon in sorted(enumerate_linear_in_class(TetTuple((1, 0, 0, 0, 0, 1)))):
        table = cached_betti_oracle(ideal_of_tuple(canon))
        print(f"  ({canon}): {table.render_resolution()}")


if __name__ == "__main__":
    main()
