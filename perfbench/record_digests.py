#!/usr/bin/env python3
"""Record the census reference digests: one line per tuple with weight sum
<= 8, ``a1,...,a6 digest``, where the digest covers every output the census
workload checks.  Run it only at a commit whose answers are the reference:

    python3 perfbench/record_digests.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import DIGESTS, census_digest, closed_form_outputs, tuples_upto  # noqa: E402


def main() -> None:
    with open(DIGESTS, "w") as out:
        for t in tuples_upto(8):
            out.write(f"{t} {census_digest(closed_form_outputs(t))}\n")


if __name__ == "__main__":
    main()
