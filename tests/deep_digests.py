"""Digests of the closed-form answers on long reduction traces.

200 tuples drawn from a fixed seed, with entries in [0, 300]; each gets one
digest of its classification report, Betti entries, gin generators (or
None), Eliahou-Kervaire table of the gin (or None), regularity and degree.
`tests/data/deep_digests.txt` holds the recorded digests, the
`deep_digests` entry of `snapshots.py`; record them afresh with

    PYTHONPATH=src python tests/snapshots.py --print deep_digests > tests/data/deep_digests.txt
"""

import dataclasses
import hashlib
import json
import random

from tetracurves.gin import ek_betti, gin_of_curve
from tetracurves.resolution import betti_table, classify
from tetracurves.tuples import TetTuple, degree_of_tuple, regularity_closed_form

SEED, COUNT, TOP = 20261019, 200, 300


def deep_tuples() -> list[TetTuple]:
    rng = random.Random(SEED)
    out = []
    while len(out) < COUNT:
        t = TetTuple(tuple(rng.randint(0, TOP) for _ in range(6)))
        if not t.is_trivial:
            out.append(t)
    return out


def digest(t: TetTuple) -> str:
    g = gin_of_curve(t)
    payload = [
        dataclasses.asdict(classify(t)),
        betti_table(t).json_entries(),
        None if g is None else [m.exps for m in g.generators],
        None if g is None else ek_betti(g).json_entries(),
        regularity_closed_form(t),
        degree_of_tuple(t),
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:20]

