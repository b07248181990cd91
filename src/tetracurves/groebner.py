"""Numerical gin oracle: a random change of coordinates g over F_p, 2^14 < p
< 2^31 (Borel-fixed ideals generated in degrees below p are strongly stable:
Pardue 1994), and the revlex initial ideal (a > b > c > d) up to top = reg(I),
where the gin is generated (Bayer-Stillman 1987).  For I saturated, in(gI) is
generated by that of the hyperplane section (gI + (d))/(d) in k[a,b,c] (Green
1998), whose degree-D rows are the images of a monomial complement of d I_(D-1)
in I_D.  Rank dim I_D - dim I_(D-1) in each degree and |S_1 L_top| = dim
I_(top+1) - dim I_top certify it.  All runs and degrees share one elimination;
an unstable run is redrawn, and disagreeing runs, unmatched counts and inputs
not saturated up to top raise."""

from __future__ import annotations

import functools
import itertools
import math
import random

from .exceptions import DisagreementError, NotBorelFixedError, refuse_over_limit
from .gin import StableIdeal, is_strongly_stable
from .koszul import _box_betti_table
from .monomials import Monomial, MonomialIdeal, NVARS, exponent_box, standard_counts

DEFAULT_PRIMES = (32003, 31991)
DEFAULT_SEEDS = (1, 2)
_BYTES_PER_CELL = 30  # peak bytes per cell of the stack and the largest image layer (tracemalloc: 17.3 to 27.5)
_PAIRS = tuple(itertools.combinations(range(NVARS), 2))


def check_primes(primes) -> tuple[int, int]:
    """Two distinct primes strictly between 2^14, so that p stands in for
    characteristic zero, and 2^31, so that p*p fits in int64."""
    primes = tuple(primes)
    if len(primes) != 2 or primes[0] == primes[1]:
        raise ValueError(f"need two distinct primes, got {primes}")
    for p in primes:
        if not (isinstance(p, int) and 2**14 < p < 2**31 and _is_prime(p)):
            raise ValueError(f"{p} is not a prime strictly between 2^14 and 2^31")
    return primes


@functools.lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    """Trial division, proved once per distinct p."""
    return all(p % k for k in range(2, math.isqrt(p) + 1))


@functools.lru_cache(maxsize=64)
def _degree(d: int, planar: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The exponents of the degree-d monomials in `display_key` order as int64
    rows, and the shifts: row j maps each to the index of x_j times it in degree d+1;
    `planar` keeps the first C(d+2, 2), those of k[a,b,c].  The monomials run in
    blocks of equal (e3, e2), e1 ascending; x_0 adds C(d+3,2) - C(d-e3+3,2) + e2."""
    import numpy as np
    e3, e2 = np.nonzero(np.add.outer(np.arange(1 if planar else d + 1), np.arange(d + 1)) <= d)
    length = d + 1 - e3 - e2
    e3, e2, first = (np.repeat(v, length) for v in (e3, e2, np.cumsum(length) - length))
    k = np.arange(len(e3))
    exps = np.column_stack((d - (k - first) - e2 - e3, k - first, e2, e3))
    x0 = k + math.comb(d + 3, 2) - (d - e3 + 3) * (d - e3 + 2) // 2 + e2
    return exps, np.stack((x0, x0 + 1, x0 + d + 2 - e2 - e3, k + math.comb(d + 3, 2)))


def _staircase(least: np.ndarray, box: np.ndarray, top: int, low: int) -> tuple[list[int], list[list[tuple]]]:
    """For I with `exponent_box` (least, box): |(I_top : S_(top-d))_d|, d = low-1..top-1, and by
    degree D = low..top the rows x^p d^least(p), |p| <= top: a monomial complement of d I_(D-1) in I_D."""
    import numpy as np
    e = np.minimum(exps := _degree(top)[0], box)  # (p, top - |p|) for every p with |p| <= top
    ends = least[e[:, 0], e[:, 1], e[:, 2]]
    rows = np.column_stack((exps[:, :3], ends))[member := e[:, 3] >= ends]
    counts = [int((member := member[_degree(d)[1]].all(axis=0)).sum()) for d in range(top - 1, low - 2, -1)]
    return counts[::-1], [list(map(tuple, rows[rows.sum(axis=1) == d].tolist())) for d in range(low, top + 1)]


def _images(rows: list[list[tuple]], low: int, matrices, primes: list[int]) -> np.ndarray:
    """Stacked run by run, then degree by degree: the coefficients over k[a,b,c]_D
    of the images of rows[D - low] under x_i -> sum_(j<3) matrices[k][i][j] x_j mod
    primes[k], zero-padded to C(top+2, 2) columns and the longest row list; x_i
    times the parent's image, i the first variable, a degree at a time."""
    import numpy as np
    top, links, level = low + len(rows) - 1, [], rows[-1]
    for d in range(top - 1, -1, -1):
        parents, link = {m: k for k, m in enumerate(rows[d - low])} if d >= low else {}, []
        for e in level:
            i = next(k for k, x in enumerate(e) if x)
            link.append((i, parents.setdefault((*e[:i], e[i] - 1, *e[i + 1 :]), len(parents))))
        links.append(np.array(link, dtype=np.intp).reshape(-1, 2))
        level = list(parents)
    coeffs, ps = np.asarray(matrices, dtype=np.uint64)[:, :, :3], np.asarray(primes, dtype=np.uint64)[:, None]
    stack = np.zeros((len(coeffs), len(rows), max(map(len, rows)), math.comb(top + 2, 2)), dtype=np.int64)
    layer = np.ones((1, len(coeffs), 1), dtype=np.uint64)  # columns first, so shifts move whole rows
    for d, link in enumerate(reversed(links)):
        below, scale = layer[:, :, link[:, 1]], coeffs[:, link[:, 0]]
        layer = np.zeros((math.comb(d + 3, 2), len(coeffs), len(link)), dtype=np.uint64)
        for j, columns in enumerate(_degree(d, planar=True)[1][:3]):
            layer[columns] += scale[:, :, j] * below  # three products of entries below p < 2^31 sum below 2^64
        layer %= ps
        if (n := len(rows[d + 1 - low]) if d + 1 >= low else 0):
            stack[:, d + 1 - low, :n, : len(layer)] = layer[:, :, :n].transpose(1, 2, 0)
    return stack.reshape(len(coeffs) * len(rows), *stack.shape[2:])


def _row_echelon(rows: np.ndarray, primes) -> np.ndarray:
    """The pivot masks of the row echelon forms of a stack of int64 matrices, reduced in place, member
    i mod primes[i] with entries in [0, primes[i]): each takes its own leftmost occupied column and
    first row there, and none once its remaining rows are zero (padding, dependent rows)."""
    import numpy as np
    members, primes = np.arange(len(rows)), np.asarray(primes, dtype=np.int64)[:, None, None]
    leads = np.zeros((len(rows), rows.shape[2]), dtype=bool)
    for rank in range(rows.shape[1]):
        cols = rows[:, rank:].any(axis=1).argmax(axis=1)
        k = rank + (rows[members, rank:, cols] != 0).argmax(axis=1)
        rows[members, k], rows[:, rank] = rows[:, rank], rows[members, k]  # swap rows rank and k
        pivot, below = rows[:, rank], rows[:, rank + 1 :]
        lead = pivot[members, cols]
        factor = below[members, :, cols][:, :, None] * pivot[:, None]  # products of entries below p stay below 2^62
        below *= lead[:, None, None]
        below -= factor
        below %= primes
        leads[members, cols] |= lead != 0
    return leads


def _read(leads: np.ndarray, low: int) -> tuple[MonomialIdeal, list[int]]:
    """For one run's pivot masks L_D over k[a,b,c]_D, D = low..top: the ideal J they
    generate, minimal generators L_D - S_1 J_(D-1), and |L_low|, ..., |L_top|, |S_1 J_top|."""
    import numpy as np
    gens, sizes, up = [], [], np.zeros(math.comb(low + 2, 2), dtype=bool)  # S_1 J_(D-1)
    for d, lead in enumerate(leads, low):
        lead = lead[: len(up)]
        gens += _degree(d, planar=True)[0][lead & ~up].tolist()
        sizes.append(int(lead.sum()))
        part, up = lead | up, np.zeros(math.comb(d + 3, 2), dtype=bool)
        up[_degree(d, planar=True)[1][:3, part]] = True
    return MonomialIdeal._from_minimal(map(Monomial, gens)), sizes + [int(up.sum())]


@functools.lru_cache(maxsize=64)
def random_invertible_matrix(seed: int, prime: int) -> tuple[tuple[int, ...], ...]:
    """A uniformly sampled invertible 4x4 matrix over F_p, deterministic in the
    seed: redrawn until its determinant, the Laplace expansion in the 2x2 minors
    of the first two rows (complements: the last two rows' in reverse), is not 0."""
    rng = random.Random(seed)
    while True:
        m = [[rng.randrange(prime) for _ in range(NVARS)] for _ in range(NVARS)]
        minors = [[m[r][i] * m[r + 1][j] - m[r][j] * m[r + 1][i] for i, j in _PAIRS] for r in (0, 2)]
        if sum((-1) ** (i + j + 1) * a * b for (i, j), a, b in zip(_PAIRS, minors[0], reversed(minors[1]))) % prime:
            return tuple(map(tuple, m))


def gin_oracle(
    ideal: MonomialIdeal,
    seeds: tuple[int, int] = DEFAULT_SEEDS,
    primes: tuple[int, int] = DEFAULT_PRIMES,
) -> StableIdeal:
    """Numerical gin: the initial ideal after a generic change of coordinates,
    the same for every (seed, prime), Borel-fixed and certified by counts."""
    import numpy as np
    primes = check_primes(primes)
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("gin oracle needs a proper non-zero ideal")
    # one box for the regularity and the counts: no generator's exponent
    # exceeds its degree, which is at most reg, so a cap at reg + 1 cuts nothing
    least, box = exponent_box(ideal)
    top = _box_betti_table(least, box).regularity
    low = min(ideal.min_generator_degree, top)
    runs = [(seed, prime) for seed in seeds for prime in primes]
    dims = [math.comb(d + 3, 3) - v for d, v in enumerate(standard_counts(least, box, top + 1))]  # dim I_d
    ranks = [b - a for a, b in zip([0, *dims], dims)]  # dim I_d - dim I_(d-1): rows, then pivots, in degree d
    cells = (top + 1 - low) * max(ranks[low : top + 1]) * math.comb(top + 2, 2) + max(  # the stack, the largest layer
        math.comb(d + 2, 2) * min(math.comb(d + 3, 3), dims[top] - dims[d - 1]) for d in range(1, top + 1))
    refuse_over_limit(len(runs) * cells * _BYTES_PER_CELL, f"the stacked degree-{top} Macaulay matrices need")
    counts, rows = _staircase(least, box, top, low)
    if counts != dims[low - 1 : top]:
        raise ValueError(f"gin oracle needs an ideal saturated up to its regularity {top}, not {ideal}")
    assert list(map(len, rows)) == ranks[low : top + 1], "the staircase is not a complement of d*I"
    read = functools.cache(lambda lead: _read(np.frombuffer(lead, dtype=bool).reshape(len(rows), -1), low))
    found, stable, pending = {}, {}, runs
    for attempt in range(3):
        matrices = [random_invertible_matrix(seed + 7919 * attempt, prime) for seed, prime in pending]
        leads = _row_echelon(_images(rows, low, matrices, ps := [p for _, p in pending]), np.repeat(ps, len(rows)))
        got = [read(lead.tobytes()) for lead in leads.reshape(len(pending), -1)]  # once per distinct pivot pattern
        stable.update({lead: is_strongly_stable(lead) for lead in {lead for lead, _ in got} - stable.keys()})
        found.update({run: (lead, sizes) for run, (lead, sizes) in zip(pending, got) if stable[lead]})
        if not (pending := [run for run in pending if run not in found]):
            break
    else:
        raise NotBorelFixedError(f"no Borel-fixed initial ideal for seed {pending[0][0]}, prime {pending[0][1]}")
    first, sizes = found[runs[0]]
    if any(found[run][0] != first for run in runs):
        detail = "; ".join(f"seed {s}, p {p}: {found[s, p][0]}" for s, p in runs)
        raise DisagreementError(f"gin runs disagree: {detail}")
    for d, size, rank in zip(range(low, top + 2), sizes, ranks[low:]):
        if size != rank:
            raise DisagreementError(f"initial ideal of {ideal} in degree {top} loses the Hilbert function in degree {d}")
    return StableIdeal._from_minimal(first)  # minimal and stable: checked above
