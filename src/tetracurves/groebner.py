"""Numerical generic-initial-ideal oracle over prime fields.

The gin of a monomial ideal I is approximated by a random invertible change
of coordinates g over F_p, with p a prime between 2^14 and 2^31 standing in
for characteristic zero, and the degree-reverse-lexicographic initial ideal
(a > b > c > d) by linear algebra (Lazard 1983) in one degree, top = reg(I)
from the Koszul Betti oracle, by which the revlex gin is generated
(Bayer-Stillman 1987).  The images g(m) of the monomials m of I_top are a
basis of (gI)_top: their matrix has full row rank, and its pivot columns are
L = in(gI)_top.  Below top, in(gI)_d lies in D_d = {m : x_j m in D_(d+1) for
every j}, D_top = L, and equals it when |D_d| = dim I_d.  These counts, from
one below the least generator degree, and |S_1 L| = dim I_(top+1) prove the
initial ideal in any coordinates; in generic ones they hold for an input
saturated up to top, as the gin of a saturated ideal is saturated.  The runs
over two seeds and two primes share one elimination, each mod its own prime
(`refuse_over_limit` refuses it beyond the memory limit); a run
whose initial ideal is not Borel-fixed is redrawn alone, and runs that
disagree or counts that do not match raise instead of guessing.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from .exceptions import DisagreementError, NotBorelFixedError, refuse_over_limit
from .gin import StableIdeal, is_strongly_stable
from .koszul import betti_table_oracle
from .monomials import Monomial, MonomialIdeal, NVARS, exponent_box, standard_counts

DEFAULT_PRIMES = (32003, 31991)
DEFAULT_SEEDS = (1, 2)
_BYTES_PER_CELL = 36  # peak bytes per cell of the stacked degree-top matrices (tracemalloc: 28.6 to 34.5)
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


@functools.lru_cache(maxsize=32)
def _degree(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents of monomials_of_degree(d) as int64 rows, and the shifts:
    row j maps each to the index of x_j times it in monomials_of_degree(d+1).
    By index arithmetic: the monomials run in blocks of equal (e3, e2), e1
    ascending, and x_0 moves block (e3, e2) by C(d+3,2) - C(d-e3+3,2) + e2."""
    import numpy as np
    e3, e2 = np.nonzero(np.add.outer(np.arange(d + 1), np.arange(d + 1)) <= d)
    length = d + 1 - e3 - e2
    e3, e2, first = (np.repeat(v, length) for v in (e3, e2, np.cumsum(length) - length))
    k = np.arange(len(e3))
    exps = np.column_stack((d - (k - first) - e2 - e3, k - first, e2, e3))
    x0 = k + math.comb(d + 3, 2) - (d - e3 + 3) * (d - e3 + 2) // 2 + e2
    return exps, np.stack((x0, x0 + 1, x0 + d + 2 - e2 - e3, k + math.comb(d + 3, 2)))


def _images(monomials: list[tuple[int, ...]], top: int, matrices, primes: list[int]) -> np.ndarray:
    """Coefficient rows over monomials_of_degree(top), stacked over the runs,
    of g(m) for the degree-top monomials m, run k taking g: x_i -> sum_j
    matrices[k][i][j] x_j over F_primes[k]: a degree at a time, x_i times
    the parent's image for i the first variable of m, through m's ancestors."""
    import numpy as np
    links, level = [], monomials
    for _ in range(top):
        parents, link = {}, []
        for e in level:
            i = next(k for k, x in enumerate(e) if x)
            link.append((i, parents.setdefault((*e[:i], e[i] - 1, *e[i + 1 :]), len(parents))))
        links.append(np.array(link, dtype=np.intp).reshape(-1, 2))
        level = list(parents)
    coeffs = np.asarray(matrices, dtype=np.uint64)
    rows = np.ones((1, len(coeffs), len(level)), dtype=np.uint64)  # columns first, so shifts move whole rows
    for d, link in enumerate(reversed(links)):
        below, scale = rows[:, :, link[:, 1]], coeffs[:, link[:, 0]]
        rows = np.zeros((math.comb(d + 4, 3), len(coeffs), len(link)), dtype=np.uint64)
        for j, columns in enumerate(_degree(d)[1]):
            rows[columns] += scale[:, :, j] * below  # four products of entries below p < 2^31 sum below 2^64
        rows %= np.asarray(primes, dtype=np.uint64)[:, None]
    return np.ascontiguousarray(rows.view(np.int64).transpose(1, 2, 0))


def _row_echelon(rows: np.ndarray, primes: list[int]) -> np.ndarray:
    """The pivot columns, as boolean masks, of the row echelon forms of a
    stack of int64 matrices of full row rank, reduced in place, member i mod
    primes[i] with entries in [0, primes[i]).  Every member takes its own
    leftmost occupied column and its first row there."""
    import numpy as np
    members, primes = np.arange(len(rows)), np.asarray(primes, dtype=np.int64)[:, None, None]
    leads = np.zeros((len(rows), rows.shape[2]), dtype=bool)
    for rank in range(rows.shape[1]):
        cols = rows[:, rank:].any(axis=1).argmax(axis=1)
        k = rank + (rows[members, rank:, cols] != 0).argmax(axis=1)
        rows[members, k], rows[:, rank] = rows[:, rank], rows[members, k]  # swap rows rank and k
        pivot, below = rows[:, rank], rows[:, rank + 1 :]
        lead = pivot[members, cols]
        assert lead.all(), "rank below the number of rows"
        factor = below[members, :, cols][:, :, None] * pivot[:, None]  # products of entries below p stay below 2^62
        below *= lead[:, None, None]
        below -= factor
        below %= primes
        leads[members, cols] = True
    return leads


def _saturation(D: np.ndarray, top: int, low: int) -> tuple[MonomialIdeal, list[int]]:
    """For a set D_top of degree-top monomials, given as a boolean mask over
    monomials_of_degree(top): the ideal generated by D_d = {m : x_j m in
    D_(d+1) for every j}, d = low..top, whose minimal generators are D_d
    minus S_1 D_(d-1), and the sizes |D_low|, ..., |D_top|, |S_1 D_top|."""
    import numpy as np
    chain, up = [D], [np.zeros(1, dtype=bool)]  # up[d - low] is S_1 D_(d-1)
    for d in range(top - 1, low - 1, -1):
        chain.insert(0, chain[0][_degree(d)[1]].all(axis=0))
    for d, D in enumerate(chain, low):
        up.append(np.zeros(math.comb(d + 4, 3), dtype=bool))
        up[-1][_degree(d)[1][:, D]] = True
    gens = itertools.chain.from_iterable(_degree(d)[0][D & ~S].tolist() for d, (D, S) in enumerate(zip(chain, up), low))
    return MonomialIdeal._from_minimal(map(Monomial, gens)), [int(D.sum()) for D in chain] + [int(up[-1].sum())]


@functools.lru_cache(maxsize=64)
def random_invertible_matrix(seed: int, prime: int) -> tuple[tuple[int, ...], ...]:
    """A uniformly sampled invertible 4x4 matrix over F_p, deterministic in
    the seed (resampled until its determinant is non-zero mod p: the exact
    Laplace expansion in the 2x2 minors of the first two rows, whose
    complements in the last two rows come in reverse order)."""
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
    """Numerical gin: the initial ideal after a generic change of
    coordinates, agreeing over every (seed, prime) combination, verified
    Borel-fixed and certified by monomial counts; an unstable run is redrawn."""
    import numpy as np
    primes = check_primes(primes)
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("gin oracle needs a proper non-zero ideal")
    top = betti_table_oracle(ideal).regularity
    low = min(ideal.min_generator_degree - 1, top)
    runs = [(seed, prime) for seed in seeds for prime in primes]
    least, box = exponent_box(ideal, bound=top + 1)
    dims = [math.comb(d + 3, 3) - v for d, v in enumerate(standard_counts(least, box, top + 1))]  # dim I_d
    refuse_over_limit(len(runs) * dims[top] * math.comb(top + 3, 3) * _BYTES_PER_CELL,
                      f"the stacked degree-{top} Macaulay matrices need")
    e = np.minimum(_degree(top)[0], box)
    member = e[:, 3] >= least[e[:, 0], e[:, 1], e[:, 2]]
    if _saturation(member, top, low)[1][: top - low] != dims[low:top]:
        raise ValueError(f"gin oracle needs an ideal saturated up to its regularity {top}, not {ideal}")
    monomials = list(map(tuple, _degree(top)[0][member].tolist()))
    read = functools.cache(lambda lead: _saturation(np.frombuffer(lead, dtype=bool), top, low))  # once per distinct L
    found, stable, pending = {}, {}, runs
    for attempt in range(3):
        matrices = [random_invertible_matrix(seed + 7919 * attempt, prime) for seed, prime in pending]
        ps = [p for _, p in pending]
        got = [read(lead.tobytes()) for lead in _row_echelon(_images(monomials, top, matrices, ps), ps)]
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
    for d, size, dim in zip(range(low, top + 2), sizes, dims[low:]):
        if size != dim:
            raise DisagreementError(f"initial ideal of {ideal} in degree {top} loses the Hilbert function in degree {d}")
    return StableIdeal._from_minimal(first)  # minimal and stable: checked above
