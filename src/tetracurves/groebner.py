"""Numerical generic-initial-ideal oracle over prime fields.

The gin of an ideal is approximated by a random invertible change of
coordinates over F_p, with p a prime between 2^14 and 2^31 standing in for
characteristic zero, followed by the degree-reverse-lexicographic initial
ideal (a > b > c > d) computed by linear algebra: degree by degree, the
Macaulay matrix of I_d is row-reduced mod p and its pivot columns are the
leading monomials (Lazard 1983).  The revlex gin is generated in degrees at
most reg(I) (Bayer-Stillman 1987), so elimination stops at the regularity
reported by the Koszul Betti oracle, and the Hilbert function one degree
higher must match the input's.  The runs over two seeds and two primes
share one elimination of stacked Macaulay matrices, each mod its own prime
(`refuse_over_limit` refuses them beyond ORACLE_MEMORY_LIMIT bytes), and a
run whose initial ideal is not Borel-fixed is redrawn alone.  Runs that
disagree or stay unstable make the computation report failure instead of
guessing.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from .exceptions import DisagreementError, NotBorelFixedError, refuse_over_limit
from .gin import StableIdeal, is_strongly_stable
from .koszul import betti_table_oracle
from .monomials import Monomial, MonomialIdeal, NVARS, component_ideal, monomials_of_degree

DEFAULT_PRIMES = (32003, 31991)
DEFAULT_SEEDS = (1, 2)
_BYTES_PER_CELL = 32  # peak bytes per cell of the largest Macaulay stack (tracemalloc: 30)
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
def _shifts(d: int) -> np.ndarray:
    """Row j maps each degree-d column to the degree-(d+1) column of x_j times it."""
    import numpy as np
    index = {m: k for k, m in enumerate(monomials_of_degree(d + 1))}
    return np.array([[index[m * Monomial.variable(j)] for m in monomials_of_degree(d)] for j in range(NVARS)])


def _row_echelon(rows: np.ndarray, primes: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Row echelon forms, in place, of a stack of int64 matrices, member i
    mod primes[i] with entries in [0, primes[i]), and each member's pivot
    columns.  Every member takes its own leftmost occupied column and its
    first row there, so a member of lower rank ends in zero rows."""
    import numpy as np
    members, pivots = np.arange(len(rows)), [[] for _ in rows]
    for rank in range(rows.shape[1]):
        nonzero = rows[:, rank:] != 0
        occupied = nonzero.any(axis=1)
        cols = occupied.argmax(axis=1)
        if not (live := occupied[members, cols]).any():
            break
        k = rank + nonzero[members, :, cols].argmax(axis=1)
        rows[members, k], rows[:, rank] = rows[:, rank], rows[members, k]  # swap rows rank and k
        pivot, below = rows[:, rank], rows[:, rank + 1 :]
        factor = below[members, :, cols][:, :, None] * pivot[:, None]  # products of entries below p stay below 2^62
        below *= pivot[members, cols][:, None, None]
        below -= factor
        below %= primes[:, None, None]
        for i in np.flatnonzero(live).tolist():
            pivots[i].append(int(cols[i]))
    return rows[:, : max(map(len, pivots))], pivots


def leading_monomials(polys: dict[int, np.ndarray], top: int, primes: list[int]) -> list[MonomialIdeal]:
    """The degrevlex initial ideals, up to degree `top`, of a stack of ideals,
    member i over F_primes[i] and generated by homogeneous polynomials given
    as {degree d: (members, rows, coefficients over monomials_of_degree(d))},
    whose display order is descending degrevlex.  The degree-d Macaulay
    matrix holds the degree-d generators and the a, b, c, d shifts of the
    degree-(d-1) echelon rows."""
    import numpy as np
    primes = np.asarray(primes, dtype=np.int64)
    polys = {d: np.asarray(rows, dtype=np.int64) % primes[:, None, None] for d, rows in polys.items()}
    if not np.any([rows.any(axis=(1, 2)) for rows in polys.values()], axis=0).all():
        raise ValueError("need at least one non-zero polynomial")
    leads: list[list[Monomial]] = [[] for _ in primes]
    echelon, inherited = np.zeros((len(primes), 0, 0), dtype=np.int64), [set() for _ in primes]
    for d in range(min(polys), top + 1):
        width, r = len(monomials_of_degree(d)), echelon.shape[1]
        fresh = polys.get(d, np.zeros((len(primes), 0, width), dtype=np.int64))
        stack = np.zeros((len(primes), NVARS * r + fresh.shape[1], width), dtype=np.int64)
        for j, columns in enumerate(_shifts(d - 1) if r else ()):
            stack[:, j * r : (j + 1) * r, columns] = echelon
        stack[:, NVARS * r :] = fresh
        echelon, pivots = _row_echelon(stack, primes)
        for lead, seen, cols in zip(leads, inherited, pivots):
            lead += [monomials_of_degree(d)[c] for c in cols if c not in seen]
        inherited = [set(_shifts(d)[:, cols].ravel().tolist()) for cols in pivots]
    return [MonomialIdeal(tuple(lead)) for lead in leads]


def _substituted(ideal: MonomialIdeal, matrices: list[list[list[int]]], primes: list[int]) -> dict[int, np.ndarray]:
    """Coefficient rows, by degree and stacked over the members, of the
    minimal generators after the substitution x_i -> sum_j matrix[i][j] x_j,
    member k taking matrices[k] over F_primes[k]."""
    import numpy as np
    coeffs = np.array(matrices, dtype=np.int64)[:, :, :, None]
    primes = np.asarray(primes, dtype=np.int64)[:, None]
    members = np.arange(len(coeffs))[:, None, None]
    images = {(0, 0, 0, 0): np.ones((len(coeffs), 1), dtype=np.int64)}

    def image(e: tuple[int, ...]) -> np.ndarray:
        if e not in images:
            i = next(k for k in range(NVARS) if e[k])
            parent = e[:i] + (e[i] - 1,) + e[i + 1 :]
            terms = coeffs[:, i] * image(parent)[:, None] % primes[:, None]
            # each column of x_i * parent sums at most 4 terms below 2^31: exact in float64
            width = len(monomials_of_degree(sum(e)))
            out = np.bincount((members * width + _shifts(sum(parent))).ravel(), terms.ravel(), len(coeffs) * width)
            images[e] = out.astype(np.int64).reshape(-1, width) % primes
        return images[e]

    by_degree: dict[int, list[np.ndarray]] = {}
    for g in ideal.generators:
        by_degree.setdefault(g.degree, []).append(image(g.exps))
    return {d: np.stack(rows, axis=1) for d, rows in by_degree.items()}


def random_invertible_matrix(seed: int, prime: int) -> list[list[int]]:
    """A uniformly sampled invertible 4x4 matrix over F_p, deterministic in
    the seed (resampled until its determinant is non-zero mod p: the exact
    Laplace expansion in the 2x2 minors of the first two rows, whose
    complements in the last two rows come in reverse order)."""
    rng = random.Random(seed)
    while True:
        m = [[rng.randrange(prime) for _ in range(NVARS)] for _ in range(NVARS)]
        minors = [[m[r][i] * m[r + 1][j] - m[r][j] * m[r + 1][i] for i, j in _PAIRS] for r in (0, 2)]
        if sum((-1) ** (i + j + 1) * a * b for (i, j), a, b in zip(_PAIRS, minors[0], reversed(minors[1]))) % prime:
            return m


def gin_oracle(
    ideal: MonomialIdeal,
    seeds: tuple[int, int] = DEFAULT_SEEDS,
    primes: tuple[int, int] = DEFAULT_PRIMES,
) -> StableIdeal:
    """Numerical gin: the initial ideal after a generic change of
    coordinates, agreeing over every (seed, prime) combination, verified
    Borel-fixed and Hilbert-preserving.  A non-stable result triggers a
    reseed; persistent disagreement across runs raises instead of
    adjudicating."""
    primes = check_primes(primes)
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("gin oracle needs a proper non-zero ideal")
    top = betti_table_oracle(ideal).regularity
    runs = [(seed, prime) for seed in seeds for prime in primes]
    # the largest stack sits at degree top: the shifts of I_(top-1) and the degree-top generators
    height = NVARS * len(component_ideal(ideal, top - 1).generators) + sum(g.degree == top for g in ideal.generators)
    refuse_over_limit(len(runs) * height * math.comb(top + 3, 3) * _BYTES_PER_CELL,
                      f"the stacked degree-{top} Macaulay matrices need")
    found, stable, pending = {}, {}, runs
    for attempt in range(3):
        matrices = [random_invertible_matrix(seed + 7919 * attempt, prime) for seed, prime in pending]
        got = leading_monomials(_substituted(ideal, matrices, [p for _, p in pending]), top, [p for _, p in pending])
        stable.update({lead: is_strongly_stable(lead) for lead in set(got) - stable.keys()})
        found.update({run: lead for run, lead in zip(pending, got) if stable[lead]})
        if not (pending := [run for run in pending if run not in found]):
            break
    else:
        raise NotBorelFixedError(f"no Borel-fixed initial ideal for seed {pending[0][0]}, prime {pending[0][1]}")
    first = found[runs[0]]
    if any(found[run] != first for run in runs):
        detail = "; ".join(f"seed {s}, p {p}: {found[s, p]}" for s, p in runs)
        raise DisagreementError(f"gin runs disagree: {detail}")
    # equal Hilbert functions in degree top + 1: equally many monomials of that degree in each ideal
    if len(component_ideal(first, top + 1).generators) != len(component_ideal(ideal, top + 1).generators):
        raise DisagreementError(
            f"initial ideal of {ideal} up to degree {top} loses the Hilbert function in degree {top + 1}"
        )
    return StableIdeal(first.generators)
