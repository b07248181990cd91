"""Numerical generic-initial-ideal oracle over prime fields.

The gin of an ideal is approximated by a random invertible change of
coordinates over F_p, with p a prime between 2^14 and 2^31 standing in for
characteristic zero, followed by the degree-reverse-lexicographic initial
ideal (a > b > c > d) computed by linear algebra: degree by degree, the
Macaulay matrix of I_d is row-reduced mod p and its pivot columns are the
leading monomials (Lazard 1983).  The revlex gin is generated in degrees at
most reg(I) (Bayer-Stillman 1987), so elimination stops at the regularity
reported by the Koszul Betti oracle, and the Hilbert function one degree
higher must match the input's.  Runs over two seeds and two primes must
agree and the result must be Borel-fixed, otherwise the computation reports
failure instead of guessing.
"""

from __future__ import annotations

import functools
import math
import random

from .exceptions import DisagreementError, NotBorelFixedError
from .gin import StableIdeal, is_strongly_stable
from .koszul import betti_table_oracle
from .monomials import Monomial, MonomialIdeal, NVARS, component_ideal, monomials_of_degree

DEFAULT_PRIMES = (32003, 31991)
DEFAULT_SEEDS = (1, 2)


def check_primes(primes) -> tuple[int, int]:
    """Two distinct primes strictly between 2^14, so that p stands in for
    characteristic zero, and 2^31, so that p*p fits in int64."""
    primes = tuple(primes)
    if len(primes) != 2 or primes[0] == primes[1]:
        raise ValueError(f"need two distinct primes, got {primes}")
    for p in primes:
        if not (isinstance(p, int) and 2**14 < p < 2**31 and all(p % k for k in range(2, math.isqrt(p) + 1))):
            raise ValueError(f"{p} is not a prime strictly between 2^14 and 2^31")
    return primes


@functools.lru_cache(maxsize=64)
def _shifts(d: int) -> np.ndarray:
    """Row j maps each degree-d column to the degree-(d+1) column of x_j times it."""
    import numpy as np
    index = {m: k for k, m in enumerate(monomials_of_degree(d + 1))}
    return np.array([[index[m * Monomial.variable(j)] for m in monomials_of_degree(d)] for j in range(NVARS)])


def _row_echelon(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form mod p of int64 rows with entries in [0, p), and its pivot columns."""
    rows = rows[rows.any(axis=1)]
    pivots: list[int] = []
    while len(pivots) < len(rows):
        rank = len(pivots)
        nonzero = rows[rank:] != 0
        occupied = nonzero.any(axis=0)
        col = int(occupied.argmax())
        if not occupied[col]:
            break
        k = rank + int(nonzero[:, col].argmax())
        if k != rank:
            rows[[rank, k]] = rows[[k, rank]]
        pivot, below = rows[rank], rows[rank + 1 :]
        factor = below[:, col, None] * pivot  # products of entries below p stay below 2^62
        below *= pivot[col]
        below -= factor
        below %= p
        pivots.append(col)
    return rows[: len(pivots)], pivots


def leading_monomials(polys: dict[int, np.ndarray], top: int, p: int) -> MonomialIdeal:
    """The degrevlex initial ideal, up to degree `top`, of the ideal generated
    by homogeneous polynomials over F_p, given as {degree d: rows of
    coefficients over monomials_of_degree(d)}, whose display order is
    descending degrevlex.  The degree-d Macaulay matrix holds the degree-d
    generators and the a, b, c, d shifts of the degree-(d-1) echelon rows."""
    import numpy as np
    polys = {d: np.asarray(rows, dtype=np.int64) % p for d, rows in polys.items()}
    if not any(rows.any() for rows in polys.values()):
        raise ValueError("need at least one non-zero polynomial")
    leads: list[Monomial] = []
    echelon, inherited = np.zeros((0, 0), dtype=np.int64), set()
    for d in range(min(polys), top + 1):
        width = len(monomials_of_degree(d))
        shifted = np.zeros((NVARS, len(echelon), width), dtype=np.int64)
        if len(echelon):
            for j, columns in enumerate(_shifts(d - 1)):
                shifted[j][:, columns] = echelon
        fresh = polys.get(d, np.zeros((0, width), dtype=np.int64))
        echelon, pivots = _row_echelon(np.vstack([shifted.reshape(-1, width), fresh]), p)
        leads += [monomials_of_degree(d)[c] for c in pivots if c not in inherited]
        inherited = set(_shifts(d)[:, pivots].ravel().tolist())
    return MonomialIdeal(tuple(leads))


def _substituted(ideal: MonomialIdeal, matrix: list[list[int]], p: int) -> dict[int, np.ndarray]:
    """Coefficient rows, by degree, of the minimal generators after the
    substitution x_i -> sum_j matrix[i][j] x_j."""
    import numpy as np
    coeffs = np.array(matrix, dtype=np.int64)[:, :, None]
    images = {(0, 0, 0, 0): np.ones(1, dtype=np.int64)}

    def image(e: tuple[int, ...]) -> np.ndarray:
        if e not in images:
            i = next(k for k in range(NVARS) if e[k])
            parent = e[:i] + (e[i] - 1,) + e[i + 1 :]
            terms = coeffs[i] * image(parent) % p
            # each column of x_i * parent sums at most 4 terms below 2^31: exact in float64
            out = np.bincount(_shifts(sum(parent)).ravel(), terms.ravel(), len(monomials_of_degree(sum(e))))
            images[e] = out.astype(np.int64) % p
        return images[e]

    by_degree: dict[int, list[np.ndarray]] = {}
    for g in ideal.generators:
        by_degree.setdefault(g.degree, []).append(image(g.exps))
    return {d: np.array(rows) for d, rows in by_degree.items()}


def random_invertible_matrix(seed: int, prime: int) -> list[list[int]]:
    """A uniformly sampled invertible 4x4 matrix over F_p, deterministic in
    the seed (resampled until it has full rank)."""
    import numpy as np
    rng = random.Random(seed)
    while True:
        matrix = [[rng.randrange(prime) for _ in range(NVARS)] for _ in range(NVARS)]
        if len(_row_echelon(np.array(matrix, dtype=np.int64), prime)[1]) == NVARS:
            return matrix


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
    results: list[tuple[int, int, MonomialIdeal]] = []
    for seed in seeds:
        for prime in primes:
            for attempt in range(3):
                matrix = random_invertible_matrix(seed + 7919 * attempt, prime)
                lead = leading_monomials(_substituted(ideal, matrix, prime), top, prime)
                if is_strongly_stable(lead):
                    break
            else:
                raise NotBorelFixedError(f"no Borel-fixed initial ideal for seed {seed}, prime {prime}")
            results.append((seed, prime, lead))
    first = results[0][2]
    if any(r != first for _, _, r in results):
        detail = "; ".join(f"seed {s}, p {p}: {r}" for s, p, r in results)
        raise DisagreementError(f"gin runs disagree: {detail}")
    # equal Hilbert functions in degree top + 1: equally many monomials of that degree in each ideal
    if len(component_ideal(first, top + 1).generators) != len(component_ideal(ideal, top + 1).generators):
        raise DisagreementError(
            f"initial ideal of {ideal} up to degree {top} loses the Hilbert function in degree {top + 1}"
        )
    return StableIdeal(first.generators)
