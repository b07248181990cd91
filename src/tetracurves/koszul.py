"""Brute-force graded Betti numbers of monomial ideals in k[a,b,c,d].

For a monomial ideal I and a multidegree m, the faces of the upper Koszul
complex are the squarefree divisors t of m with m/t in I, and

    beta_{i, deg m}(I)  =  rank H~_{i-1}(K(I, m); Q),

where i = 0 counts minimal generators of I.  A simplicial complex on the
four vertices a, b, c, d is a 16-bit face mask throughout: bit s is set when
the vertex set s (bit v of s for vertex v) is a face.  Candidate
multidegrees run over the box below the componentwise maximum of the
generators, the same exponent box (`monomials.exponent_box`) the Hilbert
counter uses: the oracle reads the ideal's membership on it once, builds
every multidegree's face mask from it, and sums `reduced_homology_ranks`
per distinct mask and degree.  Complexes on at most four vertices are
torsion-free, so ranks over Q are exact and characteristic-independent;
boundary ranks are computed in exact rational arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exceptions import OracleTooLargeError
from .monomials import ORACLE_MEMORY_LIMIT, MonomialIdeal, NVARS, exponent_box

# the oracle's peak bytes per cell of the padded box (uint16 face masks,
# int64 degree index, boolean temporaries; 11.5 measured)
_BYTES_PER_CELL = 12

_SUBSET_VERTICES = tuple(
    tuple(v for v in range(NVARS) if s & (1 << v)) for s in range(1 << NVARS)
)


def _exact_rank(rows: list[list[int]]) -> int:
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


@functools.lru_cache(maxsize=None)
def reduced_homology_ranks(mask: int) -> tuple[int, int, int, int]:
    """Reduced rational homology ranks in dimensions -1, 0, 1, 2 of the
    complex on {a,b,c,d} whose faces are the vertex sets s with bit s of
    mask set.  The mask must be downward closed; 0 is the void complex
    (acyclic) and 1 the empty complex, whose one face is the empty set
    (rank one in dimension -1)."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for s, vs in enumerate(_SUBSET_VERTICES):
        if mask >> s & 1:
            by_dim.setdefault(len(vs) - 1, []).append(vs)

    def boundary_rank(k: int) -> int:
        upper = by_dim.get(k, [])
        lower = {f: idx for idx, f in enumerate(by_dim.get(k - 1, []))}
        if not upper or not lower:
            return 0
        rows = []
        for face in upper:
            row = [0] * len(lower)
            for j in range(len(face)):
                sub = face[:j] + face[j + 1 :]
                row[lower[sub]] = (-1) ** j
            rows.append(row)
        return _exact_rank(rows)

    return tuple(
        len(by_dim.get(k, [])) - boundary_rank(k) - boundary_rank(k + 1)
        for k in range(-1, 3)
    )


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of an ideal: (homological index i, internal
    degree j) -> rank, with i = 0 at the minimal generators."""

    entries: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_dict(cls, data: Mapping[tuple[int, int], int]) -> "BettiTable":
        items = tuple(
            (i, j, r) for (i, j), r in sorted(data.items()) if r != 0
        )
        if any(r < 0 for _, _, r in items):
            raise ValueError("negative Betti number")
        return cls(items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): r for i, j, r in self.entries}

    def rank(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    @property
    def projective_dimension(self) -> int:
        return max(i for i, _, _ in self.entries)

    @property
    def regularity(self) -> int:
        return max(j - i for i, j, _ in self.entries)

    @property
    def min_generator_degree(self) -> int:
        return min(j for i, j, _ in self.entries if i == 0)

    @property
    def is_linear(self) -> bool:
        """All generators in one degree d and every entry on the strand j = d + i."""
        d = self.min_generator_degree
        return all(j == d + i for i, j, _ in self.entries)

    def __add__(self, other: "BettiTable") -> "BettiTable":
        out = self.as_dict()
        for (i, j), r in other.as_dict().items():
            out[(i, j)] = out.get((i, j), 0) + r
        return BettiTable.from_dict(out)

    def json_entries(self) -> list[list[int]]:
        return [[i, j, r] for i, j, r in self.entries]

    def render_resolution(self, target: str = "J") -> str:
        """The paper-style one-line display 0 -> ... -> target -> 0."""
        blocks = []
        for i in range(self.projective_dimension, -1, -1):
            terms = [
                f"R(-{j})" + (f"^{r}" if r > 1 else "")
                for _, j, r in sorted(
                    (e for e in self.entries if e[0] == i),
                    key=lambda e: -e[1],
                )
            ]
            blocks.append(" (+) ".join(terms) if terms else "0")
        return "0 -> " + " -> ".join(blocks) + f" -> {target} -> 0"


def betti_table_oracle(ideal: MonomialIdeal) -> BettiTable:
    """Betti table of a proper non-zero monomial ideal by Koszul homology,
    summing homology ranks of the upper Koszul complex over all candidate
    multidegrees below the componentwise maximum of the generators."""
    import numpy as np
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("Betti oracle needs a proper non-zero ideal")
    least, top = exponent_box(ideal)
    estimate = math.prod(k + 2 for k in top.tolist()) * _BYTES_PER_CELL
    if estimate > ORACLE_MEMORY_LIMIT:
        raise OracleTooLargeError(
            f"the Koszul oracle box {(top + 1).tolist()} needs about {estimate >> 20} MiB"
        )
    # bit s of masks[m + 1] is set when m - (the 0/1 vector of s) is in I;
    # the zero layer below the box makes a negative coordinate read "not in I"
    masks = np.zeros(top + 2, dtype=np.uint16)
    masks[1:, 1:, 1:, 1:] = least[..., None] <= np.arange(top[3] + 1)
    # one shift per variable v doubles the faces: s gains v where m - e_v has s
    masks[1:] |= masks[:-1] << 1
    masks[:, 1:] |= masks[:, :-1] << 2
    masks[:, :, 1:] |= masks[:, :, :-1] << 4
    masks[:, :, :, 1:] |= masks[:, :, :, :-1] << 8
    masks = masks[1:, 1:, 1:, 1:]
    degrees = sum(np.indices(masks.shape, sparse=True))
    # the void complex (m not in I) and the full simplex (m - abcd in I) are
    # acyclic, and together they fill most of the box
    mixed = (masks != 0) & (masks != (1 << (1 << NVARS)) - 1)
    unique, inverse = np.unique(masks[mixed], return_inverse=True)
    n_degrees = sum(masks.shape) - NVARS + 1
    counts = np.bincount(
        inverse * n_degrees + degrees[mixed], minlength=len(unique) * n_degrees
    ).reshape(len(unique), n_degrees)
    ranks = np.array(
        [reduced_homology_ranks(m) for m in unique.tolist()], dtype=np.int64
    ).reshape(-1, NVARS)
    betti = ranks.T @ counts
    rows, cols = np.nonzero(betti)
    return BettiTable.from_dict(
        {(i, j): int(betti[i, j]) for i, j in zip(rows.tolist(), cols.tolist())}
    )


@functools.lru_cache(maxsize=8192)
def cached_betti_oracle(ideal: MonomialIdeal) -> BettiTable:
    """Memoized oracle; ideals are hashable by their minimal generators."""
    return betti_table_oracle(ideal)
