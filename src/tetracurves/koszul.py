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
torsion-free, so ranks over Q are exact and characteristic-independent,
and they follow from counting components, faces and the boundary of the
tetrahedron (see `reduced_homology_ranks`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from .exceptions import refuse_over_limit
from .monomials import MonomialIdeal, NVARS, exponent_box

# the oracle's peak bytes per cell of the padded box (uint16 face masks,
# int64 degree index, boolean temporaries; 11.5 measured)
_BYTES_PER_CELL = 12

# the faces of dimension 2 (vertex sets of size 3) and the solid tetrahedron
_TRIANGLES = sum(1 << s for s in range(1 << NVARS) if s.bit_count() == 3)
_SOLID = 1 << ((1 << NVARS) - 1)


@functools.lru_cache(maxsize=None)
def reduced_homology_ranks(mask: int) -> tuple[int, int, int, int]:
    """Reduced rational homology ranks in dimensions -1, 0, 1, 2 of the
    complex on {a,b,c,d} whose faces are the vertex sets s with bit s of
    mask set.  The mask must be downward closed; 0 is the void complex
    (acyclic) and 1 the empty complex, whose one face is the empty set
    (rank one in dimension -1).

    On four vertices the ranks follow from counts: H~_0 has rank
    (components - 1), H~_2 is non-zero only on the boundary of the
    tetrahedron, and H~_1 follows from the reduced Euler characteristic,
    the sum over the faces of (-1)^dimension."""
    faces = [s for s in range(1 << NVARS) if mask >> s & 1]
    # label each vertex by its component; an edge merges two labels
    label = {v: v for v in range(NVARS) if mask >> (1 << v) & 1}
    for s in faces:
        if s.bit_count() == 2:
            u, v = (label[w] for w in range(NVARS) if s >> w & 1)
            label = {w: u if k == v else k for w, k in label.items()}
    h_empty = int(mask == 1)
    h0 = max(len(set(label.values())) - 1, 0)
    h2 = int((mask & (_TRIANGLES | _SOLID)) == _TRIANGLES)
    euler = sum((-1) ** (s.bit_count() + 1) for s in faces)
    return h_empty, h0, h0 + h2 - h_empty - euler, h2


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
    refuse_over_limit(math.prod(k + 2 for k in top.tolist()) * _BYTES_PER_CELL,
                      f"the Koszul oracle box {(top + 1).tolist()} needs")
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
