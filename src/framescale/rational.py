"""Exact rational arithmetic for certificate verification.

The instance format is read in ``io`` alone. The exact checks take the
Fraction of each binary64 value ``io`` parsed, and ``Fraction`` of a double
is exact, so rank and mass comparisons here are exact for the very matrix
that was solved. Rank is this module's own fraction-free elimination, the
independent oracle behind the verify command; it shares no arithmetic with
the float solver.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import io


def parse_matrix_tokens(path) -> list[list[Fraction]]:
    return [list(map(Fraction, row)) for row in io.read_matrix_file(path).tolist()]


def parse_vector_tokens(path) -> list[Fraction]:
    return list(map(Fraction, io.read_vector_file(path).tolist()))


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by fraction-free (Bareiss) elimination over the integers.

    Each row is scaled by the lcm of its denominators, which keeps the rank.
    Every elimination step then divides exactly by the previous pivot, so
    each entry stays a minor of the integer matrix and no fraction is formed.
    """
    mat = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row))
        mat.append([v.numerator * (scale // v.denominator) for v in row])
    rank, prev = 0, 1
    while mat and mat[0]:
        k = next((i for i, r in enumerate(mat) if r[0]), None)
        if k is None:
            mat = [r[1:] for r in mat]
            continue
        pivot = mat.pop(k)
        p = pivot[0]
        mat = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], pivot[1:])] for r in mat]
        rank, prev = rank + 1, p
    return rank


def column_submatrix(rows: list[list[Fraction]], cols) -> list[list[Fraction]]:
    return [[row[j] for j in cols] for row in rows]
