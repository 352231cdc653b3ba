"""Exact rational arithmetic for certificate verification.

Each decimal token is read as the binary64 value the solver reads, then
taken as the exact Fraction of that float, so rank and mass comparisons
here are exact for the very matrix that was solved; this is the
independent oracle behind the verify command, deliberately sharing no code
with the float solver.
"""

from __future__ import annotations

import math
from fractions import Fraction


def to_fraction(token: str) -> Fraction:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {token!r} in input")
    return Fraction(x)


def parse_matrix_tokens(path) -> list[list[Fraction]]:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    d, n = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != d * n:
        raise ValueError(f"{path}: expected {d * n} entries")
    vals = [to_fraction(t) for t in body]
    return [vals[i * n:(i + 1) * n] for i in range(d)]


def parse_vector_tokens(path) -> list[Fraction]:
    with open(path, "r", encoding="ascii") as fh:
        return [to_fraction(t) for t in fh.read().split()]


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
