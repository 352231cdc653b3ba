"""Exact rational arithmetic for small-instance certificate verification.

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
    """Rank by fraction-exact Gaussian elimination."""
    mat = [row[:] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def column_submatrix(rows: list[list[Fraction]], cols) -> list[list[Fraction]]:
    return [[row[j] for j in cols] for row in rows]
