"""Seeded instance sets for the benchmark workloads.

Every instance comes from ``framescale.generate`` or from the ROADMAP fuzz
recipe, and is validated through ``Frame``/``Marginals`` (or the matrix
equivalents) while the instance set is built, so validation is set-up cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from framescale import Frame, Marginals, MatrixMarginals, NonnegMatrix
from framescale.generate import gen_bipartite, gen_gaussian, gen_infeasible

EPS = 1e-6

# frame_gaussian: one fixed size, 48 instances of about 1.5k iterations each.
GAUSS_D, GAUSS_N, GAUSS_COUNT = 5, 20, 48

# matrix_bipartite: 84 square instances; every 7th gets a planted Hall
# violation (HALL_BLOCK columns whose support is confined to HALL_BLOCK - 1
# rows, against unit marginals).
MATRIX_N, MATRIX_COUNT, HALL_EVERY, HALL_BLOCK = 20, 84, 7, 4

# frame_fuzz: a window of FUZZ_WINDOW consecutive recipe seeds starting at
# (workload seed mod FUZZ_STARTS), plus FUZZ_PLANTED gen_infeasible frames.
# Any start below FUZZ_STARTS keeps the same stall cases (recipe seeds 43,
# 51, 90, 134, 203) and the ROADMAP cases 43, 50 and 242 in the window, so the
# error mix does not swing with the seed; start 0, 1 or 2 also holds seed 2.
FUZZ_WINDOW, FUZZ_STARTS, FUZZ_PLANTED = 250, 16, 10
FUZZ_KINDS = ("generic", "parallel-columns", "spread-norms", "near-deficient-row")


@dataclass
class Instance:
    """One solve input: validated objects plus the raw arrays behind them."""

    label: str
    kind: str
    problem: str              # "frame" or "matrix"
    data: tuple               # (Frame, Marginals) or (NonnegMatrix, MatrixMarginals)
    arrays: tuple             # (U, c) or (A, r, c), for the instance files


def frame_instance(label, kind, U, c) -> Instance:
    return Instance(label, kind, "frame", (Frame(U), Marginals(c, d=U.shape[0])), (U, c))


def matrix_instance(label, kind, A, r, c) -> Instance:
    return Instance(label, kind, "matrix",
                    (NonnegMatrix(A), MatrixMarginals(r, c)), (A, r, c))


def fuzz_recipe(seed: int):
    """The ROADMAP fuzz recipe, verbatim; returns (kind, U, c) or None to skip."""
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 5)
    n = rng.integers(d + 1, 10)
    U = rng.standard_normal((d, n))
    kind = seed % 4
    if kind == 1:
        U[:, 1] = U[:, 0] * rng.choice([1, -2, 1e-6])
    elif kind == 2:
        U *= 10 ** rng.uniform(-7, 7, size=n)
    elif kind == 3:
        U[-1, :n // 2] *= 1e-9
    c = rng.uniform(0.05, 1, size=n)
    c = c / c.sum() * d
    if np.any(c > 1):
        return None
    return kind, U, c


def plant_hall_violation(A: np.ndarray, seed: int) -> np.ndarray:
    """Confine HALL_BLOCK columns to HALL_BLOCK - 1 rows; keeps every row nonzero."""
    m, n = A.shape
    rng = np.random.default_rng(seed)
    cols = rng.choice(n, size=HALL_BLOCK, replace=False)
    rows = rng.choice(m, size=HALL_BLOCK - 1, replace=False)
    A = A.copy()
    A[:, cols] = 0.0
    A[np.ix_(rows, cols)] = 1.0
    others = np.setdiff1d(np.arange(n), cols)
    for i in range(m):
        if not A[i].any():
            A[i, others[rng.integers(others.size)]] = 1.0
    return A


def build(workload: str, seed: int) -> tuple[list[Instance], list[str]]:
    """Instances for one workload seed, plus log lines for skipped recipe seeds."""
    skipped: list[str] = []
    if workload == "frame_gaussian":
        out = []
        for i in range(GAUSS_COUNT):
            s = seed * GAUSS_COUNT + i
            U, c = gen_gaussian(GAUSS_D, GAUSS_N, s)
            out.append(frame_instance(f"gaussian-{s}", "gaussian", U, c))
        return out, skipped
    if workload == "matrix_bipartite":
        out = []
        for i in range(MATRIX_COUNT):
            s = seed * MATRIX_COUNT + i
            A, r, c = gen_bipartite(MATRIX_N, MATRIX_N, s)
            if i % HALL_EVERY == HALL_EVERY - 1:
                out.append(matrix_instance(f"hall-{s}", "planted-hall",
                                           plant_hall_violation(A, s), r, c))
            else:
                out.append(matrix_instance(f"bipartite-{s}", "bipartite", A, r, c))
        return out, skipped
    if workload == "frame_fuzz":
        out = []
        start = seed % FUZZ_STARTS
        for s in range(start, start + FUZZ_WINDOW):
            recipe = fuzz_recipe(s)
            if recipe is None:
                skipped.append(f"fuzz_seed={s} skipped by the recipe (a marginal exceeds 1)")
                continue
            kind, U, c = recipe
            try:
                out.append(frame_instance(f"fuzz-{s}", FUZZ_KINDS[kind], U, c))
            except ValueError as exc:
                skipped.append(f"fuzz_seed={s} rejected by validation: {exc}")
        rng = np.random.default_rng(seed)
        for i in range(FUZZ_PLANTED):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 2, 10))
            s = seed * FUZZ_PLANTED + i
            U, c = gen_infeasible(d, n, s)
            out.append(frame_instance(f"planted-{s}", "planted-infeasible", U, c))
        return out, skipped
    raise ValueError(f"unknown workload {workload!r}")


def warmup_instance(workload: str) -> Instance:
    """A small instance of the workload's problem type for the untimed warm-up."""
    if workload == "matrix_bipartite":
        A, r, c = gen_bipartite(6, 6, 0)
        return matrix_instance("warmup", "bipartite", A, r, c)
    U, c = gen_gaussian(3, 8, 0)
    return frame_instance("warmup", "gaussian", U, c)
