"""Halfspace learning over scaled frames via the Q inner product.

The inner product <x, y>_Q = x^T (UZU^T)^{-1} y simulates the isotropizing
left scaling without ever taking a matrix square root: every evaluation is
two triangular solves on R, the R factor of the thin QR of sqrt(Z) U^T
(UZU^T = R^T R is never formed), each one LAPACK ``dtrtrs`` call through
``linalg._solve_r``. On a well-scaled frame a
1/(5d) fraction of the columns carries margin at least 1/sqrt(4d), which is
what makes the mistake-driven updates converge quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSeparable, PreconditionViolated
from .linalg import Frame, _solve_r, gram_context, leverage_scores


class QMetric:
    """Inner product x^T (UZU^T)^{-1} y, solved on the R factor of sqrt(Z) U^T.

    ``r`` is upper triangular with R^T R = UZU^T, as ``gram_context`` returns it.
    It is kept C-contiguous, the layout ``linalg._solve_r`` takes. LAPACK
    checks no shapes beyond its own arguments, so an empty or non-square R
    and a right side of the wrong length raise ValueError here.
    """

    def __init__(self, r: np.ndarray):
        r = np.ascontiguousarray(r, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or r.size == 0:
            raise ValueError(f"R must be a non-empty square matrix, got shape {r.shape}")
        self._r = r

    @classmethod
    def from_frame(cls, frame: Frame, z) -> "QMetric":
        return cls(gram_context(frame, z))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(UZU^T)^{-1} x, for vectors or stacked columns, by two LAPACK ``dtrtrs``
        solves, R^T y = x and then R v = y.

        Raises FactorizationFailure when R has a zero on its diagonal.
        """
        x = np.asarray(x, dtype=np.float64)
        if not 1 <= x.ndim <= 2 or x.shape[0] != self._r.shape[0]:
            raise ValueError(f"shapes of R {self._r.shape} and x {x.shape} are incompatible")
        return _solve_r(self._r, _solve_r(self._r, x, transposed=True), transposed=False)

    def inner(self, x, y) -> float:
        return float(np.dot(x, self.apply(np.asarray(y, dtype=np.float64))))

    def norm_sq(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(np.dot(x, self.apply(x)))


@dataclass(frozen=True)
class LabeledSample:
    point: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=np.float64))
        if self.label not in (-1, 1):
            raise ValueError("label must be +1 or -1")


def update_vector(v, u, metric: QMetric) -> np.ndarray:
    """One mistake-driven update: v - (<v,u>_Q / ||u||_Q^2) u.

    The new vector satisfies ||v'||_Q^2 = ||v||_Q^2 - <v,u>_Q^2 / ||u||_Q^2.
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return v - (metric.inner(v, u) / metric.norm_sq(u)) * u


@dataclass(frozen=True)
class PerceptronResult:
    vector: np.ndarray
    n_updates: int
    seed_index: int  # 2j for the seed +u_j, 2j + 1 for -u_j


class _Scan:
    """Vectorized violation scan over a fixed sample set."""

    def __init__(self, samples, metric: QMetric):
        pts = np.stack([s.point for s in samples], axis=1)  # d x n
        self.labels = np.array([s.label for s in samples], dtype=np.float64)
        self.pts = pts
        self.solved = metric.apply(pts)                     # (UZU^T)^{-1} u_j
        self.norms = np.einsum("ij,ij->j", pts, self.solved)
        if np.any(self.norms <= 0.0):
            raise ValueError("samples must be nonzero vectors")
        self.metric = metric

    def violation(self, v, gamma) -> int | None:
        """Lowest index misclassified with margin >= gamma, or None."""
        scores = v @ self.solved
        vnorm = self.metric.norm_sq(v)
        bad = self.labels * scores <= -gamma * np.sqrt(vnorm * self.norms)
        idx = np.flatnonzero(bad)
        return int(idx[0]) if idx.size else None


def default_update_cap(gamma: float, d: int) -> int:
    # Covers initial correlation down to 1/sqrt(4d) with slack.
    return math.ceil(math.log(4.0 * max(d, 2)) / -math.log1p(-gamma * gamma)) + 8


def improved_perceptron(samples, metric: QMetric, gamma: float,
                        max_updates: int | None = None) -> PerceptronResult:
    """Find v classifying every gamma-margin sample correctly.

    Runs 2n instances seeded with +/- u_j round-robin (one update per live
    instance per sweep) and returns the first to finish; some seed has
    positive correlation with any consistent separator, so the race always
    has a winner on separable data.

    Raises NotSeparable once every instance exhausts max_updates.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    d = samples[0].point.shape[0]
    cap = default_update_cap(gamma, d) if max_updates is None else max_updates
    scan = _Scan(samples, metric)

    vectors = [v for s in samples for v in (s.point.copy(), -s.point)]
    used = [0] * len(vectors)
    live = list(range(len(vectors)))
    while live:
        for i in list(live):
            j = scan.violation(vectors[i], gamma)
            if j is None:
                return PerceptronResult(vector=vectors[i], n_updates=used[i], seed_index=i)
            vectors[i] = update_vector(vectors[i], samples[j].point, metric)
            used[i] += 1
            if used[i] >= cap:
                live.remove(i)
    raise NotSeparable(f"all {len(vectors)} instances exceeded {cap} updates")


def margin_fraction(frame: Frame, z, w) -> float:
    """Fraction of columns with squared Q-correlation to w at least 1/(4d).

    Requires (U, z) in eps-approximate uniform-marginal position with
    eps <= d/(2n); on such frames the fraction is at least 1/(5d) for
    every nonzero w.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.any(w != 0.0):
        raise ValueError("w must be nonzero")
    d, n = frame.d, frame.n
    lev = leverage_scores(frame, z)
    bound = d / (2.0 * n)
    err_sq = float(((lev - d / n) ** 2).sum())
    if err_sq > bound * bound * (1.0 + 1e-12):
        raise PreconditionViolated(
            f"scaling error^2 {err_sq:g} exceeds (d/2n)^2; scale the frame first"
        )
    metric = QMetric.from_frame(frame, z)
    solved = metric.apply(frame.matrix)
    norms = np.einsum("ij,ij->j", frame.matrix, solved)
    scores = w @ solved
    ratios = scores**2 / (metric.norm_sq(w) * norms)
    return float(np.mean(ratios >= 1.0 / (4.0 * d)))
