"""Matrix scaling with row sums matched implicitly and exact step solves.

The column scaling y is the only state; the row scaling x_i = r_i / (Ay)_i
is recomputed on demand, so row sums are always exact. Each iteration
scales up the margin-maximizing column prefix; the step size solves a
piecewise-linear surrogate g with g/2 <= h - h(1) <= g exactly at its
breakpoints, so no root finding is needed. Feasibility is the Hall-type
condition c(T) <= r(N(T)).

An iteration makes a few whole-array passes over A, O(mn), plus two sorts.
The regularizer takes the rho values of all n - 1 column prefixes from one
cumulative sum over the reordered columns, also O(mn), and visits only the
gaps where a shrink fires. The row products Ay and the per-row T-mass
fractions are each computed once per iteration and shared by the steps that
need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSegment, IterationCapExceeded, ZeroRowSum
from .solver import INFEASIBLE, SCALED, IterationRecord, ScalingResult, SolverConfig, select_margin_set

# Guards the Hall comparison against roundoff in the marginal sums; genuine
# violations found by the margin loop are macroscopic.
HALL_TOL_REL = 1e-9


@dataclass(frozen=True)
class NonnegMatrix:
    """Nonnegative m x n matrix with no all-zero row or column.

    ``support`` is the mask ``matrix > 0``, built once here; the matrix is
    treated as immutable after construction.
    """

    matrix: np.ndarray
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", a)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if np.any(a < 0.0):
            raise ValueError("matrix entries must be nonnegative")
        support = a > 0
        object.__setattr__(self, "support", support)
        if not support.any(axis=1).all():
            raise ValueError("matrix has an all-zero row")
        if not support.any(axis=0).all():
            raise ValueError("matrix has an all-zero column")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class MatrixMarginals:
    """Desired row and column sums with a common total s."""

    r: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)
        for name, v in (("r", r), ("c", c)):
            if v.ndim != 1 or not np.all(np.isfinite(v)) or np.any(v <= 0.0):
                raise ValueError(f"{name} must be a positive finite vector")
        s = float(r.sum())
        if abs(float(c.sum()) - s) > 1e-9 * s:
            raise ValueError("row and column marginals must have equal sums")

    @property
    def s(self) -> float:
        return float(self.r.sum())


def _scaled_sums(a: np.ndarray, r: np.ndarray, y: np.ndarray):
    """Column sums of X A Y, with the row products Ay and the row scaling x."""
    row = a @ y
    if np.any(row <= 0.0):
        raise ZeroRowSum("a row has zero weighted sum under this scaling")
    x = r / row
    return y * (a.T @ x), row, x


def column_sums(matrix: NonnegMatrix, r, y) -> np.ndarray:
    """Column sums of X A Y where X matches the row sums r exactly."""
    y = np.asarray(y, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    return _scaled_sums(matrix.matrix, r, y)[0]


def neighborhood(matrix: NonnegMatrix, T) -> np.ndarray:
    """Rows with support intersecting the column set T."""
    T = np.asarray(T, dtype=np.intp)
    if T.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(matrix.support[:, T].any(axis=1))


def _mu_weights(matrix: NonnegMatrix, r, y, T):
    """Per-row T-mass fractions mu_i and weights r_i over N(T)."""
    a = matrix.matrix
    part = a[:, T] @ np.asarray(y)[T]
    nbr = part > 0.0
    total = a[nbr] @ np.asarray(y)
    return part[nbr] / total, np.asarray(r, dtype=np.float64)[nbr]


def matrix_update(matrix: NonnegMatrix, r, y, T, gamma: float) -> float:
    """Solve g(alpha) = gamma on the piecewise-linear surrogate.

    g(alpha) = sum_i r_i (1 - mu_i) min(1, (alpha-1) mu_i) over N(T), which
    sandwiches the true proxy gain within a factor 2. Runs one sort of the
    mu values plus prefix sums; ties share a breakpoint.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    T = np.asarray(T, dtype=np.intp)
    return _surrogate_step(*_mu_weights(matrix, r, y, T), gamma)


def _surrogate_step(mu: np.ndarray, w: np.ndarray, gamma: float) -> float:
    """matrix_update on precomputed mu weights."""
    mass = w * (1.0 - mu)
    keep = mass > 0.0  # rows fully inside T contribute nothing
    mu, mass = mu[keep], mass[keep]
    supremum = float(mass.sum())
    # On a Hall-feasible margin set the true supremum is >= gamma; only
    # summation roundoff (absolute, at the r-mass scale) can undercut it.
    noise = 1e-9 * gamma + 1e-12 * float(w.sum())
    if supremum < gamma - noise:
        raise InfeasibleSegment(
            f"surrogate supremum {supremum:g} < gamma {gamma:g}; "
            "the Hall check should have certified this set"
        )
    # A tight feasible set has supremum == gamma up to roundoff; the exact
    # crossing then sits at the last breakpoint, so solve for min(gamma, sup).
    target = min(gamma, supremum)
    order = np.argsort(-mu, kind="stable")
    mu, mass = mu[order], mass[order]
    prefix = np.cumsum(mass)                          # saturated mass through k
    slope = np.cumsum((mass * mu)[::-1])[::-1]        # segment slope from k on
    # g at breakpoint k (alpha - 1 = 1/mu_k): terms through k saturated.
    tail = np.concatenate([slope[1:], [0.0]])
    g_at_break = prefix + tail / mu
    k = int(np.searchsorted(g_at_break, target, side="left"))
    k = min(k, mu.size - 1)
    p_prev = float(prefix[k - 1]) if k > 0 else 0.0
    a = (target - p_prev) / float(slope[k])
    return 1.0 + float(a)


def matrix_proxy_gain(matrix: NonnegMatrix, r, y, T, alpha: float) -> float:
    """h(alpha) - h(1) for the column-sum proxy, in closed form."""
    return _proxy_gain(*_mu_weights(matrix, r, y, T), alpha)


def _proxy_gain(mu: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """matrix_proxy_gain on precomputed mu weights."""
    t = (alpha - 1.0) * mu
    return float(np.sum(w * t * (1.0 - mu) / (1.0 + t)))


def matrix_rho_prefixes(matrix: NonnegMatrix, order: np.ndarray) -> np.ndarray:
    """rho_T(A) for every proper prefix of the given column order.

    One vectorized pass, O(mn): a cumulative sum over the reordered columns
    gives every row's in-prefix mass for all n - 1 prefixes at once, and a
    column max of the out/in ratio over touched rows gives each rho (the
    neighborhoods form a chain under prefix growth). The cumulative sum adds
    columns in prefix order, so each value is exactly what adding the
    columns one at a time gives.
    """
    a = matrix.matrix
    total = a.sum(axis=1)
    inter = np.cumsum(a[:, order[:-1]], axis=1)
    touched = inter > 0.0
    ratio = (total[:, None] - inter) / np.where(touched, inter, 1.0)
    return np.where(touched, ratio, 0.0).max(axis=0, initial=0.0)


def matrix_regularize(matrix: NonnegMatrix, y, delta: float) -> np.ndarray:
    """Prefix-gap shrinking for column scalings, mirroring the frame case.

    A shrink at gap k scales the k largest entries together, so it leaves
    the ratio at every later gap unchanged: all gap ratios can be taken up
    front, and only the gaps where a shrink fires are visited, in order.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta!r}")
    y = np.asarray(y, dtype=np.float64)
    order = np.argsort(-y, kind="stable")
    ys = y[order]
    ys /= ys[-1]
    ratios = ys[:-1] / ys[1:]
    thresholds = np.maximum(matrix_rho_prefixes(matrix, order), delta) / delta
    headroom = 1.0 + 2.0 * delta
    for k in np.flatnonzero(ratios > thresholds * headroom):
        ys[:k + 1] *= thresholds[k] / ratios[k]
    ys = np.maximum(np.floor(ys / delta + 0.5) * delta, delta)
    ys /= ys[-1]
    out = np.empty_like(ys)
    out[order] = ys
    return out


def scale_matrix(matrix: NonnegMatrix, marginals: MatrixMarginals, eps: float,
                 config: SolverConfig | None = None) -> ScalingResult:
    """Scale A to eps-approximate (r, c) marginals or certify via Hall.

    Returns a ScalingResult whose scaling field is the column vector y;
    the row scaling r_i / (Ay)_i is implicit. The combined squared error
    ||r(B) - r||^2 + ||c(B) - c||^2 is compared against eps^2 even though
    the row part vanishes by construction.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    a = matrix.matrix
    m, n = a.shape
    r, c = marginals.r, marginals.c
    if r.shape != (m,) or c.shape != (n,):
        raise ValueError("marginals do not match matrix dimensions")
    config = config or SolverConfig()
    s = marginals.s
    eps_sq = eps * eps
    cap = config.iteration_cap(n, eps)

    def combined_error_sq(y):
        cs, row, x = _scaled_sums(a, r, y)
        row_err = x * row - r
        return float((row_err**2).sum() + ((cs - c) ** 2).sum()), cs

    y = np.ones(n)
    err_sq, cs = combined_error_sq(y)
    trace: list[IterationRecord] = []
    it = 0
    while err_sq > eps_sq:
        if it >= cap:
            raise IterationCapExceeded(
                f"no convergence after {cap} iterations (error^2 {err_sq:g})",
                trace=trace,
            )
        it += 1
        ms = select_margin_set(cs, c)
        T = ms.indices
        nbr = neighborhood(matrix, T)
        if float(c[T].sum()) > float(r[nbr].sum()) + HALL_TOL_REL * s:
            return ScalingResult(
                status=INFEASIBLE, scaling=None, certificate=np.sort(T),
                iterations=it, final_error_sq=err_sq, trace=trace,
            )
        mu, w = _mu_weights(matrix, r, y, T)
        try:
            alpha = _surrogate_step(mu, w, ms.gamma)
        except InfeasibleSegment:
            # Hairline Hall violation below the comparison guard: the
            # surrogate supremum proves c(T) > r(N(T)), so certify.
            if float(c[T].sum()) > float(r[nbr].sum()):
                return ScalingResult(
                    status=INFEASIBLE, scaling=None, certificate=np.sort(T),
                    iterations=it, final_error_sq=err_sq, trace=trace,
                )
            raise
        gain = _proxy_gain(mu, w, alpha)
        y = y.copy()
        y[T] *= alpha
        if config.regularize:
            delta = ms.gamma / (15.0 * s * n**3)
            y = matrix_regularize(matrix, y, delta)
        y = y / y.min()
        new_err_sq, cs = combined_error_sq(y)
        if config.collect_trace:
            trace.append(IterationRecord(
                error_sq=err_sq, gamma=ms.gamma, alpha_hat=alpha, h_gain=gain,
                progress=err_sq - new_err_sq, nd_iters=0,
                regularized=config.regularize,
            ))
        err_sq = new_err_sq
    return ScalingResult(
        status=SCALED, scaling=y, certificate=None,
        iterations=it, final_error_sq=err_sq, trace=trace,
    )
