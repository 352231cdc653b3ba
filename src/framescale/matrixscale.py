"""Matrix scaling with row sums matched implicitly and exact step solves.

The column scaling y is the only state; the row scaling x_i = r_i / (Ay)_i
is recomputed on demand, so row sums are always exact and the error is the
column part alone. ``scale_matrix`` runs the margin loop of ``solver`` with
the matrix operations: the certificate is the Hall-type condition
c(T) <= r(N(T)), and the step size solves a piecewise-linear surrogate g
with g/2 <= h - h(1) <= g exactly at its breakpoints, so no root finding
is needed.

An iteration makes a few whole-array passes over A, O(mn), plus the
margin set's sort. The measurement's row sums A y serve as the iterate's
factor, which the step reads mu off. The step sorts the mu values only
when the crossing lies past the surrogate's first breakpoint; before it,
g is linear and alpha is read off in closed form. The regularizer is the
prefix-gap shrink of ``regularize`` with floor max(rho_floor, delta), where
``NonnegMatrix.rho_floor`` is a lower bound on every prefix rho, built at
its first read. Only a gap above that floor's threshold can fire. The shrink
sorts y only when max y / min y is above it, and takes the rho values of
all n - 1 column prefixes only when some gap is, from one cumulative sum
over the reordered columns, also O(mn). The per-row T-mass fractions are
computed once per iteration and shared by the step solve and the gain. The
Hall check depends on the set alone, so the shared loop decides it once
per set within a solve.

The row-sum check and the step's max mu read one element at
``argmin``/``argmax`` rather than make a ufunc reduction: the read is
exact, both return the first NaN, and on vectors this short it costs
about a third of the reduction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSegment, ZeroRowSum
from .linalg import _EPS, _column_mask
from .regularize import prefix_gap_shrink
from .solver import ScalingResult, SolverConfig, UpdateResult, _margin_loop, step_gain
# select_margin_set stays a module attribute here for callers that look it
# up on this module; the shared loop calls it on ``solver``.
from .solver import select_margin_set  # noqa: F401

# Guards the Hall comparison against roundoff in the marginal sums; genuine
# violations found by the margin loop are macroscopic.
HALL_TOL_REL = 1e-9


@dataclass(frozen=True)
class NonnegMatrix:
    """Nonnegative m x n matrix with no all-zero row or column.

    ``support`` is the mask ``matrix > 0``, built here with the validation,
    and ``rho_floor`` a lower bound on every floating-point rho that
    ``matrix_rho_prefixes`` returns, built at its first read and kept: only
    the regularizer reads it, so a matrix that is checked and never shrunk
    does not pay for it. The matrix is treated as immutable after
    construction.

    If the bipartite support graph is connected, every proper column set T
    touches a row with mass outside T, at least that row's smallest nonzero
    entry, so rho_T >= min_i a_min_i / total_i. ``rho_floor`` is that
    minimum, computed in floating point, less 4 (n + 2) machine epsilons
    and clipped at 0. The sums, the subtraction and the division in
    ``matrix_rho_prefixes`` and here move the bound by at most about
    (4n + 5) unit roundoffs (half an epsilon each), so the margin covers
    them twice over; the spare half keeps a rho near the floor on the
    right side of the candidate test of ``prefix_gap_shrink``. A
    disconnected support has a union of components with rho 0, so its
    floor is 0.
    """

    matrix: np.ndarray
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", a)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("expected a nonempty 2-d array")
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

    @functools.cached_property
    def rho_floor(self) -> float:
        # cached_property writes the instance dict directly, which a frozen
        # dataclass without slots allows.
        return _rho_floor(self.matrix, self.support)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def _connected(support: np.ndarray) -> bool:
    """Whether the bipartite graph of rows and columns on ``support`` is connected.

    Every row and column has an edge, so reaching every column from column 0
    reaches every row too.
    """
    cols = np.zeros(support.shape[1], dtype=bool)
    cols[0] = True
    while True:
        reached = support[support[:, cols].any(axis=1)].any(axis=0)
        if np.array_equal(reached, cols):
            return bool(cols.all())
        cols = reached


def _rho_floor(a: np.ndarray, support: np.ndarray) -> float:
    """``NonnegMatrix.rho_floor`` of a validated matrix and its support."""
    if not _connected(support):
        return 0.0
    a_min = np.where(support, a, np.inf).min(axis=1)
    least = float((a_min / a.sum(axis=1)).min())
    return max(least - 4.0 * (a.shape[1] + 2) * _EPS, 0.0)


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
            if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)) or np.any(v <= 0.0):
                raise ValueError(f"{name} must be a nonempty positive finite vector")
        s = float(r.sum())
        if abs(float(c.sum()) - s) > 1e-9 * s:
            raise ValueError("row and column marginals must have equal sums")

    @property
    def s(self) -> float:
        return float(self.r.sum())


def column_sums(matrix: NonnegMatrix, r, y) -> np.ndarray:
    """Column sums of X A Y where X matches the row sums r exactly."""
    return _column_and_row_sums(matrix, r, y)[0]


def _column_and_row_sums(matrix: NonnegMatrix, r, y) -> tuple[np.ndarray, np.ndarray]:
    """``column_sums`` and the row sums A y it divides r by."""
    y = np.asarray(y, dtype=np.float64)
    a = matrix.matrix
    row = a @ y
    # argmin reads the least row sum, or the first NaN if there is one; only
    # behind a NaN is the whole row scanned for a non-positive sum.
    low = row[row.argmin()]
    if low <= 0.0 or (low != low and (bad := row <= 0.0)[bad.argmax()]):
        raise ZeroRowSum("a row has zero weighted sum under this scaling")
    return y * (a.T @ (np.asarray(r, dtype=np.float64) / row)), row


def neighborhood(matrix: NonnegMatrix, T) -> np.ndarray:
    """Rows with support intersecting the column set T.

    The empty set has no neighbors; any other T must hold distinct integer
    column indices in [0, n) (``linalg._column_mask``), else ValueError.
    """
    if np.size(T) == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(matrix.support[:, _column_mask(T, matrix.n)].any(axis=1))


def _mu_weights(matrix: NonnegMatrix, r, y, T, row):
    """Per-row T-mass fractions mu_i and weights r_i over N(T); ``row`` is A y."""
    part = matrix.matrix[:, T] @ np.asarray(y)[T]
    nbr = part > 0.0
    return part[nbr] / row[nbr], np.asarray(r, dtype=np.float64)[nbr]


def matrix_update(matrix: NonnegMatrix, r, y, T, gamma: float, row) -> UpdateResult:
    """Solve g(alpha) = gamma on the piecewise-linear surrogate; the step's
    ``UpdateResult``, or InfeasibleSegment when g stays below gamma.

    g(alpha) = sum_i r_i (1 - mu_i) min(1, (alpha-1) mu_i) over N(T), which
    sandwiches the true proxy gain within a factor 2. ``row`` is A y, the
    row sums that ``measure`` formed for this y. Up to the first breakpoint,
    (alpha - 1) max mu <= 1, g is (alpha - 1) sum_i r_i (1 - mu_i) mu_i, so
    when the crossing lies there alpha is read off in closed form; past it,
    ``_breakpoint_walk`` sorts the mu values. ``h_gain`` is the proxy gain
    at alpha in closed form (``step_gain``), ``hp_one`` its slope h'(1) =
    sum_i r_i mu_i (1 - mu_i), which is g's first slope, and ``nd_iters`` 0.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    mu, w = _mu_weights(matrix, r, y, np.asarray(T, dtype=np.intp), row)
    rest = 1.0 - mu
    mass = w * rest
    keep = mass > 0.0  # rows fully inside T contribute nothing
    mu_k, mass = mu[keep], mass[keep]
    supremum = float(np.add.reduce(mass))
    # On a Hall-feasible margin set the true supremum is >= gamma; only
    # summation roundoff (absolute, at the r-mass scale) can undercut it.
    # The r-mass term only lowers the threshold, so it is summed only below
    # gamma's own term. A supremum of 0, no row of N(T) keeping mass outside
    # T, leaves no step to take whatever gamma is.
    if supremum == 0.0 or (
            supremum < gamma - 1e-9 * gamma
            and supremum < gamma - (1e-9 * gamma + 1e-12 * float(np.add.reduce(w)))):
        raise InfeasibleSegment(
            f"surrogate supremum {supremum:g} < gamma {gamma:g}; "
            "the Hall check should have certified this set"
        )
    # A tight feasible set has supremum == gamma up to roundoff; the exact
    # crossing then sits at the last breakpoint, so solve for min(gamma, sup).
    target = min(gamma, supremum)
    slope = float(np.add.reduce(mass * mu_k))
    if target * float(mu_k[mu_k.argmax()]) <= slope:
        alpha = 1.0 + target / slope
    else:
        alpha = _breakpoint_walk(mu_k, mass, target)
    return UpdateResult(alpha=alpha, h_gain=step_gain(mu, w * mu * rest, alpha),
                        nd_iters=0, hp_one=slope, seeded=False)


def _breakpoint_walk(mu: np.ndarray, mass: np.ndarray, target: float) -> float:
    """alpha with g(alpha) = target, for positive masses and target <= their sum.

    One sort of the mu values plus prefix sums; ties share a breakpoint.
    """
    order = (-mu).argsort(kind="stable")
    mu, mass = mu[order], mass[order]
    prefix = mass.cumsum()                            # saturated mass through k
    slope = (mass * mu)[::-1].cumsum()[::-1]          # segment slope from k on
    # g at breakpoint k (alpha - 1 = 1/mu_k): terms through k saturated, and
    # the rest on their slope; at the last breakpoint there is no rest.
    g_at_break = prefix.copy()
    g_at_break[:-1] += slope[1:] / mu[:-1]
    k = min(int(g_at_break.searchsorted(target, side="left")), mu.size - 1)
    p_prev = float(prefix[k - 1]) if k > 0 else 0.0
    return 1.0 + (target - p_prev) / float(slope[k])


def matrix_proxy_gain(matrix: NonnegMatrix, r, y, T, alpha: float) -> float:
    """h(alpha) - h(1) for the column-sum proxy, in closed form (``step_gain``).

    Forms the row sums A y itself; no solve path calls it. T must be a
    nonempty set of distinct integer column indices in [0, n)
    (``linalg._column_mask``), else ValueError.
    """
    _column_mask(T, matrix.n)
    mu, r_nbr = _mu_weights(matrix, r, y, np.asarray(T, dtype=np.intp),
                            matrix.matrix @ np.asarray(y))
    return step_gain(mu, r_nbr * mu * (1.0 - mu), alpha)


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
    """The prefix-gap shrink for a column scaling, mirroring the frame case.

    The floor is max(rho_floor, delta): the clamp is delta, since prefix
    rhos below 1 occur, and every prefix rho is at least ``rho_floor``, so
    raising the floor to it leaves every threshold max(rho, delta)/delta as
    it is. The rho values of all prefixes come from one
    ``matrix_rho_prefixes`` pass, taken only when some gap exceeds the
    floor's threshold and so could fire. A y whose shape is not (n,) raises
    ValueError, as in the frame case.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (matrix.n,):
        raise ValueError("scaling length does not match matrix")
    return prefix_gap_shrink(y, delta,
                             lambda order, _: matrix_rho_prefixes(matrix, order),
                             max(matrix.rho_floor, delta))


def scale_matrix(matrix: NonnegMatrix, marginals: MatrixMarginals, eps: float,
                 config: SolverConfig | None = None) -> ScalingResult:
    """Scale A to eps-approximate (r, c) marginals or certify via Hall.

    Returns a ScalingResult whose scaling field is the column vector y;
    the row scaling r_i / (Ay)_i is implicit, so the row sums are met by
    construction and the error compared against eps^2 is ||c(B) - c||^2.
    Runs the shared margin loop of ``solver``: the certificate is the Hall
    check c(T) > r(N(T)) + tol, which the loop decides once per set, the
    step is ``matrix_update`` (whose InfeasibleSegment the loop answers
    with the Hall check at tol 0), and the shrink is ``matrix_regularize``.
    """
    m, n = matrix.matrix.shape
    r, c = marginals.r, marginals.c
    if r.shape != (m,) or c.shape != (n,):
        raise ValueError("marginals do not match matrix dimensions")
    s = marginals.s

    # The factor is the row sums A y: the step reads mu off them.
    def measure(y):
        return _column_and_row_sums(matrix, r, y)

    def certificate(T, tol=HALL_TOL_REL * s):
        return T if float(c[T].sum()) > float(r[neighborhood(matrix, T)].sum()) + tol else None

    def step(y, T, gamma, row):
        return matrix_update(matrix, r, y, T, gamma, row)

    def shrink(y, gamma):
        return matrix_regularize(matrix, y, gamma / (15.0 * s * n**3))

    return _margin_loop(c, eps, config or SolverConfig(), measure, certificate, step, shrink)
