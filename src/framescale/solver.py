"""Iterative frame scaling: margin sets, certificates, the margin loop.

The solver keeps the square of the right scaling as a positive vector z and
leaves the isotropizing left scaling (UZU^T)^{-1/2} implicit. Each iteration
scales up the prefix set with the largest sorted-error gap, with the step
size chosen so that the leverage mass moved into the set lands in a band
proportional to the margin. The loop either drives ||lev(z) - c||^2 below
eps^2 or stops with a subset T certifying infeasibility. The same loop
drives the matrix solver in ``matrixscale``, which supplies its own
marginals, certificate, step and shrink. A certificate is a property of
the column set alone, so the loop decides each set once per solve.

This module owns ``UpdateResult``, the step record that every ``step``
closure returns to the loop, and ``step_gain``, the gain both steps report.
The frame step and its step-size proxy ``proxy_at`` live in ``update``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateMargin, InfeasibleSegment, IterationCapExceeded, ScalingError
# leverage_scores stays a module attribute here for callers that look it up
# on this module; the loop reads leverage off the iterate's factor instead.
from .linalg import Frame, leverage_scores, numerical_rank, orthonormal_factor  # noqa: F401

SCALED = "scaled"
INFEASIBLE = "infeasible"

# Integer rank vs float mass comparison guard.
CERTIFICATE_TOL = 1e-7


@dataclass(frozen=True)
class Marginals:
    """Target squared column norms c with <c, 1> = d and 0 < c_j <= 1."""

    values: np.ndarray
    d: int

    def __post_init__(self):
        c = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", c)
        if c.ndim != 1:
            raise ValueError("marginals must be a vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("marginals must be finite")
        if np.any(c <= 0.0):
            raise ValueError("marginals must be strictly positive")
        if np.any(c > 1.0):
            # A marginal above 1 can never be met: a single column carries
            # leverage at most 1.
            raise ValueError("marginal exceeds 1; the instance is trivially infeasible")
        total = float(c.sum())
        if abs(total - self.d) > 1e-9 * self.d:
            raise ValueError(
                f"marginals sum to {total!r}, expected d={self.d} (tolerance 1e-9*d)"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MarginSet:
    """Prefix set under the sort order of lev - c, with margin gamma at nu."""

    order: np.ndarray  # argsort permutation of lev - c, ascending
    k: int             # cut position; T = order[:k]
    gamma: float
    nu: float

    @property
    def indices(self) -> np.ndarray:
        return self.order[: self.k]

    @property
    def complement(self) -> np.ndarray:
        return self.order[self.k:]


def select_margin_set(lev, c) -> MarginSet:
    """Pick the prefix of sorted lev - c with the largest consecutive gap.

    Ties break toward the smallest cut. The returned margin satisfies
    gamma^2 >= ||lev - c||^2 / (2 n^3) whenever <lev - c, 1> = 0.
    """
    lev = np.asarray(lev, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = lev.shape[0]
    if n < 2:
        raise ValueError("margin selection needs n >= 2")
    x = lev - c
    total = float(x.sum())
    # The tolerance is at least 1e-8, so |c|_1 is summed only past that.
    if abs(total) > 1e-8 and abs(total) > 1e-8 * max(1.0, float(np.abs(c).sum())):
        raise ValueError(f"lev - c must sum to 0, got {total!r}")
    order = x.argsort(kind="stable")
    xs = x[order]
    gaps = xs[1:] - xs[:-1]
    k = int(gaps.argmax())  # first maximum: smallest cut wins ties
    gamma = float(gaps[k]) / 2.0
    nu = float(xs[k] + xs[k + 1]) / 2.0
    if gamma == 0.0 and float(np.abs(x).max()) > 0.0:
        raise DegenerateMargin("zero margin on a nonzero error vector")
    return MarginSet(order=order, k=k + 1, gamma=gamma, nu=nu)


def infeasibility_certificate(frame: Frame, c, T) -> np.ndarray | None:
    """Return sorted T as a certificate iff rk(U_T) < <c, 1_T> beyond tolerance.

    T is sorted first, so the rank (taken on the columns in sorted order),
    the mass and the answer depend on the set alone. T must hold distinct
    column indices in [0, n), the rule ``verify`` applies to a certificate:
    a repeated index would count its marginal twice against one rank.
    """
    T = np.sort(np.asarray(T, dtype=np.intp))
    if T.size == 0 or T[0] < 0 or T[-1] >= frame.n or (T[1:] == T[:-1]).any():
        raise ValueError("T must be a nonempty set of distinct column indices in [0, n)")
    c = np.asarray(c, dtype=np.float64)
    if numerical_rank(frame.columns(T)) < float(c[T].sum()) - CERTIFICATE_TOL:
        return T
    return None


@dataclass
class SolverConfig:
    """The iteration cap, by default 40 n^3 log(n/eps)."""

    max_iters: int | None = None

    def __post_init__(self):
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")

    def iteration_cap(self, n: int, eps: float) -> int:
        """The iteration cap for n columns at target eps; rejects a bad eps.

        Every solve and the CLI's config echo call this before the first
        iteration, so it is the one place where eps is checked.
        """
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be a positive finite number, got {eps!r}")
        if self.max_iters is not None:
            return self.max_iters
        return math.ceil(40.0 * n**3 * math.log(max(n, 2) / eps))


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """Per-iteration measurements; error_sq is the value before the step."""

    error_sq: float
    gamma: float
    alpha_hat: float
    h_gain: float
    progress: float
    nd_iters: int
    hp_one: float = math.nan
    log_z_inf: float = math.nan

    def as_dict(self) -> dict:
        """Every field, with NaN (a value the solver did not compute) as None."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = None if isinstance(value, float) and math.isnan(value) else value
        return out


@dataclass
class ScalingResult:
    """Outcome of a scaling run: a scaling vector or a certificate set."""

    status: str
    scaling: np.ndarray | None
    certificate: np.ndarray | None
    iterations: int
    final_error_sq: float
    trace: list[IterationRecord] = field(default_factory=list)

    @property
    def scaled(self) -> bool:
        return self.status == SCALED


@dataclass(frozen=True)
class UpdateResult:
    """One step as a ``step`` closure hands it to the margin loop; a step
    that proves the band unreachable raises InfeasibleSegment instead."""

    alpha: float
    h_gain: float
    nd_iters: int
    hp_one: float
    seeded: bool  # True when the eigen-sum guess supplied the start point


def step_gain(mu: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """Proxy gain h(alpha) - h(1) = sum (alpha - 1) w_i / (1 + (alpha - 1) mu_i).

    Frames: mu the eigenvalues of P = Q_T^T Q_T, w = mu (1 - mu). Matrices:
    mu_i row i's T-mass fraction, w = r mu (1 - mu), over N(T)."""
    s = alpha - 1.0
    return float((s * w / (1.0 + s * mu)).sum())


def _margin_loop(c: np.ndarray, eps: float, config: SolverConfig, measure, certificate,
                 step, shrink, log_range: bool = False) -> ScalingResult:
    """The margin loop shared by the frame and the matrix solver.

    ``measure(z)`` gives the marginals of z and their squared error against
    c, ``certificate(T, zero_tol=False)`` a certificate or None, ``step(z,
    T, gamma)`` an ``UpdateResult``, and ``shrink(z, gamma)`` the regularized
    z, whose min must be exactly 1. With ``log_range`` the trace records
    ||log z||_inf, which for min z = 1 is log max z. A ScalingError leaving
    the loop carries the trace.

    ``certificate`` gets T in sorted order and must depend on the set alone,
    never on the scaling: margin sets recur, and each distinct set is
    decided once per solve, with every later visit reusing that decision.
    A set infeasible by less than that decision's roundoff guard reaches
    ``step``, which raises InfeasibleSegment; the loop then decides T with
    ``zero_tol=True`` and certifies, or re-raises when T still passes.
    """
    n = c.shape[0]
    eps_sq = eps * eps
    cap = config.iteration_cap(n, eps)
    z = np.ones(n)
    marginals, err_sq = measure(z)
    trace: list[IterationRecord] = []
    decided: dict[bytes, np.ndarray | None] = {}
    it = 0
    try:
        while err_sq > eps_sq:
            if it >= cap:
                raise IterationCapExceeded(
                    f"no convergence after {cap} iterations (error^2 {err_sq:g})"
                )
            it += 1
            ms = select_margin_set(marginals, c)
            T = ms.indices
            key = T.copy()
            key.sort()
            tag = key.tobytes()
            if tag not in decided:
                decided[tag] = certificate(key)
            cert = decided[tag]
            if cert is None:
                try:
                    upd = step(z, T, ms.gamma)
                except InfeasibleSegment:
                    cert = certificate(key, zero_tol=True)
                    if cert is None:
                        raise
            if cert is not None:
                return ScalingResult(
                    status=INFEASIBLE, scaling=None, certificate=cert,
                    iterations=it, final_error_sq=err_sq, trace=trace,
                )
            z[T] *= upd.alpha
            z = shrink(z, ms.gamma)
            marginals, new_err_sq = measure(z)
            trace.append(IterationRecord(
                error_sq=err_sq, gamma=ms.gamma, alpha_hat=upd.alpha, h_gain=upd.h_gain,
                progress=err_sq - new_err_sq, nd_iters=upd.nd_iters, hp_one=upd.hp_one,
                log_z_inf=float(np.log(z.max())) if log_range else math.nan,
            ))
            err_sq = new_err_sq
    except ScalingError as exc:
        if exc.trace is None:
            exc.trace = trace
        raise
    return ScalingResult(
        status=SCALED, scaling=z, certificate=None,
        iterations=it, final_error_sq=err_sq, trace=trace,
    )


def scale_frame(frame: Frame, marginals: Marginals, eps: float,
                config: SolverConfig | None = None) -> ScalingResult:
    """Scale a frame to eps-approximate (I_d, c)-position, or certify.

    Parameters
    ----------
    frame : Frame
        Full-row-rank d x n frame.
    marginals : Marginals
        Target squared norms; must sum to d with entries in (0, 1].
    eps : float
        Stop once ||lev(z) - c||_2^2 <= eps^2.
    config : SolverConfig, optional
        The iteration cap.

    Returns
    -------
    ScalingResult
        Either status "scaled" with a positive scaling vector normalized to
        min 1, or status "infeasible" with a column subset T whose marginal
        mass exceeds rk(U_T).

    Raises
    ------
    ValueError
        If eps is not a positive finite number, or the marginals do not
        match the frame.
    IterationCapExceeded
        If the cap is hit; signals numerical breakdown. Like every
        ScalingError raised inside the loop, it carries the trace so far.
    """
    from .regularize import RhoCache, regularize
    from .update import compute_update

    if marginals.d != frame.d or marginals.n != frame.n:
        raise ValueError("marginals do not match frame dimensions")
    n = frame.n
    c = marginals.values
    rho_cache = RhoCache(frame)
    q = None

    # q is the current iterate's thin orthonormal factor: it gives the
    # leverage scores here and h(1), h'(1) to the step-size proxy.
    def measure(z):
        nonlocal q
        q = orthonormal_factor(frame, z)
        lev = np.einsum("ij,ij->i", q, q)
        return lev, float(((lev - c) ** 2).sum())

    def certificate(T, zero_tol=False):
        if not zero_tol:
            return infeasibility_certificate(frame, c, T)
        return T if numerical_rank(frame.columns(T)) < float(c[T].sum()) else None

    def step(z, T, gamma):
        return compute_update(frame, z, T, gamma, q=q)

    def shrink(z, gamma):
        return regularize(frame, z, gamma / (15.0 * n**2.5 * frame.d), cache=rho_cache)

    return _margin_loop(c, eps, config or SolverConfig(), measure, certificate, step, shrink,
                        log_range=True)
