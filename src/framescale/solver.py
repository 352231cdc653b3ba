"""Iterative frame scaling: margin sets, step-size proxy, the margin loop.

The solver keeps the square of the right scaling as a positive vector z and
leaves the isotropizing left scaling (UZU^T)^{-1/2} implicit. Each iteration
scales up the prefix set with the largest sorted-error gap, with the step
size chosen so that the leverage mass moved into the set lands in a band
proportional to the margin. The loop either drives ||lev(z) - c||^2 below
eps^2 or stops with a subset T certifying infeasibility. The same loop
drives the matrix solver in ``matrixscale``, which supplies its own
marginals, certificate, step and shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateMargin, IterationCapExceeded, ScalingError
# leverage_scores stays a module attribute here for callers that look it up
# on this module; the loop reads leverage off the iterate's factor instead.
from .linalg import (  # noqa: F401
    Frame,
    _thin_q,
    leverage_scores,
    numerical_rank,
    orthonormal_factor,
    validate_scaling,
)

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
    if abs(total) > 1e-8 * max(1.0, float(np.abs(c).sum())):
        raise ValueError(f"lev - c must sum to 0, got {total!r}")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    gaps = xs[1:] - xs[:-1]
    k = int(np.argmax(gaps))  # first maximum: smallest cut wins ties
    gamma = float(gaps[k]) / 2.0
    nu = float(xs[k] + xs[k + 1]) / 2.0
    if gamma == 0.0 and float(np.abs(x).max()) > 0.0:
        raise DegenerateMargin("zero margin on a nonzero error vector")
    return MarginSet(order=order, k=k + 1, gamma=gamma, nu=nu)


class ProxyContext:
    """Step-size proxy h for uniformly scaling up the columns in T.

    h(alpha) is the total leverage mass of T after multiplying z on T by
    alpha; it is increasing and concave with h(1) the current mass and
    lim h = rk(U_T). Both h and h' come from the thin orthonormal factor Q
    of the alpha-scaled frame: with P the Gram of the T-rows of Q,
    h = tr P and h' = (tr P - ||P||_F^2) / alpha. The QR route stays
    accurate out to extreme alpha where forming the shifted Gram directly
    loses the small subspace.

    At alpha = 1 the scaled frame is the iterate itself, so a caller that
    already holds ``q = orthonormal_factor(frame, z)`` passes it and h(1),
    h'(1) are read off it with no further QR. Without q, every alpha
    (1 included) is factored on demand. Each evaluation is cached for the
    last alpha asked.
    """

    def __init__(self, frame: Frame, z, T, q: np.ndarray | None = None):
        z = validate_scaling(z, frame.n)
        self.frame = frame
        self.z = z
        self.T = np.asarray(T, dtype=np.intp)
        if self.T.size == 0 or self.T.size >= frame.n:
            raise ValueError("T must be a nonempty proper subset of the columns")
        mask = np.zeros(frame.n, dtype=bool)
        mask[self.T] = True
        self._mask = mask
        self._cache_alpha = None
        self._cache_vals = None
        if q is not None:
            self._cache_alpha = 1.0
            self._cache_vals = self._values(q, 1.0)

    def _values(self, q: np.ndarray, alpha: float) -> tuple[float, float]:
        qt = q[self._mask, :]
        p = qt.T @ qt
        h = float(np.trace(p))
        hp = (h - float((p * p).sum())) / alpha
        return h, max(hp, 0.0)

    def _evaluate(self, alpha: float) -> tuple[float, float]:
        if alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha!r}")
        if self._cache_alpha == alpha:
            return self._cache_vals
        w = self.z.copy()
        w[self._mask] *= alpha
        self._cache_vals = self._values(_thin_q(self.frame, w), alpha)
        self._cache_alpha = alpha
        return self._cache_vals

    def h(self, alpha: float) -> float:
        return self._evaluate(alpha)[0]

    def h_prime(self, alpha: float) -> float:
        return self._evaluate(alpha)[1]


class RankCache:
    """Memoizes rk(U_T) per index set within one solve.

    The rank depends on the frame and the set, not on the scaling, and the
    margin sets of a solve recur. A miss computes the rank on the columns
    in sorted order.
    """

    def __init__(self, frame: Frame):
        self.frame = frame
        self._values: dict[bytes, int] = {}

    def rank(self, T) -> int:
        T = np.sort(np.asarray(T, dtype=np.intp))
        key = T.astype(np.int64).tobytes()
        val = self._values.get(key)
        if val is None:
            val = numerical_rank(self.frame.columns(T))
            self._values[key] = val
        return val


def infeasibility_certificate(frame: Frame, c, T,
                              ranks: RankCache | None = None) -> np.ndarray | None:
    """Return T as a certificate iff rk(U_T) < <c, 1_T> beyond tolerance.

    With ``ranks`` the rank comes from that cache (computed on the columns
    in sorted order); otherwise it is computed on the columns of T as given.
    """
    T = np.asarray(T, dtype=np.intp)
    if T.size == 0 or T.size > frame.n:
        raise ValueError("T must be a nonempty subset")
    c = np.asarray(c, dtype=np.float64)
    mass = float(c[T].sum())
    if ranks is None:
        rank = numerical_rank(frame.columns(T))
    else:
        rank = ranks.rank(T)
    if rank < mass - CERTIFICATE_TOL:
        return np.sort(T)
    return None


@dataclass
class SolverConfig:
    """Knobs for the main loop; defaults match the analysed algorithm."""

    max_iters: int | None = None
    regularize: bool = True
    collect_trace: bool = True

    def iteration_cap(self, n: int, eps: float) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return math.ceil(40.0 * n**3 * math.log(max(n, 2) / eps))


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration measurements; error_sq is the value before the step."""

    error_sq: float
    gamma: float
    alpha_hat: float
    h_gain: float
    progress: float
    nd_iters: int
    regularized: bool
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


def _margin_loop(c: np.ndarray, eps: float, config: SolverConfig, measure, certificate,
                 step, shrink, log_range: bool = False) -> ScalingResult:
    """The margin loop shared by the frame and the matrix solver.

    ``measure(z)`` gives the marginals of z and their squared error against
    c, ``certificate(T)`` a certificate or None, ``step(z, T, gamma)`` an
    ``UpdateResult`` or None when the step itself proves T infeasible, and
    ``shrink(z, gamma)`` the regularized z. With ``log_range`` the trace
    records ||log z||_inf. A ScalingError leaving the loop carries the trace.
    """
    n = c.shape[0]
    eps_sq = eps * eps
    cap = config.iteration_cap(n, eps)
    z = np.ones(n)
    marginals, err_sq = measure(z)
    trace: list[IterationRecord] = []
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
            cert = certificate(T)
            if cert is None:
                upd = step(z, T, ms.gamma)
                if upd is None:
                    cert = np.sort(T)
            if cert is not None:
                return ScalingResult(
                    status=INFEASIBLE, scaling=None, certificate=cert,
                    iterations=it, final_error_sq=err_sq, trace=trace,
                )
            z = z.copy()
            z[T] *= upd.alpha
            if config.regularize:
                z = shrink(z, ms.gamma)
            z = z / z.min()
            marginals, new_err_sq = measure(z)
            if config.collect_trace:
                trace.append(IterationRecord(
                    error_sq=err_sq, gamma=ms.gamma, alpha_hat=upd.alpha, h_gain=upd.h_gain,
                    progress=err_sq - new_err_sq, nd_iters=upd.nd_iters,
                    regularized=config.regularize, hp_one=upd.hp_one,
                    log_z_inf=float(np.abs(np.log(z)).max()) if log_range else math.nan,
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
        Iteration cap, regularization switch, trace collection.

    Returns
    -------
    ScalingResult
        Either status "scaled" with a positive scaling vector normalized to
        min 1, or status "infeasible" with a column subset T whose marginal
        mass exceeds rk(U_T).

    Raises
    ------
    IterationCapExceeded
        If the cap is hit; signals numerical breakdown. Like every
        ScalingError raised inside the loop, it carries the trace so far.
    """
    from .regularize import RhoCache, regularize
    from .update import compute_update

    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if marginals.d != frame.d or marginals.n != frame.n:
        raise ValueError("marginals do not match frame dimensions")
    config = config or SolverConfig()
    n = frame.n
    c = marginals.values
    rho_cache = RhoCache(frame) if config.regularize else None
    ranks = RankCache(frame)
    q = None

    # q is the current iterate's thin orthonormal factor: it gives the
    # leverage scores here and h(1), h'(1) to the step-size proxy.
    def measure(z):
        nonlocal q
        q = orthonormal_factor(frame, z)
        lev = np.einsum("ij,ij->i", q, q)
        return lev, float(((lev - c) ** 2).sum())

    def certificate(T):
        return infeasibility_certificate(frame, c, T, ranks=ranks)

    def step(z, T, gamma):
        return compute_update(frame, z, T, gamma, q=q)

    def shrink(z, gamma):
        return regularize(frame, z, gamma / (15.0 * n**2.5 * frame.d), cache=rho_cache)

    return _margin_loop(c, eps, config, measure, certificate, step, shrink, log_range=True)
