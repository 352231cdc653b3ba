"""Step-size computation: Newton root finding seeded by a coarse spectral sum.

The target is an alpha with gamma/5 <= h(alpha) - h(1) <= gamma. When the
proxy is already steep at 1 a single Newton step lands in the band.
Otherwise the solution lives near gamma / (sum of small eigenvalues), and
that sum is estimated without any eigendecomposition: round the trace to
count the large eigenvalues, pick a representative column subset D, and
measure the leverage mass left outside its span. D is a 2-approximate
local maximizer of the kernel determinant: a column-pivoted QR gives the
greedy start, and swaps are priced in closed form off a thin QR of the
chosen columns. Everything is read off the iterate's thin orthonormal
factor Q, which also gives the leverage scores and h(1); no Cholesky and
no kernel matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    DerivativeVanished,
    FactorizationFailure,
    GuessPreconditionViolated,
    IterationCapExceeded,
    PreconditionViolated,
)
# gram_context and logdet_psd stay module attributes: perfbench/spans.py
# wraps them here, though no update path calls either.
from .linalg import (_EPS, Frame, gram_context, logdet_psd,  # noqa: F401
                     numerical_rank, orthonormal_factor)
from .solver import ProxyContext

DERIVATIVE_FLOOR = 1e-14
# A swap must at least double det X_D^T X_D, less a log-space slack of 1e-12.
SWAP_GAIN = math.exp(math.log(2.0) - 1e-12)


@dataclass
class NDProblem:
    """Root-band problem for an increasing concave differentiable f."""

    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    alpha0: float
    b_low: float
    b_high: float
    max_iters: int

    def __post_init__(self):
        if not self.b_low < self.b_high:
            raise ValueError("need b_low < b_high")
        if self.f(self.alpha0) > self.b_high + 1e-9:
            raise ValueError("starting guess already overshoots b_high")


@dataclass(frozen=True)
class NDResult:
    alpha: float
    value: float
    n_iters: int
    iterates: tuple = ()


def newton_dinkelbach(problem: NDProblem) -> NDResult:
    """Drive f into [b_low, b_high] with steps alpha += (b_high - f)/f'.

    Returns alpha0 untouched when f(alpha0) >= b_low already. Concavity
    guarantees every post-step value stays <= b_high; the Bregman potential
    argument puts the iteration count at O(log) of the initial divergence.
    """
    alpha = problem.alpha0
    val = problem.f(alpha)
    iterates = [alpha]
    t = 0
    while val < problem.b_low:
        if t >= problem.max_iters:
            raise IterationCapExceeded(
                f"Newton-Dinkelbach did not converge in {problem.max_iters} steps"
            )
        slope = problem.f_prime(alpha)
        if slope <= DERIVATIVE_FLOOR:
            raise DerivativeVanished(
                f"derivative {slope:g} at alpha={alpha!r}; target band unreachable"
            )
        alpha = alpha + (problem.b_high - val) / slope
        val = problem.f(alpha)
        iterates.append(alpha)
        t += 1
    return NDResult(alpha=alpha, value=val, n_iters=t, iterates=tuple(iterates))


def nd_iteration_cap(n: int, d: int) -> int:
    return math.ceil(12.0 * math.log2(max(n * d, 2))) + 8


@dataclass(frozen=True)
class EigenSumEstimate:
    """Overestimate of the sum of eigenvalues below 1/2.

    mu_tilde lies within a (1 + 8 n d^2) factor of the true small-eigenvalue
    sum; p counts the large eigenvalues; D is the representative column
    subset (empty in the edge cases).
    """

    mu_tilde: float
    p: int
    D: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))


def _round_half_away(x: float) -> int:
    frac = x - math.floor(x)
    if frac == 0.5:
        raise PreconditionViolated(
            f"trace {x!r} is exactly half-integral; inputs violate the gap condition"
        )
    return math.floor(x + 0.5)


def approx_small_eigen_sum(frame: Frame, z, T,
                           q: np.ndarray | None = None) -> EigenSumEstimate:
    """Estimate the small-eigenvalue sum of U_T Z_T U_T^T (UZU^T)^{-1}.

    Requires the gapped regime sum mu_i (1 - mu_i) < 1/4, under which the
    nearest integer to the trace equals the number of eigenvalues >= 1/2.
    ``q`` is ``orthonormal_factor(frame, z)``, factored here when None.
    mu_tilde is ||Q_T (I - W W^T)||_F^2 with W the thin Q of Q_D^T: the
    leverage mass of T outside the span of the chosen columns D, summed
    directly rather than as a difference. Raises FactorizationFailure when
    Q_D is numerically rank-deficient.
    """
    T = np.asarray(T, dtype=np.intp)
    if q is None:
        q = orthonormal_factor(frame, z)
    ctx = ProxyContext(frame, z, T, q=q)
    if ctx.h_prime(1.0) >= 0.25:
        raise PreconditionViolated("spectrum not gapped: sum mu(1-mu) >= 1/4")
    trace = ctx.h(1.0)
    p = _round_half_away(trace)
    rank_t = numerical_rank(frame.columns(T))
    if p > rank_t:
        raise PreconditionViolated(f"rounded trace {p} exceeds rk(U_T)={rank_t}")
    if p == rank_t:
        return EigenSumEstimate(mu_tilde=0.0, p=p)
    if p == 0:
        return EigenSumEstimate(mu_tilde=trace, p=0)
    D = det_local_opt(frame, z, T, p, rank_t=rank_t, q=q)
    w, r = np.linalg.qr(q[D].T)
    rdiag = np.abs(np.diag(r))
    if rdiag.min() <= p * _EPS * rdiag.max():
        raise FactorizationFailure("projector block singular in eigen-sum guess")
    rest = q[T] - (q[T] @ w) @ w.T
    return EigenSumEstimate(mu_tilde=float(np.einsum("ij,ij->", rest, rest)), p=p, D=D)


def det_local_opt(frame: Frame, z, T, p: int, rank_t: int | None = None,
                  q: np.ndarray | None = None) -> np.ndarray:
    """Pivoted-QR greedy, then swaps: a 2-approximate determinant maximizer.

    Maximizes principal minors of the T-block kernel sqrt(Z) U^T (UZU^T)^{-1}
    U sqrt(Z) = X^T X, with X = Q_T^T read off the thin orthonormal factor
    ``q = orthonormal_factor(frame, z)`` (factored here when None); the
    kernel's trace is h(1) and the kernel itself is never formed. Ties go
    to the smallest index (pair) so reruns are reproducible. A caller that
    holds rk(U_T) passes it as ``rank_t``.
    """
    T = np.asarray(T, dtype=np.intp)
    if rank_t is None:
        rank_t = numerical_rank(frame.columns(T))
    if not 0 < p < rank_t:
        raise PreconditionViolated(f"need 0 < p < rk(U_T), got p={p}, rk={rank_t}")
    if q is None:
        q = orthonormal_factor(frame, z)
    x = q[T].T
    trace = float(np.einsum("ij,ij->", x, x))
    if trace < p - 0.5:
        raise PreconditionViolated(f"trace {trace:g} below p - 1/2 = {p - 0.5:g}")
    chosen, _ = _det_local_opt_columns(x, p)
    return np.sort(T[chosen])


def _det_local_opt_columns(x: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Search over p-subsets D of the columns of x; returns (sorted D, swap count).

    The greedy is column-pivoted QR: each pivot is the column farthest from
    the span of the earlier ones, i.e. the one that grows det X_D^T X_D the
    most. With x_j = X_D a_j + r_j and r_j orthogonal to span X_D, swapping
    chosen i for outside j multiplies that determinant by a_ij^2 +
    ((X_D^T X_D)^{-1})_ii ||r_j||^2, so one thin QR of X_D prices every
    swap; the row-major argmax takes the smallest (i, j) among ties.
    """
    r, piv = scipy.linalg.qr(x, mode="r", pivoting=True, check_finite=False)
    if abs(r[p - 1, p - 1]) <= p * _EPS * abs(r[0, 0]):
        raise FactorizationFailure("greedy pivot vanished in determinant search")
    chosen, swaps = np.sort(piv[:p]), 0
    while True:
        outside = np.setdiff1d(np.arange(x.shape[1]), chosen)
        w, rd = np.linalg.qr(x[:, chosen])
        proj = w.T @ x[:, outside]
        a = scipy.linalg.solve_triangular(rd, proj)
        rd_inv = scipy.linalg.solve_triangular(rd, np.eye(p))
        resid = x[:, outside] - w @ proj
        gain = a * a + np.outer(np.einsum("ij,ij->i", rd_inv, rd_inv),
                                np.einsum("ij,ij->j", resid, resid))
        i, j = np.unravel_index(np.argmax(gain), gain.shape)
        if not gain[i, j] > SWAP_GAIN:
            return chosen, swaps
        chosen = np.sort(np.append(np.delete(chosen, i), outside[j]))
        swaps += 1


@dataclass(frozen=True)
class UpdateResult:
    alpha: float
    h_gain: float
    nd_iters: int
    hp_one: float
    seeded: bool  # True when the eigen-sum guess supplied the start point


def compute_update(frame: Frame, z, T, gamma: float,
                   q: np.ndarray | None = None) -> UpdateResult:
    """Find alpha >= 1 with gamma/5 <= h(alpha) - h(1) <= gamma.

    Assumes the rank check already ruled T out as a certificate, so the
    band is reachable. Seeds at 1 when h'(1) >= gamma/4 (one Newton step
    then suffices); otherwise at 1 + gamma / (2 mu_tilde). ``q`` is the
    iterate's ``orthonormal_factor(frame, z)`` when the caller has it; the
    proxy then reads h(1) and h'(1) off it instead of factoring again.
    """
    if not 0.0 < gamma <= 1.0 + 1e-12:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    ctx = ProxyContext(frame, z, T, q=q)
    h1 = ctx.h(1.0)
    hp1 = ctx.h_prime(1.0)
    seeded = False
    if hp1 >= gamma / 4.0:
        alpha0 = 1.0
    else:
        if hp1 >= 0.25:
            raise GuessPreconditionViolated(
                f"h'(1)={hp1:g} >= 1/4 in the guess branch; gamma={gamma!r} invalid"
            )
        est = approx_small_eigen_sum(frame, z, T, q=q)
        if est.mu_tilde <= 0.0:
            raise GuessPreconditionViolated(
                "small-eigenvalue sum estimate is 0; T should have certified infeasibility"
            )
        alpha0 = 1.0 + gamma / (2.0 * est.mu_tilde)
        # Roundoff in mu_tilde can push the seed just past the band; pull it
        # back toward 1 (analysis guarantees the clean seed never overshoots).
        for _ in range(200):
            if ctx.h(alpha0) <= h1 + gamma + 1e-9:
                break
            alpha0 = 1.0 + (alpha0 - 1.0) / 2.0
        else:
            raise GuessPreconditionViolated("seed never entered the target band")
        seeded = True
    problem = NDProblem(
        f=ctx.h,
        f_prime=ctx.h_prime,
        alpha0=alpha0,
        b_low=h1 + gamma / 5.0,
        b_high=h1 + gamma,
        max_iters=nd_iteration_cap(frame.n, frame.d),
    )
    res = newton_dinkelbach(problem)
    return UpdateResult(
        alpha=res.alpha,
        h_gain=res.value - h1,
        nd_iters=res.n_iters,
        hp_one=hp1,
        seeded=seeded,
    )
