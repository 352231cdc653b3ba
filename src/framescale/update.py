"""Step-size computation: Newton root finding seeded by a coarse spectral sum.

The target is an alpha with gamma/5 <= h(alpha) - h(1) <= gamma. When the
proxy is already steep at 1 a single Newton step lands in the band.
Otherwise the solution lives near gamma / (sum of small eigenvalues), and
that sum is estimated without any eigendecomposition: round the trace to
count the large eigenvalues, pick a representative column subset by a
greedy-plus-swaps determinant search, and measure the leverage mass left
outside its span.
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
from .linalg import Frame, GramContext, gram_context, logdet_psd, numerical_rank
from .solver import ProxyContext

DERIVATIVE_FLOOR = 1e-14
LOG_SWAP_GAIN = math.log(2.0)
LOG_SWAP_SLACK = 1e-12


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


def _kernel_matrix(frame: Frame, z, T, ctx=None):
    """K[i, j] = sqrt(z_i z_j) u_i^T (UZU^T)^{-1} u_j over i, j in T."""
    if ctx is None:
        ctx = gram_context(frame, z)
    ut = frame.columns(T)
    s = ctx.solve(ut)
    k = ut.T @ s
    k = 0.5 * (k + k.T)
    root = np.sqrt(ctx.z[T])
    return k * np.outer(root, root)


def approx_small_eigen_sum(frame: Frame, z, T,
                           q: np.ndarray | None = None) -> EigenSumEstimate:
    """Estimate the small-eigenvalue sum of U_T Z_T U_T^T (UZU^T)^{-1}.

    Requires the gapped regime sum mu_i (1 - mu_i) < 1/4, under which the
    nearest integer to the trace equals the number of eigenvalues >= 1/2.
    ``q`` is the optional ``orthonormal_factor(frame, z)``, as in
    ``compute_update``.
    """
    T = np.asarray(T, dtype=np.intp)
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
    gctx = gram_context(frame, z)
    D = det_local_opt(frame, z, T, p, rank_t=rank_t, ctx=gctx)
    ud = frame.columns(D) * np.sqrt(gctx.z[D])
    s = gctx.solve(ud)                    # (UZU^T)^{-1} U_D sqrt(Z_D)
    k = ud.T @ s                          # p x p Gram of projected columns
    k = 0.5 * (k + k.T)
    mask = np.zeros(frame.n, dtype=bool)
    mask[T] = True
    um = frame.columns(mask) * np.sqrt(gctx.z[mask])
    st = gctx.solve(um)
    # tr[P M_T G^{-1}] with P the oblique projector onto span(U_D):
    # reduces to tr[K^{-1} (S^T M_T S)] over the D block.
    b = (s.T @ um) @ (um.T @ s)
    try:
        chol = scipy.linalg.cho_factor(k, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationFailure("projector block singular in eigen-sum guess") from exc
    projected = float(np.trace(scipy.linalg.cho_solve(chol, b, check_finite=False)))
    total = float(np.einsum("ij,ij->", um, st))
    return EigenSumEstimate(mu_tilde=max(total - projected, 0.0), p=p, D=D)


def det_local_opt(frame: Frame, z, T, p: int, rank_t: int | None = None,
                  ctx: GramContext | None = None) -> np.ndarray:
    """Greedy-then-swap search for a 2-approximate determinant maximizer.

    Works on principal minors of the T-block kernel sqrt(Z) U^T (UZU^T)^{-1}
    U sqrt(Z); all comparisons run in log space. Ties go to the smallest
    index (pair) so reruns are reproducible. Callers that hold rk(U_T) or
    ``gram_context(frame, z)`` pass them as ``rank_t`` and ``ctx``.
    """
    T = np.asarray(T, dtype=np.intp)
    if rank_t is None:
        rank_t = numerical_rank(frame.columns(T))
    if not 0 < p < rank_t:
        raise PreconditionViolated(f"need 0 < p < rk(U_T), got p={p}, rk={rank_t}")
    kernel = _kernel_matrix(frame, z, T, ctx)
    trace = float(np.trace(kernel))
    if trace < p - 0.5:
        raise PreconditionViolated(f"trace {trace:g} below p - 1/2 = {p - 0.5:g}")
    chosen, _ = _det_local_opt_kernel(kernel, p)
    return np.sort(T[np.asarray(chosen, dtype=np.intp)])


def _det_local_opt_kernel(kernel: np.ndarray, p: int) -> tuple[list[int], int]:
    """Core search on a PSD kernel; returns (indices, swap count)."""
    t_size = kernel.shape[0]

    def logdet_of(sel: list[int]) -> float:
        return logdet_psd(kernel[np.ix_(sel, sel)])

    chosen: list[int] = []
    remaining = list(range(t_size))
    for _ in range(p):
        best_i, best_val = None, -math.inf
        for i in remaining:
            val = logdet_of(chosen + [i])
            if val > best_val:
                best_i, best_val = i, val
        if best_i is None:
            raise FactorizationFailure("all greedy extensions are singular")
        chosen.append(best_i)
        remaining.remove(best_i)
        chosen.sort()
    current = logdet_of(chosen)

    swaps = 0
    while True:
        best_pair, best_val = None, -math.inf
        outside = [j for j in range(t_size) if j not in chosen]
        for i in chosen:
            for j in outside:
                cand = sorted(set(chosen) - {i} | {j})
                val = logdet_of(cand)
                if val > best_val:
                    best_pair, best_val = (i, j), val
        if best_pair is None or best_val <= current + LOG_SWAP_GAIN - LOG_SWAP_SLACK:
            break
        i, j = best_pair
        chosen = sorted(set(chosen) - {i} | {j})
        current = best_val
        swaps += 1
    return chosen, swaps


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
