"""Step-size computation: Newton root finding seeded by a coarse spectral sum.

The target is an alpha with gamma/5 <= h(alpha) - h(1) <= gamma. Each step
forms the d x d matrix P = Q_T^T Q_T once and reads h(1) and h'(1) off it.
When the proxy is already steep at 1 a single Newton step lands in the
band, with alpha - 1 <= 4, and h there is read in closed form off the
eigenvalues of P (LAPACK ``dsyevd``), so that step factors nothing and
builds no ``ProxyContext``.
Otherwise the solution lives near gamma / (sum of small eigenvalues), and
that sum is estimated without any eigendecomposition: round the trace to
count the large eigenvalues, pick a representative column subset D, and
measure the leverage mass left outside its span. D is a 2-approximate
local maximizer of the kernel determinant: a column-pivoted QR gives the
greedy start, and swaps are priced in closed form off a thin QR of the
chosen columns; each trial alpha is then factored anew. The start is the
iterate's thin orthonormal factor Q, which also gives the leverage scores,
h(1) and P; no Cholesky and no kernel matrix is formed. Every thin QR here
is ``linalg._thin_qr`` (LAPACK ``dgeqrf`` and ``dorgqr``).

This module owns the whole frame step and the proxy h of its guess branch
(``ProxyContext``, one per guess step); the step record ``UpdateResult``
that the margin loop reads lives in ``solver``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dsyevd

from .errors import (DerivativeVanished, FactorizationFailure, GuessPreconditionViolated,
                     InfeasibleSegment, IterationCapExceeded, PreconditionViolated)
# gram_context and logdet_psd stay module attributes: perfbench/spans.py
# wraps them here, though no update path calls either.
from .linalg import (_EPS, Frame, _require_full_rank, _scaled_qr, _thin_qr,  # noqa: F401
                     gram_context, logdet_psd, numerical_rank, orthonormal_factor,
                     validate_scaling)
from .solver import UpdateResult, step_gain

DERIVATIVE_FLOOR = 1e-14
# A swap must at least double det X_D^T X_D, less a log-space slack of 1e-12.
SWAP_GAIN = math.exp(math.log(2.0) - 1e-12)


class ProxyContext:
    """Step-size proxy h for uniformly scaling up the columns in T.

    h(alpha) is the total leverage mass of T after multiplying z on T by
    alpha; it is increasing and concave with h(1) the current mass and
    lim h = rk(U_T). Both h and h' come from the thin orthonormal factor Q
    of the alpha-scaled frame: with P the Gram of the T-rows of Q,
    h = tr P and h' = (tr P - ||P||_F^2) / alpha. The QR route stays
    accurate out to extreme alpha where forming the shifted Gram directly
    loses the small subspace.

    On a solve path this serves the guess branch of ``compute_update``
    only, whose trial alphas are unbounded and each factored anew; the
    steep step reads h off the spectrum of P without a context. At
    alpha = 1 the scaled frame is the iterate itself: a caller that
    already holds ``q = orthonormal_factor(frame, z)`` passes it, and
    otherwise it is factored here once. h(1) and h'(1) are read off it on
    first use; every other alpha is factored on demand and cached for the
    last alpha asked.

    z is validated where it is read, the first time a scaled frame is
    factored: here when q is None, else at the first alpha != 1. A q
    comes from ``orthonormal_factor``, which has validated its z.
    """

    def __init__(self, frame: Frame, z, T, q: np.ndarray | None = None):
        self.frame = frame
        self.z = z
        self.T = np.asarray(T, dtype=np.intp)
        self._mask = _set_mask(frame.n, self.T)
        self._q_one = q if q is not None else _scaled_qr(frame, self._scaling)[0]
        self._cache_alpha = None
        self._cache_vals = None

    @cached_property
    def _scaling(self) -> np.ndarray:
        """z, validated on first read."""
        return validate_scaling(self.z, self.frame.n)

    @cached_property
    def _at_one(self) -> tuple[float, float]:
        return _proxy_values(_set_gram(self._q_one, self._mask), 1.0)

    def _evaluate(self, alpha: float) -> tuple[float, float]:
        if alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha!r}")
        if alpha == 1.0:
            return self._at_one
        if self._cache_alpha == alpha:
            return self._cache_vals
        w = self._scaling.copy()
        w[self._mask] *= alpha
        self._cache_vals = _proxy_values(
            _set_gram(_scaled_qr(self.frame, w)[0], self._mask), alpha)
        self._cache_alpha = alpha
        return self._cache_vals

    def h(self, alpha: float) -> float:
        return self._evaluate(alpha)[0]

    def h_prime(self, alpha: float) -> float:
        return self._evaluate(alpha)[1]


def _set_mask(n: int, T: np.ndarray) -> np.ndarray:
    """Mask of the index array T over n columns; T must be a nonempty proper subset."""
    if T.size == 0 or T.size >= n:
        raise ValueError("T must be a nonempty proper subset of the columns")
    mask = np.zeros(n, dtype=bool)
    mask[T] = True
    return mask


def _set_gram(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """P = Q_T^T Q_T, the d x d Gram of the rows of q in the set, in index order."""
    qt = q[mask]
    return qt.T @ qt


def _proxy_values(p: np.ndarray, alpha: float) -> tuple[float, float]:
    """(h, h') at alpha off the P of the alpha-scaled frame."""
    h = float(p.trace())
    hp = (h - float((p * p).sum())) / alpha
    return h, max(hp, 0.0)


@dataclass(frozen=True)
class NDResult:
    alpha: float
    value: float
    n_iters: int


def newton_dinkelbach(f: Callable[[float], float], f_prime: Callable[[float], float],
                      alpha0: float, b_low: float, b_high: float, max_iters: int) -> NDResult:
    """Drive an increasing concave f into [b_low, b_high] by alpha += (b_high - f)/f'.

    Returns alpha0 untouched when f(alpha0) >= b_low already. Raises
    ValueError unless b_low < b_high and f(alpha0) does not overshoot
    b_high. Concavity guarantees every post-step value stays <= b_high; the
    Bregman potential argument puts the iteration count at O(log) of the
    initial divergence.
    """
    if not b_low < b_high:
        raise ValueError("need b_low < b_high")
    alpha = alpha0
    val = f(alpha)
    if val > b_high + 1e-9:
        raise ValueError("starting guess already overshoots b_high")
    t = 0
    while val < b_low:
        if t >= max_iters:
            raise IterationCapExceeded(
                f"Newton-Dinkelbach did not converge in {max_iters} steps"
            )
        slope = f_prime(alpha)
        if slope <= DERIVATIVE_FLOOR:
            raise DerivativeVanished(
                f"derivative {slope:g} at alpha={alpha!r}; target band unreachable"
            )
        alpha = alpha + (b_high - val) / slope
        val = f(alpha)
        t += 1
    return NDResult(alpha=alpha, value=val, n_iters=t)


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
    directly rather than as a difference. The search for D runs on the
    columns of T in sorted order, so its last thin QR is that of Q_D^T and
    W is read off it. Raises FactorizationFailure when Q_D is numerically
    rank-deficient.
    """
    T = np.asarray(T, dtype=np.intp)
    if q is None:
        q = orthonormal_factor(frame, z)
    h1, hp1 = _proxy_values(_set_gram(q, _set_mask(frame.n, T)), 1.0)
    return _small_eigen_sum(frame, T, q, h1, hp1)


def _small_eigen_sum(frame: Frame, T: np.ndarray, q: np.ndarray, trace: float,
                     hp1: float) -> EigenSumEstimate:
    """``approx_small_eigen_sum`` given h(1) = ``trace`` and h'(1) = ``hp1`` off P."""
    if hp1 >= 0.25:
        raise PreconditionViolated("spectrum not gapped: sum mu(1-mu) >= 1/4")
    p = _round_half_away(trace)
    rank_t = numerical_rank(frame.columns(T))
    if p > rank_t:
        raise PreconditionViolated(f"rounded trace {p} exceeds rk(U_T)={rank_t}")
    if p == rank_t:
        return EigenSumEstimate(mu_tilde=0.0, p=p)
    if p == 0:
        return EigenSumEstimate(mu_tilde=trace, p=0)
    D, w, rd = _det_search(np.sort(T), p, q)
    _require_full_rank(rd, "projector block singular in eigen-sum guess")
    rest = q[T] - (q[T] @ w) @ w.T
    return EigenSumEstimate(mu_tilde=float(np.einsum("ij,ij->", rest, rest)), p=p, D=D)


def det_local_opt(frame: Frame, z, T, p: int, q: np.ndarray | None = None) -> np.ndarray:
    """Pivoted-QR greedy, then swaps: a 2-approximate determinant maximizer.

    Maximizes principal minors of the T-block kernel sqrt(Z) U^T (UZU^T)^{-1}
    U sqrt(Z) = X^T X, with X = Q_T^T read off the thin orthonormal factor
    ``q = orthonormal_factor(frame, z)`` (factored here when None); the
    kernel's trace is h(1) and the kernel itself is never formed. Ties go
    to the smallest index (pair) so reruns are reproducible.
    """
    T = np.asarray(T, dtype=np.intp)
    rank_t = numerical_rank(frame.columns(T))
    if not 0 < p < rank_t:
        raise PreconditionViolated(f"need 0 < p < rk(U_T), got p={p}, rk={rank_t}")
    if q is None:
        q = orthonormal_factor(frame, z)
    return _det_search(T, p, q)[0]


def _det_search(T: np.ndarray, p: int,
                q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``det_local_opt`` for 0 < p < rk(U_T) on the rows T of q; returns (D, W, R).

    (W, R) is the search's last thin QR, of the chosen columns of Q_T^T
    taken in the order of T (R in its upper triangle), so for sorted T it is
    the thin QR of Q_D^T.
    """
    x = q[T].T
    trace = float(np.einsum("ij,ij->", x, x))
    if trace < p - 0.5:
        raise PreconditionViolated(f"trace {trace:g} below p - 1/2 = {p - 0.5:g}")
    chosen, _, w, rd = _det_local_opt_columns(x, p)
    return np.sort(T[chosen]), w, rd


def _det_local_opt_columns(x: np.ndarray,
                           p: int) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Search over p-subsets D of the columns of x; returns (sorted D, swap
    count, W, R) with (W, R) the thin QR of x[:, D], R in the upper triangle.

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
        w, rd = _thin_qr(x[:, chosen])  # the solves read only rd's upper triangle
        proj = w.T @ x[:, outside]
        a = scipy.linalg.solve_triangular(rd, proj)
        rd_inv = scipy.linalg.solve_triangular(rd, np.eye(p))
        resid = x[:, outside] - w @ proj
        gain = a * a + np.outer(np.einsum("ij,ij->i", rd_inv, rd_inv),
                                np.einsum("ij,ij->j", resid, resid))
        i, j = np.unravel_index(np.argmax(gain), gain.shape)
        if not gain[i, j] > SWAP_GAIN:
            return chosen, swaps, w, rd
        chosen = np.sort(np.append(np.delete(chosen, i), outside[j]))
        swaps += 1


def compute_update(frame: Frame, z, T, gamma: float,
                   q: np.ndarray | None = None) -> UpdateResult:
    """Find alpha >= 1 with gamma/5 <= h(alpha) - h(1) <= gamma.

    Expects a T the rank check did not certify. Where the guess branch finds
    mu_tilde <= 0, the gain's supremum rk(U_T) - h(1) is below gamma, so it
    raises InfeasibleSegment for the margin loop's zero-tolerance check.
    ``q`` is the iterate's ``orthonormal_factor(frame, z)``, factored here
    when None; P = Q_T^T Q_T is formed from it once, with h(1) = tr P and
    h'(1) = tr P - ||P||_F^2. When h'(1) >= gamma/4 one Newton step from 1
    reaches the band, with alpha - 1 <= 4, and h is read off the eigenvalues
    mu of P (``dsyevd``, as in numpy's eigvalsh): h(alpha) - h(1) is
    ``solver.step_gain`` with w = mu (1 - mu), and h'(alpha) =
    sum w / (1 + (alpha - 1) mu)^2, a form for bounded alpha - 1 that takes
    no QR. Otherwise the seed is 1 + gamma / (2 mu_tilde), alpha is
    unbounded, and a ``ProxyContext`` factors every trial alpha.
    """
    if not 0.0 < gamma <= 1.0 + 1e-12:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    if q is None:
        q = orthonormal_factor(frame, z)
    T = np.asarray(T, dtype=np.intp)
    p = _set_gram(q, _set_mask(frame.n, T))
    h1, hp1 = _proxy_values(p, 1.0)
    cap = nd_iteration_cap(frame.n, frame.d)
    if hp1 >= gamma / 4.0:
        mu, _, info = dsyevd(p, compute_v=0, lower=1)
        if info != 0:
            raise FactorizationFailure(f"LAPACK dsyevd failed on P (info={info})")
        w = mu * (1.0 - mu)
        gain = [0.0]  # the gain at the last alpha != 1 that Newton evaluated

        def h(alpha: float) -> float:
            if alpha == 1.0:
                return h1
            gain[0] = step_gain(mu, w, alpha)
            return h1 + gain[0]

        def h_prime(alpha: float) -> float:
            return hp1 if alpha == 1.0 else float((w / (1.0 + (alpha - 1.0) * mu) ** 2).sum())

        res = newton_dinkelbach(h, h_prime, 1.0, h1 + gamma / 5.0, h1 + gamma, cap)
        # Newton evaluates h last at the alpha it returns, unless it took no step.
        h_gain = gain[0] if res.n_iters else step_gain(mu, w, res.alpha)
        return UpdateResult(alpha=res.alpha, h_gain=h_gain, nd_iters=res.n_iters,
                            hp_one=hp1, seeded=False)
    if hp1 >= 0.25:
        raise GuessPreconditionViolated(
            f"h'(1)={hp1:g} >= 1/4 in the guess branch; gamma={gamma!r} invalid"
        )
    est = _small_eigen_sum(frame, T, q, h1, hp1)
    if est.mu_tilde <= 0.0:
        raise InfeasibleSegment(
            "small-eigenvalue sum estimate is 0; T should have certified infeasibility"
        )
    ctx = ProxyContext(frame, z, T, q=q)
    alpha0 = 1.0 + gamma / (2.0 * est.mu_tilde)
    # Roundoff in mu_tilde can push the seed just past the band; pull it
    # back toward 1 (analysis guarantees the clean seed never overshoots).
    for _ in range(200):
        if ctx.h(alpha0) <= h1 + gamma + 1e-9:
            break
        alpha0 = 1.0 + (alpha0 - 1.0) / 2.0
    else:
        raise GuessPreconditionViolated("seed never entered the target band")
    res = newton_dinkelbach(ctx.h, ctx.h_prime, alpha0, h1 + gamma / 5.0, h1 + gamma, cap)
    return UpdateResult(alpha=res.alpha, h_gain=res.value - h1, nd_iters=res.n_iters,
                        hp_one=hp1, seeded=True)
