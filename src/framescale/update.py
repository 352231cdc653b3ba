"""Step-size computation: Newton root finding seeded by a coarse spectral sum.

The target is an alpha with gamma/5 <= h(alpha) - h(1) <= gamma, where
h(alpha) is the leverage mass of T after z is scaled by alpha on T. Each
step forms the d x d matrix P = Q_T^T Q_T once and reads h(1) and h'(1)
off it. When the proxy is already steep at 1 a single Newton step lands in
the band, with alpha - 1 <= 4, and h there is read in closed form off the
eigenvalues of P (LAPACK ``dsyevd``), so that step factors nothing.
Otherwise the solution lives near gamma / (sum of small eigenvalues), and
``approx_small_eigen_sum`` estimates that sum without any
eigendecomposition: round the trace to count the large eigenvalues, pick a
representative column subset D, and measure the leverage mass left outside
its span. D is a 2-approximate local maximizer of the kernel determinant:
a column-pivoted QR gives the greedy start, and swaps are priced in closed
form off a thin QR of the chosen columns. Newton then starts from the
seed, and ``proxy_at`` factors each trial alpha anew. The start is the
iterate's thin orthonormal factor Q, which also gives the leverage scores,
h(1) and P; no Cholesky and no kernel matrix is formed. Every thin QR here
is ``linalg._thin_qr`` (LAPACK ``dgeqrf`` and ``dorgqr``).

The step record ``UpdateResult`` that the margin loop reads lives in
``solver``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def proxy_at(frame: Frame, z, T, alpha: float) -> tuple[float, float]:
    """(h, h') at alpha of the step-size proxy for uniformly scaling up T.

    h(alpha) is the total leverage mass of T after multiplying z on T by
    alpha; it is increasing and concave with h(1) the current mass and
    lim h = rk(U_T). Both come from the thin orthonormal factor Q of the
    alpha-scaled frame: with P the Gram of the T-rows of Q, h = tr P and
    h' = (tr P - ||P||_F^2) / alpha. The QR route stays accurate out to
    extreme alpha where forming the shifted Gram directly loses the small
    subspace. Each call validates z and takes one thin QR; on a solve path
    only the guess branch of ``compute_update`` calls it, once per trial
    alpha.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha!r}")
    mask = _set_mask(frame.n, np.asarray(T, dtype=np.intp))
    w = validate_scaling(z, frame.n).copy()
    w[mask] *= alpha
    return _proxy_values(_set_gram(_scaled_qr(frame, w)[0], mask), alpha)


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
    trace, hp1 = _proxy_values(_set_gram(q, _set_mask(frame.n, T)), 1.0)
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
    no QR. Otherwise Newton starts at 1 + gamma / (2 mu_tilde), with
    mu_tilde from ``approx_small_eigen_sum``; alpha is unbounded, and
    ``proxy_at`` factors each trial alpha once: the guess branch's closures
    keep the last (alpha, h, h'), starting from (1, h(1), h'(1)).
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
    est = approx_small_eigen_sum(frame, z, T, q=q)
    if est.mu_tilde <= 0.0:
        raise InfeasibleSegment(
            "small-eigenvalue sum estimate is 0; T should have certified infeasibility"
        )
    memo = [1.0, h1, hp1]  # (alpha, h, h') at the last alpha evaluated

    def at(alpha: float) -> list:
        if alpha != memo[0]:
            memo[:] = alpha, *proxy_at(frame, z, T, alpha)
        return memo

    def h(alpha: float) -> float:
        return at(alpha)[1]

    def h_prime(alpha: float) -> float:
        return at(alpha)[2]

    alpha0 = 1.0 + gamma / (2.0 * est.mu_tilde)
    # Roundoff in mu_tilde can push the seed just past the band; pull it
    # back toward 1 (analysis guarantees the clean seed never overshoots).
    for _ in range(200):
        if h(alpha0) <= h1 + gamma + 1e-9:
            break
        alpha0 = 1.0 + (alpha0 - 1.0) / 2.0
    else:
        raise GuessPreconditionViolated("seed never entered the target band")
    res = newton_dinkelbach(h, h_prime, alpha0, h1 + gamma / 5.0, h1 + gamma, cap)
    return UpdateResult(alpha=res.alpha, h_gain=res.value - h1, nd_iters=res.n_iters,
                        hp_one=hp1, seeded=True)
