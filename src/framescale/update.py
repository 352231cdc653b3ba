"""Step-size computation: Newton root finding seeded by a coarse spectral sum.

The target is an alpha with gamma/5 <= h(alpha) - h(1) <= gamma, where
h(alpha) is the leverage mass of T after z is scaled by alpha on T. Each
step forms the d x d matrix P = Q_T^T Q_T once and reads h(1) and h'(1)
off it. When the proxy is already steep at 1 the step is a single Newton
step from 1, written out in closed form: it lands in the band, with
alpha - 1 <= 4, and h there is read off the eigenvalues of P, so that
step factors nothing and runs no Newton loop.
Otherwise the solution lives near gamma / (sum of small eigenvalues), and
``approx_small_eigen_sum`` estimates that sum without any
eigendecomposition: round the trace to count the large eigenvalues, pick a
representative column subset D, and measure the leverage mass left outside
its span. D is a 2-approximate local maximizer of the kernel determinant:
a column-pivoted QR gives the greedy start, and swaps are priced in closed
form off a thin QR of the chosen columns. Newton then starts from the
seed, pulling it back toward 1 should roundoff put it past the band, and
reads (h, h') at each trial alpha off one ``proxy_at`` call, one thin QR;
this guess branch is the only caller of ``newton_dinkelbach``. The start
is the iterate's thin orthonormal factor Q, which also gives the leverage
scores, h(1) and P; no Cholesky and no kernel matrix is formed. Every
factorization, eigensolve and triangular solve here goes through
``linalg``, the one module that calls LAPACK.

The step record ``UpdateResult`` that the margin loop reads lives in
``solver``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DegenerateMargin, DerivativeVanished, FactorizationFailure,
                     GuessPreconditionViolated, InfeasibleSegment, IterationCapExceeded,
                     PreconditionViolated)
# gram_context and logdet_psd stay module attributes: perfbench/spans.py
# wraps them here, though no update path calls either.
from .linalg import (_EPS, Frame, _column_mask, _pivoted_qr, _require_full_rank,  # noqa: F401
                     _scaled_qr, _solve_r, _symmetric_eigenvalues, _thin_qr, gram_context,
                     logdet_psd, numerical_rank, orthonormal_factor, validate_scaling)
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
    subspace. Each call validates z once and takes one thin QR; on a solve
    path only the guess branch of ``compute_update`` calls it, once per
    trial alpha. T must pass ``linalg._column_mask`` as a proper subset,
    whose mask picks the rows scaled and those of P; alpha must be finite.
    """
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be a finite number >= 1, got {alpha!r}")
    mask = _column_mask(T, frame.n, proper=True)[1]
    w = validate_scaling(z, frame.n).copy()
    w[mask] *= alpha
    return _proxy_values(_set_gram(_scaled_qr(frame, w)[0], mask), alpha)


def _set_gram(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """P = Q_T^T Q_T, the d x d Gram of the rows of q in the set, in index order.

    ``compress`` and ``np.dot`` make the copy and the ``syrk`` that ``q[mask]``
    and ``@`` make, in less time at these sizes, so P is the same bit for bit.
    """
    qt = q.compress(mask, axis=0)
    return np.dot(qt.T, qt)


def _proxy_values(p: np.ndarray, alpha: float) -> tuple[float, float]:
    """(h, h') at alpha off the P of the alpha-scaled frame."""
    h = float(np.add.reduce(p.diagonal()))
    hp = (h - float(np.add.reduce(p * p, axis=None))) / alpha
    return h, max(hp, 0.0)


class NDResult(NamedTuple):
    alpha: float
    value: float
    n_iters: int


def newton_dinkelbach(f: Callable[[float], tuple[float, float]], alpha0: float,
                      b_low: float, b_high: float, max_iters: int) -> NDResult:
    """Drive an increasing concave h into [b_low, b_high] by alpha += (b_high - h)/h'.

    ``f(alpha)`` returns the pair (h, h') from one evaluation. A start whose
    h overshoots b_high (by more than 1e-9) is pulled back, alpha halfway
    toward 1 each time; after 200 such evaluations it raises
    GuessPreconditionViolated. Returns the start untouched when h there is
    >= b_low already. Raises ValueError unless b_low < b_high. Concavity
    guarantees every post-step value stays <= b_high; the Bregman potential
    argument puts the iteration count at O(log) of the initial divergence.
    """
    if not b_low < b_high:
        raise ValueError("need b_low < b_high")
    alpha = alpha0
    for _ in range(200):
        val, slope = f(alpha)
        if val <= b_high + 1e-9:
            break
        alpha = 1.0 + (alpha - 1.0) / 2.0
    else:
        raise GuessPreconditionViolated("seed never entered the target band")
    t = 0
    while val < b_low:
        if t >= max_iters:
            raise IterationCapExceeded(
                f"Newton-Dinkelbach did not converge in {max_iters} steps"
            )
        if slope <= DERIVATIVE_FLOOR:
            raise DerivativeVanished(
                f"derivative {slope:g} at alpha={alpha!r}; target band unreachable"
            )
        alpha = alpha + (b_high - val) / slope
        val, slope = f(alpha)
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
    directly rather than as a difference. The rank of U_T and the search
    for D both take the columns of T in sorted order: the rank is then the
    one ``solver.infeasibility_certificate`` computed for this set, and the
    search's last thin QR is that of Q_D^T, so W is read off it. Raises
    FactorizationFailure when Q_D is numerically rank-deficient.
    """
    T, mask = _column_mask(T, frame.n, proper=True)
    if q is None:
        q = orthonormal_factor(frame, z)
    trace, hp1 = _proxy_values(_set_gram(q, mask), 1.0)
    if hp1 >= 0.25:
        raise PreconditionViolated("spectrum not gapped: sum mu(1-mu) >= 1/4")
    p = _round_half_away(trace)
    ts = np.flatnonzero(mask)
    rank_t = numerical_rank(frame.columns(ts))
    if p > rank_t:
        raise PreconditionViolated(f"rounded trace {p} exceeds rk(U_T)={rank_t}")
    if p == rank_t:
        return EigenSumEstimate(mu_tilde=0.0, p=p)
    if p == 0:
        return EigenSumEstimate(mu_tilde=trace, p=0)
    chosen, _, w, rd = _det_local_opt_columns(q[ts].T, p)
    _require_full_rank(rd, "projector block singular in eigen-sum guess")
    rest = (qt := q[T]) - (qt @ w) @ w.T
    return EigenSumEstimate(mu_tilde=float(np.einsum("ij,ij->", rest, rest)), p=p,
                            D=ts[chosen])


def det_local_opt(frame: Frame, z, T, p: int) -> np.ndarray:
    """Pivoted-QR greedy, then swaps: a 2-approximate determinant maximizer.

    Maximizes principal minors of the T-block kernel sqrt(Z) U^T (UZU^T)^{-1}
    U sqrt(Z) = X^T X, with X = Q_T^T read off the thin orthonormal factor
    ``orthonormal_factor(frame, z)``, formed here; the kernel's trace is
    h(1) and the kernel itself is never formed. Ties go to the smallest
    index (pair) so reruns are reproducible. T is checked as a column set,
    else ValueError, and read as ``linalg._column_mask`` returns it: intp,
    in the caller's order. No solve path calls it: the guess branch
    searches the iterate's own factor through ``_det_local_opt_columns``.
    """
    T = _column_mask(T, frame.n)[0]
    rank_t = numerical_rank(frame.columns(T))
    if not 0 < p < rank_t:
        raise PreconditionViolated(f"need 0 < p < rk(U_T), got p={p}, rk={rank_t}")
    x = orthonormal_factor(frame, z)[T].T
    trace = float(np.einsum("ij,ij->", x, x))
    if trace < p - 0.5:
        raise PreconditionViolated(f"trace {trace:g} below p - 1/2 = {p - 0.5:g}")
    return np.sort(T[_det_local_opt_columns(x, p)[0]])


def _det_local_opt_columns(x: np.ndarray,
                           p: int) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Search over p-subsets D of the columns of x; returns (sorted D, swap
    count, W, R) with (W, R) the thin QR of x[:, D], R in the upper triangle.

    The greedy is column-pivoted QR: each pivot is the column farthest from
    the span of the earlier ones, i.e. the one that grows det X_D^T X_D the
    most. With x_j = X_D a_j + r_j and r_j orthogonal to span X_D, swapping
    chosen i for outside j multiplies that determinant by a_ij^2 +
    ((X_D^T X_D)^{-1})_ii ||r_j||^2, so one thin QR of X_D prices every
    swap; the row-major argmax takes the smallest (i, j) among ties. Raises
    FactorizationFailure when the greedy's last pivot vanishes or that R has
    a zero on its diagonal.
    """
    r, piv = _pivoted_qr(x)
    if abs(r[p - 1, p - 1]) <= p * _EPS * abs(r[0, 0]):
        raise FactorizationFailure("greedy pivot vanished in determinant search")
    chosen, swaps = np.sort(piv[:p]), 0
    while True:
        outside = np.setdiff1d(np.arange(x.shape[1]), chosen)
        w, rd = _thin_qr(x[:, chosen])  # the solves read only rd's upper triangle
        proj = w.T @ x[:, outside]
        a = _solve_r(rd, proj, transposed=False)
        rd_inv = _solve_r(rd, np.eye(p), transposed=False)
        resid = x[:, outside] - w @ proj
        gain = a * a + np.outer(np.einsum("ij,ij->i", rd_inv, rd_inv),
                                np.einsum("ij,ij->j", resid, resid))
        i, j = np.unravel_index(np.argmax(gain), gain.shape)
        if not gain[i, j] > SWAP_GAIN:
            return chosen, swaps, w, rd
        chosen = np.sort(np.append(np.delete(chosen, i), outside[j]))
        swaps += 1


def compute_update(frame: Frame, z, T, gamma: float, q: np.ndarray) -> UpdateResult:
    """Find alpha >= 1 with gamma/5 <= h(alpha) - h(1) <= gamma.

    Expects a T the rank check did not certify. Where the guess branch finds
    mu_tilde <= 0, the gain's supremum rk(U_T) - h(1) is below gamma, so it
    raises InfeasibleSegment for the margin loop's zero-tolerance check.
    T must be a proper column subset, else ValueError: ``linalg._column_mask``
    checks it once and returns the mask that picks P's rows. ``q`` is the
    iterate's ``orthonormal_factor(frame, z)``, and z is not validated
    again. P = Q_T^T Q_T is formed from q once, and h(1) = tr P and h'(1) =
    tr P - ||P||_F^2 are read off it (``_proxy_values``). Raises
    DegenerateMargin when h(1) + gamma/5 rounds up to h(1) + gamma, a band
    binary64 cannot hold.

    When h'(1) >= gamma/4 the step is Newton's first step from 1, taken in
    closed form: alpha = 1 + gamma / h'(1), with gamma written
    (h(1) + gamma) - h(1) as Newton's (b_high - h(1)) / h'(1). It lands in
    the band. With mu the eigenvalues of P (``linalg._symmetric_eigenvalues``)
    and w = mu (1 - mu), h'(1) = sum w and the gain is
    ``solver.step_gain``, h(alpha) - h(1) = sum s w / (1 + s mu) with
    s = alpha - 1 = gamma / h'(1) <= 4. As 0 <= mu <= 1, each denominator
    lies in [1, alpha], so the gain lies in [gamma / alpha, gamma], and
    gamma / alpha >= gamma/5. No QR is taken and no Newton loop runs.

    Otherwise h'(1) < gamma/4 (below 1/4 for gamma <= 1), the gapped regime
    ``approx_small_eigen_sum`` checks, and ``newton_dinkelbach`` starts at
    1 + gamma / (2 mu_tilde), with mu_tilde from that estimate; alpha is
    unbounded. Newton owns the start: it pulls an overshooting seed back
    toward 1, and ``proxy_at`` gives (h, h') at each trial alpha from one
    thin QR.
    """
    if not 0.0 < gamma <= 1.0 + 1e-12:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    p = _set_gram(q, _column_mask(T, frame.n, proper=True)[1])
    h1, hp1 = _proxy_values(p, 1.0)
    if not h1 + gamma / 5.0 < h1 + gamma:
        raise DegenerateMargin(f"gamma {gamma!r} is lost in h(1) {h1!r}: the band is empty")
    if hp1 >= gamma / 4.0:
        mu = _symmetric_eigenvalues(p)
        alpha = 1.0 + ((h1 + gamma) - h1) / hp1
        return UpdateResult(alpha=alpha, h_gain=step_gain(mu, mu * (1.0 - mu), alpha),
                            nd_iters=1, hp_one=hp1, seeded=False)
    est = approx_small_eigen_sum(frame, z, T, q=q)
    if est.mu_tilde <= 0.0:
        raise InfeasibleSegment(
            "small-eigenvalue sum estimate is 0; T should have certified infeasibility"
        )
    # Roundoff in mu_tilde can push the seed just past the band; Newton's
    # pull-back brings it toward 1 (the clean seed never overshoots). Past
    # binary64, a numpy scalar's quotient faults where a float's saturates.
    res = newton_dinkelbach(functools.partial(proxy_at, frame, z, T),
                            float(1.0 + gamma / (2.0 * np.float64(est.mu_tilde))),
                            h1 + gamma / 5.0, h1 + gamma, nd_iteration_cap(frame.n, frame.d))
    return UpdateResult(alpha=res.alpha, h_gain=res.value - h1, nd_iters=res.n_iters,
                        hp_one=hp1, seeded=True)
