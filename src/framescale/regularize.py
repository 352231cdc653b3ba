"""Range control for scalings: prefix-gap shrinking plus grid rounding.

Sorting z and capping each prefix gap at rho_hat/delta bounds the
multiplicative range by a function of the frame's condition measure while
moving every leverage score by O(d delta) per shrink. rho_hat is the
computable pseudo-inverse-trace overestimate of 1 + rho_T, read off the
singular values of the unscaled frame's thin orthonormal factor; the exact
condition measures are NP-hard and never needed. ``prefix_gap_shrink`` is
the one shrink body: ``regularize`` runs it for frames and
``matrixscale.matrix_regularize`` for matrices, each with its own rho.
"""

from __future__ import annotations

import numpy as np

# gram_context and pinv_trace stay module attributes: perfbench/spans.py wraps them here.
from .linalg import _EPS, Frame, gram_context, orthonormal_factor, pinv_trace  # noqa: F401


def rho_overestimate(frame: Frame, T, q0: np.ndarray | None = None) -> float:
    """Pseudo-inverse trace of U_T^T (UU^T)^{-1} U_T.

    Sandwiched between 1 + rho_T(U) and d (1 + rho_T(U)); equals 0 only
    when every column in T is zero. With ``q0 = orthonormal_factor(frame,
    ones)`` (factored here when None), that matrix is q0[T] q0[T]^T, so the
    trace is the sum of 1/s^2 over the singular values s of q0[T] above
    ``max(|T|, d) * eps * s_max``. Eigenvalues far below eps times the
    largest are resolved, which forming the matrix itself would round away.
    """
    T = np.asarray(T, dtype=np.intp)
    if T.size == 0:
        raise ValueError("T must be nonempty")
    if q0 is None:
        q0 = orthonormal_factor(frame, np.ones(frame.n))
    s = np.linalg.svd(q0[T], compute_uv=False)
    keep = s > max(T.size, frame.d) * _EPS * s.max(initial=0.0)
    return float(np.sum(1.0 / s[keep] ** 2))


class RhoCache:
    """Memoizes rho_overestimate per index set; prefixes recur across iterations."""

    def __init__(self, frame: Frame):
        self.frame = frame
        self._q0 = orthonormal_factor(frame, np.ones(frame.n))
        self._values: dict[bytes, float] = {}

    def rho(self, T: np.ndarray) -> float:
        key = np.sort(T).astype(np.int64).tobytes()
        val = self._values.get(key)
        if val is None:
            val = rho_overestimate(self.frame, T, q0=self._q0)
            self._values[key] = val
        return val


def prefix_gap_shrink(z: np.ndarray, delta: float, rhos, floor: float) -> np.ndarray:
    """Cap each sorted prefix gap of z at max(rho, floor)/delta, then snap.

    Entries are sorted descending and normalized so the smallest is 1. A gap
    k whose ratio overshoots its threshold max(rho_k, floor)/delta by more
    than a (1 + 2 delta) factor, more than grid rounding perturbs it, has
    the prefix ``order[:k]`` multiplied down until the gap equals the
    threshold. Entries are then rounded to the nearest multiple of delta
    (clamped to stay >= delta) and renormalized to min 1; order is kept.

    A shrink at gap k scales only the first k entries, so no later ratio
    changes and all ratios are taken up front. Thresholds are at least
    floor/delta, so only gaps with ratio * (delta/floor) above the headroom
    are candidates. ``rhos(order, candidates)``, called only when there is
    one, maps that mask over the n - 1 gaps to an array whose entry k - 1
    is the rho of ``order[:k]`` at each candidate gap k.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta!r}")
    order = np.argsort(-z, kind="stable")
    zs = z[order]
    zs /= zs[-1]
    headroom = 1.0 + 2.0 * delta
    ratios = zs[:-1] / zs[1:]
    candidates = ratios * (delta / floor) > headroom
    if candidates.any():
        thresholds = np.maximum(rhos(order, candidates), floor) / delta
        for k in np.flatnonzero(candidates & (ratios > thresholds * headroom)):
            zs[:k + 1] *= thresholds[k] / ratios[k]
    zs = np.maximum(np.floor(zs / delta + 0.5) * delta, delta)
    zs /= zs[-1]
    out = np.empty_like(zs)
    out[order] = zs
    return out


def regularize(frame: Frame, z, delta: float, cache: RhoCache | None = None) -> np.ndarray:
    """The prefix-gap shrink for a frame scaling, with rho_hat from ``cache``.

    rho_hat >= 1 for any prefix holding a nonzero column: the clamp floor is 1.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (frame.n,):
        raise ValueError("scaling length does not match frame")
    if cache is None:
        cache = RhoCache(frame)

    def rhos(order, candidates):
        return np.array([cache.rho(order[:k]) if c else 0.0 for k, c in enumerate(candidates, 1)])

    return prefix_gap_shrink(z, delta, rhos, 1.0)
