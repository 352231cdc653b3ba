"""Range control for scalings: prefix-gap shrinking plus grid rounding.

Sorting z and capping each prefix gap at rho_hat/delta bounds the
multiplicative range by a function of the frame's condition measure while
moving every leverage score by O(d delta) per shrink. rho_hat is the
computable pseudo-inverse-trace overestimate of 1 + rho_T; the exact
condition measures are NP-hard and never needed.
"""

from __future__ import annotations

import numpy as np

from .linalg import Frame, GramContext, gram_context, pinv_trace


def rho_overestimate(frame: Frame, T, base: GramContext | None = None,
                     eig_tol: float | None = None) -> float:
    """Pseudo-inverse trace of U_T^T (UU^T)^{-1} U_T.

    Sandwiched between 1 + rho_T(U) and d (1 + rho_T(U)); equals 0 only
    when every column in T is zero.
    """
    T = np.asarray(T, dtype=np.intp)
    if T.size == 0:
        raise ValueError("T must be nonempty")
    if base is None:
        base = gram_context(frame, np.ones(frame.n))
    ut = frame.columns(T)
    m = ut.T @ base.solve(ut)
    return pinv_trace(m, tol=eig_tol)


class RhoCache:
    """Memoizes rho_overestimate per index set; prefixes recur across iterations."""

    def __init__(self, frame: Frame, eig_tol: float | None = None):
        self.frame = frame
        self.eig_tol = eig_tol
        self._base = gram_context(frame, np.ones(frame.n))
        self._values: dict[bytes, float] = {}

    def rho(self, T: np.ndarray) -> float:
        key = np.sort(T).astype(np.int64).tobytes()
        val = self._values.get(key)
        if val is None:
            val = rho_overestimate(self.frame, T, base=self._base, eig_tol=self.eig_tol)
            self._values[key] = val
        return val


def regularize(frame: Frame, z, delta: float, cache: RhoCache | None = None) -> np.ndarray:
    """Shrink sorted prefix gaps of z to at most rho_hat/delta, then snap.

    Entries are sorted descending, normalized so the smallest is 1, each
    violating prefix is multiplied down until its gap equals the threshold,
    every entry is rounded to the nearest multiple of delta (clamped to
    stay >= delta), and the result is renormalized to min 1. Sorted order
    is preserved, so the map is the identity (up to the grid) when all
    gaps are already small.

    Gaps must overshoot the threshold by a (1 + 2 delta) factor before a
    shrink fires; grid rounding perturbs ratios by less than that, which
    makes a second application change nothing beyond one grid step.

    All gap ratios are taken at once. rho_hat >= 1 for any prefix holding
    a nonzero column, so only gaps whose ratio exceeds (1 + 2 delta)/delta
    can fire; the scan visits just those, in ascending order, and computes
    their rho lazily through the cache. A shrink at gap k scales only the
    first k entries, which changes no later gap's ratio, so the result is
    the one a gap-by-gap walk gives.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta!r}")
    z = np.asarray(z, dtype=np.float64)
    n = frame.n
    if z.shape != (n,):
        raise ValueError("scaling length does not match frame")
    if cache is None:
        cache = RhoCache(frame)
    order = np.argsort(-z, kind="stable")
    zs = z[order].copy()
    zs /= zs[-1]
    headroom = 1.0 + 2.0 * delta
    ratios = zs[:-1] / zs[1:]
    for k in np.flatnonzero(ratios * delta > headroom) + 1:
        ratio = ratios[k - 1]
        threshold = max(cache.rho(order[:k]), 1.0) / delta
        if ratio > threshold * headroom:
            zs[:k] *= threshold / ratio
    zs = np.maximum(np.floor(zs / delta + 0.5) * delta, delta)
    zs /= zs[-1]
    out = np.empty_like(zs)
    out[order] = zs
    return out

# TODO: evaluate rho only at the <= d prefixes where the rank increases; the
# chain structure makes the remaining prefixes redundant overestimates.
