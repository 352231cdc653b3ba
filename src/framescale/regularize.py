"""Range control for scalings: prefix-gap shrinking plus grid rounding.

Sorting z and capping each prefix gap at rho_hat/delta bounds the
multiplicative range by a function of the frame's condition measure while
moving every leverage score by O(d delta) per shrink. rho_hat is the
computable pseudo-inverse-trace overestimate of 1 + rho_T, read off the
singular values of the unscaled frame's thin orthonormal factor; the exact
condition measures are NP-hard and never needed. ``prefix_gap_shrink`` is
the one shrink body: ``regularize`` runs it for frames and
``matrixscale.matrix_regularize`` for matrices, each with its own rho. It
sorts z only when max z / min z is large enough for some gap to fire, and
rejects a scaling that is not strictly positive and finite. Its max z and
max zs are read off one element at ``argmax``, not by a ufunc reduction:
the read is exact, NaN first included, and on vectors this short it costs
about a third of the reduction.
"""

from __future__ import annotations

import numpy as np

# gram_context and pinv_trace stay module attributes: perfbench/spans.py wraps them here.
from .linalg import (_EPS, Frame, _column_mask, _singular_values, gram_context,  # noqa: F401
                     orthonormal_factor, pinv_trace, validate_scaling)


def rho_overestimate(frame: Frame, T, q0: np.ndarray) -> float:
    """Pseudo-inverse trace of U_T^T (UU^T)^{-1} U_T.

    Sandwiched between 1 + rho_T(U) and d (1 + rho_T(U)); equals 0 only
    when every column in T is zero. With ``q0 = orthonormal_factor(frame,
    ones)``, which ``RhoCache`` factors once per frame, that matrix is
    q0[T] q0[T]^T, so the trace is the sum of 1/s^2 over the singular
    values s of q0[T] (``linalg._singular_values``) above
    ``max(|T|, d) * eps * s_max``. Eigenvalues far
    below eps times the largest are resolved, which forming the matrix
    itself would round away; a kept s below 1.5e-154 gives inf, which caps
    no gap, without a fault. T is checked as a column set, else ValueError,
    and read as ``linalg._column_mask`` returns it: intp, in the caller's order.
    """
    T = _column_mask(T, frame.n)[0]
    s = _singular_values(q0[T])  # descending, so s[0] is the largest
    keep = s > max(T.size, frame.d) * _EPS * s[0]
    with np.errstate(over="ignore", divide="ignore"):
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
            val = rho_overestimate(self.frame, T, self._q0)
            self._values[key] = val
        return val


def prefix_gap_shrink(z: np.ndarray, delta: float, rhos, floor: float) -> np.ndarray:
    """Cap each sorted prefix gap of z at max(rho, floor)/delta, then snap.

    z is divided by its min z[lo], and with ``order`` its descending sort,
    gap k is the ratio of ``order[k]`` to ``order[k + 1]``. A gap that
    overshoots its threshold max(rho, floor)/delta, rho that of the prefix
    ``order[:k + 1]``, by more than a (1 + 2 delta) factor, more than grid
    rounding perturbs it, has that prefix multiplied down in place until
    the gap equals the threshold. Rounding to the nearest multiple of delta
    then keeps the order, and since no cap touches a minimal entry,
    dividing by the snapped z[lo] makes the min 1.0.

    ``floor`` is the clamp, and it is also a proven lower bound on every
    rho after the caller's own clamp c, max(rho, c). A caller with a proven
    lower bound b on its rhos passes max(b, c): each threshold then equals
    max(rho, c)/delta, and a higher floor rules out more gaps before any rho
    is computed. Frames pass 1, which rho_hat never undercuts; matrices
    pass max(rho_floor, delta). Both are at least delta, so no threshold is
    below 1.

    A cap at gap k scales only the first k + 1 entries, so no later ratio
    changes and all ratios are taken up front. Thresholds are at least
    floor/delta, so only gaps with ratio * (delta/floor) above the headroom
    are candidates, and z is sorted only when max/min is one.
    ``rhos(order, gaps)``, called only when some gap is a candidate, maps
    the increasing candidate indices k to the rhos of ``order[:k + 1]``.
    Thresholds are Python floats: past binary64 one saturates to inf,
    without a warning, and caps nothing. A z that is not positive and
    finite, or whose max/min overflows binary64, or does so once divided by
    delta for the grid, raises ValueError, the last from an OverflowError.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta!r}")
    headroom = 1.0 + 2.0 * delta
    lo = int(z.argmin())
    low = float(z[lo])
    # max/min, NaN for a NaN, zero or negative min and inf for an infinite
    # max; as Python floats it overflows to inf without a warning.
    span = float(z[z.argmax()]) / low if low > 0.0 else np.nan
    if not span < np.inf:
        validate_scaling(z, len(z))
        raise ValueError("scaling max/min overflows binary64")
    zs = z / low
    if span * (delta / floor) > headroom:
        order = np.argsort(-z, kind="stable")
        ratios = zs[order[:-1]] / zs[order[1:]]
        gaps = np.flatnonzero(ratios * (delta / floor) > headroom)
        if gaps.size:
            for k, rho in zip(gaps, rhos(order, gaps)):
                threshold = max(float(rho), floor) / delta
                if ratios[k] > threshold * headroom:
                    zs[order[:k + 1]] *= threshold / ratios[k]
    # The caps only lower entries, so zs / delta can overflow only when span /
    # delta does, and only then is max zs read; Python floats saturate silently.
    grid = float(delta)
    if not span / grid < np.inf and not float(zs[zs.argmax()]) / grid < np.inf:
        raise ValueError("scaling max/min overflows binary64 on the delta grid") \
            from OverflowError("max z / delta")
    _snap(zs, delta)
    zs /= zs[lo]
    return zs


def _snap(zs: np.ndarray, delta: float) -> None:
    """Round zs in place to the nearest multiple of delta. No clamp at delta
    can bind: zs >= 1 after the division by its min, a cap to a threshold
    >= 1 leaves each capped entry no lower than its successor (up to ulps)
    and no cap touches a minimal entry, so zs / delta + 0.5 > 2."""
    zs /= delta
    zs += 0.5
    np.floor(zs, out=zs)
    zs *= delta


def regularize(frame: Frame, z, delta: float, cache: RhoCache | None = None) -> np.ndarray:
    """The prefix-gap shrink for a frame scaling, with rho_hat from ``cache``.

    rho_hat >= 1 for any prefix holding a nonzero column: the clamp floor is 1.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (frame.n,):
        raise ValueError("scaling length does not match frame")
    if cache is None:
        cache = RhoCache(frame)
    return prefix_gap_shrink(z, delta, lambda o, gaps: [cache.rho(o[:k + 1]) for k in gaps], 1.0)
