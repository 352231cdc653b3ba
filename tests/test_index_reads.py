"""Extremes read at argmax/argmin decide as the ufunc reductions they replace.

Each helper that reads a max, a min or an any-test off one element is run
against a test-local oracle that keeps the reduction. ``argmax`` and
``argmin`` return the first NaN, and on a bool array the first True, so the
outcome must match on every input: the returned array bit for bit, or the
exception's class and message, and the warnings raised on the way. Every
case places NaN, +-inf, a zero of either sign, a subnormal, a huge entry or
a tie with the extreme first, in the middle and last, alone and next to
another of them.
"""

import math
import warnings

import numpy as np
import pytest

from framescale import DegenerateMargin, FactorizationFailure, NonnegMatrix, ZeroRowSum
from framescale.linalg import _EPS, _require_full_rank, validate_scaling
from framescale.matrixscale import column_sums
from framescale.regularize import _snap, prefix_gap_shrink
from framescale.solver import select_margin_set

# Its min 1.0 and max 5.0 sit in the middle, so a placed tie lands on
# either side of the extreme it ties.
BASE = np.array([3.0, 1.0, 5.0, 2.0, 4.0])
SPECIALS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0.0, "-zero": -0.0,
            "subnormal": 5e-324, "negative": -1.0, "huge": 1e308, "tie-min": 1.0,
            "tie-max": 5.0}
FIRST, MIDDLE, LAST = 0, 2, 4


def placements(name, base=BASE):
    """Copies of base with SPECIALS[name] placed first, in the middle and last,
    alone and beside every special at another position."""
    v = SPECIALS[name]
    for at in (FIRST, MIDDLE, LAST):
        z = base.copy()
        z[at] = v
        yield z
    for w in SPECIALS.values():
        for at, other in ((FIRST, LAST), (MIDDLE, FIRST), (LAST, MIDDLE)):
            z = base.copy()
            z[at], z[other] = v, w
            yield z


def outcome(fn, *args):
    """(result, warnings): the result (an array as its bytes) or the
    exception's class and message, and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:  # the class and message are the outcome
            out = (type(exc), str(exc))
        else:
            if isinstance(out, np.ndarray):
                out = (out.dtype, out.shape, out.tobytes())
    return out, [str(w.message) for w in caught]


def assert_same(new, old, *args):
    copies = [tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args) for _ in range(2)]
    assert outcome(new, *copies[0]) == outcome(old, *copies[1]), args


def old_validate_scaling(z, n):
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (n,):
        raise ValueError(f"scaling has shape {z.shape}, expected ({n},)")
    if np.minimum.reduce(z) > 0.0 and np.maximum.reduce(z) < np.inf:
        return z
    if not np.all(np.isfinite(z)):
        raise ValueError("scaling has non-finite entries")
    if np.any(z <= 0.0):
        raise ValueError("scaling entries must be strictly positive")
    return z


def old_require_full_rank(rh, failure):
    rdiag = np.abs(rh.diagonal())
    if rdiag.size and not (np.minimum.reduce(rdiag)
                           > rh.shape[1] * _EPS * np.maximum.reduce(rdiag)):
        raise FactorizationFailure(failure)


def old_prefix_gap_shrink(z, delta, rhos, floor):
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta!r}")
    headroom = 1.0 + 2.0 * delta
    lo = int(z.argmin())
    low = float(z[lo])
    span = float(np.maximum.reduce(z)) / low if low > 0.0 else np.nan
    if not span < np.inf:
        old_validate_scaling(z, len(z))
        raise ValueError("scaling max/min overflows binary64")
    zs = z / low
    if span * (delta / floor) > headroom:
        order = np.argsort(-z, kind="stable")
        ratios = zs[order[:-1]] / zs[order[1:]]
        candidates = ratios * (delta / floor) > headroom
        if np.logical_or.reduce(candidates):
            # The threshold vector saturates to inf where the shrink's
            # Python-float thresholds do, but without the warning.
            with np.errstate(over="ignore"):
                thresholds = np.maximum(rhos(order, candidates), floor) / delta
            for k in np.flatnonzero(candidates & (ratios > thresholds * headroom)):
                zs[order[:k + 1]] *= thresholds[k] / ratios[k]
    grid = float(delta)
    if not span / grid < np.inf and not float(np.maximum.reduce(zs)) / grid < np.inf:
        raise ValueError("scaling max/min overflows binary64 on the delta grid")
    _snap(zs, delta)
    zs /= zs[lo]
    return zs


def old_column_sums(matrix, r, y):
    y = np.asarray(y, dtype=np.float64)
    a = matrix.matrix
    row = a @ y
    if np.logical_or.reduce(row <= 0.0):
        raise ZeroRowSum("a row has zero weighted sum under this scaling")
    return y * (a.T @ (np.asarray(r, dtype=np.float64) / row))


def old_select_margin_set(lev, c):
    lev = np.asarray(lev, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = lev.shape[0]
    if n < 2:
        raise ValueError("margin selection needs n >= 2")
    x = lev - c
    total = float(np.add.reduce(x))
    if not (abs(total) <= 1e-8
            or abs(total) <= 1e-8 * max(1.0, float(np.add.reduce(np.abs(c))))):
        raise ValueError(f"lev - c must sum to 0, got {total!r}")
    order = x.argsort(kind="stable")
    xs = x[order]
    gaps = xs[1:] - xs[:-1]
    k = int(gaps.argmax())
    gamma = float(gaps[k]) / 2.0
    nu = float(xs[k] + xs[k + 1]) / 2.0
    if gamma == 0.0 and float(np.maximum.reduce(np.abs(x))) > 0.0:
        raise DegenerateMargin("zero margin on a nonzero error vector")
    return order.tobytes(), k + 1, gamma, nu


@pytest.mark.parametrize("name", SPECIALS)
def test_validate_scaling(name):
    for z in placements(name):
        assert_same(validate_scaling, old_validate_scaling, z, 5)


@pytest.mark.parametrize("name", SPECIALS)
def test_require_full_rank(name):
    for d in placements(name):
        for scale in (1.0, -1.0, 1e-300):
            assert_same(_require_full_rank, old_require_full_rank, np.diag(d * scale), "rank")


def rhos_at(value):
    """``rhos`` giving every candidate gap the rho ``value``: over the gap
    mask for the vector reference, as an array with 0 at the other gaps, and
    over the candidate gap indices for ``prefix_gap_shrink``."""
    def rhos(order, gaps):
        if gaps.dtype == bool:
            return np.where(gaps, value, 0.0)
        return [value] * gaps.size
    return rhos


# A modest rho lets every cap fire; a rho of 1e308 puts each threshold at
# inf, so no cap fires and a huge entry reaches the grid-overflow test.
SHRINK_ARGS = [(delta, floor, value) for delta in (0.25, 1e-3)
               for floor in (1.0, 1e-3) for value in (2.0, 1e308)]


@pytest.mark.parametrize("name", SPECIALS)
def test_prefix_gap_shrink(name):
    for z in placements(name):
        for delta, floor, value in SHRINK_ARGS:
            assert_same(prefix_gap_shrink, old_prefix_gap_shrink, z, delta, rhos_at(value), floor)


def test_prefix_gap_shrink_reaches_each_error():
    messages = set()
    for name in SPECIALS:
        for z in placements(name):
            for delta, floor, value in SHRINK_ARGS:
                out, _ = outcome(prefix_gap_shrink, z, delta, rhos_at(value), floor)
                if out[0] is ValueError:
                    messages.add(out[1])
    assert messages == {"scaling has non-finite entries",
                        "scaling entries must be strictly positive",
                        "scaling max/min overflows binary64",
                        "scaling max/min overflows binary64 on the delta grid"}


@pytest.mark.parametrize("name", SPECIALS)
def test_prefix_gap_shrink_on_one_entry(name):
    # A floor this low makes the span test pass at n = 1, where the n - 1
    # gaps form an empty candidate mask.
    z = np.array([SPECIALS[name]])
    assert_same(prefix_gap_shrink, old_prefix_gap_shrink, z, 0.25, rhos_at(2.0), 1e-3)


@pytest.mark.parametrize("name", SPECIALS)
def test_column_sums(name):
    # Under the identity A y is y for finite y; an infinite y_j makes every
    # other row sum 0 * inf = NaN, so -inf places NaN next to a
    # non-positive row sum.
    identity = NonnegMatrix(np.eye(5))
    dense = NonnegMatrix(np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0],
                                   [0.0, 0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0],
                                   [1.0, 0.0, 0.0, 0.0, 1.0]]))
    for y in placements(name):
        for matrix in (identity, dense):
            assert_same(column_sums, old_column_sums, matrix, np.ones(5), y)


def test_column_sums_nan_beside_a_non_positive_row_sum():
    # Row 0 sums -inf + 1, row 1 sums 0 * -inf + 1 = NaN.
    for A, y in (([[1.0, 1.0], [0.0, 1.0]], [-math.inf, 1.0]),
                 ([[0.0, 1.0], [1.0, 1.0]], [-math.inf, 1.0])):
        matrix = NonnegMatrix(np.array(A))
        assert outcome(old_column_sums, matrix, np.ones(2), np.array(y))[0][0] is ZeroRowSum
        assert_same(column_sums, old_column_sums, matrix, np.ones(2), np.array(y))


# Only a vector of equal entries, or one whose widest gap halves to 0, has
# gamma == 0; each base places the specials among such entries.
MARGIN_BASES = (np.zeros(5), np.full(5, 1e-10), np.full(5, 5e-324))


@pytest.mark.parametrize("name", SPECIALS)
def test_select_margin_set(name):
    def new(lev, c):
        ms = select_margin_set(lev, c)
        return ms.order.tobytes(), ms.k, ms.gamma, ms.nu

    for base in MARGIN_BASES:
        for lev in placements(name, base):
            for c in (np.zeros(5), np.full(5, -0.0)):
                assert_same(new, old_select_margin_set, lev, c)


def test_select_margin_set_reaches_degenerate_margin():
    raised = [outcome(old_select_margin_set, lev, np.zeros(5))[0][0] is DegenerateMargin
              for base in MARGIN_BASES for name in SPECIALS for lev in placements(name, base)]
    assert any(raised) and not all(raised)
