"""Gibbs kernels exp(-C / eta): the band loop's iteration count barely
moves while the entries spread over hundreds of decades.

The paper's loop is strongly polynomial, so its iteration count does not
depend on the entries. On the n = 20 kernel of ``gibbs_kernel`` it about
doubles from eta 1 to 0.002, while plain Sinkhorn, whose linear rate tends
to 1 as the ratio of the kernel's entries grows, already needs over 10,000
iterations at eta 0.01. pytest turns warnings into errors, so every solve
here also raises no numeric warning on the way, even where the prefix rhos
of the shrink pass binary64's max.
"""

import functools

import numpy as np
import pytest

from conftest import gibbs_kernel
from framescale import FactorizationFailure, MatrixMarginals, NonnegMatrix, scale_matrix

N, EPS = 20, 1e-6


@functools.cache
def band_solve(eta):
    A, r, c = gibbs_kernel(N, eta, 0)
    return scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), EPS)


def sinkhorn_iterations(A, r, c, eps, cap):
    """Alternating scaling with the loop's stopping rule: rows matched
    exactly, and ||c(B) - c||^2 <= eps^2 on the columns. None past the cap."""
    y = np.ones(A.shape[1])
    for it in range(cap + 1):
        col = y * (A.T @ (r / (A @ y)))
        if float(((col - c) ** 2).sum()) <= eps * eps:
            return it
        y *= c / col
    return None


@pytest.mark.parametrize("eta", [1.0, 0.01, 0.002, 0.001, 0.0005])
def test_band_loop_scales(eta):
    assert band_solve(eta).scaled


def test_iterations_barely_grow_with_the_spread():
    # Least positive entries 3.7e-1 at eta 1 and 2.9e-217 at eta 0.002.
    assert band_solve(0.002).iterations < 2 * band_solve(1.0).iterations


def test_sinkhorn_is_slow_where_the_band_loop_is_not():
    A, r, c = gibbs_kernel(N, 0.01, 0)
    assert sinkhorn_iterations(A, r, c, EPS, 10_000) is None
    assert band_solve(0.01).iterations < 10_000


@pytest.mark.xfail(strict=True, raises=FactorizationFailure,
                   reason="ROADMAP direction 4: the margin step's z[T] *= alpha "
                          "overflows binary64 at eta 0.0003")
def test_band_loop_scales_past_the_step_overflow():
    assert band_solve(0.0003).scaled


def test_step_overflow_raises_with_its_trace():
    # Step 223's alpha of 1.8e25 meets a z of 3.2e294 on T: the multiply
    # raises under the loop's errstate, and the error carries the 222 records
    # of the steps that did not overflow.
    A, r, c = gibbs_kernel(N, 0.0003, 0)
    with pytest.raises(FactorizationFailure, match=r"^step 223 fails in binary64: "
                                                   r"overflow encountered in multiply$") as info:
        scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), EPS)
    trace = info.value.trace
    assert len(trace) == 222
    assert all(np.isfinite(list(rec.as_dict().values())).all() for rec in trace)
    assert trace[-1].log_z_inf > 600.0
