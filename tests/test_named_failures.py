"""Entries spread over hundreds of decades: every solve scales, certifies or
raises a named ScalingError.

The margin loop runs under ``np.errstate`` with overflow, invalid and divide
faults raising, and ends the solve at any ArithmeticError with a
FactorizationFailure that names the step and carries the trace. Before that
rule, 94 of the 200 ``spread_matrix`` solves and 37 of the ``spread_frame``
ones at 150 decades ended in a bare ValueError, ZeroDivisionError or
RuntimeWarning. pytest turns warnings into errors, so a solve here that
warned would fail too; and a solve that warns nowhere runs the same code
under default warnings.
"""

import functools

import numpy as np
import pytest

from conftest import spread_frame, spread_matrix
from framescale import (FactorizationFailure, Frame, Marginals, MatrixMarginals, NonnegMatrix,
                        ScalingError, SolverConfig, Trace, orthonormal_factor, rho_overestimate,
                        scale_frame, scale_matrix)

EPS = 1e-6

# The seeds that scaled and certified before the rule, which only names failures.
MATRIX_SCALED = [2, 6, 8, 10, 11, 13, 16, 20, 21, 23, 24, 29, 30, 32, 33, 34, 43, 48, 53,
                 60, 65, 66, 68, 83, 87, 96, 100, 109, 111, 120, 123, 126, 133, 139, 142, 152,
                 157, 162, 164, 167, 180, 182, 184, 185, 194]
MATRIX_INFEASIBLE = [38, 75, 88, 102, 112, 113, 131, 132, 148, 165, 173, 187, 188]
FRAME_SCALED = [34, 65, 94, 142, 214, 233, 255, 273, 291, 297]
FRAME_INFEASIBLE = [5, 28, 101, 119, 120, 141, 158, 178, 189, 203, 210, 241, 298]


def matrix_solve(seed):
    A, r, c = spread_matrix(seed)
    return scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), EPS)


def frame_solve(seed):
    U, c = spread_frame(seed, 150)
    return scale_frame(Frame(U), Marginals(c, d=U.shape[0]), EPS, SolverConfig(max_iters=3000))


def outcome(solve, seed):
    """The solve's status, or the name of the ScalingError it raised."""
    try:
        return solve(seed).status
    except ScalingError as exc:
        return type(exc).__name__


def frame_seeds():
    """Seeds 0-299 whose marginals are at most 1 and whose frame has full
    row rank; ``Frame`` rejects the rest as input, before any solve."""
    for seed in range(300):
        inst = spread_frame(seed, 150)
        if inst is None:
            continue
        try:
            Frame(inst[0])
        except ValueError as exc:
            assert str(exc) == "frame is not of full row rank"
            continue
        yield seed


@functools.cache
def outcomes(kind):
    if kind == "matrix":
        return {seed: outcome(matrix_solve, seed) for seed in range(200)}
    return {seed: outcome(frame_solve, seed) for seed in frame_seeds()}


@pytest.mark.parametrize("kind, scaled, infeasible", [
    ("matrix", MATRIX_SCALED, MATRIX_INFEASIBLE),
    ("frame", FRAME_SCALED, FRAME_INFEASIBLE),
])
def test_every_solve_scales_certifies_or_names_its_failure(kind, scaled, infeasible):
    got = outcomes(kind)
    assert [seed for seed, o in got.items() if o == "scaled"] == scaled
    assert [seed for seed, o in got.items() if o == "infeasible"] == infeasible


def test_overflow_at_the_first_measurement():
    # A y overflows at z = 1; select_margin_set used to reject the NaN
    # column sums with a bare ValueError.
    with pytest.raises(FactorizationFailure, match="^the measurement at z = 1 fails in "
                                                   "binary64: overflow") as info:
        scale_matrix(NonnegMatrix([[1e308, 1e308], [1.0, 1.0]]),
                     MatrixMarginals(np.ones(2), np.ones(2)), EPS)
    assert info.value.trace == [] and type(info.value.trace) is Trace


def test_zero_slope_in_the_matrix_step():
    # The step's closed-form slope is 0.0: a Python ZeroDivisionError.
    with pytest.raises(FactorizationFailure,
                       match="^step 1 fails in binary64: float division by zero$") as info:
        matrix_solve(149)
    assert isinstance(info.value.__cause__, ZeroDivisionError)
    assert len(info.value.trace) == 0


def test_grid_overflow_in_the_shrink():
    # The shrink's own ValueError, raised from an OverflowError, ends the
    # solve like any floating-point fault, with the records of steps 1-3.
    message = "^step 4 fails in binary64: scaling max/min overflows binary64 on the delta grid$"
    with pytest.raises(FactorizationFailure, match=message) as info:
        matrix_solve(183)
    assert type(info.value.__cause__) is ValueError
    assert len(info.value.trace) == 3


def test_newton_seed_past_binary64():
    # mu_tilde is subnormal, and 1 + gamma / (2 mu_tilde) passes binary64.
    # As a Python float it saturated to inf, which no flag reports, and
    # proxy_at's bare ValueError rejected it; as a numpy scalar it faults.
    message = "^step 5 fails in binary64: overflow encountered in scalar divide$"
    with pytest.raises(FactorizationFailure, match=message) as info:
        frame_solve(74)
    assert len(info.value.trace) == 4


def test_rho_saturates_without_a_fault():
    # The kept singular value 1e-160 squares to the subnormal 1e-320, whose
    # reciprocal overflows: rho is inf, which caps no gap, with no warning.
    frame = Frame(np.array([[1.0, 0.0, 1e-160], [0.0, 1.0, 0.0]]))
    assert rho_overestimate(frame, [2], orthonormal_factor(frame, np.ones(3))) == np.inf
