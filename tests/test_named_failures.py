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

``scale_frame`` solves a frame whose column exponents span more than 2^26
with each column scaled by a power of two, so every ``spread_frame`` solve
either scales or, when z mapped back passes binary64, names that. Every
``spread_frame`` instance is exactly feasible (U is Gaussian, so rk(U_T) =
min(d, |T|) >= c(T)): no solve may certify.
"""

import functools
import json
import warnings

import numpy as np
import pytest

import framescale.cli as cli
from conftest import spread_frame, spread_matrix
from framescale import (FactorizationFailure, Frame, Marginals, MatrixMarginals, NonnegMatrix,
                        ScalingError, SolverConfig, Trace, approx_small_eigen_sum,
                        compute_update, orthonormal_factor, rho_overestimate, scale_frame,
                        scale_matrix)
from framescale import io as fio

EPS = 1e-6

# The matrix seeds that scaled and certified before the rule, which only
# names failures. The frame seeds at 150 decades that scale equilibrated;
# the 13 that certified before were unsound, the rank cutoff reading a
# column 1e150 times shorter than another as zero.
MATRIX_SCALED = [2, 6, 8, 10, 11, 13, 16, 20, 21, 23, 24, 29, 30, 32, 33, 34, 43, 48, 53,
                 60, 65, 66, 68, 83, 87, 96, 100, 109, 111, 120, 123, 126, 133, 139, 142, 152,
                 157, 162, 164, 167, 180, 182, 184, 185, 194]
MATRIX_INFEASIBLE = [38, 75, 88, 102, 112, 113, 131, 132, 148, 165, 173, 187, 188]
FRAME_SCALED = [34, 65, 94, 112, 116, 142, 160, 214, 233, 241, 250, 255, 273, 291, 295, 297]
FRAME_INFEASIBLE = []


def matrix_solve(seed):
    A, r, c = spread_matrix(seed)
    return scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), EPS)


def frame_solve(seed, decades=150):
    U, c = spread_frame(seed, decades)
    return scale_frame(Frame(U), Marginals(c, d=U.shape[0]), EPS, SolverConfig(max_iters=3000))


def outcome(solve, seed):
    """The solve's status, or the name of the ScalingError it raised."""
    try:
        return solve(seed).status
    except ScalingError as exc:
        return type(exc).__name__


def frame_seeds(decades=150):
    """Seeds 0-299 whose marginals are at most 1 and whose frame has full
    row rank; ``Frame`` rejects the rest as input, before any solve."""
    for seed in range(300):
        inst = spread_frame(seed, decades)
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


def test_every_frame_failure_is_an_answer_past_binary64():
    assert set(outcomes("frame").values()) == {"scaled", "FactorizationFailure"}


def test_answer_past_binary64_is_named_with_its_trace():
    # The equilibrated solve scales, but mapped back to the frame's columns
    # max z / min z passes 2^1024: a named error, and no warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FactorizationFailure,
                           match=r"^the scaling leaves binary64: .* about 2\^1782$") as info:
            frame_solve(5)
    assert type(info.value.trace) is Trace and len(info.value.trace) == 277


def test_every_frame_at_20_decades_scales_and_verifies(tmp_path, monkeypatch):
    # framescale verify recomputes error^2 on the frame as given, from z
    # mapped back by powers of two alone, and gets final_error_sq bit for bit.
    seen = []
    check = cli._check_scaled

    def recording(doc, key, n, eps, error_sq):
        return check(doc, key, n, eps, lambda z: seen.append(error_sq(z)) or seen[-1])

    monkeypatch.setattr(cli, "_check_scaled", recording)
    seeds = list(frame_seeds(20))
    assert len(seeds) == 202
    for seed in seeds:
        U, c = spread_frame(seed, 20)
        res = frame_solve(seed, 20)
        assert res.scaled
        assert 1.0 <= res.scaling[res.scaling.argmin()] < 4.0
        fio.write_matrix_file(tmp_path / "U.txt", U)
        fio.write_vector_file(tmp_path / "c.txt", c)
        (tmp_path / "res.json").write_text(json.dumps({
            "status": "scaled", "iterations": res.iterations,
            "final_error_sq": res.final_error_sq, "config": {"eps": EPS},
            "z": res.scaling.tolist()}))
        assert cli.main(["verify", "--result", str(tmp_path / "res.json"), "--input",
                         str(tmp_path / "U.txt"), "--marginals", str(tmp_path / "c.txt")]) == 0
        assert seen[-1] == res.final_error_sq
    assert len(seen) == 202


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
    # proxy_at's bare ValueError rejected it; as a numpy scalar it faults
    # under the margin loop's errstate. T = {0, 2} holds column 0 at
    # leverage 1 and column 2 at z = 1e-320, so mu_tilde is 1e-320.
    frame = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    z = np.array([1.0, 1.0, 1e-320])
    assert 0.0 < approx_small_eigen_sum(frame, z, [0, 2]).mu_tilde < np.finfo(np.float64).tiny
    with np.errstate(over="raise"), pytest.raises(FloatingPointError,
                                                  match="^overflow encountered in scalar divide$"):
        compute_update(frame, z, np.array([0, 2]), 0.1, orthonormal_factor(frame, z))


def test_rho_saturates_without_a_fault():
    # The kept singular value 1e-160 squares to the subnormal 1e-320, whose
    # reciprocal overflows: rho is inf, which caps no gap, with no warning.
    frame = Frame(np.array([[1.0, 0.0, 1e-160], [0.0, 1.0, 0.0]]))
    assert rho_overestimate(frame, [2], orthonormal_factor(frame, np.ones(3))) == np.inf
