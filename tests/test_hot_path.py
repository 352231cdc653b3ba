"""Per-iteration work budgets on solves whose every iteration takes the same route.

A steep frame step (h'(1) >= gamma/4) takes its one Newton step in closed
form and reads h off the spectrum of P, one ``dsyevd``, counted on
``scipy.linalg.lapack``, where the step looks it up: it factors nothing,
evaluates no ``update.proxy_at`` and runs no ``update.newton_dinkelbach``.
So a solve whose every step is steep takes one thin QR, counted at
``linalg._thin_qr``, per measured iterate (the start and each step) plus
the regularizer's factor of the unscaled frame.
It validates z at the solve's entries alone, counted at
``linalg.validate_scaling``: the loop measures z = 1 and then only what the
shrink returns, and the shrink rejects a z that is not positive and finite
itself, so no iterate is checked again.

A matrix step whose crossing lies on the surrogate's first segment takes
alpha in closed form, reading mu off the row sums A y that the loop's
measurement formed: it sorts nothing. On the bipartite matrices every step
does, so a solve never enters ``matrixscale._breakpoint_walk``. The matrix
solver's other budget, no ``matrix_rho_prefixes`` pass on those matrices,
is checked in ``test_matrixscale.py``.
"""

import sys

import numpy as np
import pytest
import scipy.linalg

import framescale.linalg
import framescale.matrixscale
import framescale.update
from framescale import Frame, Marginals, MatrixMarginals, NonnegMatrix, scale_frame, scale_matrix
from framescale.generate import gen_bipartite, gen_gaussian


@pytest.mark.parametrize("seed", range(4))
def test_solve_takes_one_qr_per_iteration(seed, qr_calls, proxy_evaluations, monkeypatch):
    eigensolves, newton_loops = [], []

    def counting(calls, original):
        def wrapped(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevd",
                        counting(eigensolves, scipy.linalg.lapack.dsyevd))
    monkeypatch.setattr(framescale.update, "newton_dinkelbach",
                        counting(newton_loops, framescale.update.newton_dinkelbach))
    U, c = gen_gaussian(5, 20, seed)
    res = scale_frame(Frame(U), Marginals(c, d=5), 1e-6)
    assert res.scaled and res.iterations > 1000
    assert all(rec.hp_one >= rec.gamma / 4.0 for rec in res.trace)
    assert len(qr_calls) == res.iterations + 2
    assert len(eigensolves) == res.iterations
    assert proxy_evaluations == []
    assert newton_loops == []


@pytest.mark.parametrize("seed", range(2))
def test_solve_validates_the_scaling_a_fixed_number_of_times(seed, monkeypatch):
    validations = []
    original = framescale.linalg.validate_scaling

    def counting(*args):
        validations.append(None)
        return original(*args)

    # framescale.regularize on the package is the function, not the module.
    for module in (framescale.linalg, framescale.update, sys.modules["framescale.regularize"]):
        monkeypatch.setattr(module, "validate_scaling", counting)
    U, c = gen_gaussian(5, 20, seed)
    res = scale_frame(Frame(U), Marginals(c, d=5), 1e-6)
    assert res.scaled and res.iterations > 1000
    assert len(validations) <= 2


@pytest.mark.parametrize("seed", range(4))
def test_matrix_steps_take_the_closed_form(seed, monkeypatch):
    walks, steps = [], []
    walk, update = framescale.matrixscale._breakpoint_walk, framescale.matrixscale.matrix_update

    def counting_walk(*args):
        walks.append(None)
        return walk(*args)

    def checking_update(matrix, r, y, T, gamma, row):
        # The loop hands every step the row sums A y of the iterate it steps from.
        assert np.array_equal(row, matrix.matrix @ y)
        steps.append(None)
        return update(matrix, r, y, T, gamma, row)

    monkeypatch.setattr(framescale.matrixscale, "_breakpoint_walk", counting_walk)
    monkeypatch.setattr(framescale.matrixscale, "matrix_update", checking_update)
    A, r, c = gen_bipartite(20, 20, seed)
    res = scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), 1e-6)
    assert res.scaled and res.iterations > 1000
    assert len(steps) == res.iterations
    assert walks == []
