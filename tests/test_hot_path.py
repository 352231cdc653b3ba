"""Per-iteration work budgets on solves whose every iteration takes the same route.

A steep frame step (h'(1) >= gamma/4) reads h off the spectrum of P, one
``dsyevd``, factors nothing and evaluates no ``update.proxy_at``. So a
solve whose every step is steep takes one thin QR, counted at
``linalg._thin_qr``, per measured iterate (the start and each step) plus
the regularizer's factor of the unscaled frame. The matrix solver's
budget, no ``matrix_rho_prefixes`` pass on the bipartite matrices, is
checked in ``test_matrixscale.py``.
"""

import pytest

import framescale.update
from framescale import Frame, Marginals, scale_frame
from framescale.generate import gen_gaussian


@pytest.mark.parametrize("seed", range(4))
def test_solve_takes_one_qr_per_iteration(seed, qr_calls, proxy_evaluations, monkeypatch):
    eigensolves = []
    original = framescale.update.dsyevd

    def counting(*args, **kwargs):
        eigensolves.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(framescale.update, "dsyevd", counting)
    U, c = gen_gaussian(5, 20, seed)
    res = scale_frame(Frame(U), Marginals(c, d=5), 1e-6)
    assert res.scaled and res.iterations > 1000
    assert all(rec.hp_one >= rec.gamma / 4.0 for rec in res.trace)
    assert len(qr_calls) == res.iterations + 2
    assert len(eigensolves) == res.iterations
    assert proxy_evaluations == []
