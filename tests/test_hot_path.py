"""The frame loop's thin-QR budget, counted at ``linalg._thin_qr``.

A steep step (h'(1) >= gamma/4) reads h off the spectrum of P and factors
nothing, so a solve whose every step is steep takes one thin QR per
measured iterate (the start and each step) plus the regularizer's factor
of the unscaled frame.
"""

import pytest

from framescale import Frame, Marginals, scale_frame
from framescale.generate import gen_gaussian


@pytest.mark.parametrize("seed", range(4))
def test_solve_takes_one_qr_per_iteration(seed, qr_calls):
    U, c = gen_gaussian(5, 20, seed)
    res = scale_frame(Frame(U), Marginals(c, d=5), 1e-6)
    assert res.scaled and res.iterations > 1000
    assert all(rec.hp_one >= rec.gamma / 4.0 for rec in res.trace)
    assert len(qr_calls) == res.iterations + 2
