"""The benchmark's tracing contract with the package.

``perfbench/spans.py`` wraps module attributes by name, and every benchmark
run, traced or not, first looks each of them up. A renamed or dropped
attribute therefore stops the run before any metric exists. The span
observer on ``update.compute_update`` also reads fields of its result.
"""

import sys
from pathlib import Path

import numpy as np

import framescale.cli  # noqa: F401  (loads io, rational and regularize too)
import framescale.matrixscale  # noqa: F401
import framescale.perceptron  # noqa: F401
import framescale.solver  # noqa: F401
import framescale.update  # noqa: F401
from framescale import numerical_rank, proxy_at

from conftest import gapped_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_every_wrap_site_exists():
    spans.assert_pristine()


def test_traced_update_feeds_the_observer(rng):
    tracer = spans.Tracer()
    tracer.begin_group("solve", "seeded updates")
    tracer.install()  # wraps framescale.update.compute_update, the name called below
    try:
        seeded = nd_steps = 0
        while seeded < 3:
            frame, z, T = gapped_instance(rng, 4, 8)
            h1, hp1 = proxy_at(frame, z, T, 1.0)
            gamma = min(1.0, 0.8 * (numerical_rank(frame.columns(T)) - h1))
            if gamma <= 4.0 * hp1 or gamma <= 1e-4:
                continue
            upd = framescale.update.compute_update(frame, z, T, gamma)
            assert upd.seeded
            seeded += 1
            nd_steps += upd.nd_iters
    finally:
        tracer.restore()
    assert tracer.observed["update.compute_update.returns"] == 3
    assert tracer.observed["update.seeded"] == 3
    assert tracer.observed["update.nd_steps"] == nd_steps
    assert {"update.compute_update", "update.approx_small_eigen_sum"} <= set(tracer.names)
    assert np.all(np.frombuffer(tracer.end, dtype=np.int64) > 0)
