"""The benchmark's tracing contract with the package.

``perfbench/spans.py`` wraps module attributes by name, and every benchmark
run, traced or not, first looks each of them up. A renamed or dropped
attribute therefore stops the run before any metric exists. The span
observer on ``update.compute_update`` also reads fields of its result.
"""

import sys
from pathlib import Path

import numpy as np

import framescale.cli  # (loads io, rational and regularize too)
import framescale.matrixscale  # noqa: F401
import framescale.perceptron  # noqa: F401
import framescale.solver  # noqa: F401
import framescale.update  # noqa: F401
from framescale import MatrixMarginals, NonnegMatrix, numerical_rank, orthonormal_factor, proxy_at

from conftest import gapped_instance
from framescale import io as fio
from framescale.generate import gen_bipartite, gen_infeasible

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
            upd = framescale.update.compute_update(frame, z, T, gamma,
                                                   orthonormal_factor(frame, z))
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


def test_traced_matrix_solve_spans_each_step():
    # scale_matrix's step looks matrix_update up at call time, so a traced
    # solve records one matrixscale.matrix_update span per iteration.
    A, r, c = gen_bipartite(6, 6, 0)
    tracer = spans.Tracer()
    tracer.begin_group("solve", "one traced matrix solve")
    tracer.install()
    try:
        res = framescale.matrixscale.scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), 1e-6)
    finally:
        tracer.restore()
    names = [tracer.names[i] for i in tracer.name]
    assert res.scaled and res.iterations > 10
    assert names.count("matrixscale.matrix_update") == res.iterations
    assert names.count("matrixscale.scale_matrix") == 1


def test_traced_verify_after_an_untraced_one(tmp_path):
    # The CLI keeps its parser across calls; a verify traced after the
    # parser was built must still run through the wrapped cmd_verify.
    U, c = gen_infeasible(3, 7, 0)
    u_path, c_path, out = tmp_path / "U.txt", tmp_path / "c.txt", tmp_path / "res.json"
    fio.write_matrix_file(u_path, U)
    fio.write_vector_file(c_path, c)
    argv = ["--input", str(u_path), "--marginals", str(c_path)]
    assert framescale.cli.main(["frame", *argv, "--eps", "1e-6", "--out", str(out)]) == 3
    verify = ["verify", "--result", str(out), *argv]
    assert framescale.cli.main(verify) == 0
    tracer = spans.Tracer()
    tracer.begin_group("verify", "after an untraced verify")
    tracer.install()
    try:
        assert framescale.cli.main(verify) == 0
    finally:
        tracer.restore()
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("cli.main") == 1 and names.count("cli.verify") == 1
