"""Three frame-side kernels against the wrapper forms they replaced, bit for bit.

``linalg._solve_r`` takes the triangular solves of ``perceptron.QMetric``
and of the determinant search straight to LAPACK ``dtrtrs``;
``update._set_gram`` gathers T's rows with ``compress`` and forms P with
``np.dot``; and ``linalg.numerical_rank`` sums its squared column norms
with ``np.add.reduce``. The wrapper forms live here only, as the
reference: scipy's ``solve_triangular``, ``q[mask]`` with ``@``, and
``np.linalg.norm``. The budget tests make both wrappers raise and run the
solve paths and perceptron calls that used them.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import framescale.linalg
import framescale.update
from framescale import (FactorizationFailure, Frame, Marginals, SolverConfig, gram_context,
                        numerical_rank, orthonormal_factor, scale_frame)
from framescale.generate import gen_gaussian
from framescale.linalg import _EPS, _solve_r, _thin_qr
from framescale.perceptron import LabeledSample, QMetric, improved_perceptron, margin_fraction
from framescale.update import _det_local_opt_columns, _set_gram

from conftest import fuzz_recipe, pivoted_qr_inputs, random_frame, random_scaling


def reference_apply(r, x):
    """QMetric.apply's wrapper form: R^T y = x, then R v = y."""
    y = scipy.linalg.solve_triangular(r, x, trans="T", check_finite=False)
    return scipy.linalg.solve_triangular(r, y, check_finite=False)


def reference_set_gram(q, mask):
    qt = q[mask]
    return qt.T @ qt


def rank_scaled(columns):
    """The columns as numerical_rank factors them: the largest entry brought
    into [1/2, 1) by a power of two."""
    m = np.asarray(columns, dtype=np.float64)
    return np.ldexp(m, -np.frexp(np.abs(m).max(initial=0.0))[1])


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def right_sides(rng, d):
    yield rng.standard_normal(d)
    for k in (1, 3, 20):
        yield rng.standard_normal((d, k))
    yield np.ascontiguousarray(rng.standard_normal((20, d)).T)  # C-ordered d x 20


@pytest.mark.parametrize("d", range(1, 9))
def test_qmetric_solves_match_the_wrapper(d, rng):
    for _ in range(10):
        frame = random_frame(rng, d, d + int(rng.integers(0, 16)))
        r = gram_context(frame, random_scaling(rng, frame.n, decades=3.0))
        metric = QMetric(r)
        for b in right_sides(rng, d):
            assert same(_solve_r(r, b, transposed=True),
                        scipy.linalg.solve_triangular(r, b, trans="T", check_finite=False))
            assert same(_solve_r(r, b, transposed=False),
                        scipy.linalg.solve_triangular(r, b, check_finite=False))
            assert same(metric.apply(b), reference_apply(r, b))
        # Rows of the frame, as the perceptron demo solves them.
        assert same(metric.apply(frame.matrix), reference_apply(r, frame.matrix))


@pytest.mark.parametrize("p", range(1, 9))
def test_determinant_search_solves_match_the_wrapper(p, rng):
    # The search solves on the Rh of a thin QR, Householder vectors below
    # its diagonal, for the projections of the outside columns and for R^-1.
    for _ in range(10):
        x = rng.standard_normal((p + int(rng.integers(0, 4)), p + int(rng.integers(1, 12))))
        w, rd = _thin_qr(x[:, :p])
        if p > 1:
            assert np.any(np.tril(rd, -1) != 0.0)
        proj = w.T @ x[:, p:]
        assert same(_solve_r(rd, proj, transposed=False), scipy.linalg.solve_triangular(rd, proj))
        assert same(_solve_r(rd, np.eye(p), transposed=False),
                    scipy.linalg.solve_triangular(rd, np.eye(p)))


def test_qmetric_keeps_r_c_contiguous(rng):
    r = gram_context(random_frame(rng, 4, 9), random_scaling(rng, 9))
    stored = QMetric(np.asfortranarray(r))._r
    assert stored.flags.c_contiguous and np.array_equal(stored, r)
    b = rng.standard_normal((4, 6))
    assert same(QMetric(np.asfortranarray(r)).apply(b), QMetric(r).apply(b))


def test_set_gram_matches_indexing(rng):
    for _ in range(100):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(d + 1, 25))
        q = orthonormal_factor(random_frame(rng, d, n), random_scaling(rng, n, decades=4.0))
        mask = np.zeros(n, dtype=bool)
        mask[rng.permutation(n)[: int(rng.integers(1, n))]] = True
        assert same(_set_gram(q, mask), reference_set_gram(q, mask))


def rank_inputs(rng):
    """Matrices whose larger side is a power of two, so the rank's cutoff
    max(d, k) * eps * (largest norm) pins that norm exactly, some with a
    zero column and one all zero."""
    for a in pivoted_qr_inputs(rng, count=200):
        d = 2 ** int(rng.integers(0, 4))
        k = 2 ** int(rng.integers(0, 5))
        m = np.zeros((d, k))
        m[: min(d, a.shape[0]), : min(k, a.shape[1])] = a[:d, :k]
        if k > 1 and rng.random() < 0.5:
            m[:, int(rng.integers(0, k))] = 0.0
        yield m
    yield np.zeros((4, 2))


def test_rank_cutoff_reads_numpy_norms(rng, monkeypatch):
    pivoted_qr = framescale.linalg._pivoted_qr
    for m in rank_inputs(rng):
        d, k = m.shape
        scaled = rank_scaled(m)
        max_norm = float(np.linalg.norm(scaled, axis=0).max(initial=0.0))
        if max_norm == 0.0:
            assert numerical_rank(m) == 0
            continue
        # The rank with the library's own QR, against the wrapper-form cutoff.
        cutoff = max(d, k) * _EPS * max_norm
        diag = np.abs(pivoted_qr(scaled)[0].diagonal())
        assert numerical_rank(m) == np.count_nonzero(diag > cutoff)
        # A pivot exactly at the cutoff does not count; one ulp above does.
        with monkeypatch.context() as patch:
            patch.setattr(framescale.linalg, "_pivoted_qr",
                          lambda a: (np.diag([np.nextafter(cutoff, np.inf), cutoff]), None))
            assert numerical_rank(m) == 1


def test_singular_triangle_fails_by_name():
    with pytest.raises(FactorizationFailure, match="singular triangle"):
        QMetric(np.diag([1.0, 0.0])).apply(np.ones(2))
    with pytest.raises(FactorizationFailure, match="singular triangle"):
        _solve_r(np.diag([0.0, 1.0]), np.ones((2, 3)), transposed=False)


def singular_thin_qr(b):
    w, rd = _thin_qr(b)
    rd[-1, -1] = 0.0
    return w, rd


def test_determinant_search_singular_block_fails_by_name(rng, monkeypatch):
    x = orthonormal_factor(random_frame(rng, 4, 9), np.ones(9))[:6].T
    monkeypatch.setattr(framescale.update, "_thin_qr", singular_thin_qr)
    with pytest.raises(FactorizationFailure, match="singular triangle"):
        _det_local_opt_columns(x, 2)


def test_singular_block_inside_a_solve_keeps_the_trace(monkeypatch):
    monkeypatch.setattr(framescale.update, "_thin_qr", singular_thin_qr)
    U, c = fuzz_recipe(18)  # runs the guess branch
    with pytest.raises(FactorizationFailure, match="singular triangle") as info:
        scale_frame(Frame(U), Marginals(c, d=U.shape[0]), 1e-6, SolverConfig(max_iters=1000))
    assert info.value.trace is not None


@pytest.fixture
def wrappers_raise(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a wrapper the frame side no longer calls was called")

    monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
    monkeypatch.setattr(np.linalg, "norm", forbidden)


@pytest.mark.parametrize("seed", [0, 1])
def test_gaussian_solve_and_perceptron_demo_skip_the_wrappers(seed, wrappers_raise):
    # The frame_gaussian workload's solve and its perceptron demo, call for call.
    U, c = gen_gaussian(5, 20, seed)
    frame = Frame(U)
    res = scale_frame(frame, Marginals(c, d=5), 1e-6)
    assert res.scaled
    z = res.scaling
    w = np.random.default_rng([seed, 0]).standard_normal(5)
    metric = QMetric.from_frame(frame, z)
    samples = [LabeledSample(p, 1 if metric.inner(w, p) >= 0 else -1) for p in frame.matrix.T]
    gamma = 1.0 / math.sqrt(20.0)
    out = improved_perceptron(samples, metric, gamma)
    assert margin_fraction(frame, z, w) >= 1.0 / 25.0
    vn = metric.norm_sq(out.vector)
    for s in samples:
        score = metric.inner(out.vector, s.point)
        if score * score >= gamma * gamma * vn * metric.norm_sq(s.point):
            assert (1 if score > 0 else -1) == s.label


def test_guess_branch_skips_the_wrappers(wrappers_raise, monkeypatch):
    searches = []
    original = framescale.update._det_local_opt_columns

    def counting(*args):
        searches.append(None)
        return original(*args)

    monkeypatch.setattr(framescale.update, "_det_local_opt_columns", counting)
    U, c = fuzz_recipe(18)  # five guess steps, three of them searching
    res = scale_frame(Frame(U), Marginals(c, d=U.shape[0]), 1e-6, SolverConfig(max_iters=1000))
    assert res.scaled
    assert len(searches) == 3


@pytest.mark.parametrize("r, x", [
    (np.ones((2, 3)), np.ones(2)),              # R not square
    (np.eye(3)[None], np.ones(3)),              # R not a matrix
    (np.eye(3), np.ones(2)),                    # x too short
    (np.eye(3), np.ones(4)),                    # x too long
    (np.eye(3), np.ones((4, 2))),
    (np.eye(3), np.ones((3, 2, 2))),            # x of three dimensions
    (np.eye(3), np.float64(1.0)),
])
def test_qmetric_rejects_mismatched_shapes(r, x):
    # dtrtrs itself would read a longer right side's first rows and leave
    # the rest, silently. scipy's wrapper raised ValueError here too, but an
    # IndexError on the 0-d x.
    with pytest.raises(ValueError):
        QMetric(r).apply(x)


def test_qmetric_rejects_an_empty_r(capfd):
    # dtrtrs on a 0 x 0 triangle fails with info = -7 after LAPACK's own
    # error handler prints to stderr; the constructor stops it first.
    with pytest.raises(ValueError, match="non-empty square"):
        QMetric(np.zeros((0, 0)))
    assert capfd.readouterr().err == ""
