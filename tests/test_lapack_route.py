"""The eigensolve and SVD kernels against the wrapper forms they replaced, bit for bit.

``linalg._symmetric_eigenvalues`` (LAPACK ``dsyevd``) gives the spectra of
``logdet_psd``, ``pinv_trace`` and the steep step's P, and
``linalg._singular_values`` (``dgesdd``) the singular values of
``rho_overestimate``. The references here recompute each value the way
the package did before, through scipy's ``eigvalsh`` and numpy's ``svd``.
scipy's ``eigvalsh`` calls ``dsyevr``, which scales a matrix whose largest
entry passes about 1e76 in its own way, so there the kernels are held to
numpy's ``eigvalsh``, which makes the ``dsyevd`` call at every scale.
Both kernels check LAPACK's ``info``: a routine that reports a failure
raises FactorizationFailure at every caller.
"""

import numpy as np
import pytest
import scipy.linalg

from framescale import (FactorizationFailure, Frame, Marginals, compute_update, logdet_psd,
                        orthonormal_factor, pinv_trace, rho_overestimate, scale_frame,
                        select_margin_set)
from framescale.generate import gen_gaussian
from framescale.linalg import _EPS

from conftest import random_frame


def reference_rho(q0, T, d):
    s = np.linalg.svd(q0[T], compute_uv=False)
    keep = s > max(len(T), d) * _EPS * s.max(initial=0.0)
    return float(np.sum(1.0 / s[keep] ** 2))


def scipy_spectrum(m):
    return scipy.linalg.eigvalsh(m, check_finite=False)


def reference_logdet(m, spectrum):
    m = 0.5 * (m + m.T)
    w = spectrum(m)
    if np.any(w <= m.shape[0] * _EPS * max(float(w.max(initial=0.0)), 0.0)):
        return float("-inf")
    return float(np.sum(np.log(w)))


def reference_pinv_trace(m, spectrum):
    m = 0.5 * (m + m.T)
    w = spectrum(m)
    lam_max = float(w.max(initial=0.0))
    if lam_max <= 0.0:
        return 0.0
    return float(np.sum(1.0 / w[w > m.shape[0] * _EPS * lam_max]))


def factors(rng, frame):
    """n x d stand-ins for the frame's unscaled factor: the factor itself, a
    rank-deficient product, rows scaled over 16 decades, and the factor
    scaled by 1e+-150."""
    n, d = frame.n, frame.d
    q0 = orthonormal_factor(frame, np.ones(n))
    yield q0
    r = int(rng.integers(0, d))
    yield rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    yield q0 * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 1))
    yield q0 * 10.0 ** rng.choice([-150.0, 150.0])


def test_rho_overestimate_matches_the_svd_route(rng):
    for _ in range(100):
        d = int(rng.integers(1, 7))
        frame = random_frame(rng, d, d + int(rng.integers(1, 8)))
        for q0 in factors(rng, frame):
            for _ in range(3):
                T = rng.permutation(frame.n)[:int(rng.integers(1, frame.n + 1))]
                assert rho_overestimate(frame, T, q0) == reference_rho(q0, T, frame.d)


def psd_matrices(rng, count=300):
    """Symmetric PSD matrices up to 7 x 7: full rank, rank-deficient, and
    scaled by 1e+-150."""
    for i in range(count):
        k = int(rng.integers(1, 8))
        r = k if i % 3 == 0 else int(rng.integers(0, k + 1))
        b = rng.standard_normal((k, r))
        m = b @ b.T
        if i % 3 == 2:
            m *= 10.0 ** rng.choice([-150.0, 150.0])
        yield m


@pytest.mark.parametrize("spectrum, largest", [(scipy_spectrum, 1e76),
                                               (np.linalg.eigvalsh, np.inf)])
def test_logdet_and_pinv_trace_match_eigvalsh(rng, spectrum, largest):
    checked = 0
    for m in psd_matrices(rng):
        if np.abs(m).max() < largest:
            checked += 1
            assert logdet_psd(m) == reference_logdet(m, spectrum)
            assert pinv_trace(m) == reference_pinv_trace(m, spectrum)
    assert checked >= 250


def failing(routine):
    """A LAPACK routine that runs, then reports info = 1."""
    def wrapped(*args, **kwargs):
        return (*routine(*args, **kwargs)[:-1], 1)
    return wrapped


@pytest.fixture
def steep_step():
    # The first step of a frame_gaussian solve, which is steep.
    U, c = gen_gaussian(5, 20, 0)
    frame = Frame(U)
    q = orthonormal_factor(frame, np.ones(20))
    ms = select_margin_set(np.einsum("ij,ij->i", q, q), c)
    return frame, np.ones(20), ms.indices, ms.gamma, q


def test_a_failed_eigensolve_raises(monkeypatch, steep_step):
    compute_update(*steep_step)  # runs as it is
    monkeypatch.setattr(scipy.linalg.lapack, "dsyevd", failing(scipy.linalg.lapack.dsyevd))
    with pytest.raises(FactorizationFailure, match="dsyevd failed"):
        compute_update(*steep_step)
    with pytest.raises(FactorizationFailure, match="dsyevd failed"):
        pinv_trace(np.eye(3))
    with pytest.raises(FactorizationFailure, match="dsyevd failed"):
        logdet_psd(np.eye(3))
    # Inside a solve the error leaves the loop with the trace it has.
    U, c = gen_gaussian(5, 20, 0)
    with pytest.raises(FactorizationFailure, match="dsyevd failed") as info:
        scale_frame(Frame(U), Marginals(c, d=5), 1e-6)
    assert info.value.trace == []


def test_a_failed_svd_raises(monkeypatch, rng):
    frame = random_frame(rng, 3, 8)
    q0 = orthonormal_factor(frame, np.ones(8))
    rho_overestimate(frame, [0, 1, 2], q0)  # runs as it is
    monkeypatch.setattr(scipy.linalg.lapack, "dgesdd", failing(scipy.linalg.lapack.dgesdd))
    with pytest.raises(FactorizationFailure, match="dgesdd failed"):
        rho_overestimate(frame, [0, 1, 2], q0)
