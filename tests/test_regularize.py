import math
from fractions import Fraction

import numpy as np
import pytest

from framescale import Frame, Marginals, leverage_scores, regularize, rho_overestimate, scale_frame
from framescale.regularize import RhoCache

from conftest import (
    fraction_inverse,
    fuzz_recipe,
    gram_inv_half,
    random_frame,
    sequential_regularize,
)


def true_one_plus_rho(U, T):
    """1 + rho_T via the whitening oracle: 1 / lambda_min^+ of the projected Gram."""
    W = gram_inv_half(U, np.ones(U.shape[1]))
    B = W @ U[:, T]
    w = np.linalg.eigvalsh(B.T @ B)
    nonzero = w[w > len(w) * np.finfo(float).eps * max(w.max(), 1.0)]
    return 1.0 / nonzero.min()


class TestRhoOverestimate:
    def test_orthonormal(self):
        assert rho_overestimate(Frame(np.eye(2)), [0]) == pytest.approx(1.0)

    def test_scalar_pair(self):
        frame = Frame(np.array([[1.0, 1.0]]))
        assert rho_overestimate(frame, [0]) == pytest.approx(2.0)

    def test_hand_computed(self):
        frame = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert rho_overestimate(frame, [2]) == pytest.approx(1.5)

    def test_sandwich(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 14))
            frame = random_frame(rng, d, n)
            k = int(rng.integers(1, n))
            T = np.sort(rng.permutation(n)[:k])
            rho_hat = rho_overestimate(frame, T)
            lower = true_one_plus_rho(frame.matrix, T)
            assert lower * (1 - 1e-8) <= rho_hat <= d * lower * (1 + 1e-8)

    def test_exact_on_tiny_eigenvalue(self):
        # Recipe seed 43 (near-deficient last row): M = U_T^T (UU^T)^{-1} U_T
        # for T = {0, 1, 2} has an eigenvalue near 2.5e-20, so tr(M^{-1}) is
        # about 4.06e19; a cutoff at eps times the largest eigenvalue of M
        # drops it and reports 33.5.
        U, _ = fuzz_recipe(43)
        T = [0, 1, 2]
        F = [[Fraction(float(v)) for v in row] for row in U]
        d, n = U.shape
        g_inv = fraction_inverse([[sum(F[i][k] * F[j][k] for k in range(n)) for j in range(d)]
                                  for i in range(d)])
        m = [[sum(F[a][i] * g_inv[a][b] * F[b][j] for a in range(d) for b in range(d))
              for j in T] for i in T]
        m_inv = fraction_inverse(m)
        exact = float(sum(m_inv[i][i] for i in range(len(T))))
        assert exact == pytest.approx(4.0646e19, rel=1e-4)
        assert rho_overestimate(Frame(U), T) == pytest.approx(exact, rel=1e-4)

    def test_cache_consistent(self, rng):
        frame = random_frame(rng, 3, 8)
        cache = RhoCache(frame)
        T = np.array([1, 4])
        assert cache.rho(T) == cache.rho(T)
        assert cache.rho(T) == pytest.approx(rho_overestimate(frame, T))


class TestRegularize:
    def test_scalar_example(self):
        # ratio 1e9 capped at rho/delta = 200; snapping keeps both entries
        frame = Frame(np.array([[1.0, 1.0]]))
        z = np.array([1e9, 1.0])
        zhat = regularize(frame, z, 0.01)
        np.testing.assert_allclose(zhat, [200.0, 1.0])
        lev_before = leverage_scores(frame, z)
        lev_after = leverage_scores(frame, zhat)
        moved = np.abs(lev_before - lev_after).sum()
        assert moved == pytest.approx(2 * (1e9 / (1e9 + 1) - 200.0 / 201.0), rel=1e-6)
        assert moved <= 2 * 2 * 1 * 0.01

    def test_uniform_unchanged(self, rng):
        frame = random_frame(rng, 3, 8)
        zhat = regularize(frame, np.full(8, 7.0), 0.01)
        np.testing.assert_allclose(zhat, np.ones(8))

    def test_identity_when_gaps_small(self, rng):
        frame = random_frame(rng, 3, 8)
        z = 1.0 + rng.random(8)
        zhat = regularize(frame, z, 0.125)
        snapped = np.floor((z / z.min()) / 0.125 + 0.5) * 0.125
        np.testing.assert_allclose(zhat, snapped / snapped.min(), rtol=1e-15)

    def test_uniform_scaling_invariance(self, rng):
        frame = random_frame(rng, 3, 9)
        z = 10.0 ** rng.uniform(-6, 6, size=9)
        a = leverage_scores(frame, regularize(frame, z, 0.01))
        b = leverage_scores(frame, regularize(frame, 37.0 * z, 0.01))
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_error_bound_adversarial(self, rng):
        for trial in range(30):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2 * d + 2, 16))
            frame = random_frame(rng, d, n)
            z = 10.0 ** rng.uniform(-12.0, 12.0, size=n)
            delta = float(10.0 ** rng.uniform(-4, -1))
            delta = min(delta, 0.49)
            zhat = regularize(frame, z, delta)
            moved = np.abs(leverage_scores(frame, z) - leverage_scores(frame, zhat)).sum()
            assert moved <= 3.0 * n * d * delta + 1e-9

    def test_range_bound(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2 * d + 2, 14))
            frame = random_frame(rng, d, n)
            z = 10.0 ** rng.uniform(-12.0, 12.0, size=n)
            delta = 0.01
            zhat = regularize(frame, z, delta)
            cache = RhoCache(frame)
            order = np.argsort(-z, kind="stable")
            rho_max = max(cache.rho(order[:k]) for k in range(1, n))
            bound = n * math.log(d * rho_max / delta) + math.log(1.0 / delta)
            assert math.log(zhat.max() / zhat.min()) <= bound + 1e-9

    def test_idempotent_up_to_grid(self, rng):
        for _ in range(10):
            frame = random_frame(rng, 3, 10)
            z = 10.0 ** rng.uniform(-9, 9, size=10)
            delta = 0.02
            once = regularize(frame, z, delta)
            twice = regularize(frame, once, delta)
            assert np.abs(twice - once).max() <= delta * (1.0 + 1e-12)

    def test_order_preserved(self, rng):
        for _ in range(10):
            frame = random_frame(rng, 3, 10)
            z = 10.0 ** rng.uniform(-10, 10, size=10)
            zhat = regularize(frame, z, 0.01)
            order = np.argsort(z, kind="stable")
            assert np.all(np.diff(zhat[order]) >= -1e-15)

    def test_rejects_bad_delta(self, rng):
        frame = random_frame(rng, 2, 5)
        for delta in (0.0, 0.5, 1.0, -0.1):
            with pytest.raises(ValueError):
                regularize(frame, np.ones(5), delta)


class CountingRhoCache(RhoCache):
    """RhoCache that counts rho requests, hits included."""

    def __init__(self, frame):
        super().__init__(frame)
        self.calls = 0

    def rho(self, T):
        self.calls += 1
        return super().rho(T)


class TestRegularizeOracle:
    @pytest.mark.parametrize("decades", [10.0, 0.0])
    def test_equals_sequential(self, rng, decades):
        # decades=10: z spread over 20 decades, so shrinks fire and rho is
        # evaluated; decades=0: z within [1, 1.5), so no gap is ever visited.
        shrinks = visited = 0
        for _ in range(40):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(d + 1, 14))
            frame = random_frame(rng, d, n)
            if decades:
                z = 10.0 ** rng.uniform(-decades, decades, size=n)
            else:
                z = 1.0 + 0.5 * rng.random(n)
            delta = float(10.0 ** rng.uniform(-4, np.log10(0.4)))
            fast = CountingRhoCache(frame)
            slow = CountingRhoCache(frame)
            want, fired = sequential_regularize(frame, z, delta, slow)
            got = regularize(frame, z, delta, cache=fast)
            assert np.array_equal(got, want)
            assert fast.calls == slow.calls
            shrinks += fired
            visited += slow.calls
        if decades:
            assert shrinks > 0 and visited > shrinks
        else:
            assert shrinks == 0 and visited == 0


class TestGrowthBound:
    def test_iterate_growth_on_traces(self, rng):
        # ||log z^{(t+1)}||_inf <= 2 ||log z^{(t)}||_inf + log rho_hat_max + C
        frame = random_frame(rng, 3, 9)
        res = scale_frame(frame, Marginals(np.full(9, 1 / 3), d=3), 1e-7)
        assert res.scaled
        cache = RhoCache(frame)
        idx = np.arange(9)
        rho_max = max(cache.rho(idx[: k + 1]) for k in range(8))
        C = 3.0
        prev = 0.0  # z starts at all ones
        for rec in res.trace:
            assert rec.log_z_inf <= 2.0 * prev + math.log(rho_max) + C + 1e-9
            prev = rec.log_z_inf
