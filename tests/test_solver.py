import numpy as np
import pytest

from framescale import (
    INFEASIBLE,
    SCALED,
    DerivativeVanished,
    Frame,
    IterationCapExceeded,
    IterationRecord,
    Marginals,
    ProxyContext,
    ScalingResult,
    SolverConfig,
    compute_update,
    infeasibility_certificate,
    leverage_scores,
    numerical_rank,
    orthonormal_factor,
    scale_frame,
    select_margin_set,
)
from framescale.generate import gen_gaussian, gen_infeasible
from framescale.regularize import RhoCache
from framescale.solver import RankCache

from conftest import (
    fuzz_recipe,
    mu_spectrum,
    oracle_h,
    oracle_h_prime,
    random_frame,
    random_scaling,
    sequential_regularize,
    whitened,
)


def margin_from_error(x):
    """Feed select_margin_set a zero-sum error vector directly."""
    x = np.asarray(x, dtype=np.float64)
    return select_margin_set(x, np.zeros_like(x))


class TestSelectMarginSet:
    def test_hand_example(self):
        # sorted gaps are (0.2, 0.3, 0.0) -> cut after two entries
        ms = margin_from_error([-0.3, -0.1, 0.2, 0.2])
        assert ms.k == 2
        assert ms.gamma == pytest.approx(0.15)
        assert ms.nu == pytest.approx(0.05)
        assert sorted(ms.indices) == [0, 1]
        # gap inequality with n = 4
        assert ms.gamma**2 >= 0.18 / 128.0

    def test_two_point(self):
        for a in (0.01, 0.3, 1.0):
            ms = margin_from_error([-a, a])
            assert list(ms.indices) == [0]
            assert ms.gamma == pytest.approx(a)
            assert ms.nu == pytest.approx(0.0)

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            margin_from_error([0.5, 0.2])

    def test_invariants_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 30))
            x = rng.standard_normal(n)
            x -= x.mean()
            if np.abs(x).max() == 0.0:
                continue
            ms = margin_from_error(x)
            T = ms.indices
            Tbar = ms.complement
            assert 1 <= len(T) <= n - 1
            assert x[T].max() <= ms.nu - ms.gamma + 1e-12
            assert x[Tbar].min() >= ms.nu + ms.gamma - 1e-12
            assert ms.gamma**2 >= np.sum(x**2) / (2.0 * n**3) - 1e-12

    def test_tie_breaks_to_smallest_cut(self):
        ms = margin_from_error([-0.5, -0.1, 0.1, 0.5])
        assert ms.k == 1  # gaps 0.4, 0.2, 0.4; first max wins


class TestProxy:
    def test_scalar_formulas(self):
        frame = Frame(np.array([[1.0, 1.0]]))
        ctx = ProxyContext(frame, np.ones(2), [0])
        assert ctx.h(1.0) == pytest.approx(0.5, abs=1e-12)
        assert ctx.h(3.0) == pytest.approx(0.75, abs=1e-12)
        assert ctx.h_prime(1.0) == pytest.approx(0.25, abs=1e-12)
        for alpha in (1.0, 2.5, 10.0, 1e4):
            assert ctx.h(alpha) == pytest.approx(alpha / (alpha + 1.0), abs=1e-10)
            assert ctx.h_prime(alpha) == pytest.approx(1.0 / (alpha + 1.0) ** 2, abs=1e-10)

    def test_h_at_one_is_leverage_mass(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 16))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            ctx = ProxyContext(frame, z, T)
            lev = leverage_scores(frame, z)
            assert ctx.h(1.0) == pytest.approx(lev[T].sum(), abs=1e-10)

    def test_block_sum_invariant(self, rng):
        # h(1) = tr(M_T (M_T + M_Tbar)^{-1}) and h'(1) = tr(A - A^2) with
        # A = (M_T + M_Tbar)^{-1} M_T, from Gram blocks formed here; a proxy
        # seeded with the iterate's factor agrees bit for bit at alpha = 1.
        for _ in range(20):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(d + 1, 14))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            mask = np.zeros(n, dtype=bool)
            mask[T] = True
            U = frame.matrix
            m_t = (U[:, mask] * z[mask]) @ U[:, mask].T
            m_tbar = (U[:, ~mask] * z[~mask]) @ U[:, ~mask].T
            gram = (U * z) @ U.T
            assert np.abs(m_t + m_tbar - gram).max() <= 1e-10 * np.abs(gram).max()
            a = np.linalg.solve(m_t + m_tbar, m_t)
            fresh = ProxyContext(frame, z, T)
            assert fresh.h(1.0) == pytest.approx(np.trace(a), abs=1e-9)
            assert fresh.h_prime(1.0) == pytest.approx(np.trace(a - a @ a), abs=1e-9)
            seeded = ProxyContext(frame, z, T, q=orthonormal_factor(frame, z))
            assert (seeded.h(1.0), seeded.h_prime(1.0)) == (fresh.h(1.0), fresh.h_prime(1.0))
            # away from 1 the seeded proxy factors the shifted frame as before
            assert seeded.h(3.0) == fresh.h(3.0)

    def test_matches_spectral_oracle(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 14))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            mu = mu_spectrum(frame.matrix, z, T)
            ctx = ProxyContext(frame, z, T)
            for alpha in (1.0, 1.7, 5.0, 40.0):
                assert ctx.h(alpha) == pytest.approx(oracle_h(mu, alpha), abs=5e-9)
                assert ctx.h_prime(alpha) == pytest.approx(oracle_h_prime(mu, alpha), abs=5e-9)

    def test_finite_difference(self, rng):
        s = 1e-5
        for _ in range(20):
            frame = random_frame(rng, 3, 9)
            z = random_scaling(rng, 9)
            T = rng.permutation(9)[:4]
            ctx = ProxyContext(frame, z, T)
            for alpha in (1.5, 3.0, 8.0):
                fd = (ctx.h(alpha + s) - ctx.h(alpha - s)) / (2 * s)
                assert ctx.h_prime(alpha) == pytest.approx(fd, abs=1e-7, rel=1e-5)

    def test_limit_is_rank(self, rng):
        hits = 0
        while hits < 25:
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 14))
            frame = random_frame(rng, d, n)
            if hits % 3 == 0 and n >= 4:
                m = frame.matrix.copy()
                m[:, 1] = 2.0 * m[:, 0]  # force rank-deficient subsets
                try:
                    frame = Frame(m)
                except ValueError:
                    continue
            z = random_scaling(rng, n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            mu = mu_spectrum(frame.matrix, z, T)
            nonzero = mu[mu > 1e-9]
            if nonzero.size and nonzero.min() < 1e-4:
                continue  # limit not yet reached at alpha = 1e12
            hits += 1
            rank = numerical_rank(frame.columns(T))
            ctx = ProxyContext(frame, z, T)
            assert abs(ctx.h(1e12) - rank) <= 1e-6

    def test_monotone_leverage_under_subset_scale_up(self, rng):
        for _ in range(20):
            frame = random_frame(rng, 3, 10)
            z = random_scaling(rng, 10)
            T = rng.permutation(10)[:4]
            mask = np.zeros(10, dtype=bool)
            mask[T] = True
            alphas = np.sort(1.0 + 9.0 * rng.random(2))
            levs = []
            for a in alphas:
                w = z.copy()
                w[mask] *= a
                levs.append(leverage_scores(frame, w))
            assert np.all(levs[1][mask] >= levs[0][mask] - 1e-9)
            assert np.all(levs[1][~mask] <= levs[0][~mask] + 1e-9)

    def test_concavity(self, rng):
        for _ in range(20):
            frame = random_frame(rng, 3, 9)
            z = random_scaling(rng, 9)
            T = rng.permutation(9)[:3]
            ctx = ProxyContext(frame, z, T)
            a1, a2, a3 = np.sort(1.0 + 20.0 * rng.random(3))
            if a3 - a1 < 1e-6:
                continue
            t = (a2 - a1) / (a3 - a1)
            interp = (1 - t) * ctx.h(a1) + t * ctx.h(a3)
            assert ctx.h(a2) >= interp - 1e-9

    def test_bregman_sandwich(self, rng):
        for _ in range(30):
            frame = random_frame(rng, 3, 9)
            z = random_scaling(rng, 9)
            T = rng.permutation(9)[:3]
            ctx = ProxyContext(frame, z, T)
            a = 1.0 + 5.0 * rng.random()
            ap = a + 5.0 * rng.random()
            d_breg = ctx.h_prime(a) * (ap - a) + ctx.h(a) - ctx.h(ap)
            assert d_breg >= -1e-9
            assert d_breg <= (ap / a - 1.0) * (ctx.h(ap) - ctx.h(a)) + 1e-9

    def test_margin_mass_slack(self, rng):
        # <c, 1_T> - h(1) >= gamma for the selected margin set
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 2, 16))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            lev = leverage_scores(frame, z)
            c = np.full(n, d / n)
            ms = select_margin_set(lev, c)
            if ms.gamma == 0.0:
                continue
            assert c[ms.indices].sum() - lev[ms.indices].sum() >= ms.gamma * (1 - 1e-9) - 1e-12

    def test_rejects_improper_subset(self, rng):
        frame = random_frame(rng, 2, 4)
        with pytest.raises(ValueError):
            ProxyContext(frame, np.ones(4), [])
        with pytest.raises(ValueError):
            ProxyContext(frame, np.ones(4), [0, 1, 2, 3])
        ctx = ProxyContext(frame, np.ones(4), [0])
        with pytest.raises(ValueError):
            ctx.h(0.5)


class TestInfeasibilityCertificate:
    def test_parallel_columns(self):
        frame = Frame(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        c = np.array([0.8, 0.8, 0.4])
        cert = infeasibility_certificate(frame, c, [0, 1])
        assert cert is not None and list(cert) == [0, 1]

    def test_identity_never_certifies(self):
        frame = Frame(np.eye(2))
        c = np.array([1.0, 1.0])
        assert infeasibility_certificate(frame, c, [0]) is None
        assert infeasibility_certificate(frame, c, [1]) is None

    def test_single_heavy_column(self):
        frame = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        c = np.array([1.2, 0.4, 0.4])
        cert = infeasibility_certificate(frame, c, [0])
        assert cert is not None and list(cert) == [0]


class TestScaleFrame:
    def test_identity_zero_iterations(self):
        frame = Frame(np.eye(3))
        res = scale_frame(frame, Marginals(np.ones(3), d=3), 1e-8)
        assert res.scaled and res.iterations == 0
        np.testing.assert_allclose(res.scaling, np.ones(3))

    def test_already_balanced(self):
        frame = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        res = scale_frame(frame, Marginals(np.full(3, 2 / 3), d=2), 1e-8)
        assert res.scaled and res.iterations == 0

    def test_infeasible_instance(self):
        frame = Frame(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        res = scale_frame(frame, Marginals(np.array([0.8, 0.8, 0.4]), d=2), 1e-8)
        assert res.status == "infeasible"
        assert list(res.certificate) == [0, 1]

    def test_gaussian_converges(self, rng):
        for seed in range(3):
            local = np.random.default_rng(seed)
            frame = random_frame(local, 3, 10)
            res = scale_frame(frame, Marginals(np.full(10, 0.3), d=3), 1e-7)
            assert res.scaled
            lev = leverage_scores(frame, res.scaling)
            assert ((lev - 0.3) ** 2).sum() <= 1e-14
            assert res.scaling.min() == pytest.approx(1.0)

    def test_trace_guarantees(self, rng):
        frame = random_frame(rng, 4, 12)
        res = scale_frame(frame, Marginals(np.full(12, 1 / 3), d=4), 1e-6)
        assert res.scaled and len(res.trace) == res.iterations
        n = 12
        for rec in res.trace:
            assert rec.gamma**2 >= rec.error_sq / (2.0 * n**3) - 1e-12
            assert rec.h_gain >= rec.gamma / 5.0 - 1e-9
            assert rec.h_gain <= rec.gamma + 1e-9
            assert rec.progress >= rec.gamma**2 / 5.0 - 1e-9
            # error decrease dominates 2 gamma (h(alpha) - h(1))
            assert rec.progress >= 2.0 * rec.gamma * rec.h_gain - rec.gamma**2 / 5.0 - 1e-8

    def test_progress_rate_without_regularization(self, rng):
        frame = random_frame(rng, 3, 9)
        config = SolverConfig(regularize=False)
        res = scale_frame(frame, Marginals(np.full(9, 1 / 3), d=3), 1e-6, config)
        assert res.scaled
        for rec in res.trace:
            assert rec.progress >= 2.0 * rec.gamma * rec.h_gain - 1e-8

    def test_iteration_cap(self, rng):
        frame = random_frame(rng, 3, 9)
        config = SolverConfig(max_iters=1)
        with pytest.raises(IterationCapExceeded) as info:
            scale_frame(frame, Marginals(np.full(9, 1 / 3), d=3), 1e-10, config)
        assert info.value.trace is not None

    def test_numeric_failure_keeps_trace(self, rng, monkeypatch):
        import framescale.update

        calls = []
        original = framescale.update.compute_update

        def failing_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise DerivativeVanished("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(framescale.update, "compute_update", failing_third)
        frame = random_frame(rng, 3, 9)
        with pytest.raises(DerivativeVanished) as info:
            scale_frame(frame, Marginals(np.full(9, 1 / 3), d=3), 1e-10)
        assert len(info.value.trace) == 2
        assert all(isinstance(rec, IterationRecord) for rec in info.value.trace)

    def test_dimension_mismatch(self):
        frame = Frame(np.eye(2))
        with pytest.raises(ValueError):
            scale_frame(frame, Marginals(np.ones(3), d=3), 1e-6)


class TestFuzzRegressions:
    # Recipe seeds that failed or stalled while the eigen-sum kernel, its
    # projection and rho_hat came from a Gram Cholesky: NotSymmetric,
    # FactorizationFailure, PreconditionViolated, GuessPreconditionViolated,
    # DerivativeVanished, or no convergence within 1000 iterations.
    @pytest.mark.parametrize("seed", [2, 43, 50, 51, 66, 90, 122, 134, 146, 203, 242,
                                      359, 658, 959])
    def test_scales(self, seed):
        U, c = fuzz_recipe(seed)
        eps = 1e-6
        res = scale_frame(Frame(U), Marginals(c, d=U.shape[0]), eps, SolverConfig(max_iters=1000))
        assert res.scaled
        V = whitened(U, res.scaling)
        assert np.linalg.norm((V * V).sum(axis=0) - c) <= eps


class TestMarginals:
    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            Marginals(np.array([0.5, -0.5, 2.0]), d=2)
        with pytest.raises(ValueError):
            Marginals(np.array([1.2, 0.8]), d=2)  # entry above 1
        with pytest.raises(ValueError):
            Marginals(np.array([0.5, 0.5]), d=2)  # sum mismatch

    def test_accepts_valid(self):
        m = Marginals(np.array([0.75, 0.75, 0.5]), d=2)
        assert m.n == 3


class TestRankCache:
    def test_matches_visited_order_rank(self, monkeypatch):
        # Parallel-column fuzz frames (recipe kind 1): the margin sets that
        # hold both parallel columns are rank-deficient.
        seen = []
        original = RankCache.rank

        def recording(self, T):
            value = original(self, T)
            seen.append((self.frame, np.array(T), value))
            return value

        monkeypatch.setattr(RankCache, "rank", recording)
        for seed in (1, 17, 73, 109):
            U, c = fuzz_recipe(seed)
            scale_frame(Frame(U), Marginals(c, d=U.shape[0]), 1e-6)
        deficient = 0
        for frame, T, value in seen:
            assert value == numerical_rank(frame.columns(T))
            deficient += value < min(T.size, frame.d)
        assert deficient > 0
        assert len({(id(f), tuple(np.sort(T))) for f, T, _ in seen}) < len(seen)

    def test_tolerance_applies(self):
        frame = Frame(np.array([[1.0, 1.0, 0.0], [0.0, 1e-9, 1.0]]))
        assert RankCache(frame).rank([1, 0]) == 2


def reference_scale_frame(frame, marginals, eps, config=None):
    """The frame loop from public pieces, each doing its own work.

    A fresh-QR proxy (no factor passed), an unmemoized rank check, the
    gap-by-gap regularizer and a leverage recompute from z; the result must
    match scale_frame exactly.
    """
    config = config or SolverConfig()
    n = frame.n
    c = marginals.values
    cap = config.iteration_cap(n, eps)
    rho_cache = RhoCache(frame) if config.regularize else None
    z = np.ones(n)
    lev = leverage_scores(frame, z)
    err_sq = float(((lev - c) ** 2).sum())
    trace = []
    it = 0
    while err_sq > eps * eps:
        if it >= cap:
            raise IterationCapExceeded("cap", trace=trace)
        it += 1
        ms = select_margin_set(lev, c)
        T = ms.indices
        cert = infeasibility_certificate(frame, c, T)
        if cert is not None:
            return ScalingResult(status=INFEASIBLE, scaling=None, certificate=cert,
                                 iterations=it, final_error_sq=err_sq, trace=trace)
        upd = compute_update(frame, z, T, ms.gamma)
        z = z.copy()
        z[T] *= upd.alpha
        if config.regularize:
            delta = ms.gamma / (15.0 * n**2.5 * frame.d)
            z, _ = sequential_regularize(frame, z, delta, rho_cache)
        z = z / z.min()
        lev = leverage_scores(frame, z)
        new_err_sq = float(((lev - c) ** 2).sum())
        trace.append(IterationRecord(
            error_sq=err_sq, gamma=ms.gamma, alpha_hat=upd.alpha, h_gain=upd.h_gain,
            progress=err_sq - new_err_sq, nd_iters=upd.nd_iters,
            regularized=config.regularize, hp_one=upd.hp_one,
            log_z_inf=float(np.abs(np.log(z)).max()),
        ))
        err_sq = new_err_sq
    return ScalingResult(status=SCALED, scaling=z, certificate=None,
                         iterations=it, final_error_sq=err_sq, trace=trace)


class TestBitIdentity:
    @pytest.mark.parametrize("case", ["gaussian", "spread-norms", "infeasible"])
    def test_matches_reference_driver(self, case):
        eps = 1e-6
        if case == "gaussian":
            U, c = gen_gaussian(4, 12, 0)
            eps = 1e-8
        elif case == "spread-norms":
            U, c = fuzz_recipe(226)  # runs the guess branch and fires two shrinks
        else:
            U, c = gen_infeasible(4, 9, 0)
        frame, marginals = Frame(U), Marginals(c, d=U.shape[0])
        got = scale_frame(frame, marginals, eps)
        want = reference_scale_frame(frame, marginals, eps)
        assert got.status == want.status
        assert got.iterations == want.iterations
        assert got.final_error_sq == want.final_error_sq
        if case == "infeasible":
            assert got.status == INFEASIBLE
            assert np.array_equal(got.certificate, want.certificate)
        else:
            assert got.status == SCALED
            assert np.array_equal(got.scaling, want.scaling)
        if case == "gaussian":
            assert got.iterations == 821
        assert got.trace == want.trace
