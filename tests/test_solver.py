import functools
from fractions import Fraction

import numpy as np
import pytest

from framescale import (
    INFEASIBLE,
    SCALED,
    DerivativeVanished,
    Frame,
    InfeasibleSegment,
    IterationCapExceeded,
    IterationRecord,
    Marginals,
    ScalingResult,
    SolverConfig,
    compute_update,
    infeasibility_certificate,
    leverage_scores,
    numerical_rank,
    proxy_at,
    regularize,
    scale_frame,
    select_margin_set,
)
from framescale.generate import gen_gaussian, gen_infeasible
from framescale.rational import rational_rank
from framescale.regularize import RhoCache
from framescale.solver import UpdateResult, _margin_loop

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

    @pytest.mark.parametrize("imbalance, passes", [
        (2e-8, True),     # above 1e-8, below the tolerance 1e-8 |c|_1 = 1e-7
        (9e-8, True),
        (1.1e-7, False),  # above 1e-8 |c|_1
        (-1.1e-7, False),
    ])
    def test_balance_tolerance_scales_with_mass(self, imbalance, passes):
        c = np.full(20, 0.5)  # |c|_1 = 10
        lev = c + np.linspace(-0.1, 0.1, 20)
        lev[3] += imbalance
        total = float((lev - c).sum())
        assert abs(total - imbalance) < 1e-14
        if passes:
            assert select_margin_set(lev, c).gamma > 0.0
        else:
            with pytest.raises(ValueError, match="must sum to 0"):
                select_margin_set(lev, c)

    def test_balance_tolerance_floor_on_small_mass(self):
        # |c|_1 < 1: the tolerance is 1e-8, not 1e-8 |c|_1.
        c = np.array([0.1, 0.2])
        assert select_margin_set(c + [-0.05, 0.05 + 9e-9], c).k == 1
        with pytest.raises(ValueError, match="must sum to 0"):
            select_margin_set(c + [-0.05, 0.05 + 2e-8], c)


class TestProxy:
    def test_scalar_formulas(self):
        frame = Frame(np.array([[1.0, 1.0]]))
        assert proxy_at(frame, np.ones(2), [0], 1.0) == pytest.approx((0.5, 0.25), abs=1e-12)
        assert proxy_at(frame, np.ones(2), [0], 3.0)[0] == pytest.approx(0.75, abs=1e-12)
        for alpha in (1.0, 2.5, 10.0, 1e4):
            h, hp = proxy_at(frame, np.ones(2), [0], alpha)
            assert h == pytest.approx(alpha / (alpha + 1.0), abs=1e-10)
            assert hp == pytest.approx(1.0 / (alpha + 1.0) ** 2, abs=1e-10)

    def test_h_at_one_is_leverage_mass(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 16))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            lev = leverage_scores(frame, z)
            assert proxy_at(frame, z, T, 1.0)[0] == pytest.approx(lev[T].sum(), abs=1e-10)

    def test_block_sum_invariant(self, rng):
        # h(1) = tr(M_T (M_T + M_Tbar)^{-1}) and h'(1) = tr(A - A^2) with
        # A = (M_T + M_Tbar)^{-1} M_T, from Gram blocks formed here.
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
            h, hp = proxy_at(frame, z, T, 1.0)
            assert h == pytest.approx(np.trace(a), abs=1e-9)
            assert hp == pytest.approx(np.trace(a - a @ a), abs=1e-9)

    def test_scaling_validated_where_read(self, rng):
        # proxy_at validates z on every call, alpha = 1 included.
        frame = random_frame(rng, 3, 6)
        bad = np.ones(6)
        bad[2] = -1.0
        for alpha in (1.0, 2.0):
            with pytest.raises(ValueError, match="strictly positive"):
                proxy_at(frame, bad, [0, 1], alpha)
            with pytest.raises(ValueError, match="shape"):
                proxy_at(frame, np.ones(5), [0, 1], alpha)

    def test_matches_spectral_oracle(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 14))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            mu = mu_spectrum(frame.matrix, z, T)
            for alpha in (1.0, 1.7, 5.0, 40.0):
                h, hp = proxy_at(frame, z, T, alpha)
                assert h == pytest.approx(oracle_h(mu, alpha), abs=5e-9)
                assert hp == pytest.approx(oracle_h_prime(mu, alpha), abs=5e-9)

    def test_finite_difference(self, rng):
        s = 1e-5
        for _ in range(20):
            frame = random_frame(rng, 3, 9)
            z = random_scaling(rng, 9)
            T = rng.permutation(9)[:4]
            for alpha in (1.5, 3.0, 8.0):
                fd = (proxy_at(frame, z, T, alpha + s)[0]
                      - proxy_at(frame, z, T, alpha - s)[0]) / (2 * s)
                assert proxy_at(frame, z, T, alpha)[1] == pytest.approx(fd, abs=1e-7, rel=1e-5)

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
            assert abs(proxy_at(frame, z, T, 1e12)[0] - rank) <= 1e-6

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
            a1, a2, a3 = np.sort(1.0 + 20.0 * rng.random(3))
            if a3 - a1 < 1e-6:
                continue
            h1, h2, h3 = (proxy_at(frame, z, T, a)[0] for a in (a1, a2, a3))
            t = (a2 - a1) / (a3 - a1)
            assert h2 >= (1 - t) * h1 + t * h3 - 1e-9

    def test_bregman_sandwich(self, rng):
        for _ in range(30):
            frame = random_frame(rng, 3, 9)
            z = random_scaling(rng, 9)
            T = rng.permutation(9)[:3]
            a = 1.0 + 5.0 * rng.random()
            ap = a + 5.0 * rng.random()
            (h_a, hp_a), h_ap = proxy_at(frame, z, T, a), proxy_at(frame, z, T, ap)[0]
            d_breg = hp_a * (ap - a) + h_a - h_ap
            assert d_breg >= -1e-9
            assert d_breg <= (ap / a - 1.0) * (h_ap - h_a) + 1e-9

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
            proxy_at(frame, np.ones(4), [], 2.0)
        with pytest.raises(ValueError):
            proxy_at(frame, np.ones(4), [0, 1, 2, 3], 2.0)
        with pytest.raises(ValueError):
            proxy_at(frame, np.ones(4), [0], 0.5)


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

    def test_rejects_repeated_and_out_of_range_indices(self):
        # [0, 0] would count c_0 twice against rank 1, and [-1] would read
        # column n - 1; [0] alone is no certificate.
        frame = Frame(np.random.default_rng(0).standard_normal((2, 4)))
        c = np.array([0.9, 0.3, 0.4, 0.4])
        assert infeasibility_certificate(frame, c, [0]) is None
        for T in ([0, 0], [2, 1, 2], [-1], [4], []):
            with pytest.raises(ValueError, match="distinct column indices"):
                infeasibility_certificate(frame, c, T)


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

    @pytest.mark.parametrize("gen, args", [(gen_gaussian, (5, 20, 0)),
                                           (gen_infeasible, (3, 7, 0))])
    def test_large_entries_give_unscaled_results(self, gen, args):
        # An exact power-of-two scale of U leaves every leverage score, and
        # so the whole run, unchanged.
        U, c = gen(*args)
        marginals = Marginals(c, d=U.shape[0])
        want = scale_frame(Frame(U), marginals, 1e-6)
        got = scale_frame(Frame(U * 2.0**520), marginals, 1e-6)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        if want.scaled:
            assert np.array_equal(got.scaling, want.scaling)
        else:
            assert np.array_equal(got.certificate, want.certificate)

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

    def test_step_progress_before_shrink(self, rng):
        # The step lemma: the step alone lowers the error by at least
        # 2 gamma h_gain. Checked on the regularized loop, built from public
        # pieces, before each iteration's shrink moves the leverage again.
        def error_sq(frame, z, c):
            return float(((leverage_scores(frame, z) - c) ** 2).sum())

        U, c = gen_gaussian(4, 12, 0)
        for frame, c in ((random_frame(rng, 3, 9), np.full(9, 1 / 3)), (Frame(U), c)):
            n, cache = frame.n, RhoCache(frame)
            z = np.ones(n)
            err_sq = error_sq(frame, z, c)
            steps = 0
            while err_sq > 1e-12:
                ms = select_margin_set(leverage_scores(frame, z), c)
                assert infeasibility_certificate(frame, c, ms.indices) is None
                upd = compute_update(frame, z, ms.indices, ms.gamma)
                z = z.copy()
                z[ms.indices] *= upd.alpha
                assert err_sq - error_sq(frame, z, c) >= 2.0 * ms.gamma * upd.h_gain - 1e-8
                z = regularize(frame, z, ms.gamma / (15.0 * n**2.5 * frame.d), cache=cache)
                err_sq = error_sq(frame, z, c)
                steps += 1
                assert steps <= 5000
            assert steps > 10

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

    @pytest.mark.parametrize("max_iters", [None, 10])
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-6])
    def test_rejects_bad_eps(self, eps, max_iters):
        U, c = gen_gaussian(3, 8, 0)
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            scale_frame(Frame(U), Marginals(c, d=3), eps, SolverConfig(max_iters=max_iters))


class TestFuzzRegressions:
    # Recipe seeds that failed or stalled when the eigen-sum kernel, its
    # projection and rho_hat were formed as Gram matrices and factored by
    # Cholesky, before they were read off thin QR factors: NotSymmetric,
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


class TestSolverConfig:
    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_rejects_cap_below_one(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            SolverConfig(max_iters=max_iters)


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


def visited_margin_sets(monkeypatch, seeds):
    """Solve recipe seeds; yield (frame, c, [T as visited, ...], certificate calls)."""
    import framescale.solver

    select, certify = framescale.solver.select_margin_set, infeasibility_certificate
    for seed in seeds:
        visited, calls = [], []

        def recording_select(lev, c):
            ms = select(lev, c)
            visited.append(ms.indices.copy())
            return ms

        def recording_certify(frame, c, T):
            calls.append(tuple(T))
            return certify(frame, c, T)

        monkeypatch.setattr(framescale.solver, "select_margin_set", recording_select)
        monkeypatch.setattr(framescale.solver, "infeasibility_certificate", recording_certify)
        U, c = fuzz_recipe(seed)
        frame = Frame(U)
        scale_frame(frame, Marginals(c, d=U.shape[0]), 1e-6)
        yield frame, c, visited, calls


class TestCertificateMemo:
    # Parallel-column fuzz frames (recipe kind 1): the margin sets that hold
    # both parallel columns are rank-deficient.
    SEEDS = (1, 17, 73, 109)

    def test_one_call_per_distinct_set(self, monkeypatch):
        repeats = 0
        for _, _, visited, calls in visited_margin_sets(monkeypatch, self.SEEDS):
            distinct = {tuple(np.sort(T)) for T in visited}
            assert sorted(calls) == sorted(distinct)
            repeats += len(visited) - len(distinct)
        assert repeats > 0

    def test_decision_is_order_free(self, monkeypatch):
        deficient = unsorted = 0
        for frame, c, visited, _ in visited_margin_sets(monkeypatch, self.SEEDS):
            for T in visited:
                ordered = np.sort(T)
                rank = numerical_rank(frame.columns(ordered))
                assert numerical_rank(frame.columns(T)) == rank
                got = infeasibility_certificate(frame, c, T)
                want = infeasibility_certificate(frame, c, ordered)
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(got, ordered) and np.array_equal(want, ordered)
                deficient += rank < min(T.size, frame.d)
                unsorted += not np.array_equal(T, ordered)
        assert deficient > 0 and unsorted > 0

    def test_near_parallel_pair_has_full_rank(self):
        c = np.array([0.75, 0.75, 0.5])
        near = Frame(np.array([[1.0, 1.0, 0.0], [0.0, 1e-9, 1.0]]))
        assert infeasibility_certificate(near, c, [1, 0]) is None
        parallel = Frame(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert list(infeasibility_certificate(parallel, c, [1, 0])) == [0, 1]


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
    rho_cache = RhoCache(frame)
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
        delta = ms.gamma / (15.0 * n**2.5 * frame.d)
        z, _ = sequential_regularize(frame, z, delta, rho_cache)
        # A no-op, since the shrink leaves min exactly 1; scale_frame skips it.
        z = z / z.min()
        lev = leverage_scores(frame, z)
        new_err_sq = float(((lev - c) ** 2).sum())
        trace.append(IterationRecord(
            error_sq=err_sq, gamma=ms.gamma, alpha_hat=upd.alpha, h_gain=upd.h_gain,
            progress=err_sq - new_err_sq, nd_iters=upd.nd_iters, hp_one=upd.hp_one,
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


def tight_pair():
    """Columns 0 and 1 parallel (rank 1) with mass 1 + 5e-8; the rest uniform."""
    U = np.random.default_rng(0).standard_normal((3, 8))
    U[:, 1] = 2.0 * U[:, 0]
    c = np.full(8, (3.0 - (1.0 + 5e-8)) / 6.0)
    c[0] = c[1] = (1.0 + 5e-8) / 2.0
    return Frame(U), Marginals(c, d=3)


class TestStepInfeasibleExit:
    # The rank check's guard, CERTIFICATE_TOL, hides the tight pair's excess
    # mass of 5e-8; the step then proves the band unreachable, and the loop
    # certifies T at zero tolerance.
    def test_tight_pair_certifies(self):
        frame, marginals = tight_pair()
        res = scale_frame(frame, marginals, 1e-9)
        assert res.status == INFEASIBLE and list(res.certificate) == [0, 1]
        assert res.iterations == 358
        rows = [[Fraction(x) for x in row] for row in frame.matrix[:, res.certificate]]
        mass = sum(Fraction(x) for x in marginals.values[res.certificate])
        assert rational_rank(rows) == 1 < mass

    def test_tight_pair_scales_at_coarse_eps(self):
        frame, marginals = tight_pair()
        res = scale_frame(frame, marginals, 1e-6)
        assert res.scaled and res.iterations == 287

    @pytest.mark.parametrize("zero_tol_certifies", [False, True])
    def test_loop_answers_infeasible_step(self, zero_tol_certifies):
        # Stub callbacks: the error vector never moves, so T = [0] every
        # iteration, and the second step raises.
        c = np.array([0.5, 0.5])
        error = np.array([-0.1, 0.1])
        decisions, steps = [], []
        raised = InfeasibleSegment("stub step")

        def measure(z):
            return c + error, float((error**2).sum())

        def certificate(T, zero_tol=False):
            decisions.append((list(T), zero_tol))
            return T if zero_tol and zero_tol_certifies else None

        def step(z, T, gamma):
            steps.append(list(T))
            if len(steps) == 2:
                raise raised
            return UpdateResult(alpha=2.0, h_gain=gamma, nd_iters=0, hp_one=0.0, seeded=False)

        def shrink(z, gamma):
            return z / z.min()

        run = functools.partial(_margin_loop, c, 1e-3, SolverConfig(), measure, certificate,
                                step, shrink)
        if zero_tol_certifies:
            res = run()
            assert res.status == INFEASIBLE and list(res.certificate) == [0]
            assert res.iterations == 2 and len(res.trace) == 1
        else:
            with pytest.raises(InfeasibleSegment) as info:
                run()
            assert info.value is raised
            assert len(info.value.trace) == 1
        assert steps == [[0], [0]]
        assert decisions == [([0], False), ([0], True)]
