import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import framescale.update
from framescale import (
    DerivativeVanished,
    FactorizationFailure,
    Frame,
    IterationCapExceeded,
    Marginals,
    PreconditionViolated,
    ScalingError,
    SolverConfig,
    approx_small_eigen_sum,
    compute_update,
    det_local_opt,
    leverage_scores,
    newton_dinkelbach,
    numerical_rank,
    orthonormal_factor,
    proxy_at,
    scale_frame,
)
from framescale.update import _det_local_opt_columns, nd_iteration_cap

from framescale.generate import gen_gaussian

from conftest import (det_local_opt_oracle, fraction_inverse, fuzz_recipe, gapped_instance,
                      mu_spectrum, random_frame, random_scaling, steep_update_oracle,
                      whitened)


class TestNewtonDinkelbach:
    def test_log_example(self):
        res = newton_dinkelbach(f=math.log, f_prime=lambda a: 1.0 / a,
                                alpha0=1.0, b_low=0.5, b_high=1.0, max_iters=10)
        assert res.alpha == pytest.approx(2.0)
        assert res.n_iters == 1

    def test_early_exit(self):
        res = newton_dinkelbach(f=math.log, f_prime=lambda a: 1.0 / a,
                                alpha0=2.0, b_low=0.5, b_high=1.0, max_iters=10)
        assert res.alpha == 2.0 and res.n_iters == 0

    def test_scalar_proxy_example(self):
        # h(a) = a/(a+1), gamma = 0.2: one step from 1 lands at 1.8
        f = lambda a: a / (a + 1.0)
        fp = lambda a: 1.0 / (a + 1.0) ** 2
        res = newton_dinkelbach(f=f, f_prime=fp, alpha0=1.0,
                                b_low=0.54, b_high=0.7, max_iters=10)
        assert res.alpha == pytest.approx(1.8)
        assert res.value == pytest.approx(9.0 / 14.0)
        assert res.n_iters == 1

    def test_band_and_monotonicity(self, rng):
        for _ in range(40):
            frame, z, T = gapped_instance(rng, int(rng.integers(3, 6)), int(rng.integers(6, 12)))
            h1 = proxy_at(frame, z, T, 1.0)[0]
            mu = mu_spectrum(frame.matrix, z, T)
            limit = float(np.sum(mu > 1e-9))
            gamma = min(0.8 * (limit - h1), 1.0)
            if gamma <= 1e-3:
                continue
            visited = []  # newton_dinkelbach evaluates f once at each iterate

            def f(alpha):
                visited.append(alpha)
                return proxy_at(frame, z, T, alpha)[0]

            def f_prime(alpha):
                return proxy_at(frame, z, T, alpha)[1]

            res = newton_dinkelbach(f=f, f_prime=f_prime, alpha0=1.0,
                                    b_low=h1 + gamma / 5.0, b_high=h1 + gamma,
                                    max_iters=200)
            assert h1 + gamma / 5.0 <= res.value <= h1 + gamma + 1e-9
            alphas = np.array(visited)
            assert len(alphas) == res.n_iters + 1 and alphas[-1] == res.alpha
            assert np.all(np.diff(alphas) > 0.0)
            values, derivs = np.array([proxy_at(frame, z, T, a) for a in alphas]).T
            assert np.all(np.diff(values) > -1e-12)
            # derivative contracts by at least 1/5 per non-terminating step
            for t in range(1, len(derivs) - 1):
                assert derivs[t] <= derivs[t - 1] / 5.0 + 1e-15

    def test_derivative_vanished(self):
        f = lambda a: 1.0 - 1.0 / a  # sup f = 1 < b_low
        fp = lambda a: 1.0 / a**2
        with pytest.raises(DerivativeVanished):
            newton_dinkelbach(f=f, f_prime=fp, alpha0=1.0,
                              b_low=2.0, b_high=3.0, max_iters=100)

    def test_iteration_cap(self):
        with pytest.raises(IterationCapExceeded):
            newton_dinkelbach(f=math.log, f_prime=lambda a: 1.0 / a,
                              alpha0=1.0, b_low=20.0, b_high=21.0, max_iters=3)

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            newton_dinkelbach(f=math.log, f_prime=lambda a: 1.0 / a,
                              alpha0=1.0, b_low=1.0, b_high=0.5, max_iters=5)
        with pytest.raises(ValueError):
            newton_dinkelbach(f=math.log, f_prime=lambda a: 1.0 / a,
                              alpha0=100.0, b_low=0.5, b_high=1.0, max_iters=5)


class TestComputeUpdate:
    def test_scalar_example(self):
        frame = Frame(np.array([[1.0, 1.0]]))
        upd = compute_update(frame, np.ones(2), [0], 0.2)
        assert upd.alpha == pytest.approx(1.8)
        assert upd.nd_iters == 1
        assert not upd.seeded

    def test_band_on_random_instances(self, rng):
        count = 0
        while count < 200:
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 14))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            h1 = proxy_at(frame, z, T, 1.0)[0]
            limit = numerical_rank(frame.columns(T))
            gamma = min(1.0, 0.7 * (limit - h1))
            if gamma <= 1e-6:
                continue
            count += 1
            upd = compute_update(frame, z, np.sort(T), gamma)
            assert upd.alpha >= 1.0
            assert gamma / 5.0 - 1e-9 <= upd.h_gain <= gamma + 1e-9

    def test_steep_branch_single_newton_iteration(self, rng):
        seen = 0
        while seen < 50:
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 12))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            h1, hp1 = proxy_at(frame, z, T, 1.0)
            limit = numerical_rank(frame.columns(T))
            room = limit - h1
            gamma = min(1.0, 4.0 * hp1, 0.9 * room)
            if gamma <= 1e-6 or hp1 < gamma / 4.0:
                continue
            seen += 1
            upd = compute_update(frame, z, np.sort(T), gamma)
            assert upd.nd_iters == 1
            assert not upd.seeded

    def test_seeded_branch_iteration_bound(self, rng):
        seen = 0
        while seen < 60:
            d = int(rng.integers(3, 6))
            n = int(rng.integers(d + 2, 12))
            frame, z, T = gapped_instance(rng, d, n)
            h1, hp1 = proxy_at(frame, z, T, 1.0)
            limit = numerical_rank(frame.columns(T))
            room = limit - h1
            gamma = min(1.0, 0.8 * room)
            if gamma <= 4.0 * hp1 or gamma <= 1e-4:
                continue
            seen += 1
            upd = compute_update(frame, z, T, gamma)
            assert upd.seeded
            assert gamma / 5.0 - 1e-9 <= upd.h_gain <= gamma + 1e-9
            assert upd.nd_iters <= nd_iteration_cap(n, d)

    def test_one_context_per_guess_step(self, monkeypatch, proxy_evaluations):
        # A steep step evaluates no proxy. A guess step calls proxy_at once
        # per distinct trial alpha: each seed the band check rejects, then
        # every alpha that Newton asks h or h' about.
        steps, asked = [], []
        update, newton = framescale.update.compute_update, framescale.update.newton_dinkelbach

        def asking(g):
            def wrapped(alpha):
                asked.append(alpha)
                return g(alpha)
            return wrapped

        def recording_newton(f, f_prime, *args):
            return newton(asking(f), asking(f_prime), *args)

        def recording(*args, **kwargs):
            del proxy_evaluations[:], asked[:]
            upd = update(*args, **kwargs)
            steps.append((upd.seeded, list(proxy_evaluations), list(dict.fromkeys(asked))))
            return upd

        monkeypatch.setattr(framescale.update, "newton_dinkelbach", recording_newton)
        monkeypatch.setattr(framescale.update, "compute_update", recording)
        for seed in range(40):
            recipe = fuzz_recipe(seed)
            if recipe is None:
                continue
            U, c = recipe
            frame, marginals = Frame(U), Marginals(c, d=U.shape[0])
            try:
                scale_frame(frame, marginals, 1e-6, SolverConfig(max_iters=1000))
            except ScalingError:
                pass
        seeded = [step for step in steps if step[0]]
        assert len(steps) > 1000 and len(seeded) > 20
        for is_seeded, evaluated, trials in steps:
            if not is_seeded:
                assert evaluated == []
                continue
            assert len(set(evaluated)) == len(evaluated) and min(evaluated) > 1.0
            rejected = len(evaluated) - len(trials)
            assert evaluated[rejected:] == trials
            for a, b in zip(evaluated[:rejected], evaluated[1:]):
                assert b == 1.0 + (a - 1.0) / 2.0

    def test_rejects_bad_gamma(self, rng):
        frame = random_frame(rng, 2, 5)
        with pytest.raises(ValueError):
            compute_update(frame, np.ones(5), [0], 0.0)
        with pytest.raises(ValueError):
            compute_update(frame, np.ones(5), [0], 1.5)


def steep_instances(rng, count, max_d=4, max_n=11):
    """Seeded (frame, z, T, q, gamma) with h'(1) >= gamma/4: one Newton step from 1."""
    while count:
        d = int(rng.integers(2, max_d + 1))
        n = int(rng.integers(d + 1, max_n + 1))
        frame = random_frame(rng, d, n)
        z = random_scaling(rng, n)
        T = np.sort(rng.permutation(n)[: int(rng.integers(1, n))])
        q = orthonormal_factor(frame, z)
        h1, hp1 = proxy_at(frame, z, T, 1.0)
        room = numerical_rank(frame.columns(T)) - h1
        gamma = min(1.0, 4.0 * hp1, 0.9 * room)
        if gamma <= 1e-6:
            continue
        count -= 1
        yield frame, z, T, q, gamma


def exact_h(frame, z, T, alpha):
    """h(alpha) = sum over T of alpha z_j u_j^T (U Z_alpha U^T)^{-1} u_j, in Fractions."""
    U = [[Fraction(float(v)) for v in row] for row in frame.matrix]
    w = [Fraction(float(v)) for v in z]
    for j in T:
        w[j] *= Fraction(alpha)
    d, n = frame.d, frame.n
    g = [[sum(w[j] * U[a][j] * U[b][j] for j in range(n)) for b in range(d)]
         for a in range(d)]
    g_inv = fraction_inverse(g)
    return sum(w[j] * sum(U[a][j] * g_inv[a][b] * U[b][j] for a in range(d) for b in range(d))
               for j in T)


# Thin QRs on the guess-branch instances of
# test_guess_branch_qr_count_unchanged: one per trial alpha, plus one per
# round of the swap search when the eigen-sum guess picks columns D; the
# search's last one is Q_D's.
GUESS_QR_COUNTS = [2, 1, 2, 2, 2, 1, 2, 2]


class TestSteepClosedForm:
    # The steep step reads h off the spectrum of P at alpha = 1; the guess
    # branch factors every trial alpha.

    def test_steep_step_factors_nothing(self, rng, qr_calls):
        for frame, z, T, q, gamma in steep_instances(rng, 30):
            del qr_calls[:]
            upd = compute_update(frame, z, T, gamma, q=q)
            assert len(qr_calls) == 0
            assert not upd.seeded and upd.nd_iters == 1
            assert compute_update(frame, z, T, gamma) == upd

    def test_steep_gain_summed_once(self, rng, monkeypatch):
        # Newton's last h(alpha) and the reported h_gain share one sum.
        alphas = []
        original = framescale.update.step_gain

        def counting(mu, w, alpha):
            alphas.append(alpha)
            return original(mu, w, alpha)

        monkeypatch.setattr(framescale.update, "step_gain", counting)
        for frame, z, T, q, gamma in steep_instances(rng, 20):
            del alphas[:]
            upd = compute_update(frame, z, T, gamma, q=q)
            assert alphas == [upd.alpha]

    def test_guess_branch_qr_count_unchanged(self, rng, qr_calls):
        counts = []
        while len(counts) < 8:
            frame, z, T = gapped_instance(rng, int(rng.integers(3, 6)), int(rng.integers(7, 12)))
            q = orthonormal_factor(frame, z)
            h1, hp1 = proxy_at(frame, z, T, 1.0)
            gamma = min(1.0, 0.8 * (numerical_rank(frame.columns(T)) - h1))
            if gamma <= 4.0 * hp1 or gamma <= 1e-4:
                continue
            del qr_calls[:]
            upd = compute_update(frame, z, T, gamma, q=q)
            counts.append(len(qr_calls))
            assert upd.seeded
            assert compute_update(frame, z, T, gamma) == upd
        assert counts == GUESS_QR_COUNTS

    def test_spectrum_matches_numpy(self, rng, monkeypatch):
        # The h and h' that the steep step hands to Newton, off its own dsyevd,
        # equal numpy's eigvalsh formulas bit for bit.
        closures, gains = [], []
        newton, gain = framescale.update.newton_dinkelbach, framescale.update.step_gain

        def recording_newton(f, f_prime, *args):
            closures.append((f, f_prime))
            return newton(f, f_prime, *args)

        def recording_gain(mu, w, alpha):
            gains.append(gain(mu, w, alpha))
            return gains[-1]

        monkeypatch.setattr(framescale.update, "newton_dinkelbach", recording_newton)
        monkeypatch.setattr(framescale.update, "step_gain", recording_gain)
        for frame, z, T, q, gamma in steep_instances(rng, 20):
            del closures[:]
            compute_update(frame, z, T, gamma, q=q)
            [(h, h_prime)] = closures
            mu = np.linalg.eigvalsh(q[T].T @ q[T])
            w = mu * (1.0 - mu)
            for alpha in (1.5, 3.0):
                s = alpha - 1.0
                value = h(alpha)
                assert gains[-1] == float((s * w / (1.0 + s * mu)).sum())
                assert value == h(1.0) + gains[-1]
                assert h_prime(alpha) == float((w / (1.0 + s * mu) ** 2).sum())

    @staticmethod
    def as_oracle(upd):
        return upd.alpha, upd.h_gain, upd.nd_iters, upd.hp_one

    def test_matches_closed_form_oracle(self, rng):
        zero_steps = 0
        for frame, z, T, q, gamma in steep_instances(rng, 40):
            upd = compute_update(frame, z, T, gamma, q=q)
            assert self.as_oracle(upd) == steep_update_oracle(frame, z, T, gamma, q)
            # a permuted T is the same set: the step reads its rows in index order
            upd = compute_update(frame, z, rng.permutation(T), gamma, q=q)
            assert self.as_oracle(upd) == steep_update_oracle(frame, z, T, gamma, q)
            # gamma of one ulp of h(1): gamma/5 rounds away, so Newton takes no step
            gamma = float(np.spacing(leverage_scores(frame, z)[T].sum()))
            upd = compute_update(frame, z, T, gamma, q=q)
            if upd.nd_iters == 0:
                zero_steps += 1
            assert self.as_oracle(upd) == steep_update_oracle(frame, z, T, gamma, q)
        assert zero_steps >= 20

    def test_solve_iterates_match_closed_form_oracle(self, monkeypatch):
        # Every step of this solve is steep; each equals the older route bit for bit.
        steps = []
        original = framescale.update.compute_update

        def recording(frame, z, T, gamma, q=None):
            upd = original(frame, z, T, gamma, q=q)
            steps.append((upd, steep_update_oracle(frame, z, T, gamma, q)))
            return upd

        monkeypatch.setattr(framescale.update, "compute_update", recording)
        U, c = gen_gaussian(5, 20, 0)
        res = scale_frame(Frame(U), Marginals(c, d=5), 1e-6)
        assert res.scaled and len(steps) == res.iterations > 1000
        for upd, want in steps:
            assert not upd.seeded
            assert self.as_oracle(upd) == want

    @pytest.mark.parametrize("step", ["band", "tiny"])
    def test_gain_exact_to_roundoff(self, rng, step):
        # "tiny" puts alpha - 1 near 1e-6, where h(alpha) and h(1) nearly cancel.
        for frame, z, T, q, gamma in steep_instances(rng, 15, max_n=9):
            if step == "tiny":
                gamma = 1e-6 * proxy_at(frame, z, T, 1.0)[1]
            upd = compute_update(frame, z, T, gamma, q=q)
            assert upd.nd_iters == 1
            exact = exact_h(frame, z, T, upd.alpha) - exact_h(frame, z, T, 1.0)
            assert abs(Fraction(upd.h_gain) - exact) <= Fraction(1e-10) * exact


class TestApproxSmallEigenSum:
    def test_p_equals_rank_edge(self):
        frame = Frame(np.eye(2))
        est = approx_small_eigen_sum(frame, np.ones(2), [0])
        assert est.mu_tilde == 0.0 and est.p == 1 and est.D.size == 0

    def test_p_zero_edge(self):
        frame = Frame(np.array([[1.0, 1.0]]))
        est = approx_small_eigen_sum(frame, np.array([0.1, 1.0]), [0])
        assert est.p == 0
        assert est.mu_tilde == pytest.approx(0.1 / 1.1, abs=1e-12)

    def test_precondition_enforced(self, rng):
        # A balanced split has sum mu(1-mu) well above 1/4.
        frame = random_frame(rng, 4, 12)
        with pytest.raises(PreconditionViolated):
            approx_small_eigen_sum(frame, np.ones(12), np.arange(6))

    def test_sandwich_against_eigen_oracle(self, rng):
        checked = 0
        while checked < 200:
            d = int(rng.integers(2, 7))
            n = int(rng.integers(d + 1, 13))
            frame, z, T = gapped_instance(rng, d, n)
            mu = mu_spectrum(frame.matrix, z, T)
            if float(np.sum(mu * (1 - mu))) >= 0.25:
                continue
            checked += 1
            est = approx_small_eigen_sum(frame, z, T)
            mu_s = float(np.sum(mu[mu < 0.5]))
            p_true = int(np.sum(mu >= 0.5))
            assert est.p == p_true
            bound = (1.0 + 8.0 * n * d * d) * mu_s
            assert mu_s - 1e-9 <= est.mu_tilde <= bound + 1e-9

    def test_projector_is_thin_qr_of_chosen_columns(self, rng):
        # W is the search's last thin QR; it must be that of Q_D^T, columns
        # in sorted order, also when T arrives unsorted.
        checked = 0
        while checked < 40:
            frame, z, T = gapped_instance(rng, int(rng.integers(3, 7)), int(rng.integers(7, 13)))
            T = rng.permutation(T)
            q = orthonormal_factor(frame, z)
            est = approx_small_eigen_sum(frame, z, T, q=q)
            if est.D.size == 0:
                continue
            checked += 1
            w = np.linalg.qr(q[est.D].T)[0]
            rest = q[T] - (q[T] @ w) @ w.T
            assert est.mu_tilde == float(np.einsum("ij,ij->", rest, rest))


def brute_force_best_subset(kernel, p):
    best, best_det = None, -np.inf
    for combo in itertools.combinations(range(kernel.shape[0]), p):
        sub = kernel[np.ix_(combo, combo)]
        det = np.linalg.det(sub)
        if det > best_det:
            best, best_det = combo, det
    return best, best_det


class TestDetLocalOpt:
    @staticmethod
    def kernel_of(frame, z, T):
        V = whitened(frame.matrix, z)
        vt = V[:, T]
        return vt.T @ vt

    def test_p1_is_max_leverage(self, rng):
        for _ in range(10):
            frame = random_frame(rng, 3, 8)
            z = random_scaling(rng, 8)
            T = np.sort(rng.permutation(8)[:5])
            kernel = self.kernel_of(frame, z, T)
            if np.trace(kernel) < 0.5:
                continue
            D = det_local_opt(frame, z, T, 1)
            lev = leverage_scores(frame, z)
            assert D[0] == T[int(np.argmax(lev[T]))]

    def test_symmetric_tie_breaks_lexicographic(self):
        frame = Frame(np.eye(3))
        D = det_local_opt(frame, np.ones(3), [0, 1, 2], 2)
        assert list(D) == [0, 1]

    def test_two_local_optimality_exhaustive(self, rng):
        checked = 0
        while checked < 40:
            d = int(rng.integers(3, 6))
            n = int(rng.integers(d + 2, 13))
            frame, z, T = gapped_instance(rng, d, n)
            kernel = self.kernel_of(frame, z, T)
            trace = float(np.trace(kernel))
            p = int(np.floor(trace + 0.5))
            rank = numerical_rank(frame.columns(T))
            if not (0 < p < rank and trace >= p - 0.5 and len(T) <= 10):
                continue
            checked += 1
            D = det_local_opt(frame, z, T, p)
            pos = {int(t): i for i, t in enumerate(T)}
            sel = [pos[int(j)] for j in D]
            base = np.linalg.det(kernel[np.ix_(sel, sel)])
            for i in sel:
                for j in range(len(T)):
                    if j in sel:
                        continue
                    cand = sorted(set(sel) - {i} | {j})
                    det = np.linalg.det(kernel[np.ix_(cand, cand)])
                    assert det <= 2.0 * base * (1.0 + 1e-9)

    def test_sigma_p_lower_bound(self, rng):
        # sigma_p(V_D)^2 >= 1/(4 n p) at a 2-approximate local optimum
        checked = 0
        while checked < 40:
            d = int(rng.integers(3, 6))
            n = int(rng.integers(d + 2, 13))
            frame, z, T = gapped_instance(rng, d, n)
            kernel = self.kernel_of(frame, z, T)
            trace = float(np.trace(kernel))
            p = int(np.floor(trace + 0.5))
            rank = numerical_rank(frame.columns(T))
            if not (0 < p < rank and trace >= p - 0.5):
                continue
            checked += 1
            D = det_local_opt(frame, z, T, p)
            V = whitened(frame.matrix, z)
            svals = np.linalg.svd(V[:, D], compute_uv=False)
            assert svals[p - 1] ** 2 >= 1.0 / (4.0 * n * p) - 1e-12

    def test_ky_fan_upper_bound(self, rng):
        checked = 0
        while checked < 40:
            d = int(rng.integers(3, 6))
            n = int(rng.integers(d + 2, 13))
            frame, z, T = gapped_instance(rng, d, n)
            kernel = self.kernel_of(frame, z, T)
            trace = float(np.trace(kernel))
            p = int(np.floor(trace + 0.5))
            rank = numerical_rank(frame.columns(T))
            if not (0 < p < rank and trace >= p - 0.5):
                continue
            checked += 1
            D = det_local_opt(frame, z, T, p)
            V = whitened(frame.matrix, z)
            vd = V[:, D]
            proj = vd @ np.linalg.solve(vd.T @ vd, vd.T)
            vt = V[:, T]
            mu = mu_spectrum(frame.matrix, z, T)
            assert np.trace(proj @ (vt @ vt.T)) <= np.sum(mu[:p]) + 1e-9

    def test_precondition_rejected(self, rng):
        frame = random_frame(rng, 3, 8)
        z = np.ones(8)
        T = np.arange(5)
        with pytest.raises(PreconditionViolated):
            det_local_opt(frame, z, T, 0)
        with pytest.raises(PreconditionViolated):
            det_local_opt(frame, z, T, 3)  # p == rank

    def test_swap_count_bound(self, rng):
        checked = 0
        while checked < 30:
            d = int(rng.integers(3, 6))
            n = int(rng.integers(d + 2, 13))
            frame, z, T = gapped_instance(rng, d, n)
            kernel = self.kernel_of(frame, z, T)
            trace = float(np.trace(kernel))
            p = int(np.floor(trace + 0.5))
            rank = numerical_rank(frame.columns(T))
            if not (0 < p < rank and trace >= p - 0.5):
                continue
            checked += 1
            _, swaps, _, _ = _det_local_opt_columns(whitened(frame.matrix, z)[:, T], p)
            bound = math.ceil(math.log2(2 * p * math.comb(len(T), p))) + 1
            assert swaps <= bound


def clustered_instance(rng):
    """(frame, z, T, p) with the columns of U bunched around a few random directions.

    p is None when no p satisfies 0 < p < rk(U_T) and trace >= p - 1/2.
    """
    d = int(rng.integers(2, 6))
    n = int(rng.integers(d + 2, 11))
    dirs = rng.standard_normal((d, int(rng.integers(1, d + 1))))
    U = dirs[:, rng.integers(0, dirs.shape[1], size=n)] * rng.choice([-1.0, 1.0], size=n)
    U += 10.0 ** rng.uniform(-3.0, 0.0) * rng.standard_normal((d, n))
    frame = random_frame(rng, d, n) if numerical_rank(U) < d else Frame(U)
    z = random_scaling(rng, n)
    T = np.sort(rng.permutation(n)[: int(rng.integers(2, n + 1))])
    q = orthonormal_factor(frame, z)
    top = min(numerical_rank(frame.columns(T)) - 1, math.floor(np.sum(q[T] ** 2) + 0.5))
    return frame, z, T, int(rng.integers(1, top + 1)) if top >= 1 else None


def swap_prone_instance(rng):
    """(frame, z, T, 2) on which a swap beats the greedy pick about one time in ten.

    Column a is the longest; b and c lie on either side of it, c tilted
    out of the plane of a and b, at angles that can give the pair {b, c}
    a Gram determinant over twice that of any pair with a. Short filler
    columns keep the trace of the T-block kernel at least 3/2. The frame
    appends columns that complete the rows of U_T to an orthonormal set,
    so with z = 1 the kernel is exactly U_T^T U_T.
    """
    while True:
        d = int(rng.integers(3, 6))
        rho, theta = rng.uniform(0.8, 1.0, size=2), rng.uniform(0.2, 0.8, size=2)
        tilt = rng.uniform(0.0, 1.2)
        e = np.eye(d)
        cols = [e[0], rho[0] * (math.cos(theta[0]) * e[0] + math.sin(theta[0]) * e[1]),
                rho[1] * (math.cos(theta[1]) * e[0] - math.sin(theta[1])
                          * (math.cos(tilt) * e[1] + math.sin(tilt) * e[2]))]
        reach = float(np.min(rho * np.sin(theta)))
        for _ in range(int(rng.integers(1, 8))):
            v = rng.standard_normal(d)
            v[:2] *= rng.uniform(0.0, 0.3)
            cols.append(v * (reach * rng.uniform(0.3, 1.0) / np.linalg.norm(v)))
        rot = np.linalg.qr(rng.standard_normal((d, d)))[0]
        Y = rot @ np.array(cols).T[:, rng.permutation(len(cols))]
        Y *= rng.uniform(0.9, 0.999) / np.linalg.norm(Y, 2)
        if np.sum(Y * Y) < 1.5:
            continue
        w, E = np.linalg.eigh(np.eye(d) - Y @ Y.T)
        U = np.hstack([Y, E * np.sqrt(np.maximum(w, 0.0))])
        return Frame(U), np.ones(U.shape[1]), np.arange(Y.shape[1]), 2


class TestDetLocalOptOracle:
    def test_matches_logdet_search(self, rng):
        # The pivoted-QR greedy and the closed-form swap gains pick the same
        # set as brute-force log-determinants over every candidate.
        checked = swaps = 0
        while checked < 2000:
            make = swap_prone_instance if checked % 8 == 0 else clustered_instance
            frame, z, T, p = make(rng)
            if p is None:
                continue
            checked += 1
            q = orthonormal_factor(frame, z)
            try:
                chosen, s = det_local_opt_oracle(q[T] @ q[T].T, p)
            except FactorizationFailure:
                with pytest.raises(FactorizationFailure):
                    det_local_opt(frame, z, T, p, q=q)
                continue
            swaps += s
            assert list(det_local_opt(frame, z, T, p, q=q)) == list(np.sort(T[chosen]))
        assert swaps >= 10
