import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import framescale.matrixscale
from framescale import (
    INFEASIBLE,
    SCALED,
    InfeasibleSegment,
    IterationCapExceeded,
    IterationRecord,
    MatrixMarginals,
    NonnegMatrix,
    PreconditionViolated,
    ScalingResult,
    SolverConfig,
    ZeroRowSum,
    column_sums,
    matrix_regularize,
    matrix_update,
    neighborhood,
    scale_matrix,
    select_margin_set,
)
from framescale.generate import gen_bipartite
from framescale.matrixscale import HALL_TOL_REL, matrix_proxy_gain, matrix_rho_prefixes

from conftest import sinkhorn_column_scaling


def brute_rho(A):
    """max over all nonempty column subsets of the out/in row-mass ratio."""
    m, n = A.shape
    best = 0.0
    for size in range(1, n + 1):
        for T in itertools.combinations(range(n), size):
            T = list(T)
            inter = A[:, T].sum(axis=1)
            touched = inter > 0
            out = A.sum(axis=1)[touched] - inter[touched]
            if touched.any():
                best = max(best, float((out / inter[touched]).max(initial=0.0)))
    return best


def sequential_rho_prefixes(matrix, order):
    """Reference: adds the prefix columns one at a time."""
    a = matrix.matrix
    total = a.sum(axis=1)
    inter = np.zeros(matrix.m)
    out = np.empty(order.size - 1)
    for k, col in enumerate(order[:-1]):
        inter += a[:, col]
        touched = inter > 0.0
        out[k] = float(((total[touched] - inter[touched]) / inter[touched]).max(initial=0.0))
    return out


def sequential_regularize(matrix, y, delta):
    """Reference: visits every gap in order; also counts the shrinks that fire."""
    y = np.asarray(y, dtype=np.float64)
    order = np.argsort(-y, kind="stable")
    ys = y[order].copy()
    ys /= ys[-1]
    rhos = sequential_rho_prefixes(matrix, order)
    headroom = 1.0 + 2.0 * delta
    shrinks = 0
    for k in range(1, y.size):
        ratio = ys[k - 1] / ys[k]
        threshold = max(rhos[k - 1], delta) / delta
        if ratio > threshold * headroom:
            ys[:k] *= threshold / ratio
            shrinks += 1
    ys = np.maximum(np.floor(ys / delta + 0.5) * delta, delta)
    ys /= ys[-1]
    out = np.empty_like(ys)
    out[order] = ys
    return out, shrinks


@pytest.fixture
def rho_passes(monkeypatch):
    """Records one entry per matrix_rho_prefixes pass the solver makes."""
    passes = []
    original = framescale.matrixscale.matrix_rho_prefixes

    def counting(*args):
        passes.append(None)
        return original(*args)

    monkeypatch.setattr(framescale.matrixscale, "matrix_rho_prefixes", counting)
    return passes


def sparse_matrix(rng, m, n):
    """Random real entries with about half zeros and no all-zero row or column."""
    a = (rng.random((m, n)) < 0.5) * (rng.random((m, n)) + 0.01)
    a[np.arange(m), rng.integers(n, size=m)] += rng.random(m) + 0.01
    a[rng.integers(m, size=n), np.arange(n)] += rng.random(n) + 0.01
    return NonnegMatrix(a)


class TestColumnSums:
    def test_symmetric(self):
        A = NonnegMatrix(np.ones((2, 2)))
        np.testing.assert_allclose(column_sums(A, np.ones(2), np.ones(2)), [1.0, 1.0])

    def test_hand_computed(self):
        A = NonnegMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(column_sums(A, np.ones(2), np.ones(2)), [1.5, 0.5])

    def test_scale_invariance(self, rng):
        A = NonnegMatrix(rng.random((4, 6)) + 0.1)
        r = rng.random(4) + 0.5
        y = rng.random(6) + 0.2
        base = column_sums(A, r, y)
        for t in (1e-5, 3.0, 1e7):
            np.testing.assert_allclose(column_sums(A, r, t * y), base, rtol=1e-12)

    def test_total_is_row_mass(self, rng):
        A = NonnegMatrix(rng.random((5, 7)) + 0.05)
        r = rng.random(5) + 0.5
        y = rng.random(7) + 0.2
        s = float(r.sum())
        assert column_sums(A, r, y).sum() == pytest.approx(s, abs=1e-9 * s)

    def test_zero_row_sum(self):
        A = NonnegMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ZeroRowSum):
            column_sums(A, np.ones(2), np.array([1.0, 0.0]))


class TestNeighborhood:
    def test_examples(self):
        A = NonnegMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert list(neighborhood(A, [1])) == [1]
        assert list(neighborhood(A, [0, 1])) == [0, 1]
        I3 = NonnegMatrix(np.eye(3))
        assert list(neighborhood(I3, [0, 2])) == [0, 2]
        assert list(neighborhood(I3, [])) == []


def exact_t_mass(a, r, y, T, alpha):
    """Column-sum mass of T after scaling y on T by alpha, in exact rationals."""
    alpha = Fraction(alpha)
    ys = [Fraction(v) * (alpha if j in T else 1) for j, v in enumerate(y)]
    mass = Fraction(0)
    for i, row in enumerate(a):
        terms = [Fraction(v) * ys[j] for j, v in enumerate(row)]
        part = sum(terms[j] for j in T)
        if part:
            mass += Fraction(r[i]) * part / sum(terms)
    return mass


class TestMatrixUpdate:
    def test_single_row_linear(self):
        # one active row, mu = 1/2: slope 1/4 until alpha - 1 = 2
        A = NonnegMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        y = np.ones(2)
        r = np.array([1.0, 1.0])
        alpha = matrix_update(A, r, y, [0], 0.2, A.matrix @ y).alpha
        assert alpha == pytest.approx(1.8)

    def test_gamma_near_supremum(self, rng):
        A = NonnegMatrix(rng.random((4, 6)) + 0.1)
        r = rng.random(4) + 0.5
        y = rng.random(6) + 0.2
        T = np.array([0, 2])
        part = A.matrix[:, T] @ y[T]
        mu = part / (A.matrix @ y)
        sup = float((r * (1 - mu)).sum())
        alpha = matrix_update(A, r, y, T, sup - 1e-15, A.matrix @ y).alpha
        assert np.isfinite(alpha)
        assert alpha <= 1.0 + 1.0 / mu.min() + 1e-6

    def test_step_record(self, rng):
        # The gain is step_gain over every row of N(T), as matrix_proxy_gain
        # sums it, bit for bit; hp_one is h'(1) = sum r mu (1 - mu); no root
        # finding runs.
        for _ in range(20):
            A = NonnegMatrix(rng.random((5, 6)) + 0.05)
            r = rng.random(5) + 0.5
            y = 10.0 ** rng.uniform(-2, 2, size=6)
            T = rng.permutation(6)[:3]
            mu = (A.matrix[:, T] @ y[T]) / (A.matrix @ y)
            upd = matrix_update(A, r, y, T, 0.5 * float((r * (1 - mu)).sum()), A.matrix @ y)
            assert upd.h_gain == matrix_proxy_gain(A, r, y, T, upd.alpha)
            nbr = mu > 0.0
            hp_one = float((r[nbr] * mu[nbr] * (1.0 - mu[nbr])).sum())
            assert upd.hp_one == pytest.approx(hp_one, rel=1e-12, abs=0.0)
            assert upd.nd_iters == 0 and not upd.seeded

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        # NaN used to return alpha NaN, and inf a finite-looking step off
        # min(inf, supremum); both are rejected, as compute_update does.
        A = NonnegMatrix(np.random.default_rng(0).random((4, 4)) + 0.1)
        with pytest.raises(ValueError, match="gamma"):
            matrix_update(A, np.ones(4), np.ones(4), [0], gamma, A.matrix.sum(axis=1))

    def test_saturated_rows_infeasible(self):
        # T touches every row's full mass: supremum 0
        A = NonnegMatrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        with pytest.raises(InfeasibleSegment):
            matrix_update(A, np.ones(2), np.ones(3), [0, 1, 2], 0.1, A.matrix.sum(axis=1))

    def test_gain_band(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            A = NonnegMatrix(rng.random((m, n)) + 0.05)
            r = rng.random(m) + 0.5
            y = 10.0 ** rng.uniform(-2, 2, size=n)
            k = int(rng.integers(1, n))
            T = rng.permutation(n)[:k]
            part = A.matrix[:, T] @ y[T]
            mu = part / (A.matrix @ y)
            sup = float((r * (1 - mu)).sum())
            gamma = 0.9 * sup * rng.random() + 1e-9
            alpha = matrix_update(A, r, y, T, gamma, A.matrix @ y).alpha
            gain = matrix_proxy_gain(A, r, y, T, alpha)
            assert gamma / 2.0 - 1e-9 <= gain <= gamma + 1e-9

    def test_surrogate_equals_gamma(self, rng):
        # The step solves g(alpha) = gamma exactly, not just within the band:
        # g summed here row by row, min(1, (alpha - 1) mu_i) included.
        for _ in range(50):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(2, 8))
            A = NonnegMatrix(rng.random((m, n)) * (rng.random((m, n)) < 0.7) + 0.01)
            r = rng.random(m) + 0.5
            y = 10.0 ** rng.uniform(-2, 2, size=n)
            T = rng.permutation(n)[:int(rng.integers(1, n))]
            mu = (A.matrix[:, T] @ y[T]) / (A.matrix @ y)
            sup = float((r * (1 - mu)).sum())
            gamma = 0.95 * sup * rng.random() + 1e-9
            alpha = matrix_update(A, r, y, T, gamma, A.matrix @ y).alpha
            g = sum(ri * (1.0 - mi) * min(1.0, (alpha - 1.0) * mi) for ri, mi in zip(r, mu))
            assert g == pytest.approx(gamma, rel=1e-9, abs=1e-12)

    def test_closed_form_matches_walk(self, rng, monkeypatch):
        # Random draws reach both branches; where the crossing lies on the
        # first segment, the closed form agrees with the breakpoint walk.
        walk = framescale.matrixscale._breakpoint_walk
        walked = []

        def counting(*args):
            walked.append(None)
            return walk(*args)

        monkeypatch.setattr(framescale.matrixscale, "_breakpoint_walk", counting)
        first = 0
        for _ in range(200):
            m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            A = NonnegMatrix(rng.random((m, n)) * (rng.random((m, n)) < 0.7) + 0.01)
            r = rng.random(m) + 0.5
            y = 10.0 ** rng.uniform(-2, 2, size=n)
            T = rng.permutation(n)[:int(rng.integers(1, n))]
            mu = (A.matrix[:, T] @ y[T]) / (A.matrix @ y)
            mass = r * (1.0 - mu)
            gamma = 0.95 * float(mass.sum()) * rng.random() + 1e-9
            before = len(walked)
            alpha = matrix_update(A, r, y, T, gamma, A.matrix @ y).alpha
            if len(walked) == before:
                first += 1
                want = walk(mu, mass, gamma)  # every row is in N(T) and keeps mass
                assert abs(alpha - want) <= 4.0 * np.spacing(want)
        assert 0 < first < 200 and len(walked) == 200 - first

    def test_limit_identity(self, rng):
        for _ in range(20):
            A = NonnegMatrix(rng.random((5, 6)) + 0.05)
            r = rng.random(5) + 0.5
            y = 10.0 ** rng.uniform(-1, 1, size=6)
            T = rng.permutation(6)[:3]
            s = float(r.sum())
            nbr = neighborhood(A, T)
            part = A.matrix[:, T] @ y[T]
            h1 = float((r[nbr] * (part / (A.matrix @ y))[nbr]).sum())
            h_at = h1 + matrix_proxy_gain(A, r, y, T, 1e12)
            assert abs(h_at - r[nbr].sum()) <= 1e-6 * s

    @pytest.mark.parametrize("step", ["band", "tiny"])
    def test_gain_exact_to_roundoff(self, rng, step):
        # "tiny" puts alpha - 1 near 1e-6, where h(alpha) and h(1) nearly cancel.
        checked = 0
        while checked < 30:
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            a = rng.random((m, n)) + 0.05
            a[rng.random((m, n)) < 0.3] = 0.0
            if not (a.any(axis=0).all() and a.any(axis=1).all()):
                continue
            checked += 1
            A = NonnegMatrix(a)
            r = rng.random(m) + 0.5
            y = 10.0 ** rng.uniform(-2, 2, size=n)
            T = rng.permutation(n)[: int(rng.integers(1, n))]
            if step == "tiny":
                alpha = 1.0 + 1e-6 * (1.0 + rng.random())
            else:
                part = a[:, T] @ y[T]
                mu = part / (a @ y)
                sup = float((r * (1 - mu))[part > 0].sum())
                if sup <= 0.0:
                    continue
                alpha = matrix_update(A, r, y, T, 0.9 * sup * rng.random() + 1e-9, a @ y).alpha
            exact = exact_t_mass(a, r, y, T, alpha) - exact_t_mass(a, r, y, T, 1.0)
            gain = matrix_proxy_gain(A, r, y, T, alpha)
            assert abs(Fraction(gain) - exact) <= Fraction(1e-10) * exact


class TestScaleMatrix:
    def test_unreachable_eps_fails_fast(self):
        # Column sums always total r's sum, s, so a c that MatrixMarginals
        # accepts within 1e-9 s of s can hold the error above eps^2 for good.
        A = NonnegMatrix(np.random.default_rng(0).random((4, 4)) + 0.1)
        c = np.ones(4)
        c[0] += 3e-9
        with pytest.raises(PreconditionViolated, match="eps unreachable") as info:
            scale_matrix(A, MatrixMarginals(np.ones(4), c), 1e-10)
        assert "4.000000003" in str(info.value) and "2.25e-18" in str(info.value)
        assert info.value.trace == []
        res = scale_matrix(A, MatrixMarginals(np.ones(4), c), 1e-8)
        assert res.scaled and res.final_error_sq <= 1e-16

    def test_large_marginals_take_an_eps_above_n(self):
        # r, c and eps all times 2^200 scale the iterates' errors by the same
        # power of two, so the solve is the unscaled one; its eps is past n,
        # where the default cap used to be negative (-2513602 here).
        A, r, c = gen_bipartite(8, 8, 0)
        big = 2.0**200
        assert SolverConfig().iteration_cap(8, 1e-6 * big) == math.ceil(
            40.0 * 8**3 * math.log(2.0))
        got = scale_matrix(NonnegMatrix(A), MatrixMarginals(r * big, c * big), 1e-6 * big)
        want = scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), 1e-6)
        assert got.scaled and want.scaled
        assert got.iterations == want.iterations == 275
        assert np.array_equal(got.scaling, want.scaling)

    @pytest.mark.parametrize("seed", [1, 0])
    def test_unreachable_eps_decides_first_set(self, seed):
        # Columns 0 and 1 reach only row 0, so c(T) = 1.6 > r(N(T)) = 1 on
        # T = [0, 1]. The loop decides the first margin set before the
        # unreachable-eps error: seed 1 certifies T there, while seed 0
        # reaches T only at iteration 2 and so gets the named error.
        a = np.random.default_rng(seed).random((4, 4)) + 0.1
        a[1:, :2] = 0.0
        marginals = MatrixMarginals(np.ones(4), np.array([0.8 + 3e-9, 0.8, 1.2, 1.2]))
        if seed == 1:
            res = scale_matrix(NonnegMatrix(a), marginals, 1e-10)
            assert res.status == INFEASIBLE and list(res.certificate) == [0, 1]
            assert res.iterations == 1 and res.trace == []
        else:
            with pytest.raises(PreconditionViolated, match="eps unreachable") as info:
                scale_matrix(NonnegMatrix(a), marginals, 1e-10)
            assert info.value.trace == []

    def test_symmetric_instant(self):
        A = NonnegMatrix(np.ones((2, 2)))
        res = scale_matrix(A, MatrixMarginals(np.ones(2), np.ones(2)), 1e-8)
        assert res.scaled and res.iterations == 0
        np.testing.assert_allclose(res.scaling, [1.0, 1.0])

    def test_feasible_triangular(self):
        A = NonnegMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        res = scale_matrix(A, MatrixMarginals(np.ones(2), np.ones(2)), 1e-8)
        assert res.scaled
        assert res.final_error_sq <= 1e-16

    def test_hall_violation(self):
        A = NonnegMatrix(np.eye(2))
        res = scale_matrix(A, MatrixMarginals(np.ones(2), np.array([1.5, 0.5])), 1e-8)
        assert res.status == "infeasible"
        assert list(res.certificate) == [0]

    def test_hairline_violation_with_no_mass_outside(self):
        # T = {0} violates Hall by 1e-13, below the comparison guard, and
        # its one row keeps no mass outside T: the step has no surrogate to
        # solve, so the loop certifies T at zero tolerance.
        marginals = MatrixMarginals(np.array([1.0 - 1e-13, 1.0 + 1e-13]), np.ones(2))
        res = scale_matrix(NonnegMatrix(np.eye(2)), marginals, 1e-15)
        assert res.status == INFEASIBLE and list(res.certificate) == [0]
        assert res.iterations == 1

    def test_zero_row_rejected_at_load(self):
        with pytest.raises(ValueError):
            NonnegMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            NonnegMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="nonempty"):
            NonnegMatrix(np.zeros(shape))

    def test_tight_hall_set_still_converges(self):
        # column 1 touches only row 0, so T = {1} is exactly Hall-tight;
        # the surrogate supremum then equals gamma up to roundoff and the
        # step must land on the final breakpoint instead of failing.
        A = NonnegMatrix(np.array([[0.30806579, 0.28444278],
                                   [0.11200432, 0.0]]))
        res = scale_matrix(A, MatrixMarginals(np.ones(2), np.ones(2)), 1e-7)
        assert res.scaled
        assert res.final_error_sq <= 1e-14

    def test_positive_instances_match_sinkhorn(self, rng):
        for _ in range(5):
            A = NonnegMatrix(rng.random((5, 5)) + 0.05)
            marg = MatrixMarginals(np.ones(5), np.ones(5))
            res = scale_matrix(A, marg, 1e-8)
            assert res.scaled and res.final_error_sq <= 1e-16
            y_ref = sinkhorn_column_scaling(A.matrix, np.ones(5), np.ones(5))
            ratio = res.scaling / y_ref
            spread = ratio.max() / ratio.min() - 1.0
            assert spread <= 1e-4

    def test_row_sums_exact(self, rng):
        A = NonnegMatrix(rng.random((4, 5)) + 0.1)
        r = rng.random(4) + 0.5
        c_target = column_sums(A, r, rng.random(5) + 0.2)  # consistent marginals
        marg = MatrixMarginals(r, c_target)
        res = scale_matrix(A, marg, 1e-6)
        assert res.scaled
        x = r / (A.matrix @ res.scaling)
        row_sums = x * (A.matrix @ res.scaling)
        assert np.abs(row_sums - r).max() <= 1e-12 * r.max()

    def test_progress_invariant(self, rng):
        A = NonnegMatrix(rng.random((5, 5)) + 0.05)
        res = scale_matrix(A, MatrixMarginals(np.ones(5), np.ones(5)), 1e-8)
        for rec in res.trace:
            assert rec.h_gain >= rec.gamma / 2.0 - 1e-9
            assert rec.h_gain <= rec.gamma + 1e-9
            assert rec.progress >= 2.0 * rec.gamma * rec.h_gain - rec.gamma**2 / 5.0 - 1e-8
            assert rec.gamma**2 >= rec.error_sq / (2.0 * 5**3) - 1e-12

    def test_bipartite_baseline_iterations(self, rho_passes):
        for seed in range(4):
            A, r, c = gen_bipartite(20, 20, seed)
            res = scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), 1e-6)
            assert res.scaled
            assert seed != 1 or res.iterations == 1542
        # No gap ever clears the rho floor's threshold, so every shrink
        # snaps in place and no rho pass runs.
        assert len(rho_passes) == 0

    def test_hall_check_once_per_set(self, monkeypatch):
        import framescale.solver

        select, nbr = framescale.solver.select_margin_set, framescale.matrixscale.neighborhood
        visited, checked = [], []

        def recording_select(cs, c):
            ms = select(cs, c)
            visited.append(tuple(np.sort(ms.indices)))
            return ms

        def recording_nbr(matrix, T):
            checked.append(tuple(T))
            return nbr(matrix, T)

        monkeypatch.setattr(framescale.solver, "select_margin_set", recording_select)
        monkeypatch.setattr(framescale.matrixscale, "neighborhood", recording_nbr)
        A, r, c = gen_bipartite(20, 20, 1)
        assert scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), 1e-6).iterations == 1542
        assert sorted(checked) == sorted(set(visited))
        assert len(checked) < len(visited)

    @pytest.mark.parametrize("max_iters", [None, 10])
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-6])
    def test_rejects_bad_eps(self, eps, max_iters):
        A, r, c = gen_bipartite(4, 4, 0)
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), eps,
                         SolverConfig(max_iters=max_iters))

    def test_marginal_validation(self):
        with pytest.raises(ValueError):
            MatrixMarginals(np.ones(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            MatrixMarginals(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        for r, c in (([], []), ([1.0], []), ([], [1.0])):
            with pytest.raises(ValueError, match="nonempty"):
                MatrixMarginals(r, c)


class TestMatrixRegularize:
    def test_prefix_rho_matches_brute(self, rng):
        for _ in range(10):
            A = NonnegMatrix((rng.random((4, 5)) < 0.7) * (rng.random((4, 5)) + 0.1) + 0.01)
            order = rng.permutation(5)
            rhos = matrix_rho_prefixes(A, order)
            for k in range(1, 5):
                T = order[:k]
                inter = A.matrix[:, T].sum(axis=1)
                touched = inter > 0
                expected = float(((A.matrix.sum(axis=1) - inter)[touched] / inter[touched]).max())
                assert rhos[k - 1] == pytest.approx(expected)

    def test_prefix_rho_equals_sequential(self, rng):
        cases = [sparse_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(2, 12)))
                 for _ in range(200)]
        # rows 0 and 1 lie inside the prefix {0, 1, 2}, whose rho is 0; row 2
        # meets only the last column, so no proper prefix touches it.
        cases.append(NonnegMatrix(np.array([[0.25, 0.75, 0.0, 0.0],
                                            [0.125, 0.0, 0.5, 0.0],
                                            [0.0, 0.0, 0.0, 0.5]])))
        for A in cases:
            for order in (rng.permutation(A.n), np.arange(A.n)):
                got = matrix_rho_prefixes(A, order)
                assert np.array_equal(got, sequential_rho_prefixes(A, order))
        assert list(matrix_rho_prefixes(cases[-1], np.arange(4))) == [4.0, 4.0, 0.0]

    @pytest.mark.parametrize("decades", [20.0, 1e-3])
    def test_regularize_equals_sequential(self, rng, decades, rho_passes):
        fired = 0
        for _ in range(100):
            A = sparse_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(2, 12)))
            y = 10.0 ** rng.uniform(-decades, 0.0, size=A.n)
            for delta in (1e-5, 0.01, 0.3):
                expected, shrinks = sequential_regularize(A, y, delta)
                before = len(rho_passes)
                got = matrix_regularize(A, y, delta)
                assert np.array_equal(got, expected)
                # exactly 1, so the margin loop needs no renormalization
                assert got.min() == 1.0
                fired += shrinks
                # One rho pass, taken only when some sorted gap exceeds
                # max(rho_floor, delta)/delta * (1 + 2 delta), the least
                # threshold a rho allows.
                floor = max(A.rho_floor, delta)
                ys = y[np.argsort(-y, kind="stable")]
                ys = ys / ys[-1]
                candidate = bool(np.any(ys[:-1] / ys[1:] * (delta / floor) > 1.0 + 2.0 * delta))
                assert len(rho_passes) - before == int(candidate)
        # y spread over 20 decades makes shrinks fire; y near 1 makes none.
        assert (fired > 0) == (decades > 1.0)

    def test_block_diagonal_shrinks_with_zero_floor(self, rng, rho_passes):
        # Two diagonal blocks: each block's column set has rho 0, so the
        # floor is 0 and the gap between the blocks shrinks to the threshold
        # max(0, delta)/delta = 1.
        a = np.zeros((5, 6))
        a[:2, :3] = rng.random((2, 3)) + 0.1
        a[2:, 3:] = rng.random((3, 3)) + 0.1
        A = NonnegMatrix(a)
        assert A.rho_floor == 0.0
        y = np.array([1e6, 2e6, 3e6, 1.0, 1.5, 2.0])
        for delta in (1e-5, 0.01, 0.3):
            expected, shrinks = sequential_regularize(A, y, delta)
            assert shrinks > 0
            before = len(rho_passes)
            got = matrix_regularize(A, y, delta)
            assert np.array_equal(got, expected)
            assert got.min() == 1.0
            assert len(rho_passes) - before == 1
            assert got[:3].min() / got[3:].max() <= 1.0 + 2.0 * delta

    def test_column_sum_error_bound(self, rng):
        for _ in range(20):
            m, n = 5, 6
            A = NonnegMatrix(rng.random((m, n)) + 0.02)
            r = rng.random(m) + 0.5
            s = float(r.sum())
            y = 10.0 ** rng.uniform(-10, 10, size=n)
            delta = 0.01
            yhat = matrix_regularize(A, y, delta)
            moved = np.abs(column_sums(A, r, y) - column_sums(A, r, yhat)).sum()
            assert moved <= 2.0 * n * delta * s + 1e-9

    def test_range_bound(self, rng):
        for _ in range(10):
            A = NonnegMatrix(rng.random((4, 5)) + 0.02)
            y = 10.0 ** rng.uniform(-10, 10, size=5)
            delta = 0.01
            yhat = matrix_regularize(A, y, delta)
            rho = max(brute_rho(A.matrix), 1.0)
            assert math.log(yhat.max() / yhat.min()) <= 5 * math.log(rho / delta) + 1e-9

    def test_order_preserved(self, rng):
        A = NonnegMatrix(rng.random((4, 6)) + 0.05)
        y = 10.0 ** rng.uniform(-8, 8, size=6)
        yhat = matrix_regularize(A, y, 0.02)
        order = np.argsort(y, kind="stable")
        assert np.all(np.diff(yhat[order]) >= -1e-15)


def floor_case(rng, within_row_decades):
    """A random sparse matrix with m, n <= 7 for the rho floor lemma.

    About a third of the supports are split into two blocks, which are
    disconnected when both blocks hold a row, and about a fifth of the rows
    keep a single nonzero. Each row is scaled by 10^u with u uniform in
    [-15, 15]; within a row the entries spread over ``within_row_decades``
    decades.
    """
    m, n = (int(v) for v in rng.integers(1, 8, size=2))
    while True:
        mask = rng.random((m, n)) < rng.uniform(0.15, 0.9)
        if rng.random() < 0.35:
            mask &= rng.integers(2, size=m)[:, None] == rng.integers(2, size=n)[None, :]
        for i in np.flatnonzero(rng.random(m) < 0.2):
            keep = np.flatnonzero(mask[i])
            if keep.size:
                mask[i] = False
                mask[i, rng.choice(keep)] = True
        if mask.any(axis=1).all() and mask.any(axis=0).all():
            break
    entries = 10.0 ** rng.uniform(0.0, within_row_decades, size=(m, n))
    return NonnegMatrix(mask * entries * 10.0 ** rng.uniform(-15.0, 15.0, size=(m, 1)))


def all_float_rhos(A):
    """matrix_rho_prefixes at every proper nonempty T taken as the prefix.

    Also reports whether some such T has no row mass outside it, which is
    exactly when the support graph is disconnected.
    """
    rhos = []
    split = False
    for size in range(1, A.n):
        for T in itertools.combinations(range(A.n), size):
            rest = [j for j in range(A.n) if j not in T]
            rhos.append(matrix_rho_prefixes(A, np.array(T + tuple(rest)))[size - 1])
            touched = A.support[:, list(T)].any(axis=1)
            split |= not A.support[np.ix_(touched, rest)].any()
    return np.array(rhos), split


class TestRhoFloor:
    @pytest.mark.parametrize("within_row_decades", [3.0, 30.0])
    def test_floor_below_every_prefix_rho(self, rng, within_row_decades):
        disconnected = single_rows = 0
        for _ in range(300):
            A = floor_case(rng, within_row_decades)
            rhos, split = all_float_rhos(A)
            assert np.all(A.rho_floor <= rhos)
            if split:
                assert A.rho_floor == 0.0
            elif within_row_decades <= 3.0:
                # Smallest entry at least 1/(1 + 6 * 1e3) of its row sum.
                assert A.rho_floor > 1e-4
            disconnected += split
            single_rows += int((A.support.sum(axis=1) == 1).sum())
        assert disconnected >= 30 and single_rows >= 50

    def test_floor_under_rounded_away_mass(self):
        # The float rho of T = {0} is (1 - 1)/1 = 0 although the support is
        # connected; only the rounding margin keeps the floor at 0.
        A = NonnegMatrix(np.array([[1.0, 1e-30]]))
        assert matrix_rho_prefixes(A, np.arange(2))[0] == 0.0
        assert A.rho_floor == 0.0

    def test_examples(self):
        # least entry over row sum: 1/4 in row 0, 2/4 in row 1
        A = NonnegMatrix(np.array([[1.0, 3.0, 0.0], [0.0, 2.0, 2.0]]))
        assert 0.25 - 1e-13 < A.rho_floor < 0.25
        assert NonnegMatrix(np.eye(3)).rho_floor == 0.0
        assert NonnegMatrix(np.ones((1, 1))).rho_floor == pytest.approx(1.0)

    def test_built_at_first_read(self, monkeypatch):
        calls = []
        original = framescale.matrixscale._rho_floor

        def counting(a, support):
            calls.append(None)
            return original(a, support)

        monkeypatch.setattr(framescale.matrixscale, "_rho_floor", counting)
        A, _, _ = gen_bipartite(20, 20, 3)
        matrix = NonnegMatrix(A)
        assert calls == []
        first = matrix.rho_floor
        assert len(calls) == 1
        assert matrix.rho_floor == first and len(calls) == 1
        assert first == original(matrix.matrix, matrix.support) > 0.0


def reference_scale_matrix(matrix, marginals, eps, config=None):
    """The matrix loop with its own cap, Hall exit, step and trace.

    Built from public pieces with the gap-by-gap regularizer above, and it
    still adds the row error ||x * Ay - r||^2, which vanishes by
    construction; scale_matrix must match it exactly.
    """
    config = config or SolverConfig()
    a = matrix.matrix
    r, c = marginals.r, marginals.c
    n = a.shape[1]
    s = marginals.s
    cap = config.iteration_cap(n, eps)

    def combined_error_sq(y):
        cs = column_sums(matrix, r, y)
        row = a @ y
        row_err = (r / row) * row - r
        return float((row_err**2).sum() + ((cs - c) ** 2).sum()), cs

    def certified(T, it, err_sq, trace):
        return ScalingResult(status=INFEASIBLE, scaling=None, certificate=np.sort(T),
                             iterations=it, final_error_sq=err_sq, trace=trace)

    y = np.ones(n)
    err_sq, cs = combined_error_sq(y)
    trace = []
    it = 0
    while err_sq > eps * eps:
        if it >= cap:
            raise IterationCapExceeded(
                f"no convergence after {cap} iterations (error^2 {err_sq:g})", trace=trace)
        it += 1
        ms = select_margin_set(cs, c)
        T = ms.indices
        nbr = neighborhood(matrix, T)
        if float(c[T].sum()) > float(r[nbr].sum()) + HALL_TOL_REL * s:
            return certified(T, it, err_sq, trace)
        try:
            upd = matrix_update(matrix, r, y, T, ms.gamma, a @ y)
        except InfeasibleSegment:
            if float(c[T].sum()) > float(r[nbr].sum()):
                return certified(T, it, err_sq, trace)
            raise
        alpha = upd.alpha
        gain = matrix_proxy_gain(matrix, r, y, T, alpha)
        y = y.copy()
        y[T] *= alpha
        y, _ = sequential_regularize(matrix, y, ms.gamma / (15.0 * s * n**3))
        # A no-op, since the shrink leaves min exactly 1; scale_matrix skips it.
        y = y / y.min()
        new_err_sq, cs = combined_error_sq(y)
        trace.append(IterationRecord(
            error_sq=err_sq, gamma=ms.gamma, alpha_hat=alpha, h_gain=gain,
            progress=err_sq - new_err_sq, nd_iters=0, hp_one=upd.hp_one,
            log_z_inf=float(np.log(y.max())),
        ))
        err_sq = new_err_sq
    return ScalingResult(status=SCALED, scaling=y, certificate=None,
                         iterations=it, final_error_sq=err_sq, trace=trace)


def planted_hall(n, seed):
    """gen_bipartite(n, n, seed) with three columns confined to two rows."""
    A, r, c = gen_bipartite(n, n, seed)
    A[:, :3] = 0.0
    A[:2, :3] = 1.0
    A[2:, 3] = 1.0  # keeps every row nonzero
    return NonnegMatrix(A), MatrixMarginals(r, c)


class TestBitIdentity:
    @pytest.mark.parametrize("case", ["bipartite", "planted-hall", "hairline"])
    def test_matches_reference_loop(self, case):
        eps = 1e-6
        if case == "bipartite":
            A, r, c = gen_bipartite(20, 20, 1)
            matrix, marginals = NonnegMatrix(A), MatrixMarginals(r, c)
        elif case == "planted-hall":
            matrix, marginals = planted_hall(12, 5)
        else:
            # T = {0} is a Hall violation of 3e-9, below the comparison
            # guard; the surrogate step then finds no finite solution and
            # the solve certifies through the step.
            matrix = NonnegMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
            marginals = MatrixMarginals(np.array([1.0 - 1.5e-9, 1.0 + 1.5e-9]), np.ones(2))
            eps = 1e-8
            ms = select_margin_set(column_sums(matrix, marginals.r, np.ones(2)), marginals.c)
            assert list(ms.indices) == [0]
            with pytest.raises(InfeasibleSegment):
                matrix_update(matrix, marginals.r, np.ones(2), [0], ms.gamma,
                              matrix.matrix.sum(axis=1))
        got = scale_matrix(matrix, marginals, eps)
        want = reference_scale_matrix(matrix, marginals, eps)
        assert got.status == want.status
        assert got.iterations == want.iterations
        assert got.final_error_sq == want.final_error_sq
        assert got.trace == want.trace
        if case == "bipartite":
            assert got.status == SCALED and got.iterations == 1542
            assert np.array_equal(got.scaling, want.scaling)
        else:
            assert got.status == INFEASIBLE
            assert np.array_equal(got.certificate, want.certificate)
        if case == "planted-hall":
            assert got.iterations > 1 and list(got.certificate) == [0, 1, 2]
        if case == "hairline":
            assert got.iterations == 1 and list(got.certificate) == [0]

    def test_cap_hit_keeps_trace(self):
        A, r, c = gen_bipartite(20, 20, 1)
        matrix, marginals = NonnegMatrix(A), MatrixMarginals(r, c)
        config = SolverConfig(max_iters=25)
        with pytest.raises(IterationCapExceeded) as got:
            scale_matrix(matrix, marginals, 1e-6, config)
        with pytest.raises(IterationCapExceeded) as want:
            reference_scale_matrix(matrix, marginals, 1e-6, config)
        assert str(got.value) == str(want.value)
        assert len(got.value.trace) == 25
        assert got.value.trace == want.value.trace
