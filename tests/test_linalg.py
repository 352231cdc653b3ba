import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from framescale import (
    FactorizationFailure,
    Frame,
    NotSymmetric,
    QMetric,
    gram_context,
    leverage_scores,
    logdet_psd,
    numerical_rank,
    pinv_trace,
)
import framescale.linalg
from framescale.linalg import _pivoted_qr, _thin_qr, validate_scaling
from framescale.generate import gen_infeasible
from framescale.rational import column_submatrix, rational_rank

from conftest import (fraction_inverse, pivoted_qr_inputs, random_frame, random_scaling,
                      scipy_pivoted_qr)


class TestGramContext:
    def test_identity(self):
        r = gram_context(Frame(np.eye(2)), np.ones(2))
        np.testing.assert_allclose(r.T @ r, np.eye(2))

    def test_hand_computed(self):
        U = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        r = gram_context(U, np.ones(3))
        np.testing.assert_allclose(r.T @ r, [[2.0, 1.0], [1.0, 2.0]])

    def test_diagonal(self):
        r = gram_context(Frame(np.eye(2)), np.array([4.0, 9.0]))
        np.testing.assert_allclose(r.T @ r, np.diag([4.0, 9.0]))

    def test_deterministic(self, rng):
        frame = random_frame(rng, 3, 7)
        z = random_scaling(rng, 7)
        a = gram_context(frame, z)
        b = gram_context(frame, z)
        assert np.array_equal(a.T @ a, b.T @ b)

    def test_singular_raises(self):
        # The scaled frame diag(1, 1e-20) is numerically rank-deficient.
        with pytest.raises(FactorizationFailure):
            gram_context(Frame(np.eye(2)), np.array([1.0, 1e-40]))

    @pytest.mark.parametrize("gap", [2e-14, 2e-10, 2e-8])
    def test_nearly_parallel_rows_solve(self, gap):
        # UU^T has condition number cond(U)^2, beyond a Gram Cholesky, but
        # the two triangular solves on R that QMetric runs keep the forward
        # error within cond(U) * eps of the exact rational solution.
        U = np.array([[1.0, 1.0], [1.0, 1.0 + gap]])
        metric = QMetric(gram_context(Frame(U), np.ones(2)))
        rows = [[Fraction(float(v)) for v in row] for row in U]
        gram = [[sum(a * c for a, c in zip(ri, rk)) for rk in rows] for ri in rows]
        b = np.array([1.0, -2.0])
        exact = np.array([float(g0 * Fraction(b[0]) + g1 * Fraction(b[1]))
                          for g0, g1 in fraction_inverse(gram)])
        err = np.linalg.norm(metric.apply(b) - exact) / np.linalg.norm(exact)
        assert err <= np.linalg.cond(U) * np.finfo(np.float64).eps

    def test_rejects_bad_scaling(self):
        frame = Frame(np.eye(2))
        with pytest.raises(ValueError):
            gram_context(frame, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            gram_context(frame, np.array([1.0, np.inf]))

    def test_r_is_numpy_r(self, rng):
        # R is copied out of the dgeqrf output before dorgqr overwrites it.
        for _ in range(20):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(d, 20))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n)
            r = gram_context(frame, z)
            assert np.array_equal(r, np.linalg.qr((frame.matrix * np.sqrt(z)).T)[1])
            assert np.array_equal(r, np.triu(r))


class TestThinQR:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_numpy_bit_for_bit(self, rng, order):
        for _ in range(50):
            m = int(rng.integers(1, 30))
            k = int(rng.integers(1, m + 1))
            b = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-8, 8, size=k)
            b = np.asarray(b, order=order)
            q, rh = _thin_qr(b)
            q_np, r_np = np.linalg.qr(b)
            assert q.flags.c_contiguous
            assert np.array_equal(q, q_np)
            assert np.array_equal(np.triu(rh), r_np)

    def test_input_untouched(self, rng):
        b = np.asfortranarray(rng.standard_normal((9, 4)))
        before = b.copy()
        _thin_qr(b)
        assert np.array_equal(b, before)


class TestPivotedQR:
    def test_matches_scipy_bit_for_bit(self, rng):
        for a in pivoted_qr_inputs(rng):
            rh, piv = _pivoted_qr(a)
            r_sp, piv_sp = scipy_pivoted_qr(a)
            assert np.array_equal(np.triu(rh), r_sp), a.shape
            assert np.array_equal(piv, piv_sp), a.shape

    def test_ranks_match_the_scipy_route(self, rng, monkeypatch):
        inputs = list(pivoted_qr_inputs(rng))
        ranks = [numerical_rank(a) for a in inputs]
        monkeypatch.setattr(framescale.linalg, "_pivoted_qr", scipy_pivoted_qr)
        assert ranks == [numerical_rank(a) for a in inputs]
        assert set(ranks) >= {0, 1, 300}

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_untouched(self, rng, order):
        a = np.asarray(rng.standard_normal((4, 9)), order=order)
        before = a.copy()
        _pivoted_qr(a)
        assert np.array_equal(a, before)


class TestValidateScaling:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "scaling has non-finite entries"),
        (np.inf, "scaling has non-finite entries"),
        (-np.inf, "scaling has non-finite entries"),
        (0.0, "scaling entries must be strictly positive"),
        (-1.0, "scaling entries must be strictly positive"),
    ])
    def test_messages(self, bad, message):
        z = np.array([1.0, bad, 2.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_scaling(z, 3)

    def test_shape(self):
        with pytest.raises(ValueError, match=r"shape \(2,\), expected \(3,\)"):
            validate_scaling(np.ones(2), 3)

    def test_valid_passes_through(self):
        z = np.array([1e-300, 1.0, 1e300])
        assert validate_scaling(z, 3) is z


class TestLeverageScores:
    def test_orthonormal(self):
        lev = leverage_scores(Frame(np.eye(2)), np.ones(2))
        np.testing.assert_allclose(lev, [1.0, 1.0])

    def test_hand_computed(self):
        # inv of [[2,1],[1,2]] is (1/3) [[2,-1],[-1,2]]; every score is 2/3.
        U = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        lev = leverage_scores(U, np.ones(3))
        np.testing.assert_allclose(lev, np.full(3, 2.0 / 3.0), atol=1e-14)

    def test_d1_closed_form(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            frame = random_frame(rng, 1, n)
            z = random_scaling(rng, n)
            u = frame.matrix[0]
            expected = z * u**2 / np.sum(z * u**2)
            np.testing.assert_allclose(leverage_scores(frame, z), expected, atol=1e-12)

    def test_sum_is_d(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(d + 1, 24))
            frame = random_frame(rng, d, n)
            z = random_scaling(rng, n, decades=2.0)
            lev = leverage_scores(frame, z)
            assert abs(lev.sum() - d) <= 1e-9 * d
            assert np.all(lev >= 0.0)
            assert np.all(lev <= 1.0 + 1e-9)

    def test_scale_invariance(self, rng):
        frame = random_frame(rng, 3, 9)
        z = random_scaling(rng, 9)
        base = leverage_scores(frame, z)
        for t in (1e-6, 0.5, 7.0, 1e8):
            np.testing.assert_allclose(leverage_scores(frame, t * z), base, atol=1e-9)

    def test_sum_survives_extreme_spread(self, rng):
        # scalings spanning ~20 decades would sink a Gram-and-solve route
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2 * d, 16))
            frame = random_frame(rng, d, n)
            z = 10.0 ** rng.uniform(-12.0, 12.0, size=n)
            lev = leverage_scores(frame, z)
            assert abs(float(lev.sum()) - d) <= 1e-9 * d

    def test_left_invariance(self, rng):
        frame = random_frame(rng, 4, 10)
        z = random_scaling(rng, 10)
        base = leverage_scores(frame, z)
        for _ in range(5):
            L = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            other = Frame(L @ frame.matrix)
            np.testing.assert_allclose(leverage_scores(other, z), base, atol=1e-8)


class TestNumericalRank:
    def test_basic(self):
        assert numerical_rank(np.eye(2)) == 2
        assert numerical_rank(np.array([[1.0, 1.0], [0.0, 0.0]])) == 1
        assert numerical_rank(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])) == 2
        assert numerical_rank(np.zeros((3, 2))) == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 8: dgeqp3 leaves R[1, 1] = "
                                           "-3.1e-16 above the cutoff 2.76e-16")
    def test_bit_identical_columns_have_rank_one(self):
        # The rank defect behind fuzz recipe seed 813, whose columns 0 and 1
        # are identical: that instance is exactly infeasible but raises
        # DerivativeVanished.
        col = [-0.1875, 0.591796875]
        assert numerical_rank(np.array([col, col]).T) == 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # A non-finite entry used to give rank 0.
        with pytest.raises(ValueError, match="finite"):
            numerical_rank(np.array([[bad, 1.0], [0.0, 1.0]]))

    def test_exhaustive_small_vs_rational(self):
        entries = range(-2, 3)
        for d, k in [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]:
            for flat in itertools.product(entries, repeat=d * k):
                m = np.array(flat, dtype=np.float64).reshape(d, k)
                rows = [[Fraction(int(v)) for v in row] for row in m]
                assert numerical_rank(m) == rational_rank(rows), m

    @pytest.mark.parametrize("exp", range(-300, 301, 25))
    def test_scale_free(self, exp):
        # Column norms of entries near 1e154 and beyond used to overflow.
        m = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]) * 10.0**exp
        assert numerical_rank(m) == 2
        assert numerical_rank(m[:, :1]) == 1

    def test_random_larger_vs_rational(self, rng):
        for _ in range(400):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            m = rng.integers(-2, 3, size=(d, k)).astype(np.float64)
            rows = [[Fraction(int(v)) for v in row] for row in m]
            assert numerical_rank(m) == rational_rank(rows), m


def fractions_of(m) -> list[list[Fraction]]:
    return [[Fraction(float(v)) for v in row] for row in np.asarray(m, dtype=np.float64)]


class TestRationalRank:
    def test_parallel_pair(self, rng):
        x = rng.standard_normal(4)
        assert rational_rank(fractions_of(np.column_stack([x, 2.0 * x]))) == 1

    def test_pair_scaled_by_1e6_is_full_rank(self):
        # 1e-6 * x rounds differently in each entry, so the binary64 columns
        # are not exactly parallel, though a float rank reads them as one.
        x = np.array([0.1, 0.7, -1.3])
        m = np.column_stack([x, 1e-6 * x])
        assert Fraction(m[0, 1]) / Fraction(m[0, 0]) != Fraction(m[1, 1]) / Fraction(m[1, 0])
        assert numerical_rank(m) == 1
        assert rational_rank(fractions_of(m)) == 2

    def test_zero_rows_and_columns(self):
        assert rational_rank([]) == 0
        assert rational_rank([[]]) == 0
        assert rational_rank(fractions_of(np.zeros((3, 4)))) == 0
        m = np.zeros((4, 5))
        m[1, 2], m[3, 4], m[3, 0] = 3.0, -1.0, 0.5
        assert rational_rank(fractions_of(m)) == 2
        assert rational_rank(fractions_of(m.T)) == 2

    @pytest.mark.parametrize("d,n", [(3, 7), (8, 20), (16, 40)])
    def test_gen_infeasible_cluster(self, d, n):
        U, c = gen_infeasible(d, n, seed=0)
        k = int(np.sum(c == c[0]))
        rows = fractions_of(U)
        assert rational_rank(column_submatrix(rows, range(k))) == 1
        assert rational_rank(column_submatrix(rows, range(k - 1, n))) == d

    def test_non_dyadic_entries(self):
        third, seventh = Fraction(1, 3), Fraction(1, 7)
        assert rational_rank([[third, 2 * third], [seventh, 2 * seventh]]) == 1
        assert rational_rank([[third, Fraction(1, 5)], [seventh, Fraction(1, 11)]]) == 2
        row = [Fraction(1, 3), Fraction(-2, 9), Fraction(5, 6)]
        assert rational_rank([row, [v * Fraction(7, 3) for v in row], row[::-1]]) == 2

    def test_matches_numerical_rank_when_well_conditioned(self, rng):
        for d, k in [(1, 1), (2, 5), (4, 9), (6, 3), (8, 20), (16, 40)]:
            for r in range(min(d, k) + 1):
                m = rng.integers(-3, 4, (d, r)) @ rng.integers(-3, 4, (r, k))
                assert rational_rank(fractions_of(m)) == numerical_rank(m.astype(float))
            m = rng.standard_normal((d, k))
            assert rational_rank(fractions_of(m)) == numerical_rank(m) == min(d, k)


class TestLogdetPsd:
    def test_examples(self):
        assert logdet_psd(np.eye(3)) == pytest.approx(0.0, abs=1e-15)
        assert logdet_psd(np.diag([2.0, 8.0])) == pytest.approx(math.log(16.0))
        assert logdet_psd(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(math.log(3.0))

    def test_singular_is_minus_inf(self):
        assert logdet_psd(np.ones((2, 2))) == -math.inf
        assert logdet_psd(np.zeros((2, 2))) == -math.inf

    def test_asymmetric_raises(self):
        with pytest.raises(NotSymmetric):
            logdet_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestPinvTrace:
    def test_examples(self):
        assert pinv_trace(np.eye(2)) == pytest.approx(2.0)
        assert pinv_trace(np.diag([0.5, 0.0])) == pytest.approx(2.0)
        assert pinv_trace(np.ones((2, 2))) == pytest.approx(0.5)
        assert pinv_trace(np.zeros((3, 3))) == 0.0

    def test_matches_numpy_pinv(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            r = int(rng.integers(1, k + 1))
            b = rng.standard_normal((k, r))
            m = b @ b.T
            assert pinv_trace(m) == pytest.approx(np.trace(np.linalg.pinv(m)), rel=1e-8)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("spectral", [logdet_psd, pinv_trace], ids=lambda f: f.__name__)
def test_spectral_functions_reject_non_finite_entries(spectral, value):
    # Unchecked, pinv_trace([[nan]]) returned 0.0 and logdet_psd nan, and
    # [[inf]] gave 0.0 and -inf after an "invalid value" RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in ([[value]], [[1.0, value], [value, 1.0]]):
            with pytest.raises(ValueError, match="entries must be finite"):
                spectral(np.array(m))


class TestFrameValidation:
    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            Frame(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_rejects_wide_before_tall(self):
        with pytest.raises(ValueError):
            Frame(np.ones((3, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Frame(np.array([[1.0, np.nan], [0.0, 1.0]]))
