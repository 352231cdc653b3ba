from fractions import Fraction

import numpy as np
import pytest

from framescale import (
    Frame,
    LabeledSample,
    Marginals,
    NotSeparable,
    PreconditionViolated,
    QMetric,
    improved_perceptron,
    margin_fraction,
    scale_frame,
)
from framescale.perceptron import update_vector

from conftest import fraction_inverse, random_frame


def make_samples(points, w, metric):
    out = []
    for p in points.T:
        label = 1 if metric.inner(w, p) >= 0 else -1
        out.append(LabeledSample(p, label))
    return out


class TestQMetric:
    def test_identity_gram(self):
        metric = QMetric.from_frame(Frame(np.eye(3)), np.ones(3))
        assert metric.inner([1, 0, 0], [0, 1, 0]) == pytest.approx(0.0)
        assert metric.norm_sq([1, 2, 2]) == pytest.approx(9.0)

    def test_positive_definite(self, rng):
        frame = random_frame(rng, 4, 9)
        metric = QMetric.from_frame(frame, rng.random(9) + 0.1)
        for _ in range(10):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            assert metric.norm_sq(x) > 0.0
            assert metric.inner(x, y) == pytest.approx(metric.inner(y, x), rel=1e-10)

    def test_apply_accurate_over_24_decades(self):
        # Forming UZU^T squares its condition number, which reaches 1e24 or
        # more here; the R factor of sqrt(Z) U^T does not.
        worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d, n = int(rng.integers(2, 6)), int(rng.integers(6, 14))
            U = rng.standard_normal((d, n))
            z = 10.0 ** rng.uniform(-12.0, 12.0, size=n)
            b = rng.standard_normal(d)
            x = QMetric.from_frame(Frame(U), z).apply(b)
            uq = [[Fraction(v) for v in row] for row in U.tolist()]
            zq = [Fraction(v) for v in z.tolist()]
            gram = [[sum(ui[j] * zq[j] * uk[j] for j in range(n)) for uk in uq] for ui in uq]
            exact = np.array([float(sum(g * Fraction(v) for g, v in zip(row, b.tolist())))
                              for row in fraction_inverse(gram)])
            worst = max(worst, float(np.linalg.norm(x - exact) / np.linalg.norm(exact)))
        assert worst <= 1e-6


class TestUpdateVector:
    def test_norm_identity(self, rng):
        frame = random_frame(rng, 3, 8)
        metric = QMetric.from_frame(frame, rng.random(8) + 0.1)
        for _ in range(50):
            v = rng.standard_normal(3)
            u = rng.standard_normal(3)
            v2 = update_vector(v, u, metric)
            expected = metric.norm_sq(v) - metric.inner(v, u) ** 2 / metric.norm_sq(u)
            assert metric.norm_sq(v2) == pytest.approx(expected, abs=1e-10)

    def test_margin_update_contracts(self, rng):
        # a mistake at margin exactly gamma shrinks the Q-norm by (1 - gamma^2)
        metric = QMetric.from_frame(Frame(np.eye(2)), np.ones(2))
        gamma = 0.6
        v = np.array([1.0, 0.0])
        u = np.array([-gamma, np.sqrt(1 - gamma**2)])  # <v,u> = -gamma, norms 1
        v2 = update_vector(v, u, metric)
        assert metric.norm_sq(v2) == pytest.approx((1 - gamma**2) * metric.norm_sq(v))


class TestImprovedPerceptron:
    def test_zero_updates_when_consistent(self):
        metric = QMetric.from_frame(Frame(np.eye(2)), np.ones(2))
        samples = [LabeledSample([1.0, 0.0], 1), LabeledSample([0.0, 1.0], 1)]
        # The race checks the seed +e1 first, and it already classifies both.
        res = improved_perceptron(samples, metric, gamma=0.7)
        assert res.seed_index == 0
        assert res.n_updates == 0
        np.testing.assert_allclose(res.vector, [1.0, 0.0])

    def test_classifies_high_margin_points(self, rng):
        for trial in range(10):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2 * d, 16))
            frame = random_frame(rng, d, n)
            z = rng.random(n) + 0.5
            metric = QMetric.from_frame(frame, z)
            w = rng.standard_normal(d)
            samples = make_samples(frame.matrix, w, metric)
            gamma = 1.0 / np.sqrt(4.0 * d)
            res = improved_perceptron(samples, metric, gamma, max_updates=500)
            v = res.vector
            vn = metric.norm_sq(v)
            for s in samples:
                corr = metric.inner(v, s.point) ** 2
                if corr >= gamma**2 * vn * metric.norm_sq(s.point):
                    assert np.sign(metric.inner(v, s.point)) == s.label

    def test_correlation_increases(self, rng):
        frame = random_frame(rng, 3, 10)
        metric = QMetric.from_frame(frame, np.ones(10))
        w = rng.standard_normal(3)
        samples = make_samples(frame.matrix, w, metric)
        gamma = 0.25
        v = frame.matrix[:, 0].copy()
        if metric.inner(v, w) < 0:
            v = -v
        from framescale.perceptron import _Scan
        scan = _Scan(samples, metric)
        last = metric.inner(v, w) / np.sqrt(metric.norm_sq(v))
        for _ in range(200):
            j = scan.violation(v, gamma)
            if j is None:
                break
            v = update_vector(v, samples[j].point, metric)
            corr = metric.inner(v, w) / np.sqrt(metric.norm_sq(v))
            assert corr > last - 1e-12
            last = corr

    def test_winner_update_count_bound(self, rng):
        # updates of the winning instance <= ceil(log_{1/(1-g^2)}(1/rho0^2))
        import math
        checked = 0
        while checked < 10:
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2 * d, 14))
            frame = random_frame(rng, d, n)
            metric = QMetric.from_frame(frame, np.ones(n))
            w = rng.standard_normal(d)
            samples = make_samples(frame.matrix, w, metric)
            gamma = 1.0 / np.sqrt(4.0 * d)
            res = improved_perceptron(samples, metric, gamma, max_updates=300)
            seed = samples[res.seed_index // 2].point * (1 if res.seed_index % 2 == 0 else -1)
            rho0 = metric.inner(seed, w) / math.sqrt(metric.norm_sq(seed) * metric.norm_sq(w))
            if rho0 <= 0.0:
                continue  # bound only meaningful for positively correlated seeds
            checked += 1
            bound = math.ceil(math.log(1.0 / rho0**2) / -math.log1p(-gamma**2))
            assert res.n_updates <= bound

    def test_not_separable_raises(self, rng):
        metric = QMetric.from_frame(Frame(np.eye(2)), np.ones(2))
        # the same point under both labels defeats every instance
        samples = [LabeledSample([1.0, 0.0], 1), LabeledSample([1.0, 0.0], -1)]
        with pytest.raises(NotSeparable):
            improved_perceptron(samples, metric, gamma=0.05, max_updates=8)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LabeledSample([1.0, 0.0], 2)


class TestMarginFraction:
    def test_identity_frame(self):
        frame = Frame(np.eye(4))
        assert margin_fraction(frame, np.ones(4), np.array([1.0, 0, 0, 0])) == pytest.approx(0.25)

    def test_d1_full_fraction(self):
        frame = Frame(np.array([[1.0, -2.0, 0.5, 0.25]]))
        res = scale_frame(frame, Marginals(np.full(4, 0.25), d=1), eps=1 / 8 * 0.9)
        assert margin_fraction(frame, res.scaling, np.array([3.0])) == 1.0

    def test_lower_bound_after_scaling(self, rng):
        for trial in range(5):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(3 * d, 20))
            frame = random_frame(rng, d, n)
            eps = 0.9 * d / (2.0 * n)
            res = scale_frame(frame, Marginals(np.full(n, d / n), d=d), eps)
            assert res.scaled
            for _ in range(20):
                w = rng.standard_normal(d)
                assert margin_fraction(frame, res.scaling, w) >= 1.0 / (5.0 * d)

    def test_precondition(self, rng):
        frame = random_frame(rng, 3, 12)
        with pytest.raises(PreconditionViolated):
            margin_fraction(frame, np.full(12, 1.0) + rng.random(12) * 5, np.ones(3))
