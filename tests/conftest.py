"""Shared test helpers: independent oracles kept away from solver code paths.

Oracles deliberately use eigendecompositions, matrix square roots, brute
force, and exact rationals, none of which the library's solve paths touch.
The exceptions are ``closed_form_oracle`` and ``scipy_pivoted_qr``: they
keep earlier routes to the steep step's numbers and to the pivoted QR, so
that the library's lean routes can be checked against them bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dsyevd

import framescale.linalg
import framescale.update
from framescale import FactorizationFailure, Frame, logdet_psd, newton_dinkelbach, proxy_at
from framescale.update import nd_iteration_cap


def random_frame(rng, d, n, spread=1.0):
    while True:
        U = rng.standard_normal((d, n))
        if spread != 1.0:
            U *= np.exp(rng.uniform(-spread, spread, size=n))
        try:
            return Frame(U)
        except ValueError:
            continue


def random_scaling(rng, n, decades=1.0):
    return 10.0 ** rng.uniform(-decades, decades, size=n)


def scipy_pivoted_qr(a):
    """(R, piv) of scipy's column-pivoted QR, the route ``linalg._pivoted_qr``
    replaced; it stands in for that kernel wherever only R and piv are read."""
    return scipy.linalg.qr(a, mode="r", pivoting=True, check_finite=False)


def pivoted_qr_inputs(rng, count=400):
    """Matrices to hold the pivoted-QR kernel to ``scipy_pivoted_qr``: in
    turn random, with a parallel pair, rank-deficient and scaled by
    1e+-150, up to 8 x 13; then one 300 x 300, past LAPACK's blocked cutoff."""
    for i in range(count):
        d, k = int(rng.integers(1, 9)), int(rng.integers(1, 14))
        a = rng.standard_normal((d, k))
        kind = i % 4
        if kind == 1 and k > 1:
            a[:, 1] = a[:, 0] * rng.choice([1.0, -2.0, 1e-6])
        elif kind == 2:
            r = int(rng.integers(0, min(d, k)))
            a = rng.standard_normal((d, r)) @ rng.standard_normal((r, k))
        elif kind == 3:
            a *= 10.0 ** rng.choice([-150.0, 150.0])
        yield a
    yield rng.standard_normal((300, 300))


def gram_inv_half(U, z):
    """(UZU^T)^{-1/2} via eigendecomposition (oracle only)."""
    G = (U * z) @ U.T
    w, E = np.linalg.eigh(0.5 * (G + G.T))
    return E @ np.diag(1.0 / np.sqrt(w)) @ E.T


def whitened(U, z):
    """V = (UZU^T)^{-1/2} U sqrt(Z); satisfies V V^T = I."""
    return gram_inv_half(U, z) @ (U * np.sqrt(z))


def mu_spectrum(U, z, T):
    """Eigenvalues of U_T Z_T U_T^T (UZU^T)^{-1}, descending, clipped to [0,1]."""
    V = whitened(U, z)
    W = V[:, T] @ V[:, T].T
    mu = np.linalg.eigvalsh(0.5 * (W + W.T))[::-1]
    return np.clip(mu, 0.0, 1.0)


def oracle_h(mu, alpha):
    return float(np.sum(alpha * mu / (1.0 + (alpha - 1.0) * mu)))


def oracle_h_prime(mu, alpha):
    return float(np.sum(mu * (1.0 - mu) / (1.0 + (alpha - 1.0) * mu) ** 2))


def fraction_inverse(rows):
    """Exact inverse of a nonsingular square matrix of Fractions (Gauss-Jordan)."""
    k = len(rows)
    m = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(rows)]
    for col in range(k):
        piv = next(r for r in range(col, k) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(k):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[k:] for row in m]


def sinkhorn_column_scaling(A, r, c, iters=200000, tol=1e-14):
    """Classic alternating row/column normalization; returns y."""
    y = np.ones(A.shape[1])
    for _ in range(iters):
        x = r / (A @ y)
        y_new = c / (A.T @ x)
        if np.max(np.abs(y_new / y - 1.0)) < tol:
            return y_new
        y = y_new
    return y


def fuzz_recipe(seed):
    """The ROADMAP fuzz recipe; returns (U, c), or None when a marginal exceeds 1.

    Kind seed % 4: 0 generic, 1 parallel columns, 2 column norms spread over
    14 decades, 3 a near-deficient last row.
    """
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 5)
    n = rng.integers(d + 1, 10)
    U = rng.standard_normal((d, n))
    kind = seed % 4
    if kind == 1:
        U[:, 1] = U[:, 0] * rng.choice([1, -2, 1e-6])
    elif kind == 2:
        U *= 10 ** rng.uniform(-7, 7, size=n)
    elif kind == 3:
        U[-1, :n // 2] *= 1e-9
    c = rng.uniform(0.05, 1, size=n)
    c = c / c.sum() * d
    if np.any(c > 1):
        return None
    return U, c


def gibbs_kernel(n, eta, seed):
    """(A, r, c): the Gibbs kernel A = exp(-C / eta) of a cost C uniform on
    [0, 1)^(n x n), with unit marginals. Below eta of about 0.0014 the least
    entries underflow to subnormals and then to 0."""
    C = np.random.default_rng(seed).uniform(0, 1, (n, n))
    with np.errstate(under="ignore"):
        A = np.exp(-C / eta)
    return A, np.ones(n), np.ones(n)


def spread_matrix(seed):
    """(A, r, c): an m x n matrix, 2 <= m, n <= 7, whose nonzeros (60 %)
    spread over 600 decades, 1e-300 to 1e300, plus 1 on the leading
    diagonal; an empty row gets a 1 in column 0, then an empty column one in
    row 0. r = n and c = m, so both total m n."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 8, size=2)
    A = (rng.random((m, n)) < 0.6) * 10.0 ** rng.uniform(-300, 300, (m, n))
    k = min(m, n)
    A[np.arange(k), np.arange(k)] += 1.0
    A[~A.any(axis=1), 0] = 1.0
    A[0, ~A.any(axis=0)] = 1.0
    return A, n * np.ones(m), m * np.ones(n)


def spread_frame(seed, decades):
    """(U, c): sizes and marginals drawn as in ``fuzz_recipe``, column norms
    spread over 2 * decades decades; None when a marginal exceeds 1."""
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 5)
    n = rng.integers(d + 1, 10)
    U = rng.standard_normal((d, n)) * 10.0 ** rng.uniform(-decades, decades, size=n)
    c = rng.uniform(0.05, 1, size=n)
    c = c / c.sum() * d
    if np.any(c > 1):
        return None
    return U, c


def sequential_regularize(frame, z, delta, cache, floor=1.0):
    """Reference: the gap-by-gap prefix shrink, visiting every gap in order.

    ``frame`` has ``n`` columns (a Frame or a NonnegMatrix), and
    ``cache.rho(T)`` gives the rho of a column set, clamped below at
    ``floor`` (1 for frames). Returns the regularized scaling and the number
    of shrinks that fired.
    """
    z = np.asarray(z, dtype=np.float64)
    order = np.argsort(-z, kind="stable")
    zs = z[order].copy()
    zs /= zs[-1]
    headroom = 1.0 + 2.0 * delta
    shrinks = 0
    for k in range(1, frame.n):
        ratio = zs[k - 1] / zs[k]
        if ratio * (delta / floor) <= headroom:
            continue
        rho = max(cache.rho(order[:k]), floor)
        threshold = rho / delta
        if ratio > threshold * headroom:
            zs[:k] *= threshold / ratio
            shrinks += 1
    zs = np.maximum(np.floor(zs / delta + 0.5) * delta, delta)
    zs /= zs[-1]
    out = np.empty_like(zs)
    out[order] = zs
    return out, shrinks


def gapped_instance(rng, d, n, big_exp=(4.0, 6.0), small_exp=(-4.0, -2.0)):
    """(frame, z, T) whose T-spectrum splits around 1/2 with a wide gap.

    A few columns of T get huge weights (eigenvalues near 1), the rest tiny
    weights (small positive eigenvalues), which keeps sum mu(1-mu) < 1/4.
    """
    while True:
        frame = random_frame(rng, d, n)
        t_size = int(rng.integers(2, min(n - 1, d + 2) + 1))
        perm = rng.permutation(n)
        T = perm[:t_size]
        n_big = int(rng.integers(0, min(t_size, d - 1) + 1))
        z = np.ones(n)
        if n_big:
            z[T[:n_big]] = 10.0 ** rng.uniform(*big_exp, size=n_big)
        z[T[n_big:]] = 10.0 ** rng.uniform(*small_exp, size=t_size - n_big)
        mu = mu_spectrum(frame.matrix, z, T)
        if float(np.sum(mu * (1.0 - mu))) < 0.24:
            return frame, z, np.sort(T)


def det_local_opt_oracle(kernel, p):
    """Greedy-then-swap determinant search by brute-force log-determinants.

    Each greedy step and each swap round tries every candidate set and
    keeps the first strict maximum, so ties go to the smallest index
    (pair). Returns (sorted positions, swap count).
    """
    t_size = kernel.shape[0]

    def logdet_of(sel):
        return logdet_psd(kernel[np.ix_(sel, sel)])

    chosen = []
    for _ in range(p):
        best_i, best_val = None, -math.inf
        for i in range(t_size):
            val = logdet_of(chosen + [i]) if i not in chosen else -math.inf
            if val > best_val:
                best_i, best_val = i, val
        if best_i is None:
            raise FactorizationFailure("all greedy extensions are singular")
        chosen = sorted(chosen + [best_i])
    current = logdet_of(chosen)
    swaps = 0
    while True:
        best_pair, best_val = None, -math.inf
        for i in chosen:
            for j in range(t_size):
                if j in chosen:
                    continue
                val = logdet_of(sorted(set(chosen) - {i} | {j}))
                if val > best_val:
                    best_pair, best_val = (i, j), val
        if best_pair is None or best_val <= current + math.log(2.0) - 1e-12:
            return chosen, swaps
        i, j = best_pair
        chosen = sorted(set(chosen) - {i} | {j})
        current = best_val
        swaps += 1


def closed_form_oracle(frame, z, T, q):
    """(gain, h, h') of the steep step by the older route, for bit-for-bit checks.

    h(1) and h'(1) come from ``proxy_at`` at alpha = 1, which factors z
    afresh, and the gain off the eigenvalues mu of P = Q_T^T Q_T (LAPACK
    ``dsyevd``, P formed from the rows of T in index order), w = mu (1 - mu):
    gain(alpha) = sum (alpha - 1) w / (1 + (alpha - 1) mu), written out
    here rather than called, and kept for the last alpha asked.
    h'(alpha) = sum w / (1 + (alpha - 1) mu)^2.
    """
    h1, hp1 = proxy_at(frame, z, T, 1.0)
    mask = np.zeros(frame.n, dtype=bool)
    mask[T] = True
    qt = q[mask, :]
    mu, _, info = dsyevd(qt.T @ qt, compute_v=0, lower=1)
    assert info == 0
    w = mu * (1.0 - mu)
    last = [math.nan, 0.0]

    def gain(alpha):
        if alpha != last[0]:
            s = alpha - 1.0
            last[:] = alpha, float((s * w / (1.0 + s * mu)).sum())
        return last[1]

    def h(alpha):
        return h1 if alpha == 1.0 else h1 + gain(alpha)

    def h_prime(alpha):
        return hp1 if alpha == 1.0 else float((w / (1.0 + (alpha - 1.0) * mu) ** 2).sum())

    return gain, h, h_prime


def steep_update_oracle(frame, z, T, gamma, q):
    """(alpha, h_gain, nd_iters, hp_one) of a steep step: Newton from 1 on the closed form."""
    gain, h, h_prime = closed_form_oracle(frame, z, T, q)
    h1 = h(1.0)
    res = newton_dinkelbach(lambda alpha: (h(alpha), h_prime(alpha)), 1.0, h1 + gamma / 5.0,
                            h1 + gamma, nd_iteration_cap(frame.n, frame.d))
    return res.alpha, gain(res.alpha), res.n_iters, h_prime(1.0)


@pytest.fixture
def proxy_evaluations(monkeypatch):
    """Records the alpha of every ``proxy_at`` call that ``update`` makes."""
    alphas = []
    original = framescale.update.proxy_at

    def counting(frame, z, T, alpha):
        alphas.append(alpha)
        return original(frame, z, T, alpha)

    monkeypatch.setattr(framescale.update, "proxy_at", counting)
    return alphas


@pytest.fixture
def qr_calls(monkeypatch):
    """Records one entry per thin QR, i.e. per ``linalg._thin_qr`` call.

    The helper is looked up in ``linalg`` (by ``_scaled_qr``) and in
    ``update`` (by the swap search), so it is replaced in both.
    """
    calls = []
    original = framescale.linalg._thin_qr

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(framescale.linalg, "_thin_qr", counting)
    monkeypatch.setattr(framescale.update, "_thin_qr", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
