"""Seeded instance generators: random feasible, planted infeasible, bipartite.

Planted infeasible frames build the deficient cluster from power-of-two
multiples of a single vector so that the rank deficiency is exact in the
decimal text, not just to float tolerance; the exact-rational verifier can
then confirm the certificate.
"""

from __future__ import annotations

import numpy as np

from .linalg import numerical_rank


def gen_gaussian(d: int, n: int, seed: int):
    """Standard normal frame with uniform marginals d/n; feasible a.s."""
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((d, n))
    c = np.full(n, d / n)
    return U, c


def gen_infeasible(d: int, n: int, seed: int):
    """Frame with a rank-1 column cluster carrying marginal mass 1.5.

    Any T containing the cluster certifies infeasibility since
    <c, 1_T> >= 1.5 > 1 = rk of the cluster span. The cluster is built
    from power-of-two multiples of a dyadic base vector, so its entries
    have short exact decimal expansions and the rank deficiency survives
    the round trip through decimal text into exact rationals.
    """
    if d < 2 or n < d + 2:
        raise ValueError("need d >= 2 and n >= d + 2")
    rng = np.random.default_rng(seed)
    k = min(max(2, n // 3), n - d)
    cluster_mass = 1.5
    c = np.empty(n)
    c[:k] = cluster_mass / k
    c[k:] = (d - cluster_mass) / (n - k)
    if np.any(c > 1.0) or np.any(c <= 0.0):
        raise ValueError(f"no valid marginals for d={d}, n={n}")
    while True:
        v = np.round(rng.standard_normal(d) * 1024.0) / 1024.0
        if not v.any():
            continue
        mult = rng.choice([0.5, 1.0, 2.0, 4.0], size=k)
        U = np.empty((d, n))
        U[:, :k] = np.outer(v, mult)
        U[:, k:] = rng.standard_normal((d, n - k))
        if numerical_rank(U) == d:
            return U, c


def gen_bipartite(m: int, n: int, seed: int):
    """0/1 support matrix of density 0.4 plus uniform marginals.

    For m == n a hidden permutation diagonal is always included, so the
    instance satisfies the Hall condition with r = c = 1.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    A = (rng.random((m, n)) < 0.4).astype(np.float64)
    if m == n:
        perm = rng.permutation(n)
        A[np.arange(n), perm] = 1.0
    for i in range(m):
        if not A[i].any():
            A[i, int(rng.integers(n))] = 1.0
    for j in range(n):
        if not A[:, j].any():
            A[int(rng.integers(m)), j] = 1.0
    s = float(min(m, n))
    r = np.full(m, s / m)
    c = np.full(n, s / n)
    return A, r, c
