"""Dense linear-algebra primitives: thin and pivoted QR factors, leverage, rank.

Leverage, proxy values, kernels, condition estimates and solves against
UZU^T are all read off the thin QR of sqrt(Z) U^T: its Q factor carries the
leverage scores, and since UZU^T = R^T R its R factor turns a Gram solve
into two triangular solves. Nothing here factors a Cholesky. This module
makes every LAPACK call of the package, through ``scipy.linalg.lapack``,
and checks each call's ``info``: the thin QR is ``dgeqrf`` and ``dorgqr``
(``_thin_qr``), the pivoted QR behind ranks and the determinant search
``dgeqp3`` (``_pivoted_qr``), every solve on an R ``dtrtrs``
(``_solve_r``), the spectra of the steep step's P, ``logdet_psd`` and
``pinv_trace`` ``dsyevd`` (``_symmetric_eigenvalues``), and the singular
values of ``regularize.rho_overestimate`` ``dgesdd`` (``_singular_values``).
Each is the call the numpy or scipy wrapper makes, at a fraction of the
wrapper's cost at these sizes, so the results are the same bit for bit.
scipy is imported at the first factorization, not with the package:
``_lapack()`` looks every routine up at call time, so a process that only
solves matrices, generates a gaussian or bipartite instance, or verifies
a certificate in exact arithmetic never loads it. Everything is
deterministic and pure; binary64 throughout.
Rank and eigenvalue cutoffs follow the usual machine-epsilon scaling.

A max or min is read off one element at ``argmax``/``argmin``, as in
``validate_scaling`` and ``_require_full_rank``, not by a ufunc reduction.
The read is exact, since a max rounds nothing and both return the first
NaN, and on vectors this short it costs about a third of the reduction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure, NotSymmetric

_EPS = float(np.finfo(np.float64).eps)


@functools.cache
def _lapack():
    """``scipy.linalg.lapack``, imported at the first call and kept for the
    process; the one place the package imports scipy."""
    import scipy.linalg.lapack
    return scipy.linalg.lapack


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return m


def validate_scaling(z, n: int) -> np.ndarray:
    """Check that z is a strictly positive, finite length-n vector."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (n,):
        raise ValueError(f"scaling has shape {z.shape}, expected ({n},)")
    # The common case in two index reads; argmin and argmax both pick the
    # first NaN, which fails both tests and falls through.
    if z[z.argmin()] > 0.0 and z[z.argmax()] < np.inf:
        return z
    if not np.all(np.isfinite(z)):
        raise ValueError("scaling has non-finite entries")
    if np.any(z <= 0.0):
        raise ValueError("scaling entries must be strictly positive")
    return z


def _column_mask(T, n: int, proper: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """T as intp indices in the caller's order, and T's boolean mask over n columns.

    The one check of a column set. T must be a nonempty set of distinct
    column indices in [0, n), and of an integer dtype, so a boolean mask or
    float indices are rejected rather than cast; with ``proper`` it must
    also leave a column out, checked first. Otherwise raises ValueError.
    One ``bincount`` checks the rest: it rejects a negative index, grows
    past n on an index >= n, and counts a repeated index twice.
    """
    T = np.asarray(T)
    if proper and T.size >= n:
        raise ValueError("T must be a proper subset of the columns")
    message = "T must be a nonempty set of distinct column indices in [0, n)"
    if T.size == 0:
        raise ValueError(message)
    if T.dtype.kind not in "iu":
        raise ValueError(f"T must hold integer column indices, got dtype {T.dtype}")
    T = T.astype(np.intp, copy=False)
    try:
        counts = np.bincount(T, minlength=n)
    except ValueError:
        raise ValueError(message) from None
    if counts.size != n or np.count_nonzero(counts) != T.size:
        raise ValueError(message)
    return T, counts.astype(bool)


@dataclass(frozen=True)
class Frame:
    """A d x n real matrix of full row rank; column j is the vector u_j."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        d, n = m.shape
        if d < 1 or n < d:
            raise ValueError(f"frame must satisfy 1 <= d <= n, got d={d}, n={n}")
        if not np.all(np.isfinite(m)):
            raise ValueError("frame entries must be finite")
        if numerical_rank(m) != d:
            raise ValueError("frame is not of full row rank")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def columns(self, idx) -> np.ndarray:
        return self.matrix[:, idx]


def _thin_qr(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of an m x k matrix b, m >= k, by LAPACK dgeqrf then dorgqr.

    Returns (Q, Rh): Q is m x k and C-contiguous, and Rh is the k x k block
    whose upper triangle is R. Below its diagonal Rh holds Householder
    vectors, so a caller that reads R itself takes ``np.triu(Rh)``; the
    diagonal and triangular solves need only the upper triangle. Q and R
    equal numpy's reduced QR bit for bit. Raises FactorizationFailure when
    LAPACK reports an error.
    """
    lapack = _lapack()
    qr, tau, _, info = lapack.dgeqrf(b)
    if info != 0:
        raise FactorizationFailure(f"LAPACK dgeqrf failed (info={info})")
    rh = qr[:qr.shape[1]].copy()  # dorgqr overwrites qr with Q
    q, _, info = lapack.dorgqr(qr, tau, overwrite_a=1)
    if info != 0:
        raise FactorizationFailure(f"LAPACK dorgqr failed (info={info})")
    # dorgqr returns Q in Fortran order; einsum over its rows would sum in
    # another order than over numpy's C-ordered Q and change the last bits.
    return np.ascontiguousarray(q), rh


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-pivoted QR of an m x k matrix a by LAPACK dgeqp3.

    Returns (Rh, piv): the upper triangle of the m x k Rh is R, Householder
    vectors lie below it, and column j of R belongs to column piv[j] of a
    (0-based). a itself is left alone. The workspace is the size LAPACK
    asks for, as in scipy's pivoted ``qr``: with less of it LAPACK leaves
    its blocked path on large inputs and R changes in the last bits, while
    with it R and piv equal that wrapper's bit for bit. Raises
    FactorizationFailure when LAPACK reports an error.
    """
    rh, jpvt, _, _, info = _lapack().dgeqp3(a, lwork=_dgeqp3_lwork(*a.shape))
    if info != 0:
        raise FactorizationFailure(f"LAPACK dgeqp3 failed (info={info})")
    return rh, jpvt - 1


@functools.cache
def _dgeqp3_lwork(m: int, n: int) -> int:
    """The optimal ``dgeqp3`` workspace for an m x n input; it depends on the
    shape alone, so each shape is queried once per process."""
    return int(_lapack().dgeqp3(np.zeros((m, n)), lwork=-1)[3][0])


def _solve_r(r: np.ndarray, b: np.ndarray, transposed: bool) -> np.ndarray:
    """x with R^T x = b (transposed) or R x = b, for a vector or stacked
    columns b, by LAPACK ``dtrtrs``.

    r must be C-contiguous, and only its upper triangle is read, so the Rh
    of ``_thin_qr`` serves as it is. LAPACK takes r.T, the same memory in
    Fortran order, as a lower triangle. That is the ``dtrtrs`` call scipy's
    triangular-solve wrapper makes for a C-ordered triangle, so x is the
    wrapper's bit for bit, without its checks and dispatch. Raises
    FactorizationFailure when a diagonal entry of R is exactly zero or
    LAPACK reports an error.
    """
    x, info = _lapack().dtrtrs(r.T, b, lower=1, trans=0 if transposed else 1)
    if info > 0:
        raise FactorizationFailure(f"singular triangle: R[{info - 1}, {info - 1}] is zero")
    if info != 0:
        raise FactorizationFailure(f"LAPACK dtrtrs failed (info={info})")
    return x


def _symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of a symmetric m, ascending, by LAPACK ``dsyevd`` on its
    lower triangle: the call numpy's ``eigvalsh`` makes, so its values bit
    for bit. scipy's ``eigvalsh`` (``dsyevr``) gives the same values until
    the largest entry passes about 1e76, where each routine scales m its own
    way. Raises FactorizationFailure when LAPACK reports an error.
    """
    w, _, info = _lapack().dsyevd(m, compute_v=0, lower=1)
    if info != 0:
        raise FactorizationFailure(f"LAPACK dsyevd failed (info={info})")
    return w


def _singular_values(a: np.ndarray) -> np.ndarray:
    """The singular values of a nonempty matrix a, descending, by LAPACK
    ``dgesdd`` with no vectors: the call numpy's ``svd(a, compute_uv=False)``
    makes, and its values bit for bit while min(m, n) stays at or below
    LAPACK's blocked cutoff (128 with OpenBLAS), where the workspace size
    changes no path. Raises FactorizationFailure when LAPACK reports an error.
    """
    _, s, _, info = _lapack().dgesdd(a, compute_uv=0, full_matrices=0)
    if info != 0:
        raise FactorizationFailure(f"LAPACK dgesdd failed (info={info})")
    return s


def _require_full_rank(rh: np.ndarray, failure: str) -> None:
    """Raise FactorizationFailure(failure) unless every diagonal entry of the
    k x k R in ``rh`` is above ``k * eps`` times the largest; a NaN fails."""
    rdiag = np.abs(rh.diagonal())
    if rdiag.size and not (rdiag[rdiag.argmin()]
                           > rh.shape[1] * _EPS * rdiag[rdiag.argmax()]):
        raise FactorizationFailure(failure)


def _scaled_qr(frame: Frame, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_thin_qr`` of sqrt(Z) U^T, checked by ``_require_full_rank``.

    z is not checked here: it must be a positive finite binary64 vector of
    length n. The public entries (``orthonormal_factor``, ``gram_context``,
    ``update.proxy_at``) pass it through ``validate_scaling`` first. The
    frame solve measures z = 1 and then only what ``prefix_gap_shrink``
    returns, and the shrink raises validate_scaling's errors on a z that
    is not positive and finite.
    """
    q, rh = _thin_qr((frame.matrix * np.sqrt(z)).T)
    _require_full_rank(rh, "scaled frame numerically rank-deficient")
    return q, rh


def gram_context(frame: Frame, z) -> np.ndarray:
    """The upper-triangular R with R^T R = UZU^T, off the thin QR of sqrt(Z) U^T.

    Fails as ``orthonormal_factor`` does.
    """
    return np.triu(_scaled_qr(frame, validate_scaling(z, frame.n))[1])


def orthonormal_factor(frame: Frame, z) -> np.ndarray:
    """Thin orthonormal factor Q (n x d) of sqrt(Z) U^T.

    Row j of Q is the whitened, scaled column sqrt(z_j) (UZU^T)^{-1/2} u_j
    up to a right rotation, so Q carries the leverage scores (its squared
    row norms) and, on the rows of a set T, the step-size proxy at alpha =
    1. Raises FactorizationFailure when a diagonal entry of R is at or below
    ``d * eps`` times the largest, i.e. the scaled frame is numerically
    rank-deficient, and ValueError when z fails ``validate_scaling``.
    """
    return _scaled_qr(frame, validate_scaling(z, frame.n))[0]


def leverage_scores(frame: Frame, z) -> np.ndarray:
    """Leverage scores l_j = z_j u_j^T (UZU^T)^{-1} u_j.

    The vector sums to d and each entry lies in [0, 1] up to roundoff.
    Computed as the squared row norms of ``orthonormal_factor(frame, z)``:
    identical to the Gram-inverse formula in exact arithmetic, but accurate
    even when the scaling spans enough decades that forming UZU^T would
    wipe out its small eigenvalues. The frame solver reads them off the
    factor it keeps for each iterate instead of calling this.
    """
    q = orthonormal_factor(frame, z)
    return np.einsum("ij,ij->i", q, q)


def numerical_rank(columns) -> int:
    """Rank of a d x k matrix via column-pivoted QR.

    A pivot counts iff its residual column norm exceeds
    ``max(d, k) * eps * (largest column norm)``. The columns are first
    scaled by the exact power of two that brings the largest entry into
    [1/2, 1), so the column norms neither overflow nor underflow; they are
    the square roots of the column sums of squares, as numpy's vector norm
    forms them for real input. A non-finite entry raises ValueError.
    """
    m = _as_matrix(columns)
    d, k = m.shape
    if k < 1:
        raise ValueError("need at least one column")
    top = np.abs(m).max(initial=0.0)
    if not top < np.inf:  # NaN fails this test too
        raise ValueError("columns must be finite")
    m = np.ldexp(m, -np.frexp(top)[1])
    col_norms = np.sqrt(np.add.reduce(m * m, axis=0))
    max_norm = float(col_norms.max(initial=0.0))
    if max_norm == 0.0:
        return 0
    diag = np.abs(_pivoted_qr(m)[0].diagonal())
    return int(np.count_nonzero(diag > max(d, k) * _EPS * max_norm))


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    asym = float(np.abs(m - m.T).max(initial=0.0))
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if asym > 1e-12 * scale:
        raise NotSymmetric(f"matrix asymmetry {asym:g} exceeds tolerance")
    return 0.5 * (m + m.T)


def logdet_psd(m) -> float:
    """log det of a symmetric PSD matrix; -inf marks an eigenvalue <= k * eps * lambda_max."""
    m = _check_symmetric(_as_matrix(m))
    w = _symmetric_eigenvalues(m)
    if np.any(w <= m.shape[0] * _EPS * max(float(w.max(initial=0.0)), 0.0)):
        return float("-inf")
    return float(np.sum(np.log(w)))


def pinv_trace(m) -> float:
    """Trace of the Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Sums reciprocals of eigenvalues above ``k * eps * lambda_max``;
    a rank-0 input gives 0. A non-finite entry raises ValueError here and
    in ``logdet_psd``.
    """
    m = _check_symmetric(_as_matrix(m))
    w = _symmetric_eigenvalues(m)
    lam_max = float(w.max(initial=0.0))
    if lam_max <= 0.0:
        return 0.0
    keep = w > m.shape[0] * _EPS * lam_max
    return float(np.sum(1.0 / w[keep]))
