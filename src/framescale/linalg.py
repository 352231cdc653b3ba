"""Dense linear-algebra primitives: thin and pivoted QR factors, leverage, rank.

Leverage, proxy values, kernels, condition estimates and solves against
UZU^T are all read off the thin QR of sqrt(Z) U^T: its Q factor carries the
leverage scores, and since UZU^T = R^T R its R factor turns a Gram solve
into two triangular solves. Nothing here factors a Cholesky. Both QRs call
LAPACK directly, through ``scipy.linalg.lapack``: the thin QR is
``dgeqrf`` and ``dorgqr``, and the column-pivoted QR behind ranks and the
determinant search is ``dgeqp3``. At the sizes of a frame iterate the
numpy and scipy wrappers cost several times the factorization, and the
LAPACK calls are the ones those wrappers make, so the factors are the same
bit for bit. scipy is imported at the first factorization, not with the
package: every scipy routine here, in ``update`` and in ``perceptron`` is
looked up through ``_scipy_linalg()`` at call time, so a process that only
solves matrices, generates a gaussian or bipartite instance, or verifies a
certificate in exact arithmetic never loads it. Everything is
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
def _scipy_linalg():
    """``scipy.linalg``, imported at the first call and kept for the process;
    the one place the package imports scipy."""
    import scipy.linalg
    return scipy.linalg


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


def _column_mask(T, n: int) -> np.ndarray:
    """The boolean mask over n columns of the column set T.

    T must be a nonempty set of distinct column indices in [0, n), and of
    an integer dtype, so a boolean mask or float indices are rejected rather
    than cast; otherwise raises ValueError. One ``bincount`` checks it all:
    it rejects a negative index, grows past n on an index >= n, and counts
    a repeated index twice.
    """
    T = np.asarray(T)
    message = "T must be a nonempty set of distinct column indices in [0, n)"
    if T.size == 0:
        raise ValueError(message)
    if T.dtype.kind not in "iu":
        raise ValueError(f"T must hold integer column indices, got dtype {T.dtype}")
    try:
        counts = np.bincount(T, minlength=n)
    except ValueError:
        raise ValueError(message) from None
    if counts.size != n or np.count_nonzero(counts) != T.size:
        raise ValueError(message)
    return counts.astype(bool)


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
    lapack = _scipy_linalg().lapack
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
    rh, jpvt, _, _, info = _scipy_linalg().lapack.dgeqp3(a, lwork=_dgeqp3_lwork(*a.shape))
    if info != 0:
        raise FactorizationFailure(f"LAPACK dgeqp3 failed (info={info})")
    return rh, jpvt - 1


@functools.cache
def _dgeqp3_lwork(m: int, n: int) -> int:
    """The optimal ``dgeqp3`` workspace for an m x n input; it depends on the
    shape alone, so each shape is queried once per process."""
    return int(_scipy_linalg().lapack.dgeqp3(np.zeros((m, n)), lwork=-1)[3][0])


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
    [1/2, 1), so the column norms neither overflow nor underflow. A
    non-finite entry raises ValueError.
    """
    m = _as_matrix(columns)
    d, k = m.shape
    if k < 1:
        raise ValueError("need at least one column")
    top = np.abs(m).max(initial=0.0)
    if not top < np.inf:  # NaN fails this test too
        raise ValueError("columns must be finite")
    m = np.ldexp(m, -np.frexp(top)[1])
    col_norms = np.linalg.norm(m, axis=0)
    max_norm = float(col_norms.max(initial=0.0))
    if max_norm == 0.0:
        return 0
    diag = np.abs(_pivoted_qr(m)[0].diagonal())
    return int(np.count_nonzero(diag > max(d, k) * _EPS * max_norm))


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    asym = float(np.abs(m - m.T).max(initial=0.0))
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if asym > 1e-12 * scale:
        raise NotSymmetric(f"matrix asymmetry {asym:g} exceeds tolerance")
    return 0.5 * (m + m.T)


def logdet_psd(m) -> float:
    """log det of a symmetric PSD matrix; -inf marks an eigenvalue <= k * eps * lambda_max."""
    m = _check_symmetric(_as_matrix(m))
    w = _scipy_linalg().eigvalsh(m, check_finite=False)
    if np.any(w <= m.shape[0] * _EPS * max(float(w.max(initial=0.0)), 0.0)):
        return float("-inf")
    return float(np.sum(np.log(w)))


def pinv_trace(m) -> float:
    """Trace of the Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Sums reciprocals of eigenvalues above ``k * eps * lambda_max``;
    a rank-0 input gives 0.
    """
    m = _check_symmetric(_as_matrix(m))
    w = _scipy_linalg().eigvalsh(m, check_finite=False)
    lam_max = float(w.max(initial=0.0))
    if lam_max <= 0.0:
        return 0.0
    keep = w > m.shape[0] * _EPS * lam_max
    return float(np.sum(1.0 / w[keep]))
