"""Dense linear-algebra primitives: Gram contexts, leverage scores, rank.

Everything here is deterministic and pure; binary64 throughout. Rank and
eigenvalue cutoffs follow the usual machine-epsilon scaling and can be
overridden per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationFailure, NotSymmetric

_EPS = float(np.finfo(np.float64).eps)


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
    if not np.all(np.isfinite(z)):
        raise ValueError("scaling has non-finite entries")
    if np.any(z <= 0.0):
        raise ValueError("scaling entries must be strictly positive")
    return z


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


@dataclass
class GramContext:
    """Cached Cholesky factorization of UZU^T for repeated solves."""

    gram: np.ndarray
    chol: tuple
    frame: Frame
    z: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return (UZU^T)^{-1} b."""
        return scipy.linalg.cho_solve(self.chol, b, check_finite=False)


def gram_context(frame: Frame, z) -> GramContext:
    """Factorize UZU^T; raises FactorizationFailure if numerically singular."""
    z = validate_scaling(z, frame.n)
    U = frame.matrix
    gram = (U * z) @ U.T
    gram = 0.5 * (gram + gram.T)  # strip accumulated asymmetry before factoring
    try:
        chol = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            "UZU^T is numerically singular; frame may be rank-deficient "
            "or the scaling range catastrophic"
        ) from exc
    return GramContext(gram=gram, chol=chol, frame=frame, z=z)


def _thin_q(frame: Frame, z: np.ndarray) -> np.ndarray:
    """``orthonormal_factor`` on a z the caller has already validated."""
    b = (frame.matrix * np.sqrt(z)).T
    q, r = np.linalg.qr(b, mode="reduced")
    rdiag = np.abs(np.diag(r))
    if rdiag.min(initial=np.inf) <= frame.d * _EPS * rdiag.max(initial=0.0):
        raise FactorizationFailure("scaled frame numerically rank-deficient")
    return q


def orthonormal_factor(frame: Frame, z) -> np.ndarray:
    """Thin orthonormal factor Q (n x d) of sqrt(Z) U^T.

    Row j of Q is the whitened, scaled column sqrt(z_j) (UZU^T)^{-1/2} u_j
    up to a right rotation, so Q carries the leverage scores (its squared
    row norms) and, on the rows of a set T, the step-size proxy at alpha =
    1. Raises FactorizationFailure when a diagonal entry of R falls below
    ``d * eps`` times the largest, i.e. the scaled frame is numerically
    rank-deficient.
    """
    return _thin_q(frame, validate_scaling(z, frame.n))


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


def numerical_rank(columns, tol: float | None = None) -> int:
    """Rank of a d x k matrix via column-pivoted QR.

    A pivot counts iff its residual column norm exceeds
    ``tol = max(d, k) * eps * (largest column norm)``.
    """
    m = _as_matrix(columns)
    d, k = m.shape
    if k < 1:
        raise ValueError("need at least one column")
    col_norms = np.linalg.norm(m, axis=0)
    max_norm = float(col_norms.max(initial=0.0))
    if max_norm == 0.0:
        return 0
    if tol is None:
        tol = max(d, k) * _EPS * max_norm
    r = scipy.linalg.qr(m, mode="r", pivoting=True, check_finite=False)[0]
    diag = np.abs(np.diag(r))
    return int(np.count_nonzero(diag > tol))


def _check_symmetric(m: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    asym = float(np.abs(m - m.T).max(initial=0.0))
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if asym > rtol * scale:
        raise NotSymmetric(f"matrix asymmetry {asym:g} exceeds tolerance")
    return 0.5 * (m + m.T)


def logdet_psd(m) -> float:
    """log det of a symmetric PSD matrix; -inf marks a singular input."""
    m = _check_symmetric(_as_matrix(m))
    try:
        chol = scipy.linalg.cho_factor(m, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        # Singular (or indefinite at roundoff level) PSD input.
        w = scipy.linalg.eigvalsh(m, check_finite=False)
        cutoff = m.shape[0] * _EPS * max(float(w.max(initial=0.0)), 0.0)
        if np.any(w <= cutoff):
            return float("-inf")
        return float(np.sum(np.log(w)))
    return float(2.0 * np.sum(np.log(np.diag(chol[0]))))


def pinv_trace(m, tol: float | None = None) -> float:
    """Trace of the Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Sums reciprocals of eigenvalues above ``tol = k * eps * lambda_max``;
    a rank-0 input gives 0.
    """
    m = _check_symmetric(_as_matrix(m))
    w = scipy.linalg.eigvalsh(m, check_finite=False)
    lam_max = float(w.max(initial=0.0))
    if lam_max <= 0.0:
        return 0.0
    if tol is None:
        tol = m.shape[0] * _EPS * lam_max
    keep = w > tol
    return float(np.sum(1.0 / w[keep]))
