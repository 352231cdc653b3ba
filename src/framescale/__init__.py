"""Frame and matrix scaling with combinatorial updates and certificates."""

# The one version string; pyproject.toml carries the same value.
__version__ = "0.1.0"

from .errors import (
    DegenerateMargin,
    DerivativeVanished,
    FactorizationFailure,
    GuessPreconditionViolated,
    InfeasibleSegment,
    IterateCycle,
    IterationCapExceeded,
    NotSeparable,
    NotSymmetric,
    PreconditionViolated,
    ScalingError,
    ZeroRowSum,
)
from .linalg import (
    Frame,
    gram_context,
    leverage_scores,
    logdet_psd,
    numerical_rank,
    orthonormal_factor,
    pinv_trace,
)
from .matrixscale import (
    MatrixMarginals,
    NonnegMatrix,
    column_sums,
    matrix_regularize,
    matrix_update,
    neighborhood,
    scale_matrix,
)
from .perceptron import LabeledSample, QMetric, improved_perceptron, margin_fraction
from .regularize import regularize, rho_overestimate
from .solver import (
    INFEASIBLE,
    SCALED,
    IterationRecord,
    Marginals,
    MarginSet,
    ScalingResult,
    SolverConfig,
    Trace,
    infeasibility_certificate,
    scale_frame,
    select_margin_set,
)
from .update import (
    EigenSumEstimate,
    NDResult,
    approx_small_eigen_sum,
    compute_update,
    det_local_opt,
    newton_dinkelbach,
    proxy_at,
)

__all__ = [
    "Frame", "gram_context", "leverage_scores", "logdet_psd",
    "numerical_rank", "orthonormal_factor", "pinv_trace",
    "Marginals", "MarginSet", "ScalingResult", "SolverConfig",
    "IterationRecord", "Trace", "SCALED", "INFEASIBLE",
    "infeasibility_certificate", "scale_frame", "select_margin_set",
    "NDResult", "EigenSumEstimate", "newton_dinkelbach",
    "compute_update", "proxy_at", "approx_small_eigen_sum", "det_local_opt",
    "regularize", "rho_overestimate",
    "NonnegMatrix", "MatrixMarginals", "column_sums", "neighborhood",
    "matrix_update", "matrix_regularize", "scale_matrix",
    "QMetric", "LabeledSample", "improved_perceptron", "margin_fraction",
    "ScalingError", "FactorizationFailure", "NotSymmetric", "DegenerateMargin",
    "IterationCapExceeded", "IterateCycle", "DerivativeVanished", "GuessPreconditionViolated",
    "PreconditionViolated", "InfeasibleSegment", "ZeroRowSum", "NotSeparable",
]
