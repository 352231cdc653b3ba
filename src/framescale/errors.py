"""Exception types shared across the solvers."""


class ScalingError(Exception):
    """Base class for all framescale errors.

    ``trace`` holds the ``solver.Trace`` a solve collected before the
    error, a read-only sequence of its iteration records, when the error
    left a solve loop; otherwise it is None.
    """

    def __init__(self, *args, trace=None):
        super().__init__(*args)
        self.trace = trace


class FactorizationFailure(ScalingError):
    """A factorization failed: a QR factor collapsed (a scaled frame or projector block
    is numerically singular) or LAPACK reported an error; or a measurement of the
    iterate came out non-finite, so the margin loop's error^2 is NaN or infinite; or
    the margin loop met a floating-point fault (overflow, invalid or divide by zero);
    or an equilibrated frame solve scaled, but its z, mapped back to the frame's
    columns, passes binary64."""


class NotSymmetric(ScalingError):
    """Input matrix asymmetry exceeds tolerance."""


class DegenerateMargin(ScalingError):
    """A margin too small to act on: a zero gap on a nonzero error vector, or
    a gamma so small beside h(1) that the step's band is empty in binary64."""


class IterationCapExceeded(ScalingError):
    """An iterative loop ran past its safety cap.

    Signals numerical breakdown rather than a slow instance.
    """


class IterateCycle(ScalingError):
    """The margin loop's iterate repeated an earlier one byte for byte.

    The next iterate is a pure function of z, so the solve would cycle with
    that period until the iteration cap; the message names the period and
    the iteration.
    """


class DerivativeVanished(ScalingError):
    """Newton step impossible: derivative at the current iterate is ~0."""


class GuessPreconditionViolated(ScalingError):
    """The guess step's start never entered the band in 200 halvings."""


class PreconditionViolated(ScalingError):
    """An operation was called on inputs outside its contract."""


class InfeasibleSegment(ScalingError):
    """The step proved the band unreachable: T cannot take gamma more mass (either solver)."""


class ZeroRowSum(ScalingError):
    """A matrix row has zero weighted sum under the current column scaling."""


class NotSeparable(ScalingError):
    """Every parallel perceptron instance exceeded its update budget."""
