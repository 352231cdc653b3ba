"""Iterative frame scaling: margin sets, certificates, the margin loop.

The solver keeps the square of the right scaling as a positive vector z and
leaves the isotropizing left scaling (UZU^T)^{-1/2} implicit. Each iteration
scales up the prefix set with the largest sorted-error gap, with the step
size chosen so that the leverage mass moved into the set lands in a band
proportional to the margin. The loop either drives ||lev(z) - c||^2 below
eps^2 or stops with a subset T certifying infeasibility. The same loop
drives the matrix solver in ``matrixscale``, which supplies its own
marginals, certificate, step and shrink. A certificate is a property of
the column set alone, so the loop decides each set once per solve.

This module owns ``UpdateResult``, the step record that every ``step``
closure returns to the loop, and ``step_gain``, the gain both steps report.
Every solve keeps its ``Trace``: six binary64 values and one 16-bit count per
iteration, read back as ``IterationRecord`` objects built on access.
The frame step and its step-size proxy ``proxy_at`` live in ``update``.
"""

from __future__ import annotations

import functools
import math
import numbers
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateMargin, FactorizationFailure, InfeasibleSegment,
                     IterateCycle, IterationCapExceeded, PreconditionViolated, ScalingError)
# leverage_scores stays a module attribute here for callers that look it up
# on this module; the loop reads leverage off the iterate's factor instead.
from .linalg import (Frame, _column_mask, _scaled_qr, leverage_scores,  # noqa: F401
                     numerical_rank)

SCALED = "scaled"
INFEASIBLE = "infeasible"

# Integer rank vs float mass comparison guard.
CERTIFICATE_TOL = 1e-7

# scale_frame equilibrates a frame whose nonzero columns' binary exponents
# span more than this; at 2^26 the balancing z spans about 1/eps.
EQUILIBRATE_SPREAD = 26


@dataclass(frozen=True)
class Marginals:
    """Target squared column norms c with <c, 1> = d and 0 < c_j <= 1."""

    values: np.ndarray
    d: int

    def __post_init__(self):
        c = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", c)
        if c.ndim != 1:
            raise ValueError("marginals must be a vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("marginals must be finite")
        if np.any(c <= 0.0):
            raise ValueError("marginals must be strictly positive")
        if np.any(c > 1.0):
            # A marginal above 1 can never be met: a single column carries
            # leverage at most 1.
            raise ValueError("marginal exceeds 1; the instance is trivially infeasible")
        total = float(c.sum())
        if abs(total - self.d) > 1e-9 * self.d:
            raise ValueError(
                f"marginals sum to {total!r}, expected d={self.d} (tolerance 1e-9*d)"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]


class MarginSet(NamedTuple):
    """Prefix set under the sort order of lev - c, with margin gamma at nu."""

    order: np.ndarray  # argsort permutation of lev - c, ascending
    k: int             # cut position; T = order[:k]
    gamma: float
    nu: float

    @property
    def indices(self) -> np.ndarray:
        return self.order[: self.k]

    @property
    def complement(self) -> np.ndarray:
        return self.order[self.k:]


def select_margin_set(lev, c) -> MarginSet:
    """Pick the prefix of sorted lev - c with the largest consecutive gap.

    Ties break toward the smallest cut. The returned margin satisfies
    gamma^2 >= ||lev - c||^2 / (2 n^3) whenever <lev - c, 1> = 0.
    """
    lev = np.asarray(lev, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = lev.shape[0]
    if n < 2:
        raise ValueError("margin selection needs n >= 2")
    x = lev - c
    total = float(np.add.reduce(x))
    # The tolerance is at least 1e-8, so |c|_1 is summed only past that. A
    # NaN total passes neither test and is rejected.
    if not (abs(total) <= 1e-8
            or abs(total) <= 1e-8 * max(1.0, float(np.add.reduce(np.abs(c))))):
        raise ValueError(f"lev - c must sum to 0, got {total!r}")
    order = x.argsort(kind="stable")
    xs = x[order]
    gaps = xs[1:] - xs[:-1]
    k = int(gaps.argmax())  # first maximum: smallest cut wins ties
    gamma = float(gaps[k]) / 2.0
    nu = float(xs[k] + xs[k + 1]) / 2.0
    if gamma == 0.0 and float((ax := np.abs(x))[ax.argmax()]) > 0.0:
        raise DegenerateMargin("zero margin on a nonzero error vector")
    return MarginSet(order=order, k=k + 1, gamma=gamma, nu=nu)


def infeasibility_certificate(frame: Frame, c, T,
                              tol: float = CERTIFICATE_TOL) -> np.ndarray | None:
    """Return sorted T as a certificate iff rk(U_T) < <c, 1_T> - tol.

    T is sorted first, so the rank (taken on the columns in sorted order),
    the mass and the answer depend on the set alone. T must hold distinct
    column indices in [0, n), the rule ``verify`` applies to a certificate:
    a repeated index would count its marginal twice against one rank, and
    T's own dtype must be integer, so a boolean mask or float indices are
    rejected rather than cast; sorted T is the nonzeros of the mask that
    ``linalg._column_mask`` returns. The margin loop decides with the default
    guard and, after a step proves the band unreachable, once more with
    ``tol=0.0``.
    """
    T = np.flatnonzero(_column_mask(T, frame.n)[1])
    c = np.asarray(c, dtype=np.float64)
    if numerical_rank(frame.columns(T)) < float(c[T].sum()) - tol:
        return T
    return None


@dataclass(frozen=True)
class SolverConfig:
    """The iteration cap, by default 40 n^3 log(max(n, 2) / eps) with the log floored
    at log 2; frozen, so the check holds."""

    max_iters: int | None = None

    def __post_init__(self):
        if self.max_iters is None:
            return
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an int, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")

    def iteration_cap(self, n: int, eps: float) -> int:
        """The iteration cap for n columns at target eps; rejects a bad eps.

        Every solve and the CLI's config echo call this before the first
        iteration, so it is the one place where eps is checked.
        """
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be a positive finite number, got {eps!r}")
        if self.max_iters is not None:
            return self.max_iters
        # The floor keeps the cap positive for an eps at or above n, which large
        # marginals can take; for eps <= max(n, 2) / 2 it never binds.
        return math.ceil(40.0 * n**3 * math.log(max(max(n, 2) / eps, 2.0)))


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """Per-iteration measurements; error_sq is the value before the step."""

    error_sq: float
    gamma: float
    alpha_hat: float
    h_gain: float
    progress: float
    nd_iters: int
    hp_one: float
    log_z_inf: float

    def as_dict(self) -> dict:
        """Every field by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


_WIDTH = 6  # error_sq, gamma, alpha_hat, h_gain, hp_one and max z


class Trace(Sequence):
    """The iteration records of one solve: a read-only sequence of IterationRecord.

    A trace stores only what the loop cannot derive again: one
    ``array('d')`` holds each iteration's ``error_sq``, ``gamma``,
    ``alpha_hat``, ``h_gain``, ``hp_one`` and max z, one ``array('H')`` its
    ``nd_iters``, and ``_last`` the error^2 after the last step. A record is
    built only when it is read, and it derives the other two fields with the
    loop's own operations on the same doubles: ``progress`` is error_sq
    minus the next record's error_sq (``_last`` after the last record), and
    ``log_z_inf`` is ``np.log`` of max z. A trace equals any sequence of
    equal records.
    """

    __slots__ = ("_values", "_nd", "_last")

    def __init__(self):
        self._values = array("d")
        self._nd = array("H")
        self._last = 0.0

    def _write(self, error_sq, gamma, alpha_hat, h_gain, nd_iters, hp_one, z_max, next_error_sq):
        """Append one iteration; the margin loop's one write, with max z and the
        error^2 after the step."""
        self._values.extend((error_sq, gamma, alpha_hat, h_gain, hp_one, z_max))
        self._nd.append(nd_iters)
        self._last = next_error_sq

    def _at(self, i: int) -> IterationRecord:
        error_sq, gamma, alpha_hat, h_gain, hp_one, z_max = \
            self._values[i * _WIDTH:(i + 1) * _WIDTH].tolist()
        after = self._values[(i + 1) * _WIDTH] if i + 1 < len(self._nd) else self._last
        return IterationRecord(error_sq, gamma, alpha_hat, h_gain, error_sq - after,
                               self._nd[i], hp_one, float(np.log(z_max)))

    def __len__(self) -> int:
        return len(self._nd)

    def __getitem__(self, index):
        """The record at an int index, or a list of records for a slice."""
        positions = range(len(self))[index]
        if isinstance(positions, range):
            return [self._at(i) for i in positions]
        return self._at(positions)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<Trace of {len(self)} iterations>"


@dataclass
class ScalingResult:
    """Outcome of a scaling run: a scaling vector or a certificate set.

    ``scaling`` has min exactly 1, except from a frame solve that
    ``scale_frame`` equilibrated, where its min lies in [1, 4) and the
    trace's records hold the equilibrated frame's iterates.
    """

    status: str
    scaling: np.ndarray | None
    certificate: np.ndarray | None
    iterations: int
    final_error_sq: float
    trace: Trace = field(default_factory=Trace)

    @property
    def scaled(self) -> bool:
        return self.status == SCALED


class UpdateResult(NamedTuple):
    """One step as a ``step`` closure hands it to the margin loop; a step
    that proves the band unreachable raises InfeasibleSegment instead."""

    alpha: float
    h_gain: float
    nd_iters: int
    hp_one: float
    seeded: bool  # True when the eigen-sum guess supplied the start point


def step_gain(mu: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """Proxy gain h(alpha) - h(1) = sum (alpha - 1) w_i / (1 + (alpha - 1) mu_i).

    Frames: mu the eigenvalues of P = Q_T^T Q_T, w = mu (1 - mu). Matrices:
    mu_i row i's T-mass fraction, w = r mu (1 - mu), over N(T)."""
    s = alpha - 1.0
    return float(np.add.reduce(s * w / (1.0 + s * mu)))


@np.errstate(over="raise", invalid="raise", divide="raise")
def _margin_loop(c: np.ndarray, eps: float, config: SolverConfig, measure, certificate,
                 step, shrink) -> ScalingResult:
    """The margin loop shared by the frame and the matrix solver.

    ``measure(z)`` gives the marginals m of z and a factor of z (the loop
    owns the error ||m - c||^2, summed once per measurement off x = m - c),
    ``certificate(T)`` a certificate or None, ``step(z, T, gamma, factor)``
    an ``UpdateResult``, and ``shrink(z, gamma)`` the regularized z, whose
    min must be exactly 1. ``measure`` sees only z = 1 and what ``shrink``
    returns, so ``shrink`` is where a stepped z that is not positive and
    finite must raise; the frame's ``measure`` does not check z again.
    ``step`` gets the factor that ``measure`` returned for the z it steps
    from; the loop never reads it. The trace records ||log z||_inf, which
    for min z = 1 is log max z; it stores max z and takes the log on read.
    A measurement whose error^2 is not finite (NaN marginals read as
    converged otherwise) raises FactorizationFailure, and so does any
    ArithmeticError, or ValueError raised from one, naming the step or z = 1:
    the loop runs under ``np.errstate`` with overflow, invalid and divide
    faults raising, and a callee that saturates on purpose ignores them. The next
    iterate is a pure function of z, so a shrink output equal byte for byte
    to an earlier one means the loop cycles: Brent's method spots it, and
    it raises IterateCycle with the period. An iteration that raises
    writes no record. A ScalingError leaving the loop carries the trace.
    <m, 1> does not move with z, and ||m - c||^2 >= (<m, 1> -
    <c, 1>)^2 / n; when the first measurement puts this bound above eps^2,
    the loop decides the first margin set and, if it does not certify,
    raises PreconditionViolated in place of the first step.

    ``certificate`` gets T in sorted order and must depend on the set alone,
    never on the scaling: margin sets recur, and each distinct set is
    decided once per solve, with every later visit reusing that decision.
    A set infeasible by less than that decision's roundoff guard reaches
    ``step``, which raises InfeasibleSegment; the loop then decides T by
    ``certificate(T, tol=0.0)``, and certifies or re-raises.
    """
    n = c.shape[0]
    eps_sq = eps * eps
    cap = config.iteration_cap(n, eps)
    z = np.ones(n)
    trace = Trace()
    decided: dict[bytes, np.ndarray | None] = {}
    it = 0
    # Brent's cycle detection: the shrink output compared with one saved
    # iterate, saved again each time the lap reaches the next power of two.
    saved, lap, power = z.tobytes(), 0, 1
    try:
        marginals, factor = measure(z)
        x = marginals - c
        err_sq = float(np.add.reduce(x * x))
        m_total, c_total = float(np.add.reduce(marginals)), float(np.add.reduce(c))
        least = (m_total - c_total) ** 2 / n
        if not err_sq < math.inf:
            raise FactorizationFailure(
                f"error^2 at z = 1 is {err_sq!r}: the measurement is not finite"
            )
        while err_sq > eps_sq:
            if it >= cap:
                raise IterationCapExceeded(
                    f"no convergence after {cap} iterations (error^2 {err_sq:g})"
                )
            it += 1
            ms = select_margin_set(marginals, c)
            T = ms.indices
            key = T.copy()
            key.sort()
            tag = key.tobytes()
            if tag not in decided:
                decided[tag] = certificate(key)
            cert = decided[tag]
            if cert is None:
                if least > eps_sq:
                    raise PreconditionViolated(
                        f"eps unreachable: marginals total {m_total!r} against target total "
                        f"{c_total!r}, so error^2 >= {least:g} > eps^2 {eps_sq:g}"
                    )
                try:
                    upd = step(z, T, ms.gamma, factor)
                except InfeasibleSegment:
                    cert = certificate(key, tol=0.0)
                    if cert is None:
                        raise
            if cert is not None:
                return ScalingResult(
                    status=INFEASIBLE, scaling=None, certificate=cert,
                    iterations=it, final_error_sq=err_sq, trace=trace,
                )
            z[T] *= upd.alpha
            z = shrink(z, ms.gamma)
            tag, lap = z.tobytes(), lap + 1
            if tag == saved:
                raise IterateCycle(
                    f"iterate {it} repeats iterate {it - lap}: the solve cycles with "
                    f"period {lap} (error^2 {err_sq:g})"
                )
            if lap == power:
                saved, lap, power = tag, 0, 2 * power
            marginals, factor = measure(z)
            x = marginals - c
            new_err_sq = float(np.add.reduce(x * x))
            if not new_err_sq < math.inf:
                raise FactorizationFailure(
                    f"error^2 after step {it} is {new_err_sq!r}: the measurement is not finite"
                )
            trace._write(err_sq, ms.gamma, upd.alpha, upd.h_gain, upd.nd_iters, upd.hp_one,
                         float(z[z.argmax()]), new_err_sq)
            err_sq = new_err_sq
    except ScalingError as exc:
        if exc.trace is None:
            exc.trace = trace
        raise
    except (ArithmeticError, ValueError) as exc:
        if isinstance(exc, ValueError) and not isinstance(exc.__cause__, ArithmeticError):
            raise
        where = f"step {it}" if it else "the measurement at z = 1"
        raise FactorizationFailure(f"{where} fails in binary64: {exc}", trace=trace) from exc
    return ScalingResult(
        status=SCALED, scaling=z, certificate=None,
        iterations=it, final_error_sq=err_sq, trace=trace,
    )


def _unequilibrate(z: np.ndarray, e: np.ndarray, trace: Trace) -> np.ndarray:
    """z_j 4^-e_j times the even power of two that puts min z in [1, 4), exactly.

    Raises FactorizationFailure, with the trace, when that z passes binary64.
    """
    ex = np.frexp(z)[1] - 2 * e  # z_j 4^-e_j = m_j 2^ex_j with m_j in [1/2, 1)
    low, high = int(ex[ex.argmin()]), int(ex[ex.argmax()])
    shift = 2 - low - (low & 1)  # even, with low + shift 1 or 2
    if high + shift > 1024:
        raise FactorizationFailure(
            f"the scaling leaves binary64: mapped back to the frame's columns, max z / min z "
            f"is about 2^{high - low}", trace=trace)
    return np.ldexp(z, shift - 2 * e)


def scale_frame(frame: Frame, marginals: Marginals, eps: float,
                config: SolverConfig | None = None) -> ScalingResult:
    """Scale a frame to eps-approximate (I_d, c)-position, or certify.

    Leverage scores do not change under u_j -> 2^k u_j with z_j -> 4^-k z_j,
    so a frame whose column sizes are far apart is solved equilibrated.
    Column j's exponent e_j is the binary exponent (``np.frexp``) of its
    largest |entry|, and zero columns are left out of the spread. When the
    exponents span more than ``EQUILIBRATE_SPREAD``, the loop runs on
    ``Frame(np.ldexp(U, -e))``, every column scaled exactly, and its z'
    maps back without rounding: z_j = z'_j 4^-e_j, times the one even power
    of two that puts min z in [1, 4). The trace then holds the equilibrated
    iterates, and a certificate, a set of columns, is returned as it is.
    Every other frame is solved as given.

    Parameters
    ----------
    frame : Frame
        Full-row-rank d x n frame.
    marginals : Marginals
        Target squared norms; must sum to d with entries in (0, 1].
    eps : float
        Stop once ||lev(z) - c||_2^2 <= eps^2.
    config : SolverConfig, optional
        The iteration cap.

    Returns
    -------
    ScalingResult
        Either status "scaled" with a positive scaling vector normalized to
        min 1 (min in [1, 4) when equilibrated), or status "infeasible"
        with a column subset T whose marginal mass exceeds rk(U_T).

    Raises
    ------
    ValueError
        If eps is not a positive finite number, or the marginals do not
        match the frame.
    PreconditionViolated
        If the leverage total (d up to roundoff) is so far from <c, 1> that
        no scaling reaches eps, and the first margin set does not certify.
    IterationCapExceeded
        If the cap is hit; signals numerical breakdown. Like every
        ScalingError raised inside the loop, it carries the trace so far.
    IterateCycle
        If an iterate repeats an earlier one, so the solve would cycle.
    FactorizationFailure
        Among its other causes, if an equilibrated solve scales but its
        z, mapped back, does not fit binary64; it carries the trace.
    """
    from .regularize import RhoCache, regularize
    from .update import compute_update

    if marginals.d != frame.d or marginals.n != frame.n:
        raise ValueError("marginals do not match frame dimensions")
    top = np.abs(frame.matrix).max(axis=0)
    e = np.frexp(top)[1]
    live = e[top > 0.0]  # Frame's rank check leaves at least one nonzero column
    equilibrated = int(live[live.argmax()] - live[live.argmin()]) > EQUILIBRATE_SPREAD
    if equilibrated:
        frame = Frame(np.ldexp(frame.matrix, -e))
    n = frame.n
    c = marginals.values
    rho_cache = RhoCache(frame)

    # The factor is the iterate's thin orthonormal factor Q: it gives the
    # leverage scores here and P = Q_T^T Q_T to ``compute_update``. z is
    # the loop's start or the shrink's output, both positive and finite, so
    # the QR is taken unchecked.
    def measure(z):
        q = _scaled_qr(frame, z)[0]
        return np.einsum("ij,ij->i", q, q), q

    def certificate(T, tol=CERTIFICATE_TOL):
        return infeasibility_certificate(frame, c, T, tol)

    def shrink(z, gamma):
        return regularize(frame, z, gamma / (15.0 * n**2.5 * frame.d), cache=rho_cache)

    res = _margin_loop(c, eps, config or SolverConfig(), measure, certificate,
                       functools.partial(compute_update, frame), shrink)
    if equilibrated and res.scaled:
        res.scaling = _unequilibrate(res.scaling, e, res.trace)
    return res
