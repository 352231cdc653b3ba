"""Reference-speed normalization of wall times.

The machines this benchmark runs on share cores with other tenants, and
their speed swings by up to 1.6x in phases lasting seconds. Every timing is
therefore taken together with a short reference kernel run just before and
after each chunk of about CHUNK_S seconds of work, and every timing is
reported in seconds at reference speed::

    normalized = raw * REFERENCE_NOMINAL_S / (reference time around its chunk)

The kernel is the benchmark's own code (numpy and scipy only, never
framescale), so a change to framescale cannot move it. It mixes the call
kinds of one solver iteration: a thin QR and row norms, a sort and a gap
scan, a pivoted QR, and a Python loop of small array updates. Raw times are
kept next to the normalized ones in the run report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# Median kernel time on the machine the benchmark was tuned on (2 vCPU
# x86-64, one BLAS thread); it only fixes the scale of normalized seconds.
REFERENCE_NOMINAL_S = 0.005
CHUNK_S = 0.25

_RNG = np.random.default_rng(20240207)
_U = _RNG.standard_normal((5, 20))
_Z = _RNG.random(20) + 0.5
_C = np.full(20, 0.25)
_A = (_RNG.random((20, 20)) < 0.4).astype(np.float64)
# Bound at import, so the kernel never runs through the counters the traced
# run installs on numpy.linalg and scipy.linalg.
_QR = np.linalg.qr
_PIVOTED_QR = scipy.linalg.qr


def reference_seconds(reps: int = 40) -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    z = _Z.copy()
    acc = 0.0
    for _ in range(reps):
        q, _r = _QR((_U * np.sqrt(z)).T, mode="reduced")
        x = np.einsum("ij,ij->i", q, q) - _C
        order = np.argsort(x, kind="stable")
        xs = x[order]
        k = int(np.argmax(xs[1:] - xs[:-1]))
        rr = _PIVOTED_QR(_U[:, order[:k + 1]], mode="r", pivoting=True,
                             check_finite=False)[0]
        inter = np.zeros(20)
        for col in order[:6]:
            inter += _A[:, col]
            acc += float(inter[inter > 0.0].max(initial=0.0))
        acc += float(np.abs(np.diag(rr)).sum())
        z = z * (1.0 + 1e-3 * x)
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return time.perf_counter() - t0


class Sample:
    """One timed piece of work: raw seconds, normalized when its clock finishes."""

    __slots__ = ("raw", "normalized")

    def __init__(self, raw: float):
        self.raw = raw
        self.normalized = float("nan")


class SpeedClock:
    """Groups timings into chunks of about CHUNK_S, each followed by a reference run.

    A chunk is normalized by the median of the six reference runs nearest
    to it, which damps the kernel's own jitter but still follows speed
    phases that last seconds.
    """

    def __init__(self):
        self.references = [reference_seconds()]
        # (index of the reference run before the chunk, samples in the chunk)
        self._chunks: list[tuple[int, list[Sample]]] = []
        self._pending: list[Sample] = []
        self._chunk_start = time.perf_counter()

    def sample(self, raw: float) -> Sample:
        s = Sample(raw)
        self._pending.append(s)
        if time.perf_counter() - self._chunk_start >= CHUNK_S:
            self._close()
        return s

    def _close(self) -> None:
        self._chunks.append((len(self.references) - 1, self._pending))
        self._pending = []
        self.references.append(reference_seconds())
        self._chunk_start = time.perf_counter()

    def finish(self) -> None:
        """Normalize every sample taken so far."""
        if self._pending:
            self._close()
        refs = self.references
        for k, samples in self._chunks:
            factor = REFERENCE_NOMINAL_S / statistics.median(refs[max(0, k - 2):k + 4])
            for s in samples:
                s.normalized = s.raw * factor
        self._chunks.clear()
