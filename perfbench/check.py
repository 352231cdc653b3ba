"""Independent correctness checks for solver results.

Each finished solve goes through two checks:

- ``framescale verify``, run in-process through ``framescale.cli.main`` on
  instance and result files written with ``framescale.io``. It checks frame
  certificates with d <= 6, n <= 12 in exact rationals parsed from the
  decimal text.
- The benchmark's own recompute, which shares no code with ``framescale``.
  It holds each result to the solver's documented contract: leverage
  scores by repeated eigendecomposition whitening for scaled frames, an
  explicitly formed scaled matrix for scaled matrices, an SVD rank for
  frame certificates (rank below mass, at the solver's float tolerance) and
  a Hall comparison for matrix certificates.

A result is verified when both accept it. A result the own recompute
rejects is wrong. Negative controls feed both checks a perturbed scaling
and a set that is no certificate; each check has to reject both.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import framescale.cli
import framescale.io

# The recomputed error norm may exceed eps by this share before a scaled
# result counts as wrong: roundoff in a different route moves leverage
# scores by far less, while a wrong scaling misses eps by orders of magnitude.
ERROR_SLACK = 1e-3
PERTURBATION = 1.05
VERIFY_OK = 0
# Same guard the solver uses between an integer rank and a float mass.
CERTIFICATE_TOL = 1e-7


def eig_leverage(U: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Leverage scores of U sqrt(Z) by whitening with eigendecompositions.

    Leverage scores do not change under invertible row operations, so each
    pass equilibrates the rows and whitens with the eigendecomposition of
    the Gram matrix; later passes repair the roundoff of earlier ones.
    Returns None if a Gram matrix is not positive definite.
    """
    v = U * np.sqrt(z)
    for _ in range(3):
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        w, e = np.linalg.eigh(v @ v.T)
        if not w.min() > 0.0:
            return None
        v = (e.T @ v) / np.sqrt(w)[:, None]
    return np.einsum("ij,ij->j", v, v)


def frame_scaling_ok(U, c, z, eps) -> bool:
    lev = eig_leverage(U, z)
    if lev is None:
        return False
    return float(np.sqrt(((lev - c) ** 2).sum())) <= eps * (1.0 + ERROR_SLACK)


def matrix_scaling_ok(A, r, c, y, eps) -> bool:
    x = r / (A @ y)
    b = x[:, None] * A * y[None, :]
    err_sq = float(((b.sum(axis=1) - r) ** 2).sum() + ((b.sum(axis=0) - c) ** 2).sum())
    return float(np.sqrt(err_sq)) <= eps * (1.0 + ERROR_SLACK)


def frame_certificate_ok(U, c, T) -> bool:
    cols = U[:, T]
    s = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.count_nonzero(s > max(cols.shape) * np.finfo(np.float64).eps * s.max()))
    return rank < float(c[T].sum()) - CERTIFICATE_TOL


def hall_violation_ok(A, r, c, T) -> bool:
    rows = np.flatnonzero((A[:, T] > 0).any(axis=1))
    return float(c[T].sum()) > float(r[rows].sum())


class Verifier:
    """Writes instance and result files under one directory and checks results."""

    def __init__(self, workdir: str, eps: float):
        self.workdir = workdir
        self.eps = eps
        os.makedirs(workdir, exist_ok=True)
        self._paths: dict[str, list[str]] = {}

    def write_instance(self, inst) -> None:
        base = os.path.join(self.workdir, inst.label)
        if inst.problem == "frame":
            U, c = inst.arrays
            paths = [f"{base}.U.txt", f"{base}.c.txt"]
            framescale.io.write_matrix_file(paths[0], U)
            framescale.io.write_vector_file(paths[1], c)
        else:
            A, r, c = inst.arrays
            paths = [f"{base}.A.txt", f"{base}.r.txt", f"{base}.c.txt"]
            framescale.io.write_matrix_file(paths[0], A)
            framescale.io.write_vector_file(paths[1], r)
            framescale.io.write_vector_file(paths[2], c)
        self._paths[inst.label] = paths

    def _argv(self, inst, result_path: str) -> list[str]:
        paths = self._paths[inst.label]
        if inst.problem == "frame":
            return ["verify", "--result", result_path, "--input", paths[0],
                    "--marginals", paths[1]]
        return ["verify", "--result", result_path, "--input", paths[0],
                "--rows", paths[1], "--cols", paths[2]]

    def write_result(self, inst, result, tag: str = "result") -> str:
        path = os.path.join(self.workdir, f"{inst.label}.{tag}.json")
        doc = framescale.io.result_document(result, kind=inst.problem,
                                            config_echo={"eps": self.eps})
        framescale.io.write_result(doc, path)
        return path

    def run_verify(self, inst, result_path: str) -> tuple[int, float, str]:
        """Exit code, wall seconds and stderr of one in-process ``framescale verify``."""
        argv = self._argv(inst, result_path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = framescale.cli.main(argv)
            dt = time.perf_counter() - t0
        return code, dt, err.getvalue().strip()

    def own_check(self, inst, result) -> bool:
        """The benchmark's own recompute against the solver's contract."""
        if inst.problem == "frame":
            U, c = inst.arrays
            if result.scaled:
                return frame_scaling_ok(U, c, result.scaling, self.eps)
            return frame_certificate_ok(U, c, result.certificate)
        A, r, c = inst.arrays
        if result.scaled:
            return matrix_scaling_ok(A, r, c, result.scaling, self.eps)
        return hall_violation_ok(A, r, c, result.certificate)

    def negative_controls(self, inst_scaled, result_scaled, inst_any) -> dict:
        """Both checks must reject a perturbed scaling and a non-certificate."""
        from framescale.solver import INFEASIBLE, ScalingResult

        z = result_scaled.scaling.copy()
        z[0] *= PERTURBATION
        perturbed = ScalingResult(status=result_scaled.status, scaling=z, certificate=None,
                                  iterations=result_scaled.iterations,
                                  final_error_sq=result_scaled.final_error_sq)
        # A single column is never a certificate: its mass is at most 1 and
        # it is nonzero, so its rank (or its row mass) is at least its mass.
        fake = ScalingResult(status=INFEASIBLE, scaling=None, certificate=np.array([0]),
                             iterations=1, final_error_sq=1.0)
        out = {}
        for name, inst, res in (("perturbed_scaling", inst_scaled, perturbed),
                                ("non_certificate", inst_any, fake)):
            code, _, _ = self.run_verify(inst, self.write_result(inst, res, name))
            out[name] = {"verify_exit": code, "own_check": self.own_check(inst, res)}
        out["rejected"] = all(v["verify_exit"] != VERIFY_OK and not v["own_check"]
                              for v in out.values())
        return out
