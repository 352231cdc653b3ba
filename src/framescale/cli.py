"""Command-line interface: solve, generate, and verify scaling instances.

Exit codes: 0 scaled / checks passed, 1 usage, I/O or numeric failure, 2 a
verify check failed, 3 infeasible (certificate written in the result document).
A scaled document whose scaling holds a non-finite entry (``Infinity``,
``-Infinity`` or ``NaN``, which ``json`` reads) fails verify with 2, for
frames and matrices alike. All indices in output are 0-based.

``main`` builds its parser once per process, at its first call, and keeps
it. That saves time only for a caller that runs ``main`` many times in one
process, such as an in-process verifier; the ``framescale`` command calls
it once and builds one parser, as before. The parser holds no command
functions; ``main`` looks ``cmd_<command>`` up in this module at each call,
so a command replaced afterwards is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import generate, io, rational
from .errors import ScalingError
# numerical_rank stays a module attribute: perfbench/spans.py wraps it here,
# though verify ranks every certificate exactly.
from .linalg import Frame, leverage_scores, numerical_rank  # noqa: F401
from .matrixscale import MatrixMarginals, NonnegMatrix, column_sums, scale_matrix
from .solver import INFEASIBLE, SCALED, Marginals, ScalingResult, SolverConfig, scale_frame

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAILED = 2
EXIT_INFEASIBLE = 3


def _emit(result: ScalingResult, kind: str, echo: dict, args) -> int:
    # Trace first: a trace that cannot be written leaves no finished-looking document.
    if args.trace is not None:
        io.write_trace_jsonl(args.trace, result.trace)
    doc = io.result_document(result, kind=kind, config_echo=echo)
    io.write_result(doc, args.out)
    if result.scaled:
        return EXIT_OK
    print(f"infeasible: certificate columns {sorted(int(i) for i in result.certificate)}",
          file=sys.stderr)
    return EXIT_INFEASIBLE


def _solve(args, kind: str, read, solve) -> int:
    """Read an instance, solve it and emit the result document.

    ``read()`` returns the problem and its marginals, and ``solve`` is
    ``scale_frame`` or ``scale_matrix``. A solve that fails with a
    ScalingError reports it, then still writes the trace it carries to
    ``--trace``; a file that cannot be read or written is reported like any
    other error.
    """
    try:
        problem, marg = read()
        config = SolverConfig(max_iters=args.max_iters)
        echo = {"eps": args.eps, "max_iters": config.iteration_cap(problem.n, args.eps)}
        try:
            result = solve(problem, marg, args.eps, config)
        except ScalingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if args.trace is not None and exc.trace is not None:
                io.write_trace_jsonl(args.trace, exc.trace)
            return EXIT_ERROR
        return _emit(result, kind, echo, args)
    except (OSError, ValueError, ScalingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def cmd_frame(args) -> int:
    def read():
        frame = Frame(io.read_matrix_file(args.input))
        return frame, Marginals(io.read_vector_file(args.marginals), d=frame.d)

    return _solve(args, "frame", read, scale_frame)


def cmd_matrix(args) -> int:
    def read():
        return (NonnegMatrix(io.read_matrix_file(args.input)),
                MatrixMarginals(io.read_vector_file(args.rows), io.read_vector_file(args.cols)))

    return _solve(args, "matrix", read, scale_matrix)


def cmd_gen(args) -> int:
    try:
        need = "m" if args.kind == "bipartite" else "d"
        if getattr(args, need) is None:
            raise ValueError(f"gen {args.kind} requires --{need}")
        if args.kind == "bipartite":
            A, r, c = generate.gen_bipartite(args.m, args.n, args.seed)
            io.write_matrix_file(f"{args.out}.A.txt", A)
            io.write_vector_file(f"{args.out}.r.txt", r)
        else:
            gen = generate.gen_gaussian if args.kind == "gaussian" else generate.gen_infeasible
            U, c = gen(args.d, args.n, args.seed)
            io.write_matrix_file(f"{args.out}.U.txt", U)
        io.write_vector_file(f"{args.out}.c.txt", c)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


class _CheckFailed(Exception):
    pass


def _require(name: str, ok: bool):
    if not ok:
        raise _CheckFailed(name)


def _certificate_columns(doc, n: int) -> list[int]:
    """The certificate's columns, sorted: a list of distinct integers in [0, n)."""
    T = doc["certificate"]
    _require("certificate_indices", isinstance(T, list)
             and all(type(j) is int and 0 <= j < n for j in T) and len(set(T)) == len(T))
    _require("certificate_nonempty", len(T) >= 1)
    return sorted(T)


def _read_targets(path, length: int, what: str) -> np.ndarray:
    """A target vector file, which must hold one entry per row or column."""
    v = io.read_vector_file(path)
    if v.shape != (length,):
        raise ValueError(f"{path}: {v.size} entries, expected {length} (one per {what})")
    return v


def _doc_number(value, name: str) -> float:
    """A result-document field that must be a JSON number (a boolean is none)."""
    if type(value) not in (int, float):
        raise ValueError(f"result document field {name!r} is {json.dumps(value)}, not a number")
    return float(value)


def _check_scaled(doc, key: str, n: int, eps: float, error_sq) -> None:
    """Checks that ``doc[key]`` lists n finite positive numbers whose recomputed
    ``error_sq`` is within eps and matches the document's ``final_error_sq``.

    ``json`` reads ``Infinity`` and ``NaN``, so finiteness is a check of its
    own, taken before anything is recomputed from the scaling."""
    reported = _doc_number(doc["final_error_sq"], "final_error_sq")
    s = doc[key]
    if type(s) is not list or any(type(v) not in (int, float) for v in s):
        raise ValueError(f"result document field {key!r} is not a list of numbers")
    s = np.asarray(s, dtype=np.float64)
    _require("scaling_finite", bool(np.isfinite(s).all()))
    _require("scaling_length", s.size == n)
    _require("scaling_positive", bool(np.all(s > 0)))
    err_sq = error_sq(s)
    _require("error_within_eps", err_sq <= eps * eps * (1.0 + 1e-9))
    _require("error_matches_document", abs(err_sq - reported) <= 1e-9 * max(eps * eps, err_sq))


def _verify_frame(args, doc, eps: float) -> None:
    U = io.read_matrix_file(args.input)
    c = _read_targets(args.marginals, U.shape[1], "column")
    if doc["status"] == SCALED:
        _check_scaled(doc, "z", U.shape[1], eps,
                      lambda z: float(((leverage_scores(Frame(U), z) - c) ** 2).sum()))
    else:
        T = _certificate_columns(doc, U.shape[1])
        # Fraction of a double is exact: the check is on the parsed matrix.
        rank = rational.rational_rank([list(map(Fraction, row)) for row in U[:, T].tolist()])
        _require("certificate_rational_rank", sum(map(Fraction, c[T].tolist())) > rank)


def _verify_matrix(args, doc, eps: float) -> None:
    A = io.read_matrix_file(args.input)
    r = _read_targets(args.rows, A.shape[0], "row")
    c = _read_targets(args.cols, A.shape[1], "column")
    matrix = NonnegMatrix(A)
    if doc["status"] == SCALED:
        # r and c scaled by the power of two 2^-e that brings their largest
        # entry into [1/2, 1), as numerical_rank scales its columns: the row
        # scaling rs / ay then stays finite for every normal row sum, even
        # where r / ay would overflow. A power of two scales every
        # residual exactly, so the sum of squares is 4^-e times the unscaled
        # one, and ldexp undoes that; a true error^2 past binary64 reads inf.
        ar, ac = np.abs(r), np.abs(c)
        e = math.frexp(max(ar[ar.argmax()], ac[ac.argmax()]))[1]
        rs, cs_target = np.ldexp(r, -e), np.ldexp(c, -e)

        def error_sq(y):
            ay = A @ y
            # A zero or subnormal row sum leaves the row scaling rs / ay
            # undefined or overflowing.
            _require("row_sums_positive", bool(np.all(ay >= sys.float_info.min)))
            cs = column_sums(matrix, rs, y)
            scaled = float(((rs / ay * ay - rs) ** 2).sum() + ((cs - cs_target) ** 2).sum())
            try:
                return math.ldexp(scaled, 2 * e)
            except OverflowError:
                return math.inf

        _check_scaled(doc, "y", A.shape[1], eps, error_sq)
    else:
        T = _certificate_columns(doc, A.shape[1])
        # N(T) is read off the parsed matrix; the masses are summed exactly.
        nbr = (A[:, T] != 0.0).any(axis=1)
        _require("certificate_hall_violation",
                 sum(map(Fraction, c[T].tolist())) > sum(map(Fraction, r[nbr].tolist())))


def cmd_verify(args) -> int:
    try:
        doc = io.read_result(args.result)
        if type(doc) is not dict:
            raise ValueError("result document is not a JSON object")
        if doc["status"] not in (SCALED, INFEASIBLE):
            raise _CheckFailed(f"status {doc['status']!r} is neither {SCALED!r} "
                               f"nor {INFEASIBLE!r}")
        if type(doc["config"]) is not dict:
            raise ValueError("result document field 'config' is not a JSON object")
        eps = _doc_number(doc["config"]["eps"], "config.eps")
        if not (np.isfinite(eps) and eps > 0.0):
            # SolverConfig.iteration_cap's rule: no solve runs at any other eps.
            raise ValueError(f"result document field 'config.eps' is "
                             f"{json.dumps(doc['config']['eps'])}, not a positive finite number")
        if args.rows is not None or args.cols is not None:
            if args.rows is None or args.cols is None:
                raise ValueError("matrix verification needs both --rows and --cols")
            _verify_matrix(args, doc, eps)
        else:
            if args.marginals is None:
                raise ValueError("frame verification needs --marginals")
            _verify_frame(args, doc, eps)
    except _CheckFailed as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except KeyError as exc:
        # Only the result document is indexed by key here.
        print(f"error: result document has no {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, ScalingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


class _UsageError(Exception):
    pass


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """Hands a usage error to ``main``, which exits 1: exit 2 means a verify check failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the four commands; ``args.command`` names the one given."""
    parser = _Parser(prog="framescale")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--eps", type=float, required=True, help="target error")
        p.add_argument("--out", default=None, help="result JSON path (default stdout)")
        p.add_argument("--trace", default=None, help="per-iteration trace JSONL path")
        p.add_argument("--max-iters", type=int, default=None, dest="max_iters")

    p = sub.add_parser("frame", help="scale a frame to target marginals")
    p.add_argument("--input", required=True, help="frame file: 'd n' header + rows")
    p.add_argument("--marginals", required=True, help="marginals file")
    add_common(p)

    p = sub.add_parser("matrix", help="scale a nonnegative matrix to (r, c)")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", required=True, help="row-sum targets file")
    p.add_argument("--cols", required=True, help="column-sum targets file")
    add_common(p)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("kind", choices=["gaussian", "infeasible", "bipartite"])
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("verify", help="re-check a result document")
    p.add_argument("--result", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--marginals", default=None)
    p.add_argument("--rows", default=None)
    p.add_argument("--cols", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built at its first call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    # Looked up at call time, so a cmd_* replaced after the parser was built runs.
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
