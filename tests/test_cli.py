import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import framescale.cli as cli
from framescale import io as fio
from framescale import matrixscale, rational
from framescale.cli import main
from framescale.generate import gen_bipartite, gen_gaussian

from conftest import fuzz_recipe

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args):
    return main([str(a) for a in args])


TRACE_KEYS = {"error_sq", "gamma", "alpha_hat", "h_gain", "progress", "nd_iters",
              "hp_one", "log_z_inf"}


def strict_records(path):
    """The JSONL records of a trace file, rejecting NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    return [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]


def solve_args(tmp_path, kind):
    """A seeded instance for the frame or matrix command, as its input flags."""
    if kind == "frame":
        base = gen(tmp_path, "gaussian", d=3, n=9, seed=3)
        return ["frame", "--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt"]
    base = gen(tmp_path, "bipartite", m=5, n=5, seed=2)
    return ["matrix", "--input", f"{base}.A.txt", "--rows", f"{base}.r.txt",
            "--cols", f"{base}.c.txt"]


def gen(tmp_path, kind, **kw):
    tmp_path.mkdir(parents=True, exist_ok=True)
    base = tmp_path / f"{kind}{kw.get('seed', 0)}"
    args = ["gen", kind, "--out", base]
    for key, val in kw.items():
        args += [f"--{key}", val]
    assert run_cli(args) == 0
    return base


class TestGen:
    def test_deterministic(self, tmp_path):
        a = gen(tmp_path / "a", "gaussian", d=4, n=12, seed=7)
        b = gen(tmp_path / "b", "gaussian", d=4, n=12, seed=7)
        for suffix in (".U.txt", ".c.txt"):
            assert (a.parent / (a.name + suffix)).read_bytes() == \
                   (b.parent / (b.name + suffix)).read_bytes()

    def test_bipartite_valid(self, tmp_path):
        base = gen(tmp_path, "bipartite", m=5, n=5, seed=2)
        A = fio.read_matrix_file(f"{base}.A.txt")
        assert A.shape == (5, 5)
        assert np.all((A == 0) | (A == 1))
        assert np.all(A.sum(axis=0) > 0) and np.all(A.sum(axis=1) > 0)

    def test_invalid_dimensions(self, tmp_path):
        assert run_cli(["gen", "gaussian", "--d", 5, "--n", 3,
                        "--out", tmp_path / "x"]) == 1


class TestFrameCommand:
    def test_identity_scaled(self, tmp_path):
        u_path, c_path = tmp_path / "U.txt", tmp_path / "c.txt"
        fio.write_matrix_file(u_path, np.eye(3))
        fio.write_vector_file(c_path, np.ones(3))
        out = tmp_path / "res.json"
        code = run_cli(["frame", "--input", u_path, "--marginals", c_path,
                        "--eps", "1e-8", "--out", out])
        assert code == 0
        doc = fio.read_result(out)
        assert doc["status"] == "scaled"
        assert doc["z"] == [1.0, 1.0, 1.0]
        assert doc["iterations"] == 0

    def test_infeasible_exit_code(self, tmp_path):
        fio.write_matrix_file(tmp_path / "U.txt", np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        fio.write_vector_file(tmp_path / "c.txt", np.array([0.8, 0.8, 0.4]))
        out = tmp_path / "res.json"
        code = run_cli(["frame", "--input", tmp_path / "U.txt",
                        "--marginals", tmp_path / "c.txt", "--eps", "1e-8", "--out", out])
        assert code == 3
        assert fio.read_result(out)["certificate"] == [0, 1]

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("x y\n1 2\n")
        fio.write_vector_file(tmp_path / "c.txt", np.ones(2))
        assert run_cli(["frame", "--input", bad, "--marginals", tmp_path / "c.txt",
                        "--eps", "1e-8"]) == 1

    def test_planted_infeasible_roundtrip(self, tmp_path):
        base = gen(tmp_path, "infeasible", d=3, n=6, seed=1)
        out = tmp_path / "res.json"
        code = run_cli(["frame", "--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt",
                        "--eps", "1e-8", "--out", out])
        assert code == 3
        assert run_cli(["verify", "--result", out, "--input", f"{base}.U.txt",
                        "--marginals", f"{base}.c.txt"]) == 0

    def test_trace_written(self, tmp_path):
        base = gen(tmp_path, "gaussian", d=3, n=9, seed=3)
        out, trace = tmp_path / "res.json", tmp_path / "trace.jsonl"
        code = run_cli(["frame", "--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt",
                        "--eps", "1e-6", "--out", out, "--trace", trace])
        assert code == 0
        doc = fio.read_result(out)
        # the trace is written once, to its own file
        assert "trace" not in doc
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(lines) == doc["iterations"]
        assert set(lines[0]) == TRACE_KEYS
        # the step-size band can be re-checked from the file alone
        for rec in lines:
            assert rec["gamma"] / 5.0 <= rec["h_gain"] <= rec["gamma"]


class TestMatrixCommand:
    def test_all_ones(self, tmp_path):
        fio.write_matrix_file(tmp_path / "A.txt", np.ones((2, 2)))
        fio.write_vector_file(tmp_path / "r.txt", np.ones(2))
        fio.write_vector_file(tmp_path / "c.txt", np.ones(2))
        assert run_cli(["matrix", "--input", tmp_path / "A.txt", "--rows", tmp_path / "r.txt",
                        "--cols", tmp_path / "c.txt", "--eps", "1e-8"]) == 0

    def test_hall_certificate(self, tmp_path):
        fio.write_matrix_file(tmp_path / "A.txt", np.eye(2))
        fio.write_vector_file(tmp_path / "r.txt", np.ones(2))
        fio.write_vector_file(tmp_path / "c.txt", np.array([1.5, 0.5]))
        out = tmp_path / "res.json"
        code = run_cli(["matrix", "--input", tmp_path / "A.txt", "--rows", tmp_path / "r.txt",
                        "--cols", tmp_path / "c.txt", "--eps", "1e-8", "--out", out])
        assert code == 3
        assert fio.read_result(out)["certificate"] == [0]
        assert run_cli(["verify", "--result", out, "--input", tmp_path / "A.txt",
                        "--rows", tmp_path / "r.txt", "--cols", tmp_path / "c.txt"]) == 0

    def test_trace_is_strict_json(self, tmp_path):
        base = gen(tmp_path, "bipartite", m=5, n=5, seed=2)
        trace = tmp_path / "trace.jsonl"
        assert run_cli(["matrix", "--input", f"{base}.A.txt", "--rows", f"{base}.r.txt",
                        "--cols", f"{base}.c.txt", "--eps", "1e-8", "--trace", trace]) == 0
        records = strict_records(trace)
        assert records
        # every field of a matrix record is a number
        assert all(type(rec[key]) in (int, float) for rec in records for key in TRACE_KEYS)

    def test_zero_column_rejected(self, tmp_path):
        fio.write_matrix_file(tmp_path / "A.txt", np.array([[1.0, 0.0], [1.0, 0.0]]))
        fio.write_vector_file(tmp_path / "r.txt", np.ones(2))
        fio.write_vector_file(tmp_path / "c.txt", np.ones(2))
        assert run_cli(["matrix", "--input", tmp_path / "A.txt", "--rows", tmp_path / "r.txt",
                        "--cols", tmp_path / "c.txt", "--eps", "1e-8"]) == 1


class TestFailedSolve:
    @pytest.mark.parametrize("kind", ["frame", "matrix"])
    def test_trace_kept_on_iteration_cap(self, tmp_path, kind):
        out, trace = tmp_path / "res.json", tmp_path / "trace.jsonl"
        code = run_cli(solve_args(tmp_path, kind) + ["--eps", "1e-12", "--max-iters", 3,
                                                     "--out", out, "--trace", trace])
        assert code == 1
        assert not out.exists()
        records = strict_records(trace)
        assert len(records) == 3
        assert all(set(rec) == TRACE_KEYS for rec in records)

    @pytest.mark.parametrize("max_iters", [[], ["--max-iters", 3]])
    @pytest.mark.parametrize("kind", ["frame", "matrix"])
    def test_unwritable_trace_is_an_error(self, tmp_path, capsys, kind, max_iters):
        out, trace = tmp_path / "res.json", tmp_path / "missing" / "trace.jsonl"
        code = run_cli(solve_args(tmp_path, kind) + ["--eps", "1e-12", "--out", out,
                                                     "--trace", trace] + max_iters)
        assert code == 1
        err = capsys.readouterr().err
        assert "error: " in err
        if max_iters:
            # the solver's error comes first, then the write error
            assert "no convergence after 3 iterations" in err
            assert err.index("no convergence") < err.index("No such file")
        # without a cap the solve succeeds; the run still must not look finished
        assert not out.exists()

    @pytest.mark.parametrize("max_iters", [[], ["--max-iters", 10]])
    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.5"])
    @pytest.mark.parametrize("kind", ["frame", "matrix"])
    def test_bad_eps_rejected(self, tmp_path, capsys, kind, eps, max_iters):
        out = tmp_path / "res.json"
        code = run_cli(solve_args(tmp_path, kind) + ["--eps", eps, "--out", out] + max_iters)
        assert code == 1
        assert not out.exists()
        assert "eps must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["frame", "matrix"])
    def test_cap_below_one_rejected(self, tmp_path, capsys, kind):
        out = tmp_path / "res.json"
        code = run_cli(solve_args(tmp_path, kind) + ["--eps", "1e-6", "--max-iters", 0,
                                                     "--out", out])
        assert code == 1
        assert not out.exists()
        assert "max_iters must be at least 1" in capsys.readouterr().err


class TestVerify:
    def test_certificate_checked_on_parsed_floats(self, tmp_path):
        # Column 1 is exactly -2 times column 0 in binary64, but the 17-digit
        # texts of 0.1 and -0.2 are not exactly proportional as decimals.
        x = np.array([0.1, 0.7])
        assert Fraction(Decimal(f"{-2 * x[0]:.17g}")) != -2 * Fraction(Decimal(f"{x[0]:.17g}"))
        fio.write_matrix_file(tmp_path / "U.txt", np.array([[x[0], -2 * x[0], 0.0],
                                                            [x[1], -2 * x[1], 1.0]]))
        fio.write_vector_file(tmp_path / "c.txt", np.array([0.8, 0.8, 0.4]))
        out = tmp_path / "res.json"
        assert run_cli(["frame", "--input", tmp_path / "U.txt", "--marginals", tmp_path / "c.txt",
                        "--eps", "1e-8", "--out", out]) == 3
        assert fio.read_result(out)["certificate"] == [0, 1]
        assert run_cli(["verify", "--result", out, "--input", tmp_path / "U.txt",
                        "--marginals", tmp_path / "c.txt"]) == 0

    def test_exact_certificate_check_on_a_large_frame(self, tmp_path, capsys):
        # A 4 x 13 tight pair: column 1 is twice column 0, with mass 1 + 5e-8
        # against rank 1. Verify ranks certificates exactly at every size.
        U = np.random.default_rng(0).standard_normal((4, 13))
        U[:, 1] = 2.0 * U[:, 0]
        c = np.full(13, (4.0 - (1.0 + 5e-8)) / 11.0)
        c[0] = c[1] = (1.0 + 5e-8) / 2.0
        fio.write_matrix_file(tmp_path / "U.txt", U)
        fio.write_vector_file(tmp_path / "c.txt", c)
        out = tmp_path / "res.json"
        verify = ["verify", "--result", out, "--input", tmp_path / "U.txt",
                  "--marginals", tmp_path / "c.txt"]
        assert run_cli(["frame", "--input", tmp_path / "U.txt", "--marginals", tmp_path / "c.txt",
                        "--eps", "1e-9", "--out", out]) == 3
        doc = fio.read_result(out)
        assert doc["certificate"] == [0, 1]
        assert run_cli(verify) == 0
        doc["certificate"] = [0]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(verify) == 2
        assert "verify failed: certificate_rational_rank" in capsys.readouterr().err

    def test_fresh_result_passes(self, tmp_path):
        base = gen(tmp_path, "gaussian", d=3, n=9, seed=5)
        out = tmp_path / "res.json"
        assert run_cli(["frame", "--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt",
                        "--eps", "1e-8", "--out", out]) == 0
        assert run_cli(["verify", "--result", out, "--input", f"{base}.U.txt",
                        "--marginals", f"{base}.c.txt"]) == 0

    def test_tamper_detected(self, tmp_path):
        base = gen(tmp_path, "gaussian", d=3, n=9, seed=5)
        out = tmp_path / "res.json"
        run_cli(["frame", "--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt",
                 "--eps", "1e-8", "--out", out])
        doc = fio.read_result(out)
        doc["z"][0] *= 2.0
        out.write_text(json.dumps(doc))
        assert run_cli(["verify", "--result", out, "--input", f"{base}.U.txt",
                        "--marginals", f"{base}.c.txt"]) == 2

    def test_frame_marginals_of_wrong_length(self, tmp_path, capsys):
        base = gen(tmp_path, "infeasible", d=3, n=7, seed=0)
        out = tmp_path / "res.json"
        assert run_cli(["frame", "--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt",
                        "--eps", "1e-8", "--out", out]) == 3
        assert fio.read_result(out)["certificate"] == [0, 1]
        short = tmp_path / "short.txt"
        fio.write_vector_file(short, fio.read_vector_file(f"{base}.c.txt")[:3])
        capsys.readouterr()
        assert run_cli(["verify", "--result", out, "--input", f"{base}.U.txt",
                        "--marginals", short]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(short) in err

    @pytest.mark.parametrize("rows", [1, 5])
    def test_matrix_targets_of_wrong_length(self, tmp_path, capsys, rows):
        a_path, r_path, c_path = tmp_path / "A.txt", tmp_path / "r.txt", tmp_path / "c.txt"
        fio.write_matrix_file(a_path, np.array([[1.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0],
                                                [0.0, 0.0, 1.0]]))
        fio.write_vector_file(r_path, np.ones(3))
        fio.write_vector_file(c_path, np.ones(3))
        out = tmp_path / "res.json"
        assert run_cli(["matrix", "--input", a_path, "--rows", r_path, "--cols", c_path,
                        "--eps", "1e-8", "--out", out]) == 3
        assert fio.read_result(out)["certificate"] == [0, 1]
        bad = tmp_path / "bad.txt"
        fio.write_vector_file(bad, np.ones(rows))
        for flags in (["--rows", bad, "--cols", c_path], ["--rows", r_path, "--cols", bad]):
            capsys.readouterr()
            assert run_cli(["verify", "--result", out, "--input", a_path, *flags]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(bad) in err

    @pytest.mark.parametrize("kind, dims, certificate", [
        # every marginal is 0.75: two copies of column 0 claim mass 1.5 > rank 1
        ("gaussian", {"d": 3, "n": 4}, [0, 0]),
        # d > 6 takes the float rank route: mass 1.5 > rank 1
        ("gaussian", {"d": 8, "n": 16}, [0, 0, 0]),
        # five copies of one column claim more than its rows can hold
        ("bipartite", {"m": 4, "n": 4}, [0, 0, 0, 0, 0]),
        # 1.5 must not be read as column 1, which would make [1, 1]
        ("gaussian", {"d": 3, "n": 4}, [1, 1.5]),
        # not a list of integers
        ("gaussian", {"d": 3, "n": 4}, 0),
        ("gaussian", {"d": 3, "n": 4}, [[0]]),
    ])
    def test_certificate_indices_distinct_integers(self, tmp_path, capsys, kind, dims,
                                                   certificate):
        base = gen(tmp_path, kind, seed=0, **dims)
        if kind == "gaussian":
            flags = ["--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt"]
        else:
            flags = ["--input", f"{base}.A.txt", "--rows", f"{base}.r.txt",
                     "--cols", f"{base}.c.txt"]
        out = tmp_path / "res.json"
        fio.write_result({"status": "infeasible", "iterations": 1, "final_error_sq": 1.0,
                          "config": {"eps": 1e-6}, "certificate": certificate}, out)
        capsys.readouterr()
        assert run_cli(["verify", "--result", out, *flags]) == 2
        assert "verify failed: certificate_indices" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, dims", [("gaussian", {"d": 3, "n": 4}),
                                            ("bipartite", {"m": 4, "n": 4})])
    def test_unknown_status_fails_status_check(self, tmp_path, capsys, kind, dims):
        base = gen(tmp_path, kind, seed=0, **dims)
        if kind == "gaussian":
            flags = ["--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt"]
        else:
            flags = ["--input", f"{base}.A.txt", "--rows", f"{base}.r.txt",
                     "--cols", f"{base}.c.txt"]
        out = tmp_path / "res.json"
        fio.write_result({"status": "error", "iterations": 3, "final_error_sq": 1.0,
                          "config": {"eps": 1e-6}}, out)
        capsys.readouterr()
        assert run_cli(["verify", "--result", out, *flags]) == 2
        assert "verify failed: status 'error'" in capsys.readouterr().err

    def test_missing_key_is_named(self, tmp_path, capsys):
        # a matrix result holds y, so checking it as a frame finds no z
        base = gen(tmp_path, "bipartite", m=5, n=5, seed=2)
        out = tmp_path / "res.json"
        assert run_cli(["matrix", "--input", f"{base}.A.txt", "--rows", f"{base}.r.txt",
                        "--cols", f"{base}.c.txt", "--eps", "1e-6", "--out", out]) == 0
        capsys.readouterr()
        assert run_cli(["verify", "--result", out, "--input", f"{base}.A.txt",
                        "--marginals", f"{base}.c.txt"]) == 1
        assert "error: result document has no 'z'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ([1, 2], "result document is not a JSON object"),
        ("scaled", "result document is not a JSON object"),
        ({"config": [1]}, "result document field 'config' is not a JSON object"),
        ({"final_error_sq": None}, "result document field 'final_error_sq' is null"),
        ({"config": {"eps": None}}, "result document field 'config.eps' is null"),
        ({"config": {"eps": True}}, "result document field 'config.eps' is true"),
        ({"config": {"eps": math.inf}, "z": [1.0] * 4},
         "result document field 'config.eps' is Infinity, not a positive finite number"),
        ({"config": {"eps": math.nan}},
         "result document field 'config.eps' is NaN, not a positive finite number"),
        ({"config": {"eps": -1e-6}},
         "result document field 'config.eps' is -1e-06, not a positive finite number"),
        ({"config": {"eps": 0}},
         "result document field 'config.eps' is 0, not a positive finite number"),
        ({"z": {"0": 1.0}}, "result document field 'z' is not a list of numbers"),
        ({"z": [1.0, "1", 1.0, 1.0]}, "result document field 'z' is not a list of numbers"),
    ], ids=["list", "string", "config-list", "error-null", "eps-null", "eps-bool",
            "eps-infinity", "eps-nan", "eps-negative", "eps-zero",
            "z-object", "z-string-entry"])
    def test_malformed_document_is_error(self, tmp_path, capsys, doc, named):
        base = gen(tmp_path, "gaussian", d=3, n=4, seed=0)
        flags = ["--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt"]
        out = tmp_path / "res.json"
        assert run_cli(["frame", *flags, "--eps", "1e-6", "--out", out]) == 0
        if isinstance(doc, dict):
            doc = {**fio.read_result(out), **doc}
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["verify", "--result", out, *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                             ids=["infinity", "minus-infinity", "nan"])
    @pytest.mark.parametrize("kind", ["frame", "matrix"])
    def test_non_finite_scaling_fails_check(self, tmp_path, capsys, kind, value):
        # json reads Infinity and NaN; either problem fails the same named
        # check before recomputing anything from the scaling.
        args = solve_args(tmp_path, kind)
        out = tmp_path / "res.json"
        assert run_cli(args + ["--eps", "1e-6", "--out", out]) == 0
        doc = fio.read_result(out)
        key = "z" if kind == "frame" else "y"
        doc[key][1] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["verify", "--result", out, *args[1:]]) == 2
        assert capsys.readouterr().err == "verify failed: scaling_finite\n"

    def test_missing_file_is_error(self, tmp_path):
        assert run_cli(["verify", "--result", tmp_path / "nope.json",
                        "--input", tmp_path / "nope.txt",
                        "--marginals", tmp_path / "nope2.txt"]) == 1

    @pytest.mark.parametrize("extra", [[1.0, 1.0], None], ids=["long", "short"])
    @pytest.mark.parametrize("kind", ["frame", "matrix"])
    def test_scaling_of_wrong_length_fails_length_check(self, tmp_path, capsys, kind, extra):
        args = solve_args(tmp_path, kind)
        out = tmp_path / "res.json"
        assert run_cli(args + ["--eps", "1e-6", "--out", out]) == 0
        doc = fio.read_result(out)
        key = "z" if kind == "frame" else "y"
        doc[key] = doc[key] + extra if extra else doc[key][:-1]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["verify", "--result", out, *args[1:]]) == 2
        assert capsys.readouterr().err == "verify failed: scaling_length\n"


def matrix_files(tmp_path, A, r, c):
    """Writes the instance's three files and returns their verify flags."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    paths = [tmp_path / name for name in ("A.txt", "r.txt", "c.txt")]
    fio.write_matrix_file(paths[0], np.asarray(A, dtype=np.float64))
    fio.write_vector_file(paths[1], np.asarray(r, dtype=np.float64))
    fio.write_vector_file(paths[2], np.asarray(c, dtype=np.float64))
    return ["--input", paths[0], "--rows", paths[1], "--cols", paths[2]]


def write_doc(path, **fields):
    """Writes a scaled result document updated with ``fields``; returns its path."""
    doc = {"status": "scaled", "iterations": 1, "final_error_sq": 0.0,
           "config": {"eps": 1e-6}, **fields}
    path.write_text(json.dumps(doc))
    return path


def plant_hall(A, seed, block=4):
    """Confines ``block`` columns of A to ``block - 1`` rows; keeps every row nonzero."""
    m, n = A.shape
    rng = np.random.default_rng(seed)
    cols = rng.choice(n, size=block, replace=False)
    rows = rng.choice(m, size=block - 1, replace=False)
    A = A.copy()
    A[:, cols] = 0.0
    A[np.ix_(rows, cols)] = 1.0
    others = np.setdiff1d(np.arange(n), cols)
    for i in range(m):
        if not A[i].any():
            A[i, others[rng.integers(others.size)]] = 1.0
    return A


def all_fraction_hall_rule(flags, T):
    """The Hall verdict with every entry taken as a Fraction, N(T) included."""
    _, a_path, _, r_path, _, c_path = flags
    rows = rational.parse_matrix_tokens(a_path)
    rq = rational.parse_vector_tokens(r_path)
    cq = rational.parse_vector_tokens(c_path)
    nbr = sorted({i for i in range(len(rows)) if any(rows[i][j] != 0 for j in T)})
    return sum(cq[j] for j in T) > sum(rq[i] for i in nbr)


class TestMatrixVerify:
    """A matrix verify reads each file once as floats and builds no rho floor."""

    @staticmethod
    def forbid(monkeypatch, *sites):
        def forbidden(*args):
            raise AssertionError("verify called a forbidden function")

        for module, name in sites:
            monkeypatch.setattr(module, name, forbidden)

    def test_scaled_verify_builds_no_floor(self, tmp_path, monkeypatch):
        args = solve_args(tmp_path, "matrix")
        out = tmp_path / "res.json"
        assert run_cli(args + ["--eps", "1e-6", "--out", out]) == 0
        self.forbid(monkeypatch, (matrixscale, "_rho_floor"), (matrixscale, "_connected"))
        assert run_cli(["verify", "--result", out, *args[1:]]) == 0

    def test_hall_verify_reads_no_rational_matrix(self, tmp_path, monkeypatch):
        flags = matrix_files(tmp_path, [[1, 1, 0], [0, 0, 1], [0, 0, 1]], np.ones(3), np.ones(3))
        out = tmp_path / "res.json"
        assert run_cli(["matrix", *flags, "--eps", "1e-6", "--out", out]) == 3
        assert fio.read_result(out)["certificate"] == [0, 1]
        self.forbid(monkeypatch, (matrixscale, "_rho_floor"), (matrixscale, "_connected"),
                    (rational, "parse_matrix_tokens"))
        assert run_cli(["verify", "--result", out, *flags]) == 0

    def test_hall_verdict_matches_all_fraction_rule(self, tmp_path, capsys):
        verdicts = []
        for seed in range(12):
            A, r, c = gen_bipartite(20, 20, seed)
            flags = matrix_files(tmp_path / str(seed), plant_hall(A, seed), r, c)
            out = tmp_path / str(seed) / "res.json"
            assert run_cli(["matrix", *flags, "--eps", "1e-6", "--out", out]) == 3
            doc = fio.read_result(out)
            for T in (doc["certificate"], [0]):
                doc["certificate"] = T
                out.write_text(json.dumps(doc))
                want = all_fraction_hall_rule(flags, T)
                assert run_cli(["verify", "--result", out, *flags]) == (0 if want else 2)
                verdicts.append(want)
        # every solver certificate holds, and no [0] does
        assert verdicts == [True, False] * 12

    @pytest.mark.parametrize("entry, holds", [(5e-324, False), (-0.0, True)],
                             ids=["subnormal-neighbour", "negative-zero-not-neighbour"])
    def test_hall_neighbours_are_the_exact_nonzeros(self, tmp_path, entry, holds):
        # T = {0, 1} has mass 2 against r(N(T)) = 1, unless the entry in
        # row 1 of column 0 makes row 1 a neighbour (then 2 against 2).
        A = np.array([[1.0, 1.0, 0.0], [entry, 0.0, 1.0], [0.0, 0.0, 1.0]])
        flags = matrix_files(tmp_path, A, np.ones(3), np.ones(3))
        out = write_doc(tmp_path / "res.json", status="infeasible", certificate=[0, 1])
        assert fio.read_matrix_file(flags[1])[1, 0].tobytes() == np.float64(entry).tobytes()
        assert all_fraction_hall_rule(flags, [0, 1]) is holds
        assert run_cli(["verify", "--result", out, *flags]) == (0 if holds else 2)

    # r / (A y) overflows at the subnormal row sum 5e-324, and A y is 0 in
    # row 0 of the second case, where column_sums would raise ZeroRowSum.
    UNDERFLOW = [([[1e-300, 1.0], [1.0, 1.0]], [1e-100, 5e-324]),
                 ([[1e-200, 0.0], [1.0, 1.0]], [1e-200, 1e-200])]

    @pytest.mark.parametrize("A, y", UNDERFLOW, ids=["subnormal", "zero"])
    def test_row_sum_underflow_fails_check(self, tmp_path, capsys, A, y):
        flags = matrix_files(tmp_path, A, np.ones(2), np.ones(2))
        out = write_doc(tmp_path / "res.json", y=y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["verify", "--result", out, *flags]) == 2
        assert caught == []
        assert capsys.readouterr().err == "verify failed: row_sums_positive\n"

    @pytest.mark.parametrize("A, y", UNDERFLOW, ids=["subnormal", "zero"])
    def test_row_sum_underflow_fails_check_under_warnings_as_errors(self, tmp_path, A, y):
        flags = matrix_files(tmp_path, A, np.ones(2), np.ones(2))
        out = write_doc(tmp_path / "res.json", y=y)
        code, _, err = fresh_process(["verify", "--result", out, *flags], "-W", "error")
        assert (code, err) == (2, "verify failed: row_sums_positive\n")

    # Every row sum A y is 2e-10, a normal number, but r / (A y) = 5e309 is
    # past binary64. The equal y meets the targets exactly; the skewed one
    # misses its column sums by about 3e299, an error^2 past binary64.
    LARGE_TARGETS = [([1e-10, 1e-10], 0, ""), ([1e-10, 2e-10], 2, "verify failed: error_within_eps\n")]

    @pytest.mark.parametrize("y, code, err", LARGE_TARGETS, ids=["exact", "error-overflows"])
    def test_large_targets_verify_without_overflow(self, tmp_path, capsys, y, code, err):
        flags = matrix_files(tmp_path, np.ones((2, 2)), [1e300, 1e300], [1e300, 1e300])
        out = write_doc(tmp_path / "res.json", y=y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["verify", "--result", out, *flags]) == code
        assert caught == []
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("y, code, err", LARGE_TARGETS, ids=["exact", "error-overflows"])
    def test_large_targets_verify_under_warnings_as_errors(self, tmp_path, y, code, err):
        flags = matrix_files(tmp_path, np.ones((2, 2)), [1e300, 1e300], [1e300, 1e300])
        out = write_doc(tmp_path / "res.json", y=y)
        assert fresh_process(["verify", "--result", out, *flags], "-W", "error") == (code, "", err)

    @pytest.mark.parametrize("scale", [1.0, 3e5, 7e-9, 2.0 ** -200], ids=["1", "3e5", "7e-9", "2^-200"])
    def test_scaled_targets_keep_the_residuals(self, tmp_path, monkeypatch, scale):
        # Verify's error^2 equals the one formed from r and c as given, bit
        # for bit, wherever r / (A y) and the squares stay normal.
        seen = []
        check = cli._check_scaled

        def recording(doc, key, n, eps, error_sq):
            return check(doc, key, n, eps, lambda y: seen.append(error_sq(y)) or seen[-1])

        monkeypatch.setattr(cli, "_check_scaled", recording)
        for seed in range(4):
            A, r, c = gen_bipartite(8, 8, seed)
            r, c = r * scale, c * scale
            res = matrixscale.scale_matrix(matrixscale.NonnegMatrix(A),
                                           matrixscale.MatrixMarginals(r, c), 1e-6 * scale)
            flags = matrix_files(tmp_path / str(seed), A, r, c)
            out = write_doc(tmp_path / str(seed) / "res.json", y=res.scaling.tolist(),
                            final_error_sq=res.final_error_sq, config={"eps": 1e-6 * scale})
            assert run_cli(["verify", "--result", out, *flags]) == 0
            ay = A @ res.scaling
            cs = matrixscale.column_sums(matrixscale.NonnegMatrix(A), r, res.scaling)
            want = float(((r / ay * ay - r) ** 2).sum() + ((cs - c) ** 2).sum())
            assert seen[-1] == want
        assert len(seen) == 4


def per_token_floats(tokens):
    """The per-token rule: one ``float()`` and one finiteness check per token."""
    values = []
    for token in tokens:
        x = float(token)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {token!r} in input")
        values.append(x)
    return np.array(values, dtype=np.float64)


class TestInstanceFiles:
    def instances(self):
        yield gen_gaussian(5, 20, 0)
        A, r, c = gen_bipartite(20, 20, 0)
        yield A, r
        yield A.T * 10.0 ** np.arange(-10, 10), c
        for seed in range(12):
            recipe = fuzz_recipe(seed)
            if recipe is not None:
                yield recipe

    def test_same_bytes_as_per_token_rule(self, tmp_path):
        count = 0
        for U, c in self.instances():
            fio.write_matrix_file(tmp_path / "U.txt", U)
            fio.write_vector_file(tmp_path / "c.txt", c)
            tokens = (tmp_path / "U.txt").read_text().split()
            want = per_token_floats(tokens[2:]).reshape(int(tokens[0]), int(tokens[1]))
            got = fio.read_matrix_file(tmp_path / "U.txt")
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                              want.tobytes())
            assert got.tobytes() == U.tobytes()
            want = per_token_floats((tmp_path / "c.txt").read_text().split())
            got = fio.read_vector_file(tmp_path / "c.txt")
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
            count += 1
        assert count >= 10

    def test_python_float_spellings(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1_0 -0 +1.5 1E3 5e-324 .5\n")
        got = fio.read_vector_file(path)
        assert got.tobytes() == np.array([10.0, -0.0, 1.5, 1e3, 5e-324, 0.5]).tobytes()
        assert rational.parse_vector_tokens(path)[0] == Fraction(10)

    @pytest.mark.parametrize("tokens, named", [
        (["1e400", "1", "2", "3"], "1e400"),
        (["1", "-inf", "nan", "3"], "-inf"),
        (["1", "2", "3", "NaN"], "NaN"),
    ], ids=["first", "middle", "last"])
    def test_first_non_finite_token_named(self, tmp_path, tokens, named):
        vec, mat = tmp_path / "v.txt", tmp_path / "m.txt"
        vec.write_text(" ".join(tokens) + "\n")
        mat.write_text("2 2\n" + " ".join(tokens) + "\n")
        for read, path in ((fio.read_vector_file, vec), (fio.read_matrix_file, mat)):
            with pytest.raises(ValueError) as info:
                read(path)
            assert str(info.value) == f"non-finite value {named!r} in input"


class TestUsageErrors:
    # Usage errors exit 1: exit 2 is kept for a failed verify check.
    @pytest.mark.parametrize("flags", [["--eps", "abc"], ["--eps", "1e-6", "--no-regularize"]])
    def test_bad_solve_flag(self, tmp_path, capsys, flags):
        # on a solvable instance, so only the flag can fail the run
        assert run_cli(solve_args(tmp_path, "frame") + flags) == 1
        assert "error: " in capsys.readouterr().err

    def test_missing_required_flag(self, tmp_path, capsys):
        base = gen(tmp_path, "gaussian", d=3, n=4, seed=0)
        capsys.readouterr()
        assert run_cli(["verify", "--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt"]) == 1
        assert "required: --result" in capsys.readouterr().err
        assert run_cli(["gen", "gaussian", "--n", 4, "--out", tmp_path / "x"]) == 1
        assert "requires --d" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed(self, tmp_path, capsys, seed):
        # numpy's own message for a negative seed names no flag
        assert run_cli(["gen", "gaussian", "--d", 2, "--n", 4, "--seed", seed,
                        "--out", tmp_path / "x"]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer" in err
        assert not (tmp_path / "x.U.txt").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["frame", "--help"])
        assert info.value.code == 0
        assert "--max-iters" in capsys.readouterr().out


class TestResultRoundTrip:
    def test_bit_exact(self, tmp_path):
        base = gen(tmp_path, "gaussian", d=4, n=10, seed=11)
        out = tmp_path / "res.json"
        run_cli(["frame", "--input", f"{base}.U.txt", "--marginals", f"{base}.c.txt",
                 "--eps", "1e-7", "--out", out, "--trace", tmp_path / "t.jsonl"])
        doc = fio.read_result(out)
        assert json.loads(json.dumps(doc)) == doc
        again = tmp_path / "res2.json"
        fio.write_result(doc, again)
        assert fio.read_result(again) == doc

    def test_instance_file_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((3, 7)) * 10.0 ** rng.uniform(-8, 8, size=(3, 7))
        fio.write_matrix_file(tmp_path / "m.txt", m)
        back = fio.read_matrix_file(tmp_path / "m.txt")
        assert np.array_equal(m, back)


def fresh_process(args, *options):
    """(exit code, stdout, stderr) of the CLI in a new interpreter with ``options``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *options, "-m", "framescale.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserCache:
    """``main`` builds one parser per process and dispatches at call time."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        original = cli.build_parser

        def counting():
            built.append(None)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        args = solve_args(tmp_path, "frame")
        out = tmp_path / "res.json"
        for _ in range(3):
            assert run_cli(args + ["--eps", "1e-6", "--out", out]) == 0
            assert run_cli(["verify", "--result", out, *args[1:]]) == 0
            assert run_cli(["verify", "--input", out]) == 1
        assert len(built) == 1

    def test_build_parser_is_fresh(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_replaced_command_runs(self, tmp_path, monkeypatch):
        gen(tmp_path, "gaussian", d=3, n=4, seed=0)  # the parser exists now
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args) or 42)
        assert run_cli(["verify", "--result", "r.json", "--input", "U.txt"]) == 42
        assert [(a.command, a.result, a.marginals) for a in seen] == [
            ("verify", "r.json", None)]

    @pytest.mark.parametrize("argv", [
        ["frame", "--help"],
        ["--help"],
        ["verify", "--input", "U.txt"],
        ["frame", "--input", "U.txt", "--marginals", "c.txt", "--eps", "abc"],
        ["solve"],
        [],
    ], ids=["frame-help", "help", "missing-flag", "bad-eps", "unknown-command", "no-command"])
    def test_same_as_a_fresh_process(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        gen(tmp_path, "gaussian", d=3, n=4, seed=0)
        capsys.readouterr()
        try:
            code = run_cli(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh_process(argv)

    def test_matrix_verify_after_frame_verify(self, tmp_path, capsys):
        frame, matrix = solve_args(tmp_path, "frame"), solve_args(tmp_path, "matrix")
        f_out, m_out = tmp_path / "frame.json", tmp_path / "matrix.json"
        assert run_cli(frame + ["--eps", "1e-6", "--out", f_out]) == 0
        assert run_cli(matrix + ["--eps", "1e-6", "--out", m_out]) == 0
        for _ in range(2):
            assert run_cli(["verify", "--result", f_out, *frame[1:]]) == 0
            assert run_cli(["verify", "--result", m_out, *matrix[1:]]) == 0
        # no flag of an earlier call carries over
        capsys.readouterr()
        assert run_cli(["verify", "--result", f_out, "--input", frame[2]]) == 1
        assert "frame verification needs --marginals" in capsys.readouterr().err
