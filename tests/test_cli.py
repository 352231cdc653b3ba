import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from framescale import io as fio
from framescale.cli import main


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
        # the matrix solver computes no hp_one or log_z_inf
        assert all(rec["hp_one"] is None and rec["log_z_inf"] is None for rec in records)

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

    def test_missing_file_is_error(self, tmp_path):
        assert run_cli(["verify", "--result", tmp_path / "nope.json",
                        "--input", tmp_path / "nope.txt",
                        "--marginals", tmp_path / "nope2.txt"]) == 1


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
