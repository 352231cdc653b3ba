"""scipy is bound at the first factorization, not at ``import framescale``.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already. The commands that factor nothing (a matrix solve and its
verify, ``gen bipartite`` and ``gen gaussian``, the exact verify of a frame
certificate) leave no ``scipy`` module in ``sys.modules``; a frame solve
loads ``scipy.linalg`` at its first ``Frame`` and scales to the same z as
an in-process solve, bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from framescale import Frame, Marginals, scale_frame
from framescale import io as fio
from framescale.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the scipy modules loaded after the import, then the exit code and
# the scipy modules loaded after each ``main`` call of its argument list.
PROBE = """
import json, sys
import framescale, framescale.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = [[None, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    seen.append([framescale.cli.main(argv), scipy_modules()])
print(json.dumps(seen))
"""


def cold_run(*commands):
    """[(exit code, scipy modules)] after the import and after each command,
    all in one new interpreter; the import's exit code is None."""
    argv = [[str(a) for a in command] for command in commands]
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return [tuple(step) for step in json.loads(proc.stdout)]


def test_import_loads_no_scipy():
    assert cold_run() == [(None, [])]


def test_matrix_commands_load_no_scipy(tmp_path):
    b = tmp_path / "bip"
    steps = cold_run(
        ["gen", "bipartite", "--m", 5, "--n", 5, "--seed", 2, "--out", b],
        ["matrix", "--input", f"{b}.A.txt", "--rows", f"{b}.r.txt", "--cols", f"{b}.c.txt",
         "--eps", "1e-6", "--out", f"{b}.json", "--trace", f"{b}.jsonl"],
        ["verify", "--result", f"{b}.json", "--input", f"{b}.A.txt",
         "--rows", f"{b}.r.txt", "--cols", f"{b}.c.txt"],
        ["gen", "gaussian", "--d", 3, "--n", 9, "--seed", 3, "--out", tmp_path / "g"],
    )
    assert steps == [(None, []), (0, []), (0, []), (0, []), (0, [])]


def test_certificate_verify_loads_no_scipy(tmp_path):
    # The certificate is written here; only its verify runs cold.
    b = tmp_path / "inf"
    assert main(["gen", "infeasible", "--d", "3", "--n", "7", "--seed", "0", "--out", str(b)]) == 0
    assert main(["frame", "--input", f"{b}.U.txt", "--marginals", f"{b}.c.txt",
                 "--eps", "1e-6", "--out", f"{b}.json"]) == 3
    steps = cold_run(["verify", "--result", f"{b}.json", "--input", f"{b}.U.txt",
                      "--marginals", f"{b}.c.txt"])
    assert steps == [(None, []), (0, [])]


def test_frame_solve_binds_scipy_and_matches_in_process(tmp_path):
    b = tmp_path / "g"
    (_, before), (_, generated), (code, after) = cold_run(
        ["gen", "gaussian", "--d", 3, "--n", 9, "--seed", 3, "--out", b],
        ["frame", "--input", f"{b}.U.txt", "--marginals", f"{b}.c.txt",
         "--eps", "1e-8", "--out", f"{b}.json"],
    )
    assert before == generated == [] and code == 0
    assert "scipy.linalg" in after
    frame = Frame(fio.read_matrix_file(f"{b}.U.txt"))
    res = scale_frame(frame, Marginals(fio.read_vector_file(f"{b}.c.txt"), d=frame.d), 1e-8)
    assert res.scaled
    assert fio.read_result(f"{b}.json")["z"] == res.scaling.tolist()
