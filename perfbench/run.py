"""Benchmark for framescale: seeded workloads, end-to-end metrics, traced layers.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload frame_gaussian --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process, and prints
every metric with its unit. ``--self-check`` reproduces the deterministic
ROADMAP iteration counts and exits non-zero if they drift.

The package is imported from ``src/`` next to this directory, never from an
installed copy. Reports and spans go to ``.perfbench_out/`` at the
repository root. See ``perfbench/README.md`` for the workloads, the metric
definitions and the layer-to-metric map.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported: the solves are small and
# serial, and a second thread only adds scheduling noise.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("frame_gaussian", "matrix_bipartite", "frame_fuzz")
# Wall seconds of one pass over each workload's instance set on the machine
# the benchmark was tuned on (2 vCPU x86-64). A run makes as many whole
# passes as fit in --seconds at this speed (at least one), so the work in a
# run is fixed by its arguments and iteration counts repeat exactly.
NOMINAL_PASS_S = {"frame_gaussian": 30.0, "matrix_bipartite": 35.0, "frame_fuzz": 20.0}
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
VERIFY_REPEATS = 3
TAIL_BEYOND = 10
# Span self times must add up to the measured solve wall time within this
# share plus this many seconds (the root wrapper's own entry and exit).
SELF_SUM_TOL, SELF_SUM_ABS_S = 0.01, 50e-6

BASELINES = [
    # (label, problem, generator arguments, eps, iterations recorded in ROADMAP.md)
    ("gen_gaussian(4,12,0) eps 1e-8", "frame", (4, 12, 0), 1e-8, 821),
    ("gen_gaussian(8,40,0) eps 1e-6", "frame", (8, 40, 0), 1e-6, 6042),
    ("gen_bipartite(20,20,1) eps 1e-6", "matrix", (20, 20, 1), 1e-6, 1542),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fuzz-max-iters", type=int, default=1000, dest="fuzz_max_iters",
                   help="iteration cap for frame_fuzz solves")
    p.add_argument("--self-check", action="store_true", dest="self_check")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required unless --self-check is given")
    if args.seconds < 1 or args.seed < 0 or args.fuzz_max_iters < 1:
        p.error("--seconds and --fuzz-max-iters must be positive, --seed nonnegative")
    return args


def import_framescale():
    """Import the package from this checkout's src/; raise if it is not there."""
    if not (SRC / "framescale" / "__init__.py").is_file():
        raise FileNotFoundError(f"no framescale package under {SRC}")
    sys.path.insert(0, str(SRC))
    import framescale

    if Path(framescale.__file__).resolve().parent != (SRC / "framescale").resolve():
        raise ImportError(f"framescale imported from {framescale.__file__}, not {SRC}")
    import framescale.cli  # noqa: F401  (loads io, rational and generate too)


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unavailable' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in PINNED_ENV}, "commit": git_commit(),
    }


@dataclass
class Attempt:
    """One solve: its timing sample, iterations run, and result or error class."""

    index: int
    time: object              # speed.Sample
    iterations: int
    result: object | None
    error: str | None
    message: str = ""

    @property
    def outcome(self):
        return (self.error or self.result.status, self.iterations)


def iterations_spent(exc: BaseException) -> int:
    """Iterations a failed solve ran: the attached trace, else the loop counter."""
    trace = getattr(exc, "trace", None)
    if trace:
        return len(trace)
    tb, spent = exc.__traceback__, 0
    while tb is not None:
        if tb.tb_frame.f_code.co_name in ("scale_frame", "scale_matrix"):
            spent = int(tb.tb_frame.f_locals.get("it", 0))
        tb = tb.tb_next
    return spent


class Runner:
    """Builds one workload's instance set and solves it through the public API."""

    def __init__(self, workload: str, seed: int, fuzz_cap: int, clock):
        import framescale.matrixscale
        import framescale.perceptron
        import framescale.solver
        import workloads

        self.workload = workload
        self.seed = seed
        self.cap = fuzz_cap if workload == "frame_fuzz" else None
        self.clock = clock
        self.solver = framescale.solver
        self.matrixscale = framescale.matrixscale
        self.perceptron = framescale.perceptron
        self.workloads = workloads
        self.instances = []
        self.skipped: list[str] = []
        self.demo_times = []
        self.demo_failures: list[str] = []
        self.verify_times = []
        self.wrong: dict[str, dict] = {}    # instance label -> failed check

    def solve(self, inst):
        # Module attributes are looked up per call, so the traced pass sees its wrappers.
        config = self.solver.SolverConfig(max_iters=self.cap)
        if inst.problem == "frame":
            return self.solver.scale_frame(*inst.data, self.workloads.EPS, config)
        return self.matrixscale.scale_matrix(*inst.data, self.workloads.EPS, config)

    def setup(self) -> list:
        """Build and validate the instance set, then warm up; one sample per repeat."""
        samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.instances, self.skipped = self.workloads.build(self.workload, self.seed)
            self.solve(self.workloads.warmup_instance(self.workload))
            samples.append(self.clock.sample(time.perf_counter() - t0))
        return samples

    def run_pass(self, tracer=None, verifier=None, repeats=0) -> list[Attempt]:
        """Solve every instance once; with a verifier, check each result right away.

        Verifying in every pass spreads the verify timings over the whole run.
        """
        out = []
        for i, inst in enumerate(self.instances):
            if tracer is not None:
                tracer.begin_group("solve", inst.label)
            t0 = time.perf_counter()
            try:
                res = self.solve(inst)
            except Exception as exc:  # every solver failure is an outcome to count and log
                out.append(Attempt(i, self.clock.sample(time.perf_counter() - t0),
                                   iterations_spent(exc), None, type(exc).__name__, str(exc)))
                continue
            out.append(Attempt(i, self.clock.sample(time.perf_counter() - t0),
                               res.iterations, res, None))
            if self.workload == "frame_gaussian" and res.scaled:
                if tracer is not None:
                    tracer.begin_group("perceptron", inst.label)
                t0 = time.perf_counter()
                self.perceptron_demo(i, inst, res.scaling)
                self.demo_times.append(self.clock.sample(time.perf_counter() - t0))
            if verifier is not None:
                self.check_result(inst, res, verifier, repeats, tracer)
        return out

    def check_result(self, inst, res, verifier, repeats, tracer) -> None:
        """Run verify on one result ``repeats`` times, then the own recompute."""
        if tracer is not None:
            tracer.begin_group("prepare", inst.label)
        path = verifier.write_result(inst, res)
        codes, messages = [], []
        for _ in range(repeats):
            if tracer is not None:
                tracer.begin_group("verify", inst.label)
            code, seconds, message = verifier.run_verify(inst, path)
            codes.append(code)
            messages.append(message)
            self.verify_times.append(self.clock.sample(seconds))
        own = verifier.own_check(inst, res)
        if any(c != 0 for c in codes) or not own:
            self.wrong[inst.label] = {"label": inst.label, "kind": inst.kind,
                                      "status": res.status, "verify_exit": codes,
                                      "verify_stderr": sorted(set(messages)),
                                      "own_check": own}

    def perceptron_demo(self, i, inst, z) -> None:
        """Learn a seeded halfspace over the scaled frame's columns and check it."""
        import numpy as np

        pc = self.perceptron
        frame = inst.data[0]
        d = frame.d
        w = np.random.default_rng([self.seed, i]).standard_normal(d)
        metric = pc.QMetric.from_frame(frame, z)
        samples = [pc.LabeledSample(p, 1 if metric.inner(w, p) >= 0 else -1)
                   for p in frame.matrix.T]
        gamma = 1.0 / math.sqrt(4.0 * d)
        try:
            out = pc.improved_perceptron(samples, metric, gamma)
            frac = pc.margin_fraction(frame, z, w)
        except Exception as exc:  # a demo failure is a wrong output, not a crash
            self.demo_failures.append(f"{inst.label}: {type(exc).__name__}: {exc}")
            return
        vn = metric.norm_sq(out.vector)
        for s in samples:
            score = metric.inner(out.vector, s.point)
            if (score * score >= gamma * gamma * vn * metric.norm_sq(s.point)
                    and (1 if score > 0 else -1) != s.label):
                self.demo_failures.append(f"{inst.label}: margin sample misclassified")
                return
        if frac < 1.0 / (5.0 * d):
            self.demo_failures.append(f"{inst.label}: margin fraction {frac:g} < 1/(5d)")


def negative_controls(runner, verifier, attempts) -> dict:
    scaled = next((a for a in attempts if a.result is not None and a.result.scaled), None)
    if scaled is None:
        return {"rejected": False, "reason": "no scaled result to perturb"}
    return verifier.negative_controls(runner.instances[scaled.index], scaled.result,
                                      runner.instances[0])


def summarize(runner, attempts, controls) -> dict:
    """Correctness fields shared by the traced and untraced runs."""
    n = len(runner.instances)
    first = {a.index: a.outcome for a in attempts[:n]}
    mismatched = sorted({runner.instances[a.index].label for a in attempts
                         if a.outcome != first[a.index]})
    wrong = runner.wrong
    failed = sum(1 for a in attempts
                 if a.error is not None or runner.instances[a.index].label in wrong)
    # The own recompute decides correctness; a result it accepts but verify
    # rejects counts in failed and verified_frac only.
    correct = (all(w["own_check"] for w in wrong.values()) and controls["rejected"]
               and not runner.demo_failures and not mismatched)
    errors = [f"error instance={runner.instances[a.index].label} "
              f"kind={runner.instances[a.index].kind} class={a.error} "
              f"iterations={a.iterations} message={a.message!r}"
              for a in attempts[:n] if a.error is not None]
    return {"correct": bool(correct), "attempted": len(attempts), "failed": failed,
            "mismatched_between_passes": mismatched, "wrong": list(wrong.values()),
            "controls": controls, "errors": errors}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its value."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return 100.0, s[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, s[n - TAIL_BEYOND - 1]


def end_to_end(runner, attempts, setup_s) -> tuple[dict, dict]:
    times = [a.time.normalized for a in attempts]
    raw = [a.time.raw for a in attempts]
    iters = sum(a.iterations for a in attempts)
    busy = sum(times) + sum(s.normalized for s in runner.demo_times)
    finished = {a.index for a in attempts if a.result is not None}
    pct, tail_s = tail(times)
    metrics = {
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": tail_s,
        "solves_per_s": len(attempts) / busy,
        "iters_per_solve": iters / len(attempts),
        "us_per_iter": 1e6 * sum(times) / max(iters, 1),
        "finish_frac": sum(a.result is not None for a in attempts) / len(attempts),
        "verified_frac": 1.0 - len(runner.wrong) / max(len(finished), 1),
        "verify_s_p50": statistics.median(s.normalized for s in runner.verify_times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    clock = runner.clock
    detail = {
        "solve_s_tail_percentile": pct, "solve_samples": len(times),
        "error_frac": 1.0 - metrics["finish_frac"],
        "wrong_frac": 1.0 - metrics["verified_frac"],
        "verify_samples": len(runner.verify_times), "iterations": iters,
        "raw_solve_s_p50": statistics.median(raw),
        "raw_us_per_iter": 1e6 * sum(raw) / max(iters, 1),
        "reference_runs": len(clock.references),
        "reference_s_median": statistics.median(clock.references),
    }
    return metrics, detail


def per_layer(tracer, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass; times are busy seconds over the pass."""
    import numpy as np
    import spans

    a = tracer.arrays()
    span_name = np.array(tracer.names + [""])[a["name"]]
    kinds = np.array(tracer.group_kind + [""])[a["group"]]
    layer_of = np.array([n.split(".")[0] for n in span_name])
    # Solve-side layers are counted inside solves; the others inside their own work.
    kind_of_layer = {"perceptron": "perceptron", "cli": "verify", "io": "verify",
                     "rational": "verify"}

    def sel(name):
        return (span_name == name) & (kinds == kind_of_layer.get(name.split(".")[0], "solve"))

    def busy(name):
        return float(a["duration_s"][sel(name)].sum())

    def calls(name):
        return int(sel(name).sum())

    def us_per_iter(attempts):
        iters = sum(x.iterations for x in attempts)
        return 1e6 * sum(x.time.normalized for x in attempts) / max(iters, 1)

    iters = sum(x.iterations for x in traced)
    obs, counts = tracer.observed, tracer.counts
    qr, chol = counts.get(("solve", "qr"), 0), counts.get(("solve", "cholesky"), 0)
    lookups = calls("regularize.RhoCache.rho")
    misses = calls("regularize.rho_overestimate")
    returns = obs.get("update.compute_update.returns", 0)
    seeded, nd_steps = obs.get("update.seeded", 0), obs.get("update.nd_steps", 0)

    m = {
        "trace.solves": len(traced),
        "trace.iterations": iters,
        "trace.spans": int(a["name"].size),
        "trace.overhead_us_per_iter": us_per_iter(traced) - us_per_iter(untraced),
        "linalg.qr_per_iter": qr / max(iters, 1),
        "linalg.cholesky_per_iter": chol / max(iters, 1),
        "linalg.leverage_scores.s": busy("linalg.leverage_scores"),
        "linalg.numerical_rank.s": busy("linalg.numerical_rank"),
        "linalg.pinv_trace.calls": calls("linalg.pinv_trace"),
        "solver.infeasibility_certificate.s": busy("solver.infeasibility_certificate"),
        "solver.select_margin_set.s": busy("solver.select_margin_set"),
        "solver.self_s": float(a["self_s"][sel("solver.scale_frame")].sum()),
        "update.compute_update.s": busy("update.compute_update"),
        "update.compute_update.calls": calls("update.compute_update"),
        "update.seeded_frac": seeded / returns if returns else 0.0,
        "update.nd_steps_per_iter": nd_steps / max(iters, 1),
        "update.approx_small_eigen_sum.s": busy("update.approx_small_eigen_sum"),
        "update.det_local_opt.s": busy("update.det_local_opt"),
        "regularize.regularize.s": busy("regularize.regularize"),
        "regularize.rho_overestimate.calls": misses,
        "regularize.rho_overestimate.s": busy("regularize.rho_overestimate"),
        "regularize.rho_cache.lookups": lookups,
        "regularize.rho_cache_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "matrixscale.matrix_rho_prefixes.s": busy("matrixscale.matrix_rho_prefixes"),
        "matrixscale.matrix_rho_prefixes.calls": calls("matrixscale.matrix_rho_prefixes"),
        "matrixscale.matrix_regularize.s": busy("matrixscale.matrix_regularize"),
        "matrixscale.matrix_update.s": busy("matrixscale.matrix_update"),
        "matrixscale.column_sums.s": busy("matrixscale.column_sums"),
        "matrixscale.neighborhood.s": busy("matrixscale.neighborhood"),
        "cli.verify.s": busy("cli.verify"),
        "cli.verify.calls": calls("cli.verify"),
        "rational.rational_rank.s": busy("rational.rational_rank"),
        "io.s": float(a["duration_s"][(layer_of == "io") & (kinds == "verify")].sum()),
        "perceptron.improved_perceptron.s": busy("perceptron.improved_perceptron"),
        "perceptron.margin_fraction.s": busy("perceptron.margin_fraction"),
        "perceptron.updates": calls("perceptron.update_vector"),
    }
    for layer in spans.LAYERS:
        m[f"{layer}.spans"] = int((layer_of == layer).sum())

    # Self times of each solve's spans must add up to its measured wall time.
    solve_groups = [g for g, k in enumerate(tracer.group_kind) if k == "solve"]
    self_sum = np.bincount(a["group"], weights=a["self_s"], minlength=len(tracer.group_kind))
    excess = max(abs(self_sum[g] - x.time.raw) - SELF_SUM_TOL * x.time.raw
                 for g, x in zip(solve_groups, traced))
    detail = {
        "self_sum_worst_excess_s": excess,
        "self_sum_ok": bool(excess <= SELF_SUM_ABS_S),
        "negative_self_spans": int((a["self_s"] < -1e-6).sum()),
        "untraced_us_per_iter": us_per_iter(untraced),
        "traced_us_per_iter": us_per_iter(traced),
        "bases": {
            "linalg.qr_per_iter": f"{qr} QR calls / {iters} iterations",
            "linalg.cholesky_per_iter": f"{chol} Cholesky factorizations / {iters} iterations",
            "update.seeded_frac": f"{seeded} seeded / {returns} compute_update returns",
            "update.nd_steps_per_iter": f"{nd_steps} Newton steps / {iters} iterations",
            "regularize.rho_cache_hit_ratio": f"{lookups - misses} hits / {lookups} lookups",
        },
    }
    return m, detail


def metric_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def passes_for(args) -> int:
    return max(1, math.floor(args.seconds / NOMINAL_PASS_S[args.workload]))


def import_times(clock) -> list:
    """Wall time of importing framescale in a fresh interpreter, IMPORT_REPEATS times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import framescale.cli"], env=env, check=True,
                       capture_output=True, timeout=120)
        samples.append(clock.sample(time.perf_counter() - t0))
    return samples


def measure(args, runner, verifier, setup_s) -> dict:
    import spans

    spans.assert_pristine()
    attempts = []
    for _ in range(passes_for(args)):
        attempts.extend(runner.run_pass(verifier=verifier, repeats=VERIFY_REPEATS))
    runner.clock.finish()
    metrics, detail = end_to_end(runner, attempts, setup_s())
    detail["passes"] = passes_for(args)
    report = summarize(runner, attempts, negative_controls(runner, verifier, attempts))
    report.update({"metrics": metrics, "detail": detail})
    return report


def measure_traced(args, runner, verifier, spans, run_id) -> dict:
    spans.assert_pristine()
    untraced = runner.run_pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(tracer, verifier, repeats=1)
    finally:
        tracer.restore()
    runner.clock.finish()
    metrics, detail = per_layer(tracer, traced, untraced)
    tracer.write(str(OUT / f"spans-{run_id}.npz"))
    report = summarize(runner, untraced + traced, negative_controls(runner, verifier, traced))
    report["correct"] = bool(report["correct"] and detail["self_sum_ok"]
                             and detail["negative_self_spans"] == 0)
    report.update({"metrics": metrics, "detail": detail})
    return report


def run_workload(args) -> int:
    try:
        import_framescale()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import check
    import spans
    import speed

    clock = speed.SpeedClock()
    imports = import_times(clock)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    runner = Runner(args.workload, args.seed, args.fuzz_max_iters, clock)
    setup_times = runner.setup()

    def setup_s():
        return (statistics.median(s.normalized for s in imports)
                + statistics.median(s.normalized for s in setup_times))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{run_id}-{os.getpid()}"
    verifier = check.Verifier(str(workdir), runner.workloads.EPS)
    try:
        for inst in runner.instances:
            verifier.write_instance(inst)
        if args.trace == 0:
            report = measure(args, runner, verifier, setup_s)
        else:
            report = measure_traced(args, runner, verifier, spans, run_id)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(args.trace)
    if set(units) != set(report["metrics"]):
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(report['metrics']))}")
    report.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "skipped": runner.skipped,
                   "import_s_raw": [s.raw for s in imports],
                   "setup_repeats_s_raw": [s.raw for s in setup_times]})
    for line in runner.skipped:
        print("skip " + line)
    for line in report["errors"]:
        print(line)
    for line in runner.demo_failures:
        print("perceptron-demo-failure " + line)
    for w in report["wrong"]:
        print(("verify-rejected " if w["own_check"] else "wrong ") + json.dumps(w))
    print("negative-controls " + json.dumps(report["controls"]))
    for k, v in report["detail"].items():
        if k != "bases":
            print(f"detail {k} = {v}")
    for k, v in report["detail"].get("bases", {}).items():
        print(f"base {k}: {v}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": report["metrics"][name], "unit": unit}
        print(f"metric {name} = {report['metrics'][name]:.6g} {unit}")
    (OUT / f"{run_id}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def self_check() -> int:
    """Reproduce the deterministic ROADMAP iteration counts."""
    try:
        import_framescale()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import framescale as fs
    from framescale.generate import gen_bipartite, gen_gaussian

    print("env " + json.dumps(environment(), sort_keys=True))
    ok = True
    for label, problem, gen_args, eps, expected in BASELINES:
        if problem == "frame":
            U, c = gen_gaussian(*gen_args)
            res = fs.scale_frame(fs.Frame(U), fs.Marginals(c, d=U.shape[0]), eps)
        else:
            A, r, c = gen_bipartite(*gen_args)
            res = fs.scale_matrix(fs.NonnegMatrix(A), fs.MatrixMarginals(r, c), eps)
        good = res.scaled and res.iterations == expected
        ok = ok and good
        print(f"baseline {label}: {res.status} in {res.iterations} iterations "
              f"(expected {expected}) {'ok' if good else 'DRIFTED'}")
    print(json.dumps({"self_check": "pass" if ok else "fail"}))
    return 0 if ok else 1


def run_all(args) -> int:
    """Run every workload in its own process and print all metrics with units."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--fuzz-max-iters", str(args.fuzz_max_iters)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"   {metric:40s} {mv['value']:.6g} {mv['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
