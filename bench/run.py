#!/usr/bin/env python3
"""Benchmark of eiftools through its command-line entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It benchmarks the checkout it sits in (``src/eiftools``). One workload runs
per process, in a closed loop: one caller, and each ``eiftools.cli.main``
call starts after the previous one returns. Inputs are made from ``--seed``.
The first call is an untimed check call; every later call must write the
same bytes. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run
that alternates untraced and traced calls. Exit code 0 means every check
passed, 1 that a check failed, 2 that the program is missing.

Workloads, sizes and the reasons for them are in ``bench/workloads.json``;
reference values at the recorded seeds are in ``bench/reference.json``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS keeps timings steady on a small shared machine; the
# GLM designs here have at most ten columns. Set before numpy loads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_VARS})

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
META = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))

POINT_ESTIMATORS = ("gcomp", "one_step", "tmle_covariate_linear",
                    "tmle_weighted_linear", "tmle_weighted_logistic")
LONG_ESTIMATORS = ("one_step_long", "tmle_long_covariate_linear",
                   "tmle_long_weighted_linear", "tmle_long_weighted_logistic")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class ProgramMissing(Exception):
    """The checkout has no importable eiftools package."""


def workload_spec(name: str, tiny: bool = False) -> dict:
    """The workload's sizes and flags; ``tiny`` applies its small sizes."""
    spec = {k: v for k, v in META["workloads"][name].items() if k != "tiny"}
    if tiny:
        spec.update(META["workloads"][name]["tiny"])
    return spec


def import_cli():
    """eiftools.cli imported from this checkout's ``src``."""
    if not (SRC / "eiftools" / "cli.py").is_file():
        raise ProgramMissing(f"no eiftools package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("eiftools.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"eiftools was imported from {cli.__file__}, "
                             f"not from {SRC}")
    return cli


def write_point_csv(path: Path, rows: int, seed: int):
    """Three U(0,1) covariates, binary treatment and binary outcome."""
    import numpy as np
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (rows, 3))
    p_untreated = 1.0 / (1.0 + np.exp(
        -(0.3 + 0.9 * x[:, 0] - 0.8 * x[:, 1] + 0.3 * x[:, 2])))
    a = (rng.random(rows) >= p_untreated).astype(float)
    eta_y = -0.6 + x[:, 0] + 0.5 * x[:, 1] - 0.8 * x[:, 2] + 0.7 * a
    y = (rng.random(rows) < 1.0 / (1.0 + np.exp(-eta_y))).astype(float)
    table = np.column_stack([x, a, y]).tolist()
    lines = ["x1,x2,x3,a,y"] + [",".join(map(repr, row)) for row in table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def setup_round(name: str, seed: int, workdir: str, tiny: bool) -> float:
    """Seconds to import eiftools.cli and generate the workload's inputs."""
    t0 = time.perf_counter()
    import_cli()
    spec = workload_spec(name, tiny)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    if spec["command"] == "estimate":
        write_point_csv(Path(workdir) / "data.csv", spec["rows"], seed)
    return time.perf_counter() - t0


def setup_in_child(name: str, seed: int, workdir: Path, tiny: bool) -> float:
    """One setup round in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"print(run.setup_round({name!r}, {seed}, {str(workdir)!r}, "
            f"{tiny}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup round failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


@dataclass
class Context:
    """One workload, prepared: inputs on disk and the CLI arguments."""

    name: str
    spec: dict
    seed: int
    workdir: Path
    cli: object
    argv: List[str]
    units: int
    estimators: Sequence[str]
    bounds: tuple
    setup_times: List[float]

    @property
    def outputs(self) -> List[Path]:
        out = self.workdir / "out.json"
        if self.spec["command"] == "simulate":
            return [out, out.with_suffix(".csv")]
        return [out]


def prepare(name: str, seed: int, tiny: bool = False,
            rounds: Optional[int] = None) -> Context:
    """Set up ``rounds`` times; this process is the first round."""
    spec = workload_spec(name, tiny)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    if rounds is None:
        rounds = META["tiny" if tiny else "full"]["setup_rounds"]
    try:
        times = [setup_round(name, seed, str(workdir), tiny)]
        for k in range(rounds - 1):
            scratch = workdir / f"setup-{k}"
            times.append(setup_in_child(name, seed, scratch, tiny))
            shutil.rmtree(scratch)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    cli = import_cli()

    learner = spec["learner"]
    common = ["--outcome-learner", learner, "--propensity-learner", learner,
              "--estimators", "all", "--seed", str(seed),
              "--out", str(workdir / "out.json")]
    if spec["folds"] is not None:
        common += ["--folds", str(spec["folds"])]
    if spec["command"] == "estimate":
        argv = ["estimate", "--data", str(workdir / "data.csv"), *common]
        outcome = [float(line.rsplit(",", 1)[1]) for line in
                   (workdir / "data.csv").read_text().splitlines()[1:]]
        return Context(name, spec, seed, workdir, cli, argv, 1,
                       POINT_ESTIMATORS, (min(outcome), max(outcome)), times)
    config = json.loads((ROOT / spec["config"]).read_text(encoding="utf-8"))
    argv = ["simulate", "--config", str(ROOT / spec["config"]),
            "--n", str(spec["n"]), "--replications", str(spec["replications"]),
            "--truth-method", spec["truth_method"], *common]
    if spec["mc_draws"] is not None:
        argv += ["--mc-draws", str(spec["mc_draws"])]
    estimators = POINT_ESTIMATORS if config["design"] == "point" \
        else LONG_ESTIMATORS
    bounds = (0.0, 1.0) if config["outcome"]["kind"] == "binary" \
        else tuple(config["y_bounds"])
    return Context(name, spec, seed, workdir, cli, argv,
                   spec["replications"], estimators, bounds, times)


def call(ctx: Context) -> int:
    """One closed-loop call; any exception counts as a failed call."""
    try:
        return ctx.cli.main(ctx.argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the loop must go on and report the failure
        traceback.print_exc(file=sys.stderr)
        return -1


def tally(ctx: Context, rc: int) -> tuple:
    """(attempted, failed) estimator results of one call."""
    attempted = ctx.units * len(ctx.estimators)
    if rc != 0:
        return attempted, attempted
    if ctx.spec["command"] == "estimate":
        return attempted, 0
    rows = checks.read_rows(ctx.outputs[1].read_text(encoding="utf-8"))
    return attempted, sum(1 for r in rows if r["error"])


def check_call(ctx: Context, reference: Optional[dict]) -> tuple:
    """The untimed first call, checked in full.

    Returns (exit code, output bytes, problems, reference values).
    """
    capture = checks.CertificateCapture()
    problems = [f"cannot read TMLE certificates: {name} is missing"
                for name in capture.install()]
    try:
        rc = call(ctx)
    finally:
        capture.uninstall()
    if rc != 0:
        return rc, [], problems + [f"check call exited {rc}"], {}
    outputs = [p.read_bytes() for p in ctx.outputs]
    out = json.loads(outputs[0])
    tol = META["certificate_tolerance"]
    n = ctx.spec["rows" if ctx.spec["command"] == "estimate" else "n"]
    if out.get("n") != n:
        problems.append(f"output reports n={out.get('n')}, expected {n}")
    if ctx.spec["command"] == "estimate":
        problems += checks.estimate_problems(out, ctx.estimators, ctx.bounds,
                                             tol)
    else:
        rows = checks.read_rows(outputs[1].decode("utf-8"))
        problems += checks.simulate_problems(out, rows, ctx.estimators,
                                             ctx.units, ctx.bounds)
    certs = capture.diagnostics
    if ctx.spec["command"] == "estimate":
        expected = sum(n.startswith("tmle") for n in ctx.estimators)
    else:
        expected = sum(r["estimator"].startswith("tmle") and not r["error"]
                       for r in rows)
    if len(certs) != expected:
        problems.append(f"captured {len(certs)} TMLE certificates, "
                        f"expected {expected}")
    problems += checks.certificate_problems(certs, tol, ctx.bounds)
    values = checks.reference_values(ctx.spec["command"], out)
    problems += checks.reference_problems(values, reference,
                                          META["reference_tolerance"])
    return rc, outputs, problems, values


def reference_entry(name: str, seed: int, tiny: bool = False) -> dict:
    """Check-call values to store as the reference for (name, seed)."""
    ctx = prepare(name, seed, tiny, rounds=1)
    try:
        rc, _, problems, values = check_call(ctx, None)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    if rc != 0 or problems:
        raise RuntimeError(f"{name} seed {seed}: {problems}")
    return {"spec": ctx.spec, "values": values}


def find_reference(path: Path, ctx: Context) -> Optional[dict]:
    """Stored values for this workload, seed and sizes, if any."""
    if not path.is_file():
        return None
    entry = json.loads(path.read_text(encoding="utf-8")).get(
        ctx.name, {}).get(str(ctx.seed))
    if entry is None or entry["spec"] != ctx.spec:
        return None
    return entry["values"]


def tail(samples: Sequence[float]) -> str:
    """Median, count and the highest percentile with >= 10 samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} over {n} samples"
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            rank = max(1, math.ceil(p / 100.0 * n))
            return text + f", p{p:g} {ordered[rank - 1]:.6g}"
    return text + " (fewer than 20 samples: no percentile above the median " \
                  "has 10 beyond it)"


def run_metadata(ctx: Context, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "workload": ctx.name, "seed": ctx.seed, "seconds": seconds,
        "trace": int(trace), "commit": commit,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": openblas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": ctx.spec,
        "argv": [str(Path(a).relative_to(ROOT)) if a.startswith(str(ROOT))
                 else a for a in ctx.argv],
        "why": next(w["why"] for w in json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
            if w["name"] == ctx.name),
    }


def measure(ctx: Context, seconds: float, trace: bool, expected: list,
            min_calls: int) -> dict:
    """The closed loop; with ``trace`` every second call is traced."""
    plain: List[float] = []
    traced: List[float] = []
    totals: List[Dict[str, float]] = []
    first_spans: Optional[list] = None
    absent: List[str] = []
    problems: List[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        tr = tracer.Tracer() if trace and len(traced) < len(plain) else None
        if tr is not None:
            tr.install()
        t0 = time.perf_counter()
        rc = call(ctx)
        dt = time.perf_counter() - t0
        if tr is not None:
            tr.uninstall()
            traced.append(dt)
            totals.append(tracer.layer_totals(tr.spans, tr.absent))
            absent = sorted(set(tr.absent))
            if first_spans is None:
                first_spans = tr.spans
        else:
            plain.append(dt)
        a, f = tally(ctx, rc)
        attempted += a
        failed += f
        if rc != 0:
            problems.append(f"call {len(plain) + len(traced)} exited {rc}")
        elif [p.read_bytes() for p in ctx.outputs] != expected:
            problems.append(f"call {len(plain) + len(traced)} wrote other "
                            "output than the check call")
        if (time.perf_counter() >= deadline and len(plain) >= min_calls
                and (not trace or len(traced) >= min_calls)):
            break
    return {"plain": plain, "traced": traced, "totals": totals,
            "spans": first_spans or [], "absent": absent,
            "problems": problems, "attempted": attempted, "failed": failed}


def end_to_end(ctx: Context, m: dict) -> Dict[str, dict]:
    per_unit = [dt / ctx.units for dt in m["plain"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"estimate_s: {tail(per_unit)}")
    print(f"setup_s: {tail(ctx.setup_times)}")
    return {
        "estimate_s": {"value": statistics.median(per_unit), "unit": "s"},
        "replicates_per_s": {
            "value": ctx.units * len(m["plain"]) / sum(m["plain"]),
            "unit": "1/s"},
        "setup_s": {"value": statistics.median(ctx.setup_times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(ctx: Context, m: dict) -> tuple:
    """(metrics, problems) from the traced calls."""
    problems = []
    metrics: Dict[str, dict] = {}
    units = dict((name, unit) for name, unit, _, _ in tracer.METRICS)
    for name, unit in units.items():
        values = [t[name] for t in m["totals"] if name in t]
        if len(values) != len(m["totals"]):
            continue
        if name in tracer.EXACT_COUNTS and len(set(values)) != 1:
            problems.append(f"{name} differs between traced calls: {values}")
        scale = 1.0 if unit == "ratio" else float(ctx.units)
        metrics[name] = {"value": statistics.median(values) / scale,
                         "unit": unit}
    overhead = statistics.median(m["traced"]) / statistics.median(m["plain"])
    metrics["trace.overhead_frac"] = {"value": overhead - 1.0, "unit": "frac"}
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"absent per-layer metrics: {missing} "
              f"(missing program names: {m['absent']})")
    print(f"traced calls: {len(m['traced'])}, untraced calls: "
          f"{len(m['plain'])}; per-layer values are medians over traced "
          f"calls, per {'replicate' if ctx.units > 1 else 'call'}")
    return metrics, problems


def write_trace(ctx: Context, m: dict):
    """The first traced call's spans and every traced call's totals."""
    path = OUT / f"trace-{ctx.name}-seed{ctx.seed}.json"
    path.write_text(json.dumps({
        "workload": ctx.name, "seed": ctx.seed, "units_per_call": ctx.units,
        "span_fields": ["name", "start_s", "end_s", "parent", "count"],
        "spans": m["spans"], "absent": m["absent"],
        "per_call_totals": m["totals"],
    }), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


def run(name: str, seed: int, seconds: int, trace: bool,
        reference_path: Path, tiny: bool = False) -> int:
    """One benchmark run; prints the result line and returns the exit code."""
    try:
        ctx = prepare(name, seed, tiny)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps({"run": run_metadata(ctx, seconds, trace)}))
        reference = find_reference(reference_path, ctx)
        rc, expected, problems, _ = check_call(ctx, reference)
        print(f"reference: {'compared' if reference else 'none stored'} for "
              f"seed {seed} at these sizes")
        attempted, failed = tally(ctx, rc)
        metrics: Dict[str, dict] = {}
        if rc == 0:
            min_calls = META["tiny" if tiny else "full"]["min_calls"]
            m = measure(ctx, seconds, trace, expected, min_calls)
            problems += m["problems"]
            attempted += m["attempted"]
            failed += m["failed"]
            if trace:
                metrics, count_problems = per_layer(ctx, m)
                problems += count_problems
                write_trace(ctx, m)
            else:
                metrics = end_to_end(ctx, m)
        print(f"failed_frac: {failed / attempted:.6g} ({failed} of "
              f"{attempted} estimator results failed)")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(META["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace),
               BENCH / "reference.json")


if __name__ == "__main__":
    sys.exit(main())
