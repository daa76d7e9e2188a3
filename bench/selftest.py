#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny sizes.

    python3 bench/selftest.py

Checks self-time and absent-name handling of the tracer on synthetic
spans. Runs every workload of BENCHMARK.json untraced and traced at its tiny
sizes and checks that the result line has the contract's keys, that every
metric BENCHMARK.json names is printed with its unit, and that the checks
pass. It then stores a reference for two tiny workloads and checks that a
run passes against it and fails against a copy with one value moved by
1e-9. Exits 0 when all of that holds. Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import numbers
import sys
import tempfile
from pathlib import Path

import run
import tracer

KEYS = {"correct", "attempted", "failed", "metrics"}


def tiny_run(name: str, trace: bool, reference: Path) -> tuple:
    """(exit code, result line, stderr) of one tiny run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.run(name, 0, 1, trace, reference, tiny=True)
    return code, json.loads(out.getvalue().strip().splitlines()[-1]), \
        err.getvalue()


def result_problems(result: dict, expected: dict) -> list:
    problems = []
    if set(result) != KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1 and result.get("failed") == 0):
        problems.append(f"attempted {result.get('attempted')}, "
                        f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    units = {name: m.get("unit") for name, m in metrics.items()}
    if units != expected:
        problems.append(f"metrics/units {units}, expected {expected}")
    for name, m in metrics.items():
        if not isinstance(m.get("value"), numbers.Real):
            problems.append(f"{name} value {m.get('value')!r}")
    return problems


def tracer_problems() -> list:
    """Self time from nested spans, and absent names, on synthetic spans."""
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["nuisance.crossfit", 1.0, 9.0, 0, 200],
             ["nuisance.knn_predict", 2.0, 3.0, 1, 600],
             ["nuisance.knn_predict", 4.0, 6.0, 1, 400]]
    want = {"cli.self_s": 2.0, "nuisance.crossfit_self_s": 5.0,
            "nuisance.fit_s": 8.0, "nuisance.knn_predict_s": 3.0,
            "nuisance.knn_predict_rows": 1000.0,
            "nuisance.predict_rows_per_row": 5.0}
    got = tracer.layer_totals(spans)
    problems = [f"{k} = {got.get(k)}, expected {v}"
                for k, v in want.items() if got.get(k) != v]
    rebinder = tracer.Rebinder()
    if rebinder.wrap("eiftools.nuisance", "_KnnPredictor.gone", lambda f: f):
        problems.append("a missing name was wrapped")
    gone = tracer.layer_totals(
        spans, ["eiftools.nuisance._KnnPredictor.predict"])
    for k in ("nuisance.knn_predict_s", "nuisance.predict_rows_per_row"):
        if k in gone:
            problems.append(f"{k} reported although its name is absent")
    return [f"tracer: {p}" for p in problems]


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = tracer_problems()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        none = Path(tmp) / "none.json"
        for w in bench["workloads"]:
            for trace in (False, True):
                code, result, err = tiny_run(w["name"], trace, none)
                problems = result_problems(result, expected[trace])
                if code != 0:
                    problems.append(f"exit code {code}: {err}")
                failures += [f"{w['name']} trace={int(trace)}: {p}"
                             for p in problems]

        for name in ("sim_point_small", "estimate_knn_cf"):
            entry = run.reference_entry(name, 0, tiny=True)
            good = Path(tmp) / f"{name}-good.json"
            good.write_text(json.dumps({name: {"0": entry}}))
            code, result, err = tiny_run(name, False, good)
            if code != 0 or result["correct"] is not True:
                failures.append(f"{name}: fails against its own reference: "
                                f"{err}")

            wrong = copy.deepcopy(entry)
            key = sorted(wrong["values"])[0]
            wrong["values"][key] += 1e-9 * max(1.0, abs(wrong["values"][key]))
            bad = Path(tmp) / f"{name}-bad.json"
            bad.write_text(json.dumps({name: {"0": wrong}}))
            code, result, err = tiny_run(name, False, bad)
            if code != 1 or result["correct"] is not False \
                    or "reference mismatch" not in err:
                failures.append(f"{name}: passes against a wrong reference "
                                f"({key} moved by 1e-9)")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
