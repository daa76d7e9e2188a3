"""End-to-end tests for the command line interface.

Each test drives ``eiftools.cli.main`` in process and checks exit codes,
output schemas, and byte-level determinism of the written files.
"""

import csv
import io
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from eiftools.cli import main

from helpers import random_point_dataset

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
BENCH_INPUTS = pathlib.Path(__file__).parent.parent / "bench" / "inputs"

POINT_NAMES = ("gcomp", "one_step", "tmle_covariate_linear",
               "tmle_weighted_linear", "tmle_weighted_logistic")
LONG_NAMES = ("one_step_long", "tmle_long_covariate_linear",
              "tmle_long_weighted_linear", "tmle_long_weighted_logistic")


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_saturated_fixture(tmp_path):
    # one binary covariate with both arms in each stratum: every estimator
    # must return the nonparametric stratified value, here exactly 0.5
    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--data", FIXTURES / "saturated_4row.csv",
                    "--out", out])
    assert code == 0
    payload = read_json(out)
    assert payload["schema_version"] == 1
    assert payload["design"] == "point"
    assert payload["n"] == 4
    names = [row["estimator"] for row in payload["estimates"]]
    assert names == list(POINT_NAMES)
    for row in payload["estimates"]:
        assert row["psi_hat"] == pytest.approx(0.5, abs=1e-10)
        assert row["ci95"][0] <= row["psi_hat"] <= row["ci95"][1]
        assert row["se"] >= 0.0


def test_estimate_constant_outcome(tmp_path):
    # constant outcome: the logistic-targeting bounds have zero width, and
    # the estimator reports the constant with a zero-width interval
    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--data", FIXTURES / "constant_y.csv",
                    "--estimators", "tmle_weighted_logistic", "--out", out])
    assert code == 0
    (row,) = read_json(out)["estimates"]
    assert row["estimator"] == "tmle_weighted_logistic"
    assert row["psi_hat"] == 2.5
    assert row["se"] == 0.0
    assert row["ci95"] == [2.5, 2.5]
    assert row["diagnostics"]["score_residual"] == 0.0
    assert row["diagnostics"]["targeted_pred_min"] == 2.5
    assert row["diagnostics"]["targeted_pred_max"] == 2.5


@pytest.mark.parametrize("config", ["dgp_constant_point.json",
                                    "dgp_constant_long.json"])
@pytest.mark.parametrize("folds", [[], ["--folds", "2"]])
def test_constant_outcome_simulate_and_estimate_agree(tmp_path, config,
                                                      folds):
    # Every outcome is 2.5: simulate records no failed replicate, and
    # estimate on replicate 0's draw gives each logistic estimator the
    # values of replicate 0's row, bit for bit.
    seed = 6
    out, draw = tmp_path / "r.json", tmp_path / "draw.csv"
    assert run_cli(["simulate", "--config", FIXTURES / config, "--n", "200",
                    "--replications", "3", "--seed", seed, *folds,
                    "--out", out, "--emit-data", draw]) == 0
    report = read_json(out)
    for summary in report["estimators"]:
        assert (summary["n_success"], summary["n_failed"]) == (3, 0)
    rows = {row["estimator"]: row
            for row in csv.DictReader(io.StringIO(
                (tmp_path / "r.csv").read_text(encoding="utf-8")))
            if row["replicate"] == "0"}

    # Replicate 0's fold seed, as run_experiment derives it.
    fold_seed = int(np.random.SeedSequence(
        seed, spawn_key=(0, 1)).generate_state(1)[0])
    est_out = tmp_path / "est.json"
    assert run_cli(["estimate", "--data", draw, "--design", report["design"],
                    *folds, "--seed", fold_seed, "--out", est_out]) == 0
    (e,) = [e for e in read_json(est_out)["estimates"]
            if e["estimator"].endswith("_weighted_logistic")]
    row = rows[e["estimator"]]
    assert row["error"] == ""
    assert [e["psi_hat"], e["se"], *e["ci95"]] == [
        float(row[k]) for k in ("psi_hat", "se", "ci_lo", "ci_hi")]


def test_estimate_separation_exits_3(tmp_path):
    # treatment perfectly separated by a near-degenerate covariate: the
    # propensity fit cannot converge and the run must fail loudly
    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--data", FIXTURES / "separation.csv",
                    "--out", out])
    assert code == 3
    payload = read_json(out)
    assert payload["error"]["type"] == "SeparationError"
    assert payload["error"]["message"]


def test_simulate_memory_error_exits_3(capsys):
    # numpy refuses one 745 GiB array at once, so nothing is allocated.
    # Never try a size that could be allocated.
    code = run_cli(["simulate", "--config", FIXTURES / "dgp_binary.json",
                    "--n", "100000000000", "--replications", "2",
                    "--seed", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "MemoryError"
    assert error["message"].startswith("Unable to allocate")


@pytest.mark.parametrize("seed", ["0", "2"])
def test_estimate_degenerate_fold_exits_3(tmp_path, seed):
    # one untreated row: under seed 0 a fold complement has none at all
    path = tmp_path / "data.csv"
    path.write_text("w,a,y\n0,0,1\n1,1,2\n2,1,3\n3,1,4\n", encoding="utf-8")
    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--data", path, "--folds", "2", "--seed",
                    seed, "--out", out])
    assert code == 3
    error = read_json(out)["error"]
    assert error["type"] == "FoldDegeneracyError"
    assert error["message"].startswith("fold 0: need at least 2 untreated")


@pytest.mark.parametrize("learner, error", [
    ("glm_with_basis:degree=2", "NuisanceError"),
    ("glm_main_terms", "SingularDesignError"),
    ("k_nearest_neighbors:k=3", "NuisanceError"),
])
def test_estimate_overflowing_covariate_exits_3(tmp_path, learner, error):
    # w = 1e200 on a treated row: its square overflows the outcome model's
    # basis, which the model matrix check sees on all rows although the
    # outcome fit never uses that row; with main terms the propensity
    # fit's information matrix overflows instead. A kNN outcome model
    # trains on the untreated rows, so the treated row lies too many of
    # their standard deviations away for a finite distance. Either way
    # the JSON payload is the only output: no numpy warning reaches
    # stderr.
    rng = np.random.default_rng(4)
    w = rng.normal(size=40)
    a = (np.arange(40) % 3 == 0).astype(float)
    w[3] = 1e200
    path = tmp_path / "data.csv"
    path.write_text("w,a,y\n" + "".join(
        f"{float(wi)!r},{float(ai)!r},{float(yi)!r}\n"
        for wi, ai, yi in zip(w, a, rng.normal(size=40))), encoding="utf-8")
    out = tmp_path / "est.json"
    proc = subprocess.run(
        [sys.executable, "-m", "eiftools.cli", "estimate", "--data",
         str(path), "--outcome-learner", learner, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == ""
    payload = read_json(out)["error"]
    assert payload["type"] == error
    if error == "NuisanceError":
        assert payload["message"].startswith(learner)


def test_overflowing_held_out_prediction_raises_no_warning(tmp_path):
    # w1 = 1e308 on the first A0 = 1 row: the g1 model never fits that
    # row, but its prediction there overflows the linear predictor. A
    # logit prediction of +-inf is 0 or 1 before the clip, so every
    # estimate stands, with no RuntimeWarning (an error under the test
    # settings).
    rng = np.random.default_rng(0)
    w0 = rng.random(80)
    a0 = rng.random(80) < 0.4
    w1 = rng.random(80)
    a1 = (rng.random(80) < 0.3) & (a0 == 0)
    a1[a0 == 1] = rng.random(int(a0.sum())) < 0.5
    y = rng.random(80)
    w1[np.flatnonzero(a0)[0]] = 1e308
    path = tmp_path / "long.csv"
    path.write_text("w0_w0,a0,w1_w1,a1,y\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n"
        for row in zip(w0, a0, w1, a1, y)), encoding="utf-8")
    out = tmp_path / "est.json"
    assert run_cli(["estimate", "--design", "longitudinal", "--folds", "2",
                    "--data", path, "--out", out]) == 0
    estimates = read_json(out)["estimates"]
    assert [e["estimator"] for e in estimates] == list(LONG_NAMES)
    assert all(np.isfinite(e["psi_hat"]) for e in estimates)


def test_estimate_estimator_failure_exits_3(tmp_path, monkeypatch):
    # The nuisance fits succeed and an estimator fails: main maps the
    # estimator's error to exit 3 with its payload, on either design.
    from eiftools import estimators, longitudinal
    from eiftools.glm import SeparationError
    from eiftools.nuisance import FoldDegeneracyError

    long_csv = tmp_path / "long.csv"
    assert run_cli(["simulate", "--config", FIXTURES / "dgp_long.json",
                    "--n", "200", "--replications", "2", "--seed", "1",
                    "--estimators", "one_step_long",
                    "--out", tmp_path / "sim.json",
                    "--emit-data", long_csv]) == 0

    def tmle(*args, **kwargs):
        raise SeparationError("targeting failed")

    def tmle_long(*args, **kwargs):
        raise FoldDegeneracyError("fold 1: targeting failed")

    monkeypatch.setattr(estimators, "tmle", tmle)
    monkeypatch.setattr(longitudinal, "tmle_long", tmle_long)
    out = tmp_path / "est.json"
    for argv, error, message in (
            (["--data", FIXTURES / "saturated_4row.csv"],
             "SeparationError", "targeting failed"),
            (["--data", long_csv, "--design", "longitudinal",
              "--folds", "2", "--seed", "1"],
             "FoldDegeneracyError", "fold 1: targeting failed")):
        assert run_cli(["estimate", *argv, "--out", out]) == 3
        assert read_json(out) == {"schema_version": 1, "error": {
            "type": error, "message": message}}


@pytest.mark.parametrize("learner, key", [
    ("k_nearest_neighbors:k=5,k=6", "k"),
    ("glm_with_basis:degree=2,degree=3", "degree"),
])
def test_learner_option_given_twice_exits_2(tmp_path, learner, key):
    out = tmp_path / "est.json"
    assert run_cli(["estimate", "--data", FIXTURES / "saturated_4row.csv",
                    "--outcome-learner", learner, "--out", out]) == 2
    assert read_json(out) == {"schema_version": 1, "error": {
        "type": "UsageError",
        "message": f"--outcome-learner: learner option '{key}' given twice"}}


def test_estimate_determinism(tmp_path):
    rng = np.random.default_rng(31)
    n = 60
    w = rng.normal(size=n)
    a = (rng.random(n) < 0.5).astype(float)
    y = 1.0 + 0.5 * w - 0.3 * a + rng.normal(size=n)
    path = tmp_path / "data.csv"
    lines = ["w,a,y"] + [f"{float(w[i])!r},{float(a[i])!r},{float(y[i])!r}"
                         for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    for out in (out1, out2):
        code = run_cli(["estimate", "--data", path, "--folds", "3",
                        "--seed", "7", "--out", out])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_custom_columns_and_restrictions(tmp_path):
    path = tmp_path / "renamed.csv"
    path.write_text("x1,x2,treat,resp\n"
                    "0.0,1.0,0.0,1.0\n0.0,0.0,1.0,0.0\n"
                    "1.0,0.5,0.0,2.0\n1.0,0.2,1.0,1.0\n"
                    "0.5,0.1,0.0,1.5\n", encoding="utf-8")
    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--data", path, "--treatment-col", "treat",
                    "--outcome-col", "resp", "--estimators", "gcomp",
                    "--outcome-covariates", "x1",
                    "--propensity-covariates", "x1", "--out", out])
    assert code == 0
    (row,) = read_json(out)["estimates"]
    assert row["estimator"] == "gcomp"
    assert np.isfinite(row["psi_hat"])


def test_estimate_usage_errors_exit_2(tmp_path):
    def expect_usage(text, args=(), name="bad.csv"):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        out = tmp_path / "err.json"
        code = run_cli(["estimate", "--data", path, "--out", out, *args])
        assert code == 2
        payload = read_json(out)
        assert payload["schema_version"] == 1
        return payload["error"]

    err = expect_usage("w,y\n0.0,1.0\n1.0,2.0\n")
    assert "a" in err["message"]

    err = expect_usage("w,a,y\n0.0,0.5,1.0\n1.0,0.0,2.0\n")
    assert "0/1" in err["message"]

    err = expect_usage("w,a,y\n0.0,0.0\n")
    assert "expected 3 fields" in err["message"]

    err = expect_usage("w,a,y\n0.0,0.0,oops\n")
    assert "non-numeric" in err["message"]

    err = expect_usage("w,w,y\n0.0,0.0,1.0\n")
    assert "duplicate" in err["message"]

    err = expect_usage("w,a,y\n")
    assert "no data rows" in err["message"]

    err = expect_usage("w,a,y\n0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,1.5\n",
                       args=["--estimators", "bogus"])
    assert "bogus" in err["message"]

    err = expect_usage("w,a,y\n0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,1.5\n",
                       args=["--truncate", "0.5"])
    assert "LO,HI" in err["message"] or "truncate" in err["message"].lower()

    for folds in ("1", "0", "4"):
        err = expect_usage("w,a,y\n0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,1.5\n",
                           args=["--folds", folds])
        assert err["type"] == "UsageError"
        assert f"fold count {folds} must be in [2, 3]" in err["message"]

    good = "w,a,y\n0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,1.5\n"
    err = expect_usage(good, args=["--truncate", "0.5,0.2"])
    assert err["type"] == "UsageError"
    assert "0 < lo < hi < 1" in err["message"]

    for flag in ("--outcome-covariates", "--propensity-covariates"):
        err = expect_usage(good, args=[flag, "w,nope"])
        assert err["type"] == "UsageError"
        assert "['nope']" in err["message"]

    err = expect_usage("w0_w,a0,w1_z,a1,y\n0.0,0.0,1.0,0.0,1.0\n"
                       "1.0,0.0,0.0,0.0,2.0\n0.0,1.0,1.0,1.0,1.5\n",
                       args=["--design", "longitudinal",
                             "--outcome-covariates", "w"],
                       name="long.csv")
    assert err["type"] == "UsageError"
    assert "longitudinal design" in err["message"]

    err = expect_usage(good, args=["--outcome-learner", "glm_main_terms:k=3"])
    assert err["type"] == "UsageError"
    assert "'k'" in err["message"]

    for option in ("k=abc", "k=2.5", "degree=x"):
        key, value = option.split("=")
        kind = "k_nearest_neighbors" if key == "k" else "glm_with_basis"
        err = expect_usage(good, args=["--outcome-learner", f"{kind}:{option}"])
        assert err["type"] == "UsageError"
        assert err["message"] == (f"--outcome-learner: {key} must be an "
                                  f"integer, got {value!r}")

    # The point design's column flags are rejected on the longitudinal
    # design before the file is read (this one has no columns to read).
    for flag in ("--outcome-col", "--treatment-col"):
        err = expect_usage("not a dataset\n", name="long.csv",
                           args=["--design", "longitudinal", flag, "zzz"])
        assert err == {"type": "UsageError", "message":
                       f"{flag} applies to the point design only"}

    err = expect_usage(b"w,a,y\n0.0,0.0,1.0\n0.\xff,1.0,2.0\n")
    assert err["type"] == "UsageError"
    assert "not UTF-8" in err["message"]


def test_estimate_missing_file_exit_2(tmp_path):
    code = run_cli(["estimate", "--data", tmp_path / "absent.csv"])
    assert code == 2


@pytest.mark.parametrize("command", [
    ["estimate", "--data", FIXTURES / "saturated_4row.csv"],
    ["estimate", "--data", FIXTURES / "absent.csv"],
    ["simulate", "--config", FIXTURES / "dgp_binary.json", "--n", "50",
     "--replications", "2", "--seed", "1"],
    ["truth", "--config", FIXTURES / "dgp_binary.json"],
])
def test_unwritable_out_exits_2_with_payload_on_stdout(tmp_path, capsys,
                                                       monkeypatch, command):
    # The output path is checked before any fit, replicate or truth sum.
    import eiftools.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("the output is checked before any work")
    for work in ("fit_plan_nuisance", "run_experiment", "true_value"):
        monkeypatch.setattr(cli, work, no_work)
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "no_such_dir" / "out.json"
    for out, shown in ((missing, missing), ("", "''")):
        code = run_cli(command + ["--out", out])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        if command[2] == FIXTURES / "absent.csv":
            # The input error is the one reported, not the failed write.
            assert err["type"] == "UsageError"
            assert "cannot read" in err["message"]
        else:
            assert err["type"] == "OutputError"
            assert err["message"].startswith(f"cannot write {shown}: ")
    assert list(tmp_path.iterdir()) == []


def test_estimate_long_stray_column_exit_2(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("w0_w,a0,w1_z,a1,y,extra\n"
                    "0.0,0.0,1.0,0.0,1.0,9.0\n", encoding="utf-8")
    out = tmp_path / "err.json"
    code = run_cli(["estimate", "--data", path, "--design", "longitudinal",
                    "--out", out])
    assert code == 2
    assert "extra" in read_json(out)["error"]["message"]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_report_and_csv(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["simulate", "--config", FIXTURES / "dgp_binary.json",
                    "--n", "150", "--replications", "3", "--seed", "5",
                    "--out", out])
    assert code == 0
    report = read_json(out)
    assert report["schema_version"] == 1
    assert report["truth"]["value"] == pytest.approx(0.4, abs=1e-12)
    summaries = {s["estimator"]: s for s in report["estimators"]}
    assert set(summaries) == set(POINT_NAMES)
    for s in summaries.values():
        assert s["n_success"] + s["n_failed"] == 3

    csv_path = tmp_path / "report.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("replicate,estimator,psi_hat,se,ci_lo,ci_hi,"
                        "covered,out_of_bounds,error")
    assert len(lines) == 1 + 3 * len(POINT_NAMES)


def test_simulate_output_collisions_exit_2_before_running(tmp_path, capsys):
    # --out X.csv would have its per-replicate CSV overwrite the report,
    # and --emit-data may not reuse either file.
    base = ["simulate", "--config", FIXTURES / "dgp_binary.json", "--n", "50",
            "--replications", "2", "--seed", "1"]
    csv, rep = tmp_path / "rep.csv", tmp_path / "rep.json"
    # --emit-data is named only when it was given.
    for flags, message in (
            (["--out", csv], f"--out {csv} (per-replicate CSV {csv})"),
            (["--out", rep, "--emit-data", csv],
             f"--out {rep} (per-replicate CSV {csv}), --emit-data {csv}"),
            (["--out", rep, "--emit-data", rep],
             f"--out {rep} (per-replicate CSV {csv}), --emit-data {rep}")):
        assert run_cli(base + flags) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "OutputError"
        assert err["message"] == f"output files must differ: {message}"
    assert list(tmp_path.iterdir()) == []


def test_empty_covariate_restriction_exits_2_before_fitting(monkeypatch,
                                                            capsys):
    # An empty list would otherwise mean "every covariate".
    from eiftools import cli

    def never(*args, **kwargs):
        raise AssertionError("fitted despite an empty covariate list")

    monkeypatch.setattr(cli, "fit_plan_nuisance", never)
    monkeypatch.setattr(cli, "run_experiment", never)
    commands = (["estimate", "--data", FIXTURES / "saturated_4row.csv"],
                ["simulate", "--config", FIXTURES / "dgp_binary.json",
                 "--n", "50", "--replications", "2", "--seed", "1"])
    for command in commands:
        for flag in ("--outcome-covariates", "--propensity-covariates"):
            for value in (",", "", " , "):
                assert run_cli(command + [flag, value]) == 2
                err = json.loads(capsys.readouterr().out)["error"]
                assert err["type"] == "UsageError"
                assert err["message"] == f"{flag} is empty"


def test_simulate_unwritable_outputs_exit_2(tmp_path, capsys):
    base = ["simulate", "--config", FIXTURES / "dgp_binary.json", "--n", "50",
            "--replications", "2", "--seed", "1"]
    missing = tmp_path / "no_such_dir" / "data.csv"
    # "/" has no file name to give a .csv suffix to.
    for flags, path in ((["--out", tmp_path / "rep.json",
                          "--emit-data", missing], missing),
                        (["--out", "/"], "/")):
        assert run_cli(base + flags) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "OutputError"
        assert f"cannot write {path}" in err["message"]


def test_simulate_unwritable_output_writes_nothing(tmp_path, capsys):
    # Every output is checked before the first replicate runs, so a bad
    # --emit-data leaves no report or per-replicate CSV behind.
    base = ["simulate", "--config", FIXTURES / "dgp_binary.json", "--n", "50",
            "--replications", "2", "--seed", "1", "--out", tmp_path / "r.json"]
    (tmp_path / "taken").mkdir()
    for bad in (tmp_path / "no_such_dir" / "d.csv", tmp_path / "taken"):
        assert run_cli(base + ["--emit-data", bad]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "OutputError"
        assert f"cannot write {bad}" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_simulate_empty_output_path_exits_2_before_running(
        tmp_path, capsys, monkeypatch):
    # An empty path names no file; it fails the up-front output check
    # instead of failing after the experiment, or being skipped.
    import eiftools.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the outputs are checked before any replicate")
    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.chdir(tmp_path)
    base = ["simulate", "--config", FIXTURES / "dgp_binary.json", "--n", "50",
            "--replications", "2", "--seed", "1"]
    for flags in (["--out", ""],
                  ["--out", tmp_path / "r.json", "--emit-data", ""]):
        assert run_cli(base + flags) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "OutputError"
        assert err["message"].startswith("cannot write '': ")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["estimate", "--data", FIXTURES / "saturated_4row.csv", "--folds", "2"],
    ["simulate", "--config", FIXTURES / "dgp_binary.json", "--n", "50",
     "--replications", "2"],
    ["truth", "--config", FIXTURES / "dgp_binary.json",
     "--method", "monte_carlo"],
])
@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_bad_seed_exits_2_naming_the_flag(capsys, command, seed):
    assert run_cli(command + ["--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["type"] == "UsageError"
    assert "argument --seed: " in err["message"]


@pytest.mark.parametrize("argv, message", [
    (["estimate"], "the following arguments are required: --data"),
    (["simulate", "--config", "c.json", "--n", "abc", "--replications", "2",
      "--seed", "1"], "argument --n: invalid int value: 'abc'"),
    (["truth", "--config", "c.json", "--method", "exact"],
     "argument --method: invalid choice: 'exact'"),
    ([], "the following arguments are required: command"),
])
def test_argument_errors_print_a_payload(capsys, argv, message):
    # Argument parsing errors exit 2 with the JSON payload on stdout,
    # as every other usage error does, and nothing on stderr.
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["type"] == "UsageError"
    assert message in err["message"]


def test_simulate_determinism(tmp_path):
    outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for out in outs:
        code = run_cli(["simulate", "--config", FIXTURES / "dgp_long.json",
                        "--n", "80", "--replications", "2", "--seed", "11",
                        "--estimators", "tmle_long_weighted_logistic",
                        "--truth-method", "monte_carlo",
                        "--mc-draws", "20000", "--out", out])
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_simulate_requires_seed(capsys):
    assert run_cli(["simulate", "--config", FIXTURES / "dgp_binary.json",
                    "--n", "50", "--replications", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["type"] == "UsageError"
    assert "--seed" in err["message"]


def test_simulate_config_errors_exit_2(tmp_path):
    missing = run_cli(["simulate", "--config", tmp_path / "none.json",
                       "--n", "50", "--replications", "2", "--seed", "1"])
    assert missing == 2

    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli(["simulate", "--config", bad, "--n", "50",
                    "--replications", "2", "--seed", "1"]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({
        "design": "point",
        "covariates": [{"name": "w", "dist": "bernoulli", "p": 0.5}],
        "treatment": {"intercept": 0.0, "coefs": {"nope": 1.0}},
        "outcome": {"scale": "identity", "kind": "continuous",
                    "intercept": 0.0, "coefs": {},
                    "noise": {"kind": "normal", "sd": 1.0}},
    }), encoding="utf-8")
    out = tmp_path / "err.json"
    code = run_cli(["simulate", "--config", invalid, "--n", "50",
                    "--replications", "2", "--seed", "1", "--out", out])
    assert code == 2
    err = read_json(out)["error"]
    assert err["type"] == "DgpValidationError"
    assert err["violations"]

    # mistyped values are config errors, not tracebacks
    base = json.loads((FIXTURES / "dgp_binary.json").read_text("utf-8"))
    for path, value, message in (
            (("covariates",), 5, "covariates: expected a list"),
            (("covariates", 0, "p"), "abc", "covariates[0].p: expected a "
                                            "number"),
            (("outcome", "coefs"), [1.0], "outcome.coefs: expected an "
                                          "object")):
        config = json.loads(json.dumps(base))
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        invalid.write_text(json.dumps(config), encoding="utf-8")
        code = run_cli(["simulate", "--config", invalid, "--n", "50",
                        "--replications", "2", "--seed", "1", "--out", out])
        assert code == 2
        err = read_json(out)["error"]
        assert err["type"] == "DgpValidationError"
        assert message in err["message"]

    # fold counts outside [2, n] are usage errors, not failed replicates
    for folds in ("1", "101"):
        code = run_cli(["simulate", "--config", FIXTURES / "dgp_binary.json",
                        "--n", "100", "--replications", "2", "--seed", "1",
                        "--folds", folds, "--out", out])
        assert code == 2
        assert (f"fold count {folds} must be in [2, 100]"
                in read_json(out)["error"]["message"])

    # plan and size errors exit 2 before any replicate runs
    for args, message in (
            (["--truncate", "0.5,0.2"], "0 < lo < hi < 1"),
            (["--outcome-covariates", "nope"], "['nope']"),
            (["--propensity-covariates", "w,nope"], "['nope']"),
            (["--n", "1"], "n must be at least 2"),
            (["--truth-method", "monte_carlo", "--mc-draws", "1"],
             "mc_draws must be at least 2")):
        argv = ["simulate", "--config", FIXTURES / "dgp_binary.json",
                "--n", "50", "--replications", "2", "--seed", "1",
                "--out", out, *args]
        assert run_cli(argv) == 2
        err = read_json(out)["error"]
        assert err["type"] == "UsageError"
        assert message in err["message"]
    code = run_cli(["simulate", "--config", FIXTURES / "dgp_long.json",
                    "--n", "50", "--replications", "2", "--seed", "1",
                    "--outcome-covariates", "w0", "--out", out])
    assert code == 2
    assert "longitudinal" in read_json(out)["error"]["message"]


def test_emit_data_round_trips_into_estimate(tmp_path):
    data_csv = tmp_path / "draw.csv"
    code = run_cli(["simulate", "--config", FIXTURES / "dgp_binary.json",
                    "--n", "200", "--replications", "2", "--seed", "3",
                    "--emit-data", data_csv])
    assert code == 0
    assert data_csv.read_text(encoding="utf-8").splitlines()[0] == "w,a,y"

    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--data", data_csv, "--out", out])
    assert code == 0
    payload = read_json(out)
    assert payload["n"] == 200
    for row in payload["estimates"]:
        assert 0.0 <= row["psi_hat"] <= 1.0


# A continuous point DGP that declares its outcome bounds.
_BOUNDED_DGP = {
    "design": "point",
    "covariates": [{"name": "w", "dist": "uniform", "low": 0.0,
                    "high": 1.0}],
    "treatment": {"intercept": 0.3, "coefs": {"w": -0.6}},
    "outcome": {"scale": "identity", "kind": "continuous",
                "intercept": 2.5, "coefs": {"w": 1.0, "a": 0.5},
                "noise": {"kind": "uniform", "half_width": 0.5}},
    "y_bounds": [1, 5]}


def test_y_bounds_rescale_the_outcome_model_in_both_commands(tmp_path):
    # The README's account of --y-bounds: both commands declare it as the
    # bounds of the analysed data, so a logit outcome model rescales by
    # the flag's bounds, not the DGP's [1, 5], in simulate too.
    config = tmp_path / "dgp.json"
    config.write_text(json.dumps(_BOUNDED_DGP), encoding="utf-8")
    logit = ["--outcome-learner", "glm_main_terms:link=logit",
             "--estimators", "gcomp"]
    data_csv = tmp_path / "draw.csv"
    assert run_cli(["simulate", "--config", config, "--n", "200",
                    "--replications", "2", "--seed", "1",
                    "--truth-method", "monte_carlo", "--mc-draws", "1000",
                    "--y-bounds", "0,10", *logit, "--out", tmp_path / "r.json",
                    "--emit-data", data_csv]) == 0
    with open(tmp_path / "r.csv", encoding="utf-8", newline="") as fh:
        simulated = float(next(csv.DictReader(fh))["psi_hat"])
    estimated = {}
    for bounds in ("1,5", "0,10"):
        out = tmp_path / "est.json"
        assert run_cli(["estimate", "--data", data_csv, "--y-bounds", bounds,
                        *logit, "--out", out]) == 0
        estimated[bounds] = read_json(out)["estimates"][0]["psi_hat"]
    assert simulated == estimated["0,10"] != estimated["1,5"]


def _replicate_0_matches_estimate(tmp_path, config, flags, y_bounds,
                                  implied):
    """Run simulate with ``flags`` and ``y_bounds`` (None: no flag), then
    estimate with the same flags on replicate 0's emitted draw, given
    ``y_bounds`` or else the DGP's ``implied`` bounds, and replicate 0's
    fold seed. Asserts that each estimator's psi_hat, se and interval
    agree bit for bit, or that both commands fail with the same error
    type (a ValueError is estimate's UsageError)."""
    seed = 5
    bounds = y_bounds or implied
    sim_bounds = [f"--y-bounds={y_bounds}"] if y_bounds else []
    est_bounds = [f"--y-bounds={bounds}"] if bounds else []
    out, draw = tmp_path / "r.json", tmp_path / "draw.csv"
    assert run_cli(["simulate", "--config", config, "--n", "150",
                    "--replications", "2", "--seed", seed,
                    "--truth-method", "monte_carlo", "--mc-draws", "1000",
                    *flags, *sim_bounds, "--out", out,
                    "--emit-data", draw]) == 0
    design = read_json(out)["design"]
    with open(tmp_path / "r.csv", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["replicate"] == "0"]
    fold_seed = int(np.random.SeedSequence(
        seed, spawn_key=(0, 1)).generate_state(1)[0])

    def estimate(names):
        est_out = tmp_path / "est.json"
        code = run_cli(["estimate", "--data", draw, "--design", design,
                        "--seed", fold_seed, *flags, *est_bounds,
                        "--estimators", ",".join(names), "--out", est_out])
        return code, read_json(est_out)

    names = [row["estimator"] for row in rows]
    code, payload = estimate(names)
    for row in rows:
        if code != 0:  # one estimator's failure fails the whole command
            _, payload = estimate([row["estimator"]])
        if "error" in payload:
            want = row["error"].partition(":")[0]
            got = payload["error"]["type"]
            assert (want, got) in ((got, got), ("ValueError", "UsageError"))
            continue
        (e,) = [e for e in payload["estimates"]
                if e["estimator"] == row["estimator"]]
        assert row["error"] == ""
        assert [e["psi_hat"], e["se"], *e["ci95"]] == [
            float(row[k]) for k in ("psi_hat", "se", "ci_lo", "ci_hi")]


# simulate's replicate 0 is estimate on its draw: the fold seed, the
# block-stacked propensity solve against a single fit, and the outcome
# bounds of both commands.
@pytest.mark.parametrize("config, implied", [
    (BENCH_INPUTS / "dgp_binary.json", "0,1"),
    (FIXTURES / "dgp_adversarial_point.json", "0,1"),
    (FIXTURES / "dgp_long.json", "0,1"),
    (BENCH_INPUTS / "dgp_adversarial_long.json", "0,1"),
    (None, "1,5"),
])
@pytest.mark.parametrize("learner", ["glm_main_terms",
                                     "glm_main_terms:link=logit",
                                     "k_nearest_neighbors:k=5"])
def test_simulate_replicate_0_is_estimate_on_its_draw(tmp_path, config,
                                                      implied, learner):
    if config is None:
        config = tmp_path / "dgp.json"
        config.write_text(json.dumps(_BOUNDED_DGP), encoding="utf-8")
    learners = ["--outcome-learner", learner, "--propensity-learner",
                learner]
    for folds in ([], ["--folds", "2"]):
        for y_bounds in (None, "-1,30"):
            _replicate_0_matches_estimate(tmp_path, config,
                                          [*learners, *folds], y_bounds,
                                          implied)


def test_emit_data_round_trips_longitudinal(tmp_path):
    data_csv = tmp_path / "draw_long.csv"
    code = run_cli(["simulate", "--config", FIXTURES / "dgp_long.json",
                    "--n", "300", "--replications", "2", "--seed", "4",
                    "--estimators", "one_step_long",
                    "--emit-data", data_csv])
    assert code == 0
    header = data_csv.read_text(encoding="utf-8").splitlines()[0]
    assert header == "w0_w0,a0,w1_w1,a1,y"

    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--data", data_csv, "--design",
                    "longitudinal", "--out", out])
    assert code == 0
    payload = read_json(out)
    assert payload["design"] == "longitudinal"
    assert payload["n"] == 300
    names = [row["estimator"] for row in payload["estimates"]]
    assert names == list(LONG_NAMES)


def _estimates(tmp_path, columns, y, argv):
    """``estimate`` with ``argv`` on the CSV of ``columns`` and the outcome
    ``y``: (psi_hat, se, ci95) per estimator."""
    path = tmp_path / "moved.csv"
    columns = dict(columns, y=y)
    path.write_text(",".join(columns) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n"
        for row in zip(*columns.values())), encoding="utf-8")
    out = tmp_path / "est.json"
    assert run_cli(["estimate", "--data", path, *argv, "--out", out]) == 0
    return {e["estimator"]: (e["psi_hat"], e["se"], e["ci95"])
            for e in read_json(out)["estimates"]}


def _assert_affine_equivariant(tmp_path, columns, y, bounds, argv):
    """y -> c + s*y, with --y-bounds mapped (its ends swap when s < 0),
    maps every estimate to c + s*psi, its standard error to |s|*se and
    its CI ends alike (they swap when s < 0). Returns the estimates at
    s = 1, c = 0."""
    lo, hi = bounds
    base = _estimates(tmp_path, columns, y, [f"--y-bounds={lo!r},{hi!r}",
                                             *argv])
    for c, s in ((5.0, 1.0), (2.5, -3.7), (-1.0, 1e6), (0.0, -1e6)):
        lo_s, hi_s = sorted((c + s * lo, c + s * hi))
        moved = _estimates(tmp_path, columns, c + s * y,
                           [f"--y-bounds={lo_s!r},{hi_s!r}", *argv])
        assert moved.keys() == base.keys()
        for name, (psi, se, ci) in base.items():
            assert moved[name][0] == pytest.approx(c + s * psi, rel=1e-10)
            assert moved[name][1] == pytest.approx(abs(s) * se, rel=1e-10)
            assert moved[name][2] == pytest.approx(
                sorted(c + s * end for end in ci), rel=1e-10)
    return base


@pytest.mark.parametrize("learner", ["glm_main_terms",
                                     "glm_main_terms:link=logit",
                                     "k_nearest_neighbors:k=15"])
@pytest.mark.parametrize("folds", [[], ["--folds", "2"]])
def test_long_estimates_are_affine_equivariant(tmp_path, learner, folds):
    # The two-period counterpart of the point design's location-scale
    # test, through the command line.
    draw = tmp_path / "draw.csv"
    assert run_cli(["simulate", "--config", FIXTURES / "dgp_long.json",
                    "--n", "400", "--replications", "2", "--seed", "3",
                    "--estimators", "one_step_long",
                    "--emit-data", draw]) == 0
    with open(draw, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = {name: np.array([float(row[name]) for row in rows])
               for name in rows[0]}
    y = columns.pop("y")
    base = _assert_affine_equivariant(
        tmp_path, columns, y, (0.0, 1.0),
        ["--design", "longitudinal", "--outcome-learner", learner, *folds])
    assert sorted(base) == sorted(LONG_NAMES)


@pytest.mark.parametrize("learner", ["glm_main_terms",
                                     "glm_main_terms:link=logit",
                                     "k_nearest_neighbors:k=5"])
@pytest.mark.parametrize("folds", [[], ["--folds", "2"]])
def test_point_estimates_are_affine_equivariant(tmp_path, learner, folds):
    # The point design on a continuous outcome, through the command line.
    data = random_point_dataset(np.random.default_rng(31), n=400)
    columns = {name: data.covariate_column(name)
               for name in data.covariate_names}
    columns["a"] = data.treatment
    y = data.outcome
    bounds = (float(np.floor(y.min())) - 1.0, float(np.ceil(y.max())) + 1.0)
    base = _assert_affine_equivariant(
        tmp_path, columns, y, bounds,
        ["--outcome-learner", learner, *folds])
    assert sorted(base) == sorted(POINT_NAMES)


def _design_columns(tmp_path, design):
    """The columns and outcome of a 400-row dataset of ``design`` whose
    covariates are continuous, so that no two rows tie in distance."""
    if design == "point":
        data = random_point_dataset(np.random.default_rng(41), n=400)
        columns = {name: data.covariate_column(name)
                   for name in data.covariate_names}
        columns["a"] = data.treatment
        return columns, data.outcome
    draw = tmp_path / "draw.csv"
    assert run_cli(["simulate", "--config",
                    FIXTURES / "dgp_adversarial_long.json", "--n", "400",
                    "--replications", "2", "--seed", "5",
                    "--truth-method", "monte_carlo", "--mc-draws", "2000",
                    "--estimators", "one_step_long",
                    "--emit-data", draw]) == 0
    with open(draw, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = {name: np.array([float(row[name]) for row in rows])
               for name in rows[0]}
    return columns, columns.pop("y")


@pytest.mark.parametrize("learner", ["glm_main_terms",
                                     "glm_main_terms:link=logit",
                                     "glm_with_basis:degree=2",
                                     "k_nearest_neighbors:k=5"])
@pytest.mark.parametrize("design", ["point", "longitudinal"])
def test_estimates_do_not_depend_on_row_order(tmp_path, design, learner):
    # Without folds, an estimate is a function of the set of rows: a
    # permutation of the CSV's rows moves each estimate, standard error
    # and CI end only by rounding. kNN breaks distance ties by row index,
    # so the covariates here are continuous and tie-free.
    columns, y = _design_columns(tmp_path, design)
    argv = ["--design", design, "--outcome-learner", learner,
            "--propensity-learner", learner]
    base = _estimates(tmp_path, columns, y, argv)
    order = np.random.default_rng(7).permutation(y.shape[0])
    moved = _estimates(tmp_path, {name: col[order]
                                  for name, col in columns.items()},
                       y[order], argv)
    assert sorted(base) == sorted(POINT_NAMES if design == "point"
                                  else LONG_NAMES)
    assert moved.keys() == base.keys()
    for name, (psi, se, ci) in base.items():
        assert moved[name][0] == pytest.approx(psi, rel=1e-10)
        assert moved[name][1] == pytest.approx(se, rel=1e-10)
        assert moved[name][2] == pytest.approx(ci, rel=1e-10)


def _covariates_in_each_period(design):
    """The CSV columns and outcome of a 400-row dataset of ``design`` with
    three continuous covariates in the first period and two in the
    second."""
    rng = np.random.default_rng(43)
    n = 400
    w = rng.normal(size=(n, 5))

    def treated(eta):
        return (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    a0 = treated(-0.4 + 0.5 * w[:, 0] - 0.3 * w[:, 1] + 0.2 * w[:, 2])
    y = (1.0 + 0.7 * w[:, 0] - 0.5 * w[:, 1] + 0.3 * w[:, 0] * w[:, 2]
         + rng.normal(scale=0.5, size=n))
    w0 = {"u": w[:, 0], "v": w[:, 1], "t": w[:, 2]}
    if design == "point":
        return dict(w0, a=a0), y - 0.4 * a0
    a1 = np.maximum(a0, treated(-0.6 + 0.4 * w[:, 3] + 0.3 * w[:, 4]))
    columns = {f"w0_{name}": col for name, col in w0.items()}
    columns.update(a0=a0, w1_s=w[:, 3], w1_r=w[:, 4], a1=a1)
    return columns, y + 0.4 * w[:, 3] - 0.2 * w[:, 4] - 0.4 * a1


GLM_LEARNERS = ["glm_main_terms", "glm_main_terms:link=logit",
                "glm_with_basis:degree=2,interactions=true"]


@pytest.mark.parametrize("learner", GLM_LEARNERS)
@pytest.mark.parametrize("design", ["point", "longitudinal"])
def test_glm_estimates_do_not_depend_on_covariate_order_or_scale(
        tmp_path, design, learner):
    # A GLM's model matrix spans the same space after its covariates are
    # reordered within a period, or each is mapped to c + s*w (s != 0): an
    # intercept, each covariate and its square, and the pairwise products.
    # So every fit, and every estimate, moves only by rounding. The affine
    # map needs a looser bound: a logit fit stops once its score is within
    # 1e-8 * (1 + n), and the mapped basis can stop one Newton step later
    # (the two-period basis learner's g1 does, moving by 2e-8 relative and
    # an se by 1.3e-10).
    columns, y = _covariates_in_each_period(design)
    argv = ["--design", design, "--outcome-learner", learner,
            "--propensity-learner", learner]
    base = _estimates(tmp_path, columns, y, argv)
    assert sorted(base) == sorted(POINT_NAMES if design == "point"
                                  else LONG_NAMES)
    items = list(columns.items())
    reordered = dict(items[:4][::-1] + items[4:][::-1])
    covariates = [name for name in columns if name not in ("a", "a0", "a1")]
    maps = zip(covariates, [(2.0, -1.5), (-3.0, 0.25), (0.5, 4.0),
                            (1.0, -0.7), (-0.5, 2.0)])
    mapped = dict(columns, **{name: c + s * columns[name]
                              for name, (c, s) in maps})
    for moved_columns, rel in ((reordered, 1e-10), (mapped, 1e-8)):
        moved = _estimates(tmp_path, moved_columns, y, argv)
        assert moved.keys() == base.keys()
        for name, (psi, se, ci) in base.items():
            assert moved[name][0] == pytest.approx(psi, rel=rel)
            assert moved[name][1] == pytest.approx(se, rel=rel)
            assert moved[name][2] == pytest.approx(ci, rel=rel)


@pytest.mark.parametrize("learner", GLM_LEARNERS)
@pytest.mark.parametrize("design", ["point", "longitudinal"])
def test_duplicated_rows_leave_glm_estimates_unchanged(tmp_path, design,
                                                      learner):
    # Without folds, a GLM fit on every row twice solves the same score
    # equations, and each estimate is a mean over rows: psi stays put.
    columns, y = _covariates_in_each_period(design)
    argv = ["--design", design, "--outcome-learner", learner,
            "--propensity-learner", learner]
    base = _estimates(tmp_path, columns, y, argv)
    twice = _estimates(tmp_path, {name: np.concatenate([col, col])
                                  for name, col in columns.items()},
                       np.concatenate([y, y]), argv)
    assert twice.keys() == base.keys()
    for name, (psi, _, _) in base.items():
        assert twice[name][0] == pytest.approx(psi, rel=1e-10)


def test_negative_y_bounds_need_the_equals_form(tmp_path, capsys):
    # argparse reads "-1,2" after a space as a flag, so a lower bound
    # below zero is written --y-bounds=-1,2, as the flag's help says.
    path = tmp_path / "data.csv"
    path.write_text("w,a,y\n0,0,-0.5\n1,0,1.5\n0,1,0.5\n1,1,1\n0,0,0\n"
                    "1,1,-1\n", encoding="utf-8")
    assert run_cli(["estimate", "--data", path, "--y-bounds", "-1,2"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["message"].endswith(
        "argument --y-bounds: expected one argument")
    out = tmp_path / "est.json"
    assert run_cli(["estimate", "--data", path, "--y-bounds=-1,2",
                    "--estimators", "tmle_weighted_logistic",
                    "--out", out]) == 0
    assert -1.0 <= read_json(out)["estimates"][0]["psi_hat"] <= 2.0


# Outcomes near the float64 maximum whose exact truth, 9e307, is finite.
_HUGE_OUTCOME = {"intercept": 0.4e308,
                 "noise": {"kind": "uniform", "half_width": 0.3e308}}
_HUGE_DGPS = {
    "point": read_json(FIXTURES / "dgp_huge_point.json"),
    "longitudinal": {
        "design": "longitudinal",
        "covariates": [{"name": "w0", "dist": "bernoulli", "p": 0.5}],
        "treatment": {"intercept": 0.3, "coefs": {"w0": 0.3}},
        "w1_covariates": [{"name": "w1", "dist": "bernoulli", "p": 0.5}],
        "a1": {"intercept": 0.4, "coefs": {"w0": 0.2}},
        "outcome": dict(_HUGE_OUTCOME, coefs={"w0": 0.5e308, "w1": 0.5e308}),
        "y_bounds": [0, 1.75e308]},
}


@pytest.mark.parametrize("design", ["point", "longitudinal"])
def test_overflowing_estimates_are_input_errors(tmp_path, design):
    # The means behind each estimate overflow float64. Once they raised a
    # RuntimeWarning (an error under the test settings) from inside the
    # estimator; now simulate records the ValueError on each replicate,
    # and estimate exits 2 with its payload.
    config = tmp_path / "dgp.json"
    config.write_text(json.dumps(_HUGE_DGPS[design]), encoding="utf-8")
    names = POINT_NAMES if design == "point" else LONG_NAMES
    logit = ["--outcome-learner", "glm_main_terms:link=logit"]
    draw = tmp_path / "draw.csv"
    assert run_cli(["simulate", "--config", config, "--n", "60",
                    "--replications", "3", "--seed", "1", *logit,
                    "--out", tmp_path / "r.json", "--emit-data", draw]) == 0
    with open(tmp_path / "r.csv", encoding="utf-8", newline="") as fh:
        errors = {(row["estimator"], row["error"].partition(":")[0])
                  for row in csv.DictReader(fh)}
    # Every estimator reports the overflow, the linear TMLE fluctuations
    # through their score.
    assert errors == {(name, "ValueError") for name in names}
    for name in names:
        out = tmp_path / "est.json"
        assert run_cli(["estimate", "--data", draw, "--design", design,
                        *logit, "--estimators", name, "--out", out]) == 2
        error = read_json(out)["error"]
        assert error["type"] == "UsageError"
        assert "overflows" in error["message"]
        # The first (gcomp, one_step_long) and the logistic TMLE overflow
        # in the estimate itself.
        if name in (names[0], names[-1]):
            assert error["message"] == (
                f"the estimate overflows: the {name} value or its "
                "influence-function values are not finite")


_LSQ_OVERFLOW = ("the least-squares score overflows: the sum of its "
                 "terms' magnitudes is not finite")
_KNN_OVERFLOW = ("k_nearest_neighbors:k=5: a mean of the nearest rows' "
                 "responses overflows")


# (design, outcome learner, each record's error, estimate's exit code and
# payload). The identity-link fit once raised a RuntimeWarning from its
# score's matmul, or a NonConvergenceError that blamed the tolerance.
@pytest.mark.parametrize("design, learner, error, code, payload", [
    ("point", "glm_main_terms", f"ValueError: {_LSQ_OVERFLOW}", 2,
     {"type": "UsageError", "message": _LSQ_OVERFLOW}),
    ("longitudinal", "glm_main_terms", f"ValueError: {_LSQ_OVERFLOW}", 2,
     {"type": "UsageError", "message": _LSQ_OVERFLOW}),
    ("point", "k_nearest_neighbors:k=5", f"NuisanceError: {_KNN_OVERFLOW}",
     3, {"type": "NuisanceError", "message": _KNN_OVERFLOW}),
])
def test_overflowing_outcome_fit_fails_every_record(tmp_path, design, learner,
                                                    error, code, payload):
    config = tmp_path / "dgp.json"
    config.write_text(json.dumps(_HUGE_DGPS[design]), encoding="utf-8")
    draw = tmp_path / "draw.csv"
    flags = ["--outcome-learner", learner]
    assert run_cli(["simulate", "--config", config, "--n", "150",
                    "--replications", "4", "--seed", "7", *flags,
                    "--out", tmp_path / "r.json", "--emit-data", draw]) == 0
    names = POINT_NAMES if design == "point" else LONG_NAMES
    with open(tmp_path / "r.csv", encoding="utf-8", newline="") as fh:
        errors = [(row["estimator"], row["error"])
                  for row in csv.DictReader(fh)]
    assert errors == [(name, error) for _ in range(4) for name in names]
    out = tmp_path / "est.json"
    assert run_cli(["estimate", "--data", draw, "--design", design, *flags,
                    "--out", out]) == code
    assert read_json(out)["error"] == payload


@pytest.mark.parametrize("config, n, seed, message", [
    ("dgp_binary.json", "2", "3", "no untreated (A = 0) rows"),
    ("dgp_binary.json", "3", "2", "no untreated (A = 0) rows"),
    ("dgp_long.json", "4", "0", "need at least 2 rows following the "
                                "always-untreated regime"),
])
def test_simulate_degenerate_emit_data_exits_2(tmp_path, config, n, seed,
                                               message):
    # Replicate 0's draw is no dataset: the experiment records it as a
    # failed replicate, but --emit-data cannot write it, so the command
    # exits 2 with the payload and writes no report or CSV.
    out = tmp_path / "r.json"
    code = run_cli(["simulate", "--config", FIXTURES / config, "--n", n,
                    "--replications", "2", "--seed", seed, "--out", out,
                    "--emit-data", tmp_path / "d.csv"])
    assert code == 2
    err = read_json(out)["error"]
    assert err["type"] == "UsageError"
    assert err["message"].startswith(message)
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


# ---------------------------------------------------------------------------
# truth


def test_truth_analytic(tmp_path, capsys):
    code = run_cli(["truth", "--config", FIXTURES / "dgp_binary.json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["design"] == "point"
    assert payload["truth"]["method"] == "analytic"
    assert payload["truth"]["value"] == pytest.approx(0.4, abs=1e-12)


def test_truth_monte_carlo_agrees(tmp_path):
    out = tmp_path / "truth.json"
    code = run_cli(["truth", "--config", FIXTURES / "dgp_long.json",
                    "--method", "monte_carlo", "--mc-draws", "200000",
                    "--seed", "2", "--out", out])
    assert code == 0
    payload = read_json(out)["truth"]
    assert payload["method"] == "monte_carlo"
    assert payload["mc_draws"] == 200000
    analytic = 0.5133570479666243
    assert abs(payload["value"] - analytic) <= 4 * payload["mc_se"]


def test_truth_usage_errors_exit_2(tmp_path):
    out = tmp_path / "err.json"
    code = run_cli(["truth", "--config", FIXTURES / "dgp_binary.json",
                    "--method", "monte_carlo", "--mc-draws", "1",
                    "--out", out])
    assert code == 2
    err = read_json(out)["error"]
    assert err["type"] == "UsageError"
    assert "mc_draws must be at least 2" in err["message"]


def test_truth_determinism(tmp_path):
    outs = [tmp_path / "t1.json", tmp_path / "t2.json"]
    for out in outs:
        code = run_cli(["truth", "--config", FIXTURES / "dgp_binary.json",
                        "--method", "monte_carlo", "--mc-draws", "5000",
                        "--seed", "9", "--out", out])
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# ---------------------------------------------------------------------------
# entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "eiftools.cli", "truth", "--config",
         str(FIXTURES / "dgp_binary.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["truth"]["value"] == pytest.approx(0.4, abs=1e-12)


# scipy is a test dependency only: each run exits 0, with nothing on
# stderr, when every scipy import fails and a RuntimeWarning is an error.
# CI's "Runtime without scipy" step runs a longer list.
@pytest.mark.parametrize("argv", [
    ["estimate", "--data", FIXTURES / "saturated_4row.csv"],
    ["simulate", "--config", FIXTURES / "dgp_binary.json", "--n", "200",
     "--replications", "3", "--folds", "2", "--outcome-learner",
     "k_nearest_neighbors:k=5", "--seed", "1"],
    ["simulate", "--config", FIXTURES / "dgp_long.json", "--n", "200",
     "--replications", "3", "--folds", "2", "--seed", "1"],
    ["truth", "--config", FIXTURES / "dgp_binary.json"],
    ["truth", "--config", FIXTURES / "dgp_long.json"],
], ids=["estimate", "simulate-point-knn", "simulate-long", "truth-point",
        "truth-long"])
def test_runs_without_scipy(argv):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         "import sys; sys.modules['scipy'] = None; from eiftools import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", *map(str, argv)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "error" not in json.loads(proc.stdout)


def _strict_json(text):
    """``text`` parsed as JSON proper: NaN and Infinity are rejected."""
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


MC_TRUTH = ["--method", "monte_carlo", "--mc-draws", "2000"]
MC_SIMULATE = ["--truth-method", "monte_carlo", "--mc-draws", "2000",
               "--n", "50", "--replications", "2", "--seed", "1"]


# (fixture, command and flags, error type, message start). Each once wrote
# NaN or Infinity into its JSON, or ended in a traceback.
@pytest.mark.parametrize("fixture, argv, kind, message", [
    ("dgp_overflow_noise.json", ["truth", *MC_TRUTH], "UsageError",
     "the true value overflows: its Monte Carlo standard error"),
    ("dgp_overflow_noise.json", ["simulate", *MC_SIMULATE], "UsageError",
     "the true value overflows: its Monte Carlo standard error"),
    ("dgp_overflow_coef.json", ["truth", *MC_TRUTH], "UsageError",
     "the true value overflows: the monte_carlo value"),
    ("dgp_overflow_exact.json", ["truth"], "UsageError",
     "the true value overflows: the analytic value"),
    ("dgp_overflow_exact.json", ["truth", *MC_TRUTH], "UsageError",
     "the outcome overflows"),
    ("dgp_overflow_exact.json", ["simulate", *MC_SIMULATE], "UsageError",
     "the outcome overflows"),
    ("dgp_overflow_width.json", ["truth", *MC_TRUTH], "DgpValidationError",
     "covariates[0] (w): uniform needs a finite width"),
    ("dgp_overflow_width.json", ["simulate", *MC_SIMULATE],
     "DgpValidationError", "covariates[0] (w): uniform needs a finite width"),
    ("dgp_overflow_normal_reach.json", ["simulate", *MC_SIMULATE],
     "DgpValidationError", "covariates[1] (v): normal needs a finite reach"),
    ("dgp_overflow_noise_width.json", ["truth", *MC_TRUTH],
     "DgpValidationError", "outcome.noise: uniform noise needs a finite "
     "width"),
    ("dgp_overflow_noise_width.json", ["simulate", "--n", "50",
                                       "--replications", "2", "--seed", "1"],
     "DgpValidationError", "outcome.noise: uniform noise needs a finite "
     "width"),
    ("dgp_overflow_coef.json", ["simulate", *MC_SIMULATE], "UsageError",
     "the true value overflows: the monte_carlo value"),
    # The truth overflows before any replicate's kNN outcome fit runs
    # (test_overflowing_outcome_fit_fails_every_record fails those fits).
    ("dgp_overflow_coef.json",
     ["simulate", "--n", "150", "--replications", "5", "--seed", "6",
      "--outcome-learner", "k_nearest_neighbors:k=5",
      "--truth-method", "monte_carlo", "--mc-draws", "5000"], "UsageError",
     "the true value overflows: the monte_carlo value"),
])
def test_overflowing_truth_exits_2_with_json(capsys, fixture, argv, kind,
                                             message):
    code = run_cli([argv[0], "--config", FIXTURES / fixture, *argv[1:]])
    assert code == 2
    error = _strict_json(capsys.readouterr().out)["error"]
    assert error["type"] == kind
    assert error["message"].startswith(message)


# Each fixture holds a JSON NaN or Infinity literal, or an integer too
# large for a float, which json.loads reads: the config fails to build,
# rather than failing every record or ending in a traceback.
@pytest.mark.parametrize("fixture, violations", [
    ("dgp_nonfinite_treatment.json",
     ["treatment model: coefficient on 'w' must be finite, got nan"]),
    ("dgp_nonfinite_y_bounds.json",
     ["y_bounds: lo must be finite, got -inf",
      "y_bounds: hi must be finite, got inf"]),
    ("dgp_nonfinite_w1_model.json",
     ["w1_covariates[0] (w1): model: intercept must be finite, got nan"]),
    ("dgp_nonfinite_integer.json",
     ["treatment.intercept: expected a number, got an integer too large "
      "for a float"]),
])
@pytest.mark.parametrize("argv", [["truth"], ["truth", *MC_TRUTH],
                                  ["simulate", *MC_SIMULATE]],
                         ids=["truth", "truth-mc", "simulate"])
def test_non_finite_config_exits_2_before_any_draw(monkeypatch, capsys,
                                                   fixture, violations, argv):
    from eiftools import dgp

    def never(*args, **kwargs):
        raise AssertionError("a truth sum or a replicate ran")

    monkeypatch.setattr(dgp, "_draw", never)
    monkeypatch.setattr(dgp, "_analytic_truth", never)
    code = run_cli([argv[0], "--config", FIXTURES / fixture, *argv[1:]])
    assert code == 2
    error = _strict_json(capsys.readouterr().out)["error"]
    assert error["type"] == "DgpValidationError"
    assert error["violations"] == violations


@pytest.mark.parametrize("flag, value, message", [
    ("--truncate", "a,b", "--truncate expects numbers, got 'a,b'"),
    ("--y-bounds", "0,x", "--y-bounds expects numbers, got '0,x'"),
    ("--estimators", ",", "--estimators is empty"),
    ("--estimators", " , ", "--estimators is empty"),
])
def test_malformed_flag_lists_are_usage_errors(monkeypatch, capsys, flag,
                                               value, message):
    from eiftools import cli

    def never(*args, **kwargs):
        raise AssertionError("fitted despite a malformed flag")

    monkeypatch.setattr(cli, "fit_plan_nuisance", never)
    monkeypatch.setattr(cli, "run_experiment", never)
    for command in (["estimate", "--data", FIXTURES / "saturated_4row.csv"],
                    ["simulate", "--config", FIXTURES / "dgp_binary.json",
                     "--n", "50", "--replications", "2", "--seed", "1"]):
        assert run_cli(command + [flag, value]) == 2
        error = _strict_json(capsys.readouterr().out)["error"]
        assert error == {"type": "UsageError", "message": message}
