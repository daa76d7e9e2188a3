"""End-to-end tests for the command line interface.

Each test drives ``eiftools.cli.main`` in process and checks exit codes,
output schemas, and byte-level determinism of the written files.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from eiftools.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

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
    # constant outcome: the logistic-targeting scale collapses, and the CLI
    # must report the constant with a zero-width interval instead of failing
    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--data", FIXTURES / "constant_y.csv",
                    "--estimators", "tmle_weighted_logistic", "--out", out])
    assert code == 0
    (row,) = read_json(out)["estimates"]
    assert row["estimator"] == "tmle_weighted_logistic"
    assert row["psi_hat"] == 2.5
    assert row["se"] == 0.0
    assert row["ci95"] == [2.5, 2.5]
    assert "note" in row["diagnostics"]


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
])
def test_estimate_overflowing_covariate_exits_3(tmp_path, learner, error):
    # w = 1e200 on a treated row: its square overflows the outcome model's
    # basis, which the model matrix check sees on all rows although the
    # outcome fit never uses that row; with main terms the propensity
    # fit's information matrix overflows instead. Either way the JSON
    # payload is the only output: no numpy warning reaches stderr.
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
                                                       command):
    out = tmp_path / "no_such_dir" / "out.json"
    code = run_cli(command + ["--out", out])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    if command[2] == FIXTURES / "absent.csv":
        # The input error is the one reported, not the failed write.
        assert err["type"] == "UsageError"
        assert "cannot read" in err["message"]
    else:
        assert err["type"] == "OutputError"
        assert f"cannot write {out}" in err["message"]


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
    for flags in (["--out", tmp_path / "rep.csv"],
                  ["--out", tmp_path / "rep.json",
                   "--emit-data", tmp_path / "rep.csv"],
                  ["--out", tmp_path / "rep.json",
                   "--emit-data", tmp_path / "rep.json"]):
        assert run_cli(base + flags) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "OutputError"
        assert "output files must differ" in err["message"]
    assert list(tmp_path.iterdir()) == []


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


def test_simulate_requires_seed():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", FIXTURES / "dgp_binary.json",
                 "--n", "50", "--replications", "2"])
    assert exc.value.code == 2


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
