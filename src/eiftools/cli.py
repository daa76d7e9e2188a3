"""Command-line interface: estimate on CSV data, simulate, report truth.

Exit codes: 0 success, 2 input or configuration error, 3 estimation
failure. Failures write a machine-readable error object to the output
target (stdout if it cannot be written). All output is byte-deterministic
given the same inputs and seed: JSON is dumped with sorted keys, and CSV
floats use ``repr``.

CSV conventions (header required, comma-separated, '.' decimals, no
missing values): the point design expects a treatment column ``a``
(override with --treatment-col), an outcome column ``y`` (override with
--outcome-col), and covariates in every other column; the longitudinal
design expects ``a0``, ``a1``, ``y``, first-period covariates prefixed
``w0_`` and second-period covariates prefixed ``w1_``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import Dataset, LongDataset
from .estimators import DegenerateOutcomeError
from .glm import GlmError
from .nuisance import DEFAULT_TRUNCATION, LearnerSpec, NuisanceError
from .simulation import (DgpConfig, DgpValidationError, EstimationPlan,
                         LONG_ESTIMATORS, POINT_ESTIMATORS, AnalyticTruthError,
                         fit_plan_nuisance, fit_plan_nuisance_long, generate,
                         long_estimate, point_estimate, replicate_seed,
                         run_experiment, true_value)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ESTIMATION = 3


class UsageError(Exception):
    """Bad input data or flags; maps to exit code 2."""


class OutputError(UsageError):
    """An output path cannot be written; its error payload goes to stdout."""


# ---------------------------------------------------------------------------
# Deterministic serialization


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from None


def _write_text(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with _writing(path):
            Path(path).write_text(text, encoding="utf-8")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header: Sequence[str],
              rows: Sequence[Sequence[object]]):
    with _writing(path), open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


# ---------------------------------------------------------------------------
# Dataset CSV round-trip


def dataset_csv_columns(data: Union[Dataset, LongDataset]
                        ) -> Tuple[List[str], List[List[object]]]:
    """Header and rows in the layout cmd_estimate reads back."""
    if isinstance(data, Dataset):
        header = list(data.covariate_names) + ["a", "y"]
        cols = [data.covariate_column(c) for c in data.covariate_names]
        cols += [data.treatment, data.outcome]
    else:
        header = ([f"w0_{c}" for c in data.w0_names] + ["a0"]
                  + [f"w1_{c}" for c in data.w1_names] + ["a1", "y"])
        cols = [data.w0[:, j] for j in range(len(data.w0_names))]
        cols.append(data.a0)
        cols += [data.w1[:, j] for j in range(len(data.w1_names))]
        cols += [data.a1, data.outcome]
    rows = [[float(col[i]) for col in cols] for i in range(data.n_obs)]
    return header, rows


def write_dataset_csv(data: Union[Dataset, LongDataset], path: str):
    header, rows = dataset_csv_columns(data)
    write_csv(path, header, rows)


def _read_csv_columns(path: str) -> Dict[str, np.ndarray]:
    """Float columns of a CSV file, keyed by header name.

    A plain file (ASCII, no quote characters, no carriage returns) is
    parsed by one ``np.loadtxt`` call. Any other file, and any plain file
    that ``loadtxt`` rejects or parses to another shape than one row per
    body line, is read again by :func:`_read_csv_columns_per_cell`, which
    words every error. ``loadtxt`` skips blank lines, so the shape check
    is what keeps them an error.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        text = raw.decode("utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError as exc:
        # utf-8-sig counts offsets from after the mark; report the file's.
        bom = 3 if raw.startswith(b"\xef\xbb\xbf") else 0
        raise UsageError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start + bom}") from None
    header_line, _, body = text.partition("\n")
    header = header_line.split(",")
    # An all-blank body would make loadtxt warn; float() rejects the
    # ASCII separators \x1c-\x1f that loadtxt strips.
    plain = (text.isascii() and header_line
             and len(set(header)) == len(header)
             and body and not body.isspace()
             and not any(c in text for c in '"\r\x1c\x1d\x1e\x1f'))
    if plain:
        n_lines = body.count("\n") + (not body.endswith("\n"))
        try:
            table = np.loadtxt(io.StringIO(body), delimiter=",",
                               comments=None, ndmin=2, dtype=float)
        except ValueError:
            pass
        else:
            if table.shape == (n_lines, len(header)):
                return dict(zip(header, np.ascontiguousarray(table.T)))
    return _read_csv_columns_per_cell(text, path)


def _read_csv_columns_per_cell(text: str, path: str
                               ) -> Dict[str, np.ndarray]:
    """Columns read by one csv.reader pass and one float() per cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise UsageError(f"{path}: empty file, expected a header row")
    if len(set(header)) != len(header):
        raise UsageError(f"{path}: duplicate column names in header")
    columns: Dict[str, List[float]] = {name: [] for name in header}
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise UsageError(
                f"{path}:{lineno}: expected {len(header)} fields, "
                f"got {len(row)}")
        for name, cell in zip(header, row):
            if cell.strip() == "":
                raise UsageError(
                    f"{path}:{lineno}: missing value in column {name!r}")
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in "
                    f"column {name!r}") from None
    if not columns or not next(iter(columns.values())):
        raise UsageError(f"{path}: no data rows")
    return {name: np.array(values, dtype=float)
            for name, values in columns.items()}


def _require_column(columns: Dict[str, np.ndarray], name: str,
                    path: str) -> np.ndarray:
    if name not in columns:
        raise UsageError(f"{path}: missing required column {name!r}")
    return columns.pop(name)


def read_point_csv(path: str, treatment_col: str = "a",
                   outcome_col: str = "y",
                   y_bounds: Optional[Tuple[float, float]] = None) -> Dataset:
    columns = _read_csv_columns(path)
    a = _require_column(columns, treatment_col, path)
    y = _require_column(columns, outcome_col, path)
    try:
        return Dataset.from_columns(columns, a, y, y_bounds=y_bounds)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def read_long_csv(path: str,
                  y_bounds: Optional[Tuple[float, float]] = None
                  ) -> LongDataset:
    columns = _read_csv_columns(path)
    a0 = _require_column(columns, "a0", path)
    a1 = _require_column(columns, "a1", path)
    y = _require_column(columns, "y", path)
    w0 = {name[len("w0_"):]: vals for name, vals in columns.items()
          if name.startswith("w0_")}
    w1 = {name[len("w1_"):]: vals for name, vals in columns.items()
          if name.startswith("w1_")}
    stray = [name for name in columns
             if not name.startswith(("w0_", "w1_"))]
    if stray:
        raise UsageError(
            f"{path}: longitudinal columns must be a0, a1, y, w0_* or w1_*; "
            f"found {stray}")
    try:
        return LongDataset.from_columns(w0, a0, w1, a1, y, y_bounds=y_bounds)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _parse_pair(text: str, flag: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects 'lo,hi', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{flag} expects numbers, got {text!r}") from None


def _parse_learner(text: str, flag: str) -> LearnerSpec:
    try:
        return LearnerSpec.parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_estimators(text: Optional[str], design: str) -> List[str]:
    valid = POINT_ESTIMATORS if design == "point" else LONG_ESTIMATORS
    if text is None or text.strip() == "all":
        return list(valid)
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise UsageError("--estimators is empty")
    unknown = [n for n in names if n not in valid]
    if unknown:
        raise UsageError(
            f"unknown estimators for the {design} design: {unknown}; "
            f"valid names: {list(valid)}")
    return names


def _plan_from_args(args) -> EstimationPlan:
    truncation = _parse_pair(args.truncate, "--truncate") \
        if args.truncate else DEFAULT_TRUNCATION
    y_bounds = _parse_pair(args.y_bounds, "--y-bounds") \
        if args.y_bounds else None

    def cols(text):
        if text is None:
            return None
        names = tuple(t.strip() for t in text.split(",") if t.strip())
        return names if names else None

    try:
        return EstimationPlan(
            outcome_learner=_parse_learner(args.outcome_learner,
                                           "--outcome-learner"),
            propensity_learner=_parse_learner(args.propensity_learner,
                                              "--propensity-learner"),
            truncation=truncation,
            n_folds=args.folds,
            outcome_covariates=cols(getattr(args, "outcome_covariates", None)),
            propensity_covariates=cols(
                getattr(args, "propensity_covariates", None)),
            y_bounds=y_bounds,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_dgp(path: str) -> DgpConfig:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        d = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from None
    return DgpConfig.from_dict(d).check()


# ---------------------------------------------------------------------------
# Subcommands


def _constant_outcome_result(name: str, value: float) -> Dict[str, object]:
    # A constant outcome pins the bound-respecting estimate at the
    # constant with zero spread; reported directly instead of failing.
    return {
        "estimator": name,
        "psi_hat": value,
        "se": 0.0,
        "ci95": [value, value],
        "diagnostics": {
            "note": "outcome is constant; estimate is the constant with "
                    "zero standard error",
            "n_truncated": 0,
        },
    }


def cmd_estimate(args) -> int:
    plan = _plan_from_args(args)
    if args.design == "point":
        data = read_point_csv(args.data, args.treatment_col, args.outcome_col,
                              y_bounds=plan.y_bounds)
    else:
        data = read_long_csv(args.data, y_bounds=plan.y_bounds)
    try:
        plan.check_data(args.design, data.n_obs, data.covariate_names
                        if args.design == "point" else ())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    names = _parse_estimators(args.estimators, args.design)
    fold_seed = args.seed if args.seed is not None else 0

    try:
        if args.design == "point":
            nuis = fit_plan_nuisance(data, plan, fold_seed)
        else:
            nuis = fit_plan_nuisance_long(data, plan, fold_seed)
    except (GlmError, NuisanceError) as exc:
        raise EstimationFailure(exc) from exc

    estimates = []
    for name in names:
        try:
            if args.design == "point":
                res = point_estimate(name, data, nuis, plan)
            else:
                res = long_estimate(name, data, nuis, plan)
            estimates.append(res.to_json_dict())
        except DegenerateOutcomeError:
            lo, hi = data.outcome_bounds()
            if lo == hi:
                estimates.append(_constant_outcome_result(name, lo))
            else:
                raise EstimationFailure(
                    DegenerateOutcomeError(f"{name}: degenerate outcome bounds"))
        except (GlmError, NuisanceError) as exc:
            raise EstimationFailure(exc) from exc

    out = {
        "schema_version": SCHEMA_VERSION,
        "design": args.design,
        "n": data.n_obs,
        "estimates": estimates,
    }
    _write_text(_json_text(out), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    csv_path = args.out and os.path.splitext(args.out)[0] + ".csv"
    outputs = [p for p in (args.out, csv_path, args.emit_data) if p]
    if len({Path(p).resolve() for p in outputs}) < len(outputs):
        raise OutputError(
            f"output files must differ: --out {args.out} (per-replicate "
            f"CSV {csv_path}), --emit-data {args.emit_data}")
    for path in outputs:  # checked before any replicate runs
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not (os.path.isdir(folder)
                                       and os.access(folder, os.W_OK)):
            raise OutputError(f"cannot write {path}: not a file in an "
                              "existing, writable directory")
    dgp = _load_dgp(args.config)
    plan = _plan_from_args(args)
    names = _parse_estimators(args.estimators, dgp.design)
    try:
        report = run_experiment(dgp, args.n, args.replications, names, plan,
                                seed=args.seed, truth_method=args.truth_method,
                                mc_draws=args.mc_draws)
    except AnalyticTruthError as exc:
        raise UsageError(str(exc)) from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    _write_text(_json_text(report.to_json_dict()), args.out)
    if csv_path:
        header = ["replicate", "estimator", "psi_hat", "se", "ci_lo",
                  "ci_hi", "covered", "out_of_bounds", "error"]
        rows = [[row[h] for h in header] for row in report.replicate_rows()]
        write_csv(csv_path, header, rows)
    if args.emit_data is not None:
        data = generate(dgp, args.n, replicate_seed(args.seed, 0))
        write_dataset_csv(data, args.emit_data)
    return EXIT_OK


def cmd_truth(args) -> int:
    dgp = _load_dgp(args.config)
    try:
        truth = true_value(dgp, method=args.method, mc_draws=args.mc_draws,
                           mc_seed=args.seed if args.seed is not None else 0)
    except (AnalyticTruthError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    out = {
        "schema_version": SCHEMA_VERSION,
        "design": dgp.design,
        "truth": truth.to_dict(),
    }
    _write_text(_json_text(out), args.out)
    return EXIT_OK


class EstimationFailure(Exception):
    """Wraps an estimator/nuisance failure; maps to exit code 3."""

    def __init__(self, cause: Exception):
        super().__init__(str(cause))
        self.cause = cause


# ---------------------------------------------------------------------------
# Parser


def _add_plan_flags(p: argparse.ArgumentParser):
    p.add_argument("--outcome-learner", default="glm_main_terms",
                   help="learner spec, e.g. glm_main_terms, "
                        "glm_with_basis:degree=2,interactions=true, "
                        "k_nearest_neighbors:k=25")
    p.add_argument("--propensity-learner", default="glm_main_terms",
                   help="learner spec for P(A=0|W)")
    p.add_argument("--folds", type=int, default=None,
                   help="cross-fitting fold count (default: no cross-fitting)")
    p.add_argument("--truncate", default=None, metavar="LO,HI",
                   help="propensity truncation bounds (default 0.01,0.99)")
    p.add_argument("--y-bounds", default=None, metavar="LO,HI",
                   help="outcome bounds for logistic targeting "
                        "(default: observed range)")
    p.add_argument("--outcome-covariates", default=None, metavar="COLS",
                   help="comma list restricting the outcome model's covariates")
    p.add_argument("--propensity-covariates", default=None, metavar="COLS",
                   help="comma list restricting the propensity model's "
                        "covariates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eiftools",
        description="Doubly robust estimation of the untreated mean "
                    "(g-computation, one-step/AIPW, TMLE) plus a "
                    "simulation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate from a CSV dataset")
    p_est.add_argument("--data", required=True, help="input CSV path")
    p_est.add_argument("--design", choices=("point", "longitudinal"),
                       default="point")
    p_est.add_argument("--estimators", default=None,
                       help="comma list or 'all' (default all)")
    p_est.add_argument("--treatment-col", default="a",
                       help="treatment column for the point design")
    p_est.add_argument("--outcome-col", default="y",
                       help="outcome column for the point design")
    _add_plan_flags(p_est)
    p_est.add_argument("--seed", type=int, default=None,
                       help="seed for the cross-fitting partition")
    p_est.add_argument("--out", default=None, help="output JSON path "
                       "(default stdout)")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a replication experiment")
    p_sim.add_argument("--config", required=True, help="DGP config JSON path")
    p_sim.add_argument("--n", type=int, required=True,
                       help="observations per replicate")
    p_sim.add_argument("--replications", type=int, required=True)
    p_sim.add_argument("--estimators", default=None,
                       help="comma list or 'all' (default all)")
    _add_plan_flags(p_sim)
    p_sim.add_argument("--seed", type=int, required=True,
                       help="master seed (required; all randomness flows "
                            "from it)")
    p_sim.add_argument("--truth-method", choices=("analytic", "monte_carlo"),
                       default="analytic")
    p_sim.add_argument("--mc-draws", type=int, default=1_000_000)
    p_sim.add_argument("--out", default=None,
                       help="report JSON path; per-replicate CSV is written "
                            "next to it with a .csv suffix, so PATH must not "
                            "end in .csv")
    p_sim.add_argument("--emit-data", default=None, metavar="PATH",
                       help="also write replicate 0's dataset as CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_tru = sub.add_parser("truth", help="report the DGP's true estimand")
    p_tru.add_argument("--config", required=True, help="DGP config JSON path")
    p_tru.add_argument("--method", choices=("analytic", "monte_carlo"),
                       default="analytic")
    p_tru.add_argument("--mc-draws", type=int, default=1_000_000)
    p_tru.add_argument("--seed", type=int, default=None,
                       help="seed for the monte_carlo method")
    p_tru.add_argument("--out", default=None, help="output JSON path "
                       "(default stdout)")
    p_tru.set_defaults(func=cmd_truth)

    return parser


def _error_payload(exc: Exception) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }
    if isinstance(exc, DgpValidationError):
        payload["error"]["violations"] = list(exc.violations)
    return payload


def _report_error(exc: Exception, path: Optional[str]):
    text = _json_text(_error_payload(exc))
    try:
        _write_text(text, path)
    except OutputError:
        _write_text(text, None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OutputError as exc:
        _report_error(exc, None)
        return EXIT_INPUT
    except (UsageError, DgpValidationError) as exc:
        _report_error(exc, args.out)
        return EXIT_INPUT
    except EstimationFailure as exc:
        _report_error(exc.cause, args.out)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
