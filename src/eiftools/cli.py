"""Command-line interface: estimate on CSV data, simulate, report truth.

``estimate`` analyses a dataset of either design by
``simulation.fit_plan_nuisance`` and ``simulation.run_estimator``, the
path that ``simulate`` takes through ``run_experiment``.

Exit codes: 0 success, 2 usage, input or configuration error, 3
estimation failure. :func:`main` is the one place that maps an error to
its code: a ``ValueError`` or ``AnalyticTruthError`` that reaches it is
reported as a ``UsageError`` and exits 2, and every ``GlmError``,
``NuisanceError`` or ``MemoryError`` exits 3. Failures write
a machine-readable error object to the output target, or to stdout for a
usage error, an output path that cannot be written, or a failure to
write. All output is byte-deterministic given the same inputs and seed:
JSON is dumped with sorted keys, and CSV floats use ``repr``.

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
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import Dataset, LongDataset
from .glm import GlmError
from .nuisance import DEFAULT_TRUNCATION, LearnerSpec, NuisanceError
from .simulation import (DgpConfig, DgpValidationError, EstimationPlan,
                         LONG_ESTIMATORS, POINT_ESTIMATORS, AnalyticTruthError,
                         ReplicateRecord, check_estimators, fit_plan_nuisance,
                         generate, replicate_seed, run_estimator,
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

    A plain file (ASCII after any UTF-8 byte-order mark, no quote
    characters, no carriage returns) is parsed from its bytes by one
    ``np.loadtxt`` call, with no decoded copy of the text. Any other
    file, and any plain file that ``loadtxt`` rejects or parses to
    another shape than one row per body line, is decoded and read again
    by :func:`_read_csv_columns_per_cell`, which words every error.
    ``loadtxt`` skips blank lines, so the shape check is what keeps them
    an error.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    # Sliced off the header, so that the file is not copied for a mark.
    bom = 3 if raw.startswith(b"\xef\xbb\xbf") else 0
    header_line, _, body = raw.partition(b"\n")
    header_line = header_line[bom:]
    header = header_line.split(b",")
    # An all-blank body would make loadtxt warn; float() rejects the
    # ASCII separators \x1c-\x1f that loadtxt strips.
    plain = (header_line and len(set(header)) == len(header)
             and body and not body.isspace()
             and all(part.isascii()
                     and not any(c in part for c in b'"\r\x1c\x1d\x1e\x1f')
                     for part in (header_line, body)))
    if plain:
        n_lines = body.count(b"\n") + (not body.endswith(b"\n"))
        try:
            table = np.loadtxt(io.BytesIO(body), delimiter=",",
                               comments=None, ndmin=2, dtype=float,
                               encoding="ascii")
        except ValueError:
            pass
        else:
            if table.shape == (n_lines, len(header)):
                return dict(zip(header_line.decode("ascii").split(","),
                                np.ascontiguousarray(table.T)))
    try:
        text = raw.decode("utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError as exc:
        # utf-8-sig counts offsets from after the mark; report the file's.
        raise UsageError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start + bom}") from None
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
    if text is None or text.strip() == "all":
        return list(POINT_ESTIMATORS if design == "point"
                    else LONG_ESTIMATORS)
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise UsageError("--estimators is empty")
    check_estimators(design, names)
    return names


def _plan_from_args(args) -> EstimationPlan:
    truncation = _parse_pair(args.truncate, "--truncate") \
        if args.truncate else DEFAULT_TRUNCATION
    y_bounds = _parse_pair(args.y_bounds, "--y-bounds") \
        if args.y_bounds else None

    def cols(text, flag):
        if text is None:
            return None
        names = tuple(t.strip() for t in text.split(",") if t.strip())
        if not names:
            raise UsageError(f"{flag} is empty")
        return names

    return EstimationPlan(
        outcome_learner=_parse_learner(args.outcome_learner,
                                       "--outcome-learner"),
        propensity_learner=_parse_learner(args.propensity_learner,
                                          "--propensity-learner"),
        truncation=truncation,
        n_folds=args.folds,
        outcome_covariates=cols(args.outcome_covariates,
                                "--outcome-covariates"),
        propensity_covariates=cols(args.propensity_covariates,
                                   "--propensity-covariates"),
        y_bounds=y_bounds,
    )


def _load_dgp(path: str) -> DgpConfig:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        d = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from None
    return DgpConfig.from_dict(d)


# ---------------------------------------------------------------------------
# Subcommands


def _check_outputs(*paths: Optional[str]) -> None:
    """Raise OutputError unless each path that is not None (stdout) can
    be written: a writable file, or a new one in an existing, writable
    directory. Each command calls this before any fit or sum runs."""
    for path in paths:
        if path is None:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        if not path or os.path.isdir(path) or not (
                os.access(path, os.W_OK) if os.path.exists(path)
                else os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise OutputError(f"cannot write {path or repr(path)}: not a "
                              "file in an existing, writable directory")


def cmd_estimate(args) -> int:
    plan = _plan_from_args(args)
    if args.design == "point":
        data = read_point_csv(
            args.data,
            "a" if args.treatment_col is None else args.treatment_col,
            "y" if args.outcome_col is None else args.outcome_col,
            y_bounds=plan.y_bounds)
        covariates = data.covariate_names
    else:
        for flag, value in (("--treatment-col", args.treatment_col),
                            ("--outcome-col", args.outcome_col)):
            if value is not None:
                raise UsageError(f"{flag} applies to the point design only")
        data = read_long_csv(args.data, y_bounds=plan.y_bounds)
        covariates = ()
    plan.check_data(args.design, data.n_obs, covariates)
    names = _parse_estimators(args.estimators, args.design)
    _check_outputs(args.out)
    # A GlmError, NuisanceError or MemoryError from here on exits 3 (see
    # main).
    nuis = fit_plan_nuisance(data, plan, args.seed)
    estimates = [run_estimator(name, data, nuis).to_json_dict()
                 for name in names]
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
    _check_outputs(args.out, csv_path, args.emit_data)
    outputs = [p for p in (args.out, csv_path, args.emit_data)
               if p is not None]
    if len({Path(p).resolve() for p in outputs}) < len(outputs):
        emit = ("" if args.emit_data is None
                else f", --emit-data {args.emit_data}")
        raise OutputError(
            f"output files must differ: --out {args.out} (per-replicate "
            f"CSV {csv_path}){emit}")
    dgp = _load_dgp(args.config)
    plan = _plan_from_args(args)
    names = _parse_estimators(args.estimators, dgp.design)
    report = run_experiment(dgp, args.n, args.replications, names, plan,
                            seed=args.seed, truth_method=args.truth_method,
                            mc_draws=args.mc_draws)
    # Replicate 0's draw, which run_experiment records as a failure when
    # it is degenerate; drawn before anything is written.
    data = (generate(dgp, args.n, replicate_seed(args.seed, 0))
            if args.emit_data is not None else None)

    _write_text(_json_text(report.to_json_dict()), args.out)
    if csv_path:
        header = [f.name for f in fields(ReplicateRecord)]
        row = attrgetter(*header)
        write_csv(csv_path, header, [row(rec) for rec in report.replicates])
    if data is not None:
        write_dataset_csv(data, args.emit_data)
    return EXIT_OK


def cmd_truth(args) -> int:
    dgp = _load_dgp(args.config)
    _check_outputs(args.out)
    truth = true_value(dgp, method=args.method, mc_draws=args.mc_draws,
                       mc_seed=args.seed)
    out = {
        "schema_version": SCHEMA_VERSION,
        "design": dgp.design,
        "truth": truth.to_dict(),
    }
    _write_text(_json_text(out), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """Raises every usage error as a :class:`UsageError` instead of
    printing it and exiting, so that :func:`main` reports it."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """The ``--seed`` value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return seed


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
                   help="outcome bounds of the data (default: the DGP's, "
                        "else the observed range); a negative LO needs "
                        "the = form, --y-bounds=-1,2")
    p.add_argument("--outcome-covariates", default=None, metavar="COLS",
                   help="comma list restricting the outcome model's covariates")
    p.add_argument("--propensity-covariates", default=None, metavar="COLS",
                   help="comma list restricting the propensity model's "
                        "covariates")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_est.add_argument("--treatment-col", default=None,
                       help="treatment column for the point design "
                            "(default a)")
    p_est.add_argument("--outcome-col", default=None,
                       help="outcome column for the point design "
                            "(default y)")
    _add_plan_flags(p_est)
    p_est.add_argument("--seed", type=_seed, default=0,
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
    p_sim.add_argument("--seed", type=_seed, required=True,
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
    p_tru.add_argument("--seed", type=_seed, default=0,
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
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:  # no output path is known yet
        _report_error(exc, None)
        return EXIT_INPUT
    try:
        return args.func(args)
    except OutputError as exc:
        _report_error(exc, None)
        return EXIT_INPUT
    except (UsageError, DgpValidationError) as exc:
        _report_error(exc, args.out)
        return EXIT_INPUT
    except (ValueError, AnalyticTruthError) as exc:
        _report_error(UsageError(str(exc)), args.out)
        return EXIT_INPUT
    except (GlmError, NuisanceError, MemoryError) as exc:
        _report_error(exc, args.out)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
