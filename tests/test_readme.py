"""The README runs and reads as the code: its Python snippets and its
``eiftools`` commands run as written, each command's output holds the
JSON keys that README names, its DGP config tables list the key
tables that configs are read by, each key with its JSON type and
default, and its learner option table lists the option table of
``LearnerSpec``, each option with the kinds that take it and its
default."""

import contextlib
import functools
import io
import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from eiftools import cli, dgp, nuisance
from eiftools.dgp import (CovariateSpec, DgpConfig, DgpValidationError,
                          LinearModel, NoiseSpec, OutcomeSpec)
from helpers import random_point_dataset

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_snippets_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == [
        "gcomp", "one_step", "tmle_weighted_logistic",
        "tmle_long_weighted_logistic"]


def _readme_commands():
    """Each ``eiftools`` command of README's ``sh`` blocks, as argv."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text("utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("eiftools ")]


# The JSON keys that README names for each command's output.
README_KEYS = {
    "estimate": ("estimates", "estimator", "psi_hat", "se", "ci95",
                 "diagnostics"),
    "simulate": ("truth", "estimators", "mean_bias", "empirical_se",
                 "mean_se", "coverage", "mean_ci_width",
                 "prop_out_of_bounds", "n_success", "n_failed"),
    "truth": ("truth", "method", "value"),
}
MONTE_CARLO_KEYS = ("mc_draws", "mc_se")


def _keys(payload):
    """Every object key of a JSON value, at any depth."""
    if isinstance(payload, dict):
        return set(payload).union(*map(_keys, payload.values()))
    if isinstance(payload, list):
        return set().union(*map(_keys, payload))
    return set()


def test_readme_commands_run_and_report_the_keys_it_names(tmp_path,
                                                          monkeypatch):
    # The estimate example reads observations.csv, which README leaves to
    # the reader: here, 400 rows of two normal covariates.
    data = random_point_dataset(np.random.default_rng(3), n=400)
    columns = {name: data.covariate_column(name)
               for name in data.covariate_names}
    columns.update(a=data.treatment, y=data.outcome)
    (tmp_path / "observations.csv").write_text(
        ",".join(columns) + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n"
            for row in zip(*columns.values())), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert sorted({argv[0] for argv in commands}) == sorted(README_KEYS)
    text = README.read_text("utf-8")
    for argv in commands:
        # Paths into the repository, such as tests/fixtures/, stay valid.
        argv = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0, argv
        out = (argv[argv.index("--out") + 1] if "--out" in argv else None)
        payload = json.loads(pathlib.Path(out).read_text("utf-8") if out
                             else stdout.getvalue())
        keys = README_KEYS[argv[0]]
        if "monte_carlo" in argv:
            keys += MONTE_CARLO_KEYS
        for key in keys:
            assert f"`{key}`" in text
        assert set(keys) <= _keys(payload), argv
        if argv[0] == "simulate" and out:
            assert (tmp_path / "report.csv").read_text("utf-8").startswith(
                "replicate,estimator,psi_hat,se,")


def _documented_rows():
    """Each README table of DGP config keys: its object, and one (key,
    JSON type, default) row per key, as its first three columns list
    them. A row of several keys lists one type and one default for all,
    or one each, comma-separated."""
    tables = {}
    rows = None
    for line in README.read_text("utf-8").splitlines():
        header = re.fullmatch(
            r"\| (\w+) key \| JSON type \| default \| rule \|", line)
        if header:
            rows = tables.setdefault(header.group(1), [])
        elif rows is not None and line.startswith("| `"):
            keys, kinds, defaults = line.split(" | ")[:3]
            keys = re.findall(r"`(\w+)`", keys)
            columns = [cell.split(", ") if len(keys) > 1 else [cell]
                       for cell in (kinds, defaults)]
            rows += zip(keys, *(cells * (len(keys) // len(cells))
                                for cells in columns))
        elif not line.startswith("|"):
            rows = None
    return tables


OBJECTS = {"config": DgpConfig, "covariate": CovariateSpec,
           "model": LinearModel, "outcome": OutcomeSpec, "noise": NoiseSpec}
# README's name for each JSON type of a key table.
TYPE_NAMES = {"a number": "number", "a string": "string",
              dgp._numbers: "object of numbers",
              dgp._bounds: "[number, number]",
              dgp._covariates: "list of covariates",
              LinearModel.from_dict: "model", OutcomeSpec.from_dict: "outcome",
              NoiseSpec.from_dict: "noise"}


def _readme_default(default):
    """A key table's default as README writes it: "required", "none", a
    number, or a string or other JSON value in backticks."""
    if default is dgp._REQUIRED:
        return "required"
    if default is None:
        return "none"
    if isinstance(default, float):
        return f"{default:g}"
    return f"`{default if isinstance(default, str) else json.dumps(default)}`"


def test_readme_documents_each_config_key():
    assert _documented_rows() == {
        table: [(key, TYPE_NAMES[kind], _readme_default(default))
                for key, kind, default in cls._KEYS]
        for table, cls in OBJECTS.items()}


@pytest.mark.parametrize("table", list(OBJECTS))
def test_an_undocumented_key_is_rejected(table):
    parse = (DgpConfig.from_dict if table == "config" else
             functools.partial(OBJECTS[table].from_dict, where="x"))
    with pytest.raises(DgpValidationError,
                       match=r"^(\S+: )?unknown (config )?keys \['bogus'\]$"):
        parse({"bogus": 1})


def _documented_options():
    """README's learner option table: one (option, kinds, default) row per
    option, as its first three columns list them."""
    rows, table = [], False
    for line in README.read_text("utf-8").splitlines():
        if line == "| learner option | kinds | default | rule |":
            table = True
        elif table and line.startswith("| `"):
            option, kinds, default = line.split(" | ")[:3]
            rows.append((option.strip("| `"),
                         tuple(re.findall(r"`(\w+)`", kinds)), default))
        elif not line.startswith("|"):
            table = False
    return rows


def _readme_option_default(default):
    """An option's default as README writes it: "required", a number, or
    a flag or link in backticks."""
    if default is None:
        return "required"
    if isinstance(default, bool):
        return f"`{str(default).lower()}`"
    return f"`{default.value}`" if hasattr(default, "value") else str(default)


def test_readme_documents_each_learner_option():
    assert _documented_options() == [
        (option, kinds, _readme_option_default(default))
        for option, (kinds, default) in nuisance._OPTIONS.items()]
