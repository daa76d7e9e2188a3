"""The README runs and reads as the code: its Python snippets run as
written, and its DGP config tables list the key tables that configs are
read by, each key with its JSON type and default."""

import functools
import json
import pathlib
import re

import pytest

from eiftools import dgp
from eiftools.dgp import (CovariateSpec, DgpConfig, DgpValidationError,
                          LinearModel, NoiseSpec, OutcomeSpec)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
