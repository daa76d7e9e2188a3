"""The README runs and reads as the code: its Python snippets run as
written, and its DGP config tables list the keys that a config takes."""

import copy
import pathlib
import re

import pytest

from eiftools.simulation import DgpConfig, DgpValidationError

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


def _documented_keys():
    """Each README table of DGP config keys: its object, and the keys that
    its first column lists."""
    tables = {}
    rows = None
    for line in README.read_text("utf-8").splitlines():
        header = re.fullmatch(
            r"\| (\w+) key \| JSON type \| default \| rule \|", line)
        if header:
            rows = tables.setdefault(header.group(1), set())
        elif rows is not None and line.startswith("| `"):
            rows.update(re.findall(r"`(\w+)`", line.split(" | ")[0]))
        elif not line.startswith("|"):
            rows = None
    return tables


# Two small valid configs that between them use every documented key.
POINT = {"design": "point",
         "covariates": [{"name": "w", "dist": "bernoulli", "p": 0.5}],
         "treatment": {"intercept": 0.1, "coefs": {"w": 0.5}},
         "outcome": {"scale": "identity", "kind": "continuous",
                     "intercept": 0.0, "coefs": {"w": 1.0, "a": 0.2},
                     "noise": {"kind": "uniform", "sd": 0.0,
                               "half_width": 0.5}},
         "y_bounds": [-1.0, 2.0], "positivity_floor": 0.05}
LONG = {"design": "longitudinal",
        "covariates": [{"name": "w", "dist": "uniform", "low": 0.0,
                        "high": 1.0}],
        "treatment": {},
        "w1_covariates": [
            {"name": "v", "dist": "bernoulli",
             "model": {"intercept": 0.1, "coefs": {"w": 0.3, "a0": 0.3}}},
            {"name": "u", "dist": "normal", "mean": 0.0, "sd": 1.0}],
        "a1": {"coefs": {"v": 0.2}},
        "outcome": {"coefs": {"u": 1.0, "a1": 0.5}}}


def _objects(config):
    """The config's objects, keyed by the README table that documents
    them; an object the config leaves out is an empty stand-in."""
    covariates = config["covariates"] + config.get("w1_covariates", [])
    outcome = config["outcome"]
    return {"config": [config], "covariate": covariates,
            "model": [config["treatment"], config.get("a1", {}),
                      *(c["model"] for c in covariates if "model" in c)],
            "outcome": [outcome], "noise": [outcome.get("noise", {})]}


def test_readme_documents_each_config_key():
    used = {}
    for config in (POINT, LONG):
        DgpConfig.from_dict(config)
        for table, objects in _objects(config).items():
            for obj in objects:
                used.setdefault(table, set()).update(obj)
    assert _documented_keys() == used


@pytest.mark.parametrize("table", ["config", "covariate", "model",
                                   "outcome", "noise"])
def test_an_undocumented_key_is_rejected(table):
    config = copy.deepcopy(LONG if table == "model" else POINT)
    _objects(config)[table][-1]["bogus"] = 1
    with pytest.raises(DgpValidationError,
                       match=r"^(\S+: )?unknown (config )?keys \['bogus'\]$"):
        DgpConfig.from_dict(config)
