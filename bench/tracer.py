"""Span tracing of eiftools from outside the package.

Each traced name is wrapped by rebinding it wherever the program looks it
up: a module-level function is replaced in every ``eiftools`` module that
holds the same object (the defining module and every module that did
``from .x import name``), and a method is replaced on its class. Nothing
under ``src/`` is edited, and ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent_index, count]``: the wrapped call's
layer name, ``time.perf_counter`` bounds, the index of the enclosing span
(-1 at top level) and an optional work count taken from the call. Spans
stay in memory; the caller writes them out when the run ends. The traced
program is single-threaded, so a stack gives each span its parent.

A name that a later version of the program no longer has is recorded in
``absent``, and every metric fed by it is reported as absent instead of
being computed from partial spans.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _iterations(args, result):
    return result.iterations


def _rows(args, result):
    return len(args[1])


def _point_rows(args, result):
    # fit_nuisance / crossfit return two prediction vectors of n rows.
    return 2 * result.n_obs


def _sequential_rows(args, result):
    # g0, mu and (unless A1 never varies) g1, each for every row.
    return result.n_obs * (2 + (not result.g1_degenerate))


def _vector_rows(args, result):
    return len(result)


# (span name, module, attribute, count function). The attribute is a
# module-level name or "Class.method".
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.main", "eiftools.cli", "main", None),
    ("cli.read_csv", "eiftools.cli", "read_point_csv", None),
    ("cli.read_csv", "eiftools.cli", "read_long_csv", None),
    ("cli.write", "eiftools.cli", "_json_text", None),
    ("cli.write", "eiftools.cli", "_write_text", None),
    ("cli.write", "eiftools.cli", "write_csv", None),
    ("simulation.run_experiment", "eiftools.simulation", "run_experiment",
     None),
    ("simulation.generate", "eiftools.simulation", "generate", None),
    ("simulation.true_value", "eiftools.simulation", "true_value", None),
    ("nuisance.fit_nuisance", "eiftools.nuisance", "fit_nuisance",
     _point_rows),
    ("nuisance.crossfit", "eiftools.nuisance", "crossfit", _point_rows),
    ("nuisance.fit_outcome", "eiftools.nuisance", "fit_outcome", None),
    ("nuisance.fit_propensity", "eiftools.nuisance", "fit_propensity", None),
    ("nuisance.knn_predict", "eiftools.nuisance", "_KnnPredictor.predict",
     _rows),
    ("nuisance.learner_predict", "eiftools.nuisance",
     "_GlmPredictor.predict", _rows),
    ("nuisance.learner_predict", "eiftools.nuisance",
     "_ConstantPredictor.predict", _rows),
    ("glm.fit_glm", "eiftools.glm", "fit_glm", _iterations),
    ("glm.predict", "eiftools.glm", "predict", None),
    ("estimators.gcomp", "eiftools.estimators", "gcomp", None),
    ("estimators.one_step", "eiftools.estimators", "one_step", None),
    ("estimators.tmle", "eiftools.estimators", "tmle", None),
    ("estimators.eif_wald", "eiftools.estimators", "eif_values", None),
    ("estimators.eif_wald", "eiftools.estimators", "wald_inference", None),
    ("longitudinal.fit_sequential_nuisances", "eiftools.longitudinal",
     "fit_sequential_nuisances", _sequential_rows),
    ("longitudinal.fit_emu", "eiftools.longitudinal", "_fit_emu",
     _vector_rows),
    ("longitudinal.tmle_long", "eiftools.longitudinal", "tmle_long", None),
    ("longitudinal.one_step_long", "eiftools.longitudinal", "one_step_long",
     None),
    ("data.validate", "eiftools.data", "Dataset.__post_init__", None),
    ("data.validate", "eiftools.data", "LongDataset.__post_init__", None),
)

_NUISANCE_FITS = ("nuisance.fit_nuisance", "nuisance.crossfit",
                  "nuisance.fit_outcome", "nuisance.fit_propensity")
_PREDICTORS = ("nuisance.knn_predict", "nuisance.learner_predict")
_PRODUCERS = ("nuisance.fit_nuisance", "nuisance.crossfit",
              "longitudinal.fit_sequential_nuisances", "longitudinal.fit_emu")

# (metric, unit, how, span names). "incl": time inside the outermost spans
# of the names; "self": span time minus the time its child spans cover;
# "calls": number of spans; "sum": total of the spans' counts; "ratio":
# counts of the first group over counts of the second.
METRICS: Tuple[Tuple[str, str, str, tuple], ...] = (
    ("cli.read_csv_s", "s", "incl", ("cli.read_csv",)),
    ("cli.write_s", "s", "incl", ("cli.write",)),
    ("cli.self_s", "s", "self", ("cli.main",)),
    ("simulation.generate_s", "s", "incl", ("simulation.generate",)),
    ("simulation.true_value_s", "s", "incl", ("simulation.true_value",)),
    ("simulation.run_experiment_self_s", "s", "self",
     ("simulation.run_experiment",)),
    ("nuisance.fit_s", "s", "incl", _NUISANCE_FITS),
    ("nuisance.fit_outcome_s", "s", "incl", ("nuisance.fit_outcome",)),
    ("nuisance.fit_propensity_s", "s", "incl", ("nuisance.fit_propensity",)),
    ("nuisance.crossfit_self_s", "s", "self", ("nuisance.crossfit",)),
    ("nuisance.knn_predict_s", "s", "incl", ("nuisance.knn_predict",)),
    ("nuisance.knn_predict_rows", "count", "sum", ("nuisance.knn_predict",)),
    ("nuisance.predict_rows_per_row", "ratio", "ratio",
     (_PREDICTORS, _PRODUCERS)),
    ("glm.fit_glm_calls", "count", "calls", ("glm.fit_glm",)),
    ("glm.fit_glm_iterations", "count", "sum", ("glm.fit_glm",)),
    ("glm.fit_glm_s", "s", "incl", ("glm.fit_glm",)),
    ("glm.predict_s", "s", "incl", ("glm.predict",)),
    ("estimators.gcomp_s", "s", "incl", ("estimators.gcomp",)),
    ("estimators.one_step_s", "s", "incl", ("estimators.one_step",)),
    ("estimators.tmle_s", "s", "incl", ("estimators.tmle",)),
    ("estimators.eif_wald_s", "s", "incl", ("estimators.eif_wald",)),
    ("longitudinal.fit_sequential_nuisances_s", "s", "incl",
     ("longitudinal.fit_sequential_nuisances",)),
    ("longitudinal.tmle_long_s", "s", "incl", ("longitudinal.tmle_long",)),
    ("longitudinal.tmle_long_self_s", "s", "self",
     ("longitudinal.tmle_long",)),
    ("longitudinal.one_step_long_s", "s", "incl",
     ("longitudinal.one_step_long",)),
    ("data.validate_calls", "count", "calls", ("data.validate",)),
    ("data.validate_s", "s", "incl", ("data.validate",)),
)

# Counts that must repeat exactly between calls on the same inputs.
EXACT_COUNTS = ("glm.fit_glm_calls", "glm.fit_glm_iterations",
                "data.validate_calls", "nuisance.knn_predict_rows",
                "nuisance.predict_rows_per_row")


_INHERITED = object()


class Rebinder:
    """Replaces eiftools names with wrappers and restores them."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def wrap(self, module: str, attr: str, make: Callable) -> bool:
        """Rebind ``module.attr`` to ``make(original)``; False if absent."""
        owner = sys.modules.get(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            if f"{module}.{attr}" not in self.absent:
                self.absent.append(f"{module}.{attr}")
            return False
        wrapper = make(original)
        if path:
            self._set(owner, name, wrapper)
            return True
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "eiftools":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
        return True

    def _set(self, owner, name: str, value):
        self._undo.append((owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


class Tracer:
    """Records nested spans of every target while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._rebinder = Rebinder()

    @property
    def absent(self) -> List[str]:
        return self._rebinder.absent

    def install(self):
        for span, module, attr, count in TARGETS:
            self._rebinder.wrap(module, attr,
                                lambda fn, s=span, c=count: self._wrapper(
                                    s, fn, c))

    def uninstall(self):
        self._rebinder.restore()

    def _wrapper(self, name: str, fn: Callable, count: Optional[Callable]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    rec[4] = count(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the program changed shape; the metric goes absent
            return result

        return traced


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _absent_spans(absent: Sequence[str]) -> set:
    missing = set()
    for span, module, attr, _ in TARGETS:
        if f"{module}.{attr}" in absent:
            missing.add(span)
    return missing


def layer_totals(spans: Sequence[list], absent: Sequence[str] = ()
                 ) -> Dict[str, float]:
    """Per-layer metrics over one call's spans, as totals for that call.

    Metrics fed by an absent target are left out of the result.
    """
    children: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def outermost(i: int, names) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return False
            p = spans[p][3]
        return True

    def self_time(i: int) -> float:
        s = spans[i]
        inner = [(max(spans[c][1], s[1]), min(spans[c][2], s[2]))
                 for c in children[i]]
        return (s[2] - s[1]) - _covered(inner)

    def count_sum(names) -> float:
        return float(sum(s[4] for s in spans if s[0] in names))

    missing = _absent_spans(absent)
    out: Dict[str, float] = {}
    for metric, _unit, how, names in METRICS:
        flat = names[0] + names[1] if how == "ratio" else names
        if missing.intersection(flat):
            continue
        picked = [i for i, s in enumerate(spans) if s[0] in flat]
        if how == "incl":
            value = sum(spans[i][2] - spans[i][1] for i in picked
                        if outermost(i, names))
        elif how == "self":
            value = sum(self_time(i) for i in picked)
        elif how == "calls":
            value = float(len(picked))
        elif any(spans[i][4] is None for i in picked):
            continue
        elif how == "sum":
            value = count_sum(names)
        else:
            useful = count_sum(names[1])
            value = count_sum(names[0]) / useful if useful else 0.0
        out[metric] = float(value)
    return out
