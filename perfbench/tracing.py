"""Out-of-program tracing of foglink's public functions.

``Tracer.patch`` finds each listed function by identity in the globals of
every loaded ``foglink.*`` module (so names imported with ``from x import
f`` are caught too) and, for methods, in the defining class, and replaces
every site with a timing wrapper.  ``Tracer.unpatch`` puts the originals
back.  Each wrapper records one span per call: calls, busy time (outermost
calls of that name only, so recursion is not double counted), self time
(span minus its traced child spans), the calls made directly from
``stacking.build_level1_sample`` and a per-call size (rows, bytes or
epochs) where the function has one.  Spans are
aggregated in memory; nothing is written while tracing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


class TraceSetupError(RuntimeError):
    """A listed function was not found at any site."""


def _matrix_rows(args, result) -> int:
    """Rows of the X argument of a ``predict(self, X)`` method."""
    return len(args[1])


# (module, qualified name, size function(args, result) or None); the size
# (rows, bytes or epochs) is taken after the call returns.
TRACED = [
    ("tree", "fit_regression_tree", lambda a, r: a[0].n_rows),
    ("tree", "RegressionTree.predict", _matrix_rows),
    ("tables", "LabeledTable.subset", lambda a, r: r.n_rows),
    ("forest", "fit_random_forest", None),
    ("forest", "RandomForestModel.predict", _matrix_rows),
    ("boosting", "fit_gradient_boost", None),
    ("boosting", "GradientBoostModel.predict", _matrix_rows),
    ("adaboost", "fit_adaboost_r2", None),
    ("adaboost", "AdaBoostModel.predict", _matrix_rows),
    ("adaboost", "AdaBoostModel.predict_row", None),
    ("stacking", "fit_stacked", None),
    ("stacking", "build_level1_sample", None),
    ("stacking", "fit_base_learner", None),
    ("stacking", "solve_stacking_weights", None),
    ("stacking", "StackedModel.predict", _matrix_rows),
    ("neural", "train", lambda a, r: len(r.train_loss)),
    ("neural", "MLPModel.predict", _matrix_rows),
    ("serialize", "save_model", lambda a, r: os.path.getsize(a[1])),
    ("serialize", "load_model", lambda a, r: os.path.getsize(a[0])),
    ("dataset", "synthesize_dataset", lambda a, r: len(r)),
    ("dataset", "write_visibility_csv", lambda a, r: len(r)),
    ("dataset", "parse_visibility_csv", lambda a, r: len(r.records)),
    ("dataset", "build_qos_table", lambda a, r: r.table.n_rows),
    ("metrics", "compute_metrics", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_evaluate", None),
    ("cli", "cmd_predict", None),
    ("cli", "cmd_attenuation_sweep", None),
    ("cli", "cmd_link_sweep", None),
]

# Modules whose public functions are traced as one group each.
GROUPED_MODULES = ("atmosphere", "link_budget")

# Calls made directly from here are the stacking fold fits; the rest of the
# `stacking.fit_base_learner` calls are the final refits.
LEVEL1 = "stacking.build_level1_sample"


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    size: int = 0
    level1_calls: int = 0
    level1_busy_s: float = 0.0


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_s = 0.0


def _module_public_functions(module) -> list[str]:
    return sorted(name for name, value in vars(module).items()
                  if inspect.isfunction(value) and not name.startswith("_")
                  and value.__module__ == module.__name__)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[_Frame] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = defaultdict(Stat)

    def _wrap(self, name: str, group, fn, size_fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, active = tracer._stack, tracer._active
            frame = _Frame(name, clock())
            stack.append(frame)
            active[name] += 1
            if group is not None:
                active[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - frame.start
                stats = tracer.stats
                stat = stats[name]
                stat.calls += 1
                stat.self_s += duration - frame.child_s
                if active[name] == 0:
                    stat.busy_s += duration
                if stack and stack[-1].name == LEVEL1:
                    stat.level1_calls += 1
                    stat.level1_busy_s += duration
                if group is not None:
                    active[group] -= 1
                    gstat = stats[group]
                    gstat.calls += 1
                    if active[group] == 0:
                        gstat.busy_s += duration
                if stack:
                    stack[-1].child_s += duration
            if size_fn is not None:
                stat.size += size_fn(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _replace_everywhere(self, original, wrapper) -> int:
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "foglink" or mod_name.startswith("foglink.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    sites += 1
        return sites

    def patch(self) -> None:
        """Install wrappers for every listed function; raise if one is missing."""
        if self._patches:
            raise RuntimeError("tracer already patched")
        missing = []
        try:
            for mod_name, qualname, size_fn in TRACED:
                module = importlib.import_module(f"foglink.{mod_name}")
                name = f"{mod_name}.{qualname}"
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(module, cls_name, None)
                    original = None if cls is None else cls.__dict__.get(meth)
                    if not inspect.isfunction(original):
                        missing.append(name)
                        continue
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, None, original, size_fn))
                    continue
                original = getattr(module, qualname, None)
                if not inspect.isfunction(original):
                    missing.append(name)
                    continue
                if self._replace_everywhere(
                        original, self._wrap(name, None, original, size_fn)) == 0:
                    missing.append(name)
            for mod_name in GROUPED_MODULES:
                module = importlib.import_module(f"foglink.{mod_name}")
                functions = _module_public_functions(module)
                if not functions:
                    missing.append(f"{mod_name}.*")
                for fn_name in functions:
                    name = f"{mod_name}.{fn_name}"
                    original = getattr(module, fn_name)
                    self._replace_everywhere(
                        original, self._wrap(name, f"{mod_name}.all", original, None))
        except BaseException:
            self.unpatch()
            raise
        if missing:
            self.unpatch()
            raise TraceSetupError("traced function(s) found at zero sites: " + ", ".join(missing))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.patch()
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch()


# -- per-layer metrics ------------------------------------------------------

SIZE_FIELDS = ("rows", "bytes", "epochs")
COUNT_FIELDS = ("calls", "refit_calls") + SIZE_FIELDS


def _fields(function: str, *names: str) -> list[tuple[str, str, str]]:
    return [(f"{function}.{name}", function, name) for name in names]


# (metric name, traced function or group, field)
PER_LAYER = [
    *_fields("tree.fit_regression_tree", "calls", "busy_s", "self_s", "rows"),
    *_fields("tables.LabeledTable.subset", "calls", "busy_s", "rows"),
    *_fields("forest.fit_random_forest", "calls", "self_s"),
    *_fields("boosting.fit_gradient_boost", "calls", "self_s"),
    *_fields("adaboost.fit_adaboost_r2", "calls", "self_s"),
    *_fields("stacking.fit_stacked", "calls", "busy_s", "self_s"),
    *_fields("stacking.build_level1_sample", "calls", "busy_s", "self_s"),
    *_fields("stacking.fit_base_learner", "calls", "busy_s", "refit_calls", "refit_busy_s"),
    *_fields("stacking.solve_stacking_weights", "calls", "busy_s"),
    *_fields("neural.train", "calls", "busy_s", "self_s", "epochs"),
    *_fields("serialize.save_model", "calls", "busy_s", "bytes"),
    *_fields("serialize.load_model", "calls", "busy_s", "bytes"),
    *_fields("tree.RegressionTree.predict", "calls", "busy_s", "rows"),
    *_fields("forest.RandomForestModel.predict", "calls", "busy_s", "self_s", "rows"),
    *_fields("boosting.GradientBoostModel.predict", "calls", "busy_s", "self_s", "rows"),
    *_fields("adaboost.AdaBoostModel.predict", "calls", "busy_s", "self_s", "rows"),
    *_fields("adaboost.AdaBoostModel.predict_row", "calls"),
    *_fields("stacking.StackedModel.predict", "calls", "busy_s", "self_s", "rows"),
    *_fields("neural.MLPModel.predict", "calls", "busy_s", "rows"),
    *_fields("dataset.synthesize_dataset", "calls", "busy_s", "rows"),
    *_fields("dataset.write_visibility_csv", "calls", "busy_s", "bytes"),
    *_fields("dataset.parse_visibility_csv", "calls", "busy_s", "rows"),
    *_fields("dataset.build_qos_table", "calls", "busy_s", "self_s", "rows"),
    *_fields("atmosphere.all", "calls", "busy_s"),
    *_fields("link_budget.all", "calls", "busy_s"),
    *_fields("link_budget.power_penalty_db", "calls", "busy_s"),
    *_fields("metrics.compute_metrics", "calls", "busy_s"),
    *_fields("cli.cmd_train", "busy_s", "self_s"),
    *_fields("cli.cmd_evaluate", "busy_s", "self_s"),
    *_fields("cli.cmd_predict", "calls", "busy_s", "self_s"),
    *_fields("cli.cmd_attenuation_sweep", "busy_s", "self_s"),
    *_fields("cli.cmd_link_sweep", "busy_s", "self_s"),
]
OVERHEAD_METRIC = "bench.trace_overhead_s"


def unit(field: str) -> str:
    if field.endswith("_s"):
        return "s"
    return "bytes" if field == "bytes" else "count"


def stat_value(stats: dict, function: str, field: str):
    stat = stats.get(function, Stat())
    if field in SIZE_FIELDS:
        return stat.size
    if field == "refit_calls":
        return stat.calls - stat.level1_calls
    if field == "refit_busy_s":
        return stat.busy_s - stat.level1_busy_s
    return getattr(stat, field)


def layer_metrics(setup_stats: dict, iteration_stats: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values for one traced set-up plus one traced iteration.

    Counts come from the first traced iteration and must repeat exactly in
    the others; times are the median over the traced iterations.
    """
    values, problems = {}, []
    for metric, function, field in PER_LAYER:
        per_iteration = [stat_value(s, function, field) for s in iteration_stats]
        base = stat_value(setup_stats, function, field)
        if field in COUNT_FIELDS:
            if len(set(per_iteration)) > 1:
                problems.append(f"{metric} differs between traced iterations: {per_iteration}")
            value = base + per_iteration[0]
        else:
            value = base + statistics.median(per_iteration)
        values[metric] = {"value": value, "unit": unit(field)}
    return values, problems
