"""Span tracer for the atompair modules, and the per-layer metrics built from it.

The tracer wraps every function a module exports (its ``__all__``) and every
private function another module imports, then rebinds *every* alias of it in
every ``atompair`` namespace: modules bind each other's functions with
``from .x import y``, so ``correlations.g1`` and ``farfield.g1`` are
separate names for one function.  ``uninstall`` puts the originals back.

Spans live in flat in-memory arrays (name, start, end, parent span, run id)
and are written out once, after the traced pass.  A span's self time is its
duration minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "atompair"


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_mc(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counters["dynamics.quantum_jump_estimate.traj_time"] += a["n_traj"] * a["t_total"] * a["params"].total
    counters["dynamics.quantum_jump_estimate.samples"] += result.n_samples * result.n_traj


def _observe_liouvillian(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    p = a["params"]
    counters.param_sets.add((a["scheme"].n_levels, p.g, p.gamma0, p.gamma))


def _observe_scan(counters, fn, args, kwargs, result):
    counters["scans.points"] += _bound(fn, args, kwargs)["n_points"]


def _observe_validation(counters, fn, args, kwargs, result):
    counters["validation.checks"] += sum(len(group.checks) for group in result.groups)


OBSERVERS = {
    "dynamics.quantum_jump_estimate": _observe_mc,
    "dynamics.build_liouvillian": _observe_liouvillian,
    "scans.intensity_scan": _observe_scan,
    "scans.g2_scan": _observe_scan,
    "validation.run_validation": _observe_validation,
}


class Counters(Counter):
    def __init__(self):
        super().__init__()
        self.param_sets = set()


def package_modules() -> dict:
    """Every loaded atompair namespace, the package itself included."""
    return {name: mod for name, mod in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")}


def find_targets(modules: dict) -> dict:
    """id(function) -> (``layer.function``, function) for every function to span."""
    bound_in = {}
    for name, mod in modules.items():
        for obj in vars(mod).values():
            bound_in.setdefault(id(obj), set()).add(name)
    targets = {}
    for name, mod in modules.items():
        if name == PACKAGE:
            continue
        layer = name.rsplit(".", 1)[1]
        exported = set(getattr(mod, "__all__", ()))
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != name:
                continue
            imported = bool(bound_in[id(obj)] - {name, PACKAGE})
            if attr in exported or imported:
                targets[id(obj)] = (f"{layer}.{obj.__name__}", obj)
    return targets


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans are recorded while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.run_ids = array("l")
        self.counters = Counters()
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def next_run(self) -> None:
        """Start a new request: later spans share a fresh run id."""
        self.run_id += 1

    def _wrap(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        observer = OBSERVERS.get(qualname)
        stack = self._stack
        name_ids, starts, ends, parents, run_ids = self.name_ids, self.starts, self.ends, self.parents, self.run_ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(idx)
            parents.append(stack[-1] if stack else -1)
            run_ids.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observer is not None:
                observer(self.counters, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = package_modules()
        wrappers = {key: self._wrap(qualname, fn) for key, (qualname, fn) in find_targets(modules).items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_spans(self, path) -> None:
        """Tab-separated span dump: id, name, start, end, parent, run id (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tparent\trun\n")
            names = self.names
            for sid in range(len(self.starts)):
                out.write(
                    f"{sid}\t{names[self.name_ids[sid]]}\t{self.starts[sid]!r}\t{self.ends[sid]!r}\t"
                    f"{self.parents[sid]}\t{self.run_ids[sid]}\n"
                )


def self_times(starts, ends, parents) -> list[float]:
    """Per span: duration minus the union of its children's intervals inside it.

    Child spans are recorded in start order, so each parent's child
    intervals arrive sorted and one merge pass per parent suffices.
    """
    covered = [0.0] * len(starts)
    run_end = [None] * len(starts)  # end of the merged child run currently open per parent
    for sid, parent in enumerate(parents):
        if parent < 0:
            continue
        lo = max(starts[sid], starts[parent])
        hi = min(ends[sid], ends[parent])
        if hi <= lo:
            continue
        open_end = run_end[parent]
        if open_end is not None and lo < open_end:
            if hi > open_end:
                covered[parent] += hi - open_end
                run_end[parent] = hi
        else:
            covered[parent] += hi - lo
            run_end[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


# functions and layers the traced run reports on, in BENCHMARK.json order
CALLS_AND_TIME = (
    "dynamics.quantum_jump_estimate", "dynamics.build_liouvillian", "dynamics.steady_state_numeric",
    "farfield.field_operator", "farfield.g1", "farfield.intensity",
    "correlations.g2_factorized", "correlations.correlation_point", "correlations.g2_normalized",
    "scans.intensity_scan", "scans.g2_scan",
    "exact_oracle.pair_field_matrix", "exact_oracle.g2_exact",
    "cli.main", "validation.run_validation", "config.load_config",
)
CALLS_ONLY = (
    "farfield.mean_field", "correlations.gamma2_from_operators",
    "exact_oracle.conditioned_state", "exact_oracle.intensity_exact",
)
SELF_TIME = ("dynamics", "farfield", "correlations", "scans", "exact_oracle", "cli", "validation", "atom_model")


def metric_units() -> dict:
    units = {}
    for name in CALLS_AND_TIME:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    for layer in SELF_TIME:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "dynamics.quantum_jump_estimate.traj_time": "traj/Gamma",
        "dynamics.quantum_jump_estimate.samples": "count",
        "dynamics.steady_state_numeric.per_set": "solves/set",
        "farfield.field_operator.per_point": "calls/point",
        "scans.points": "count",
        "exact_oracle.pair_field_matrix.per_pair": "calls/pair",
        "validation.checks": "count",
        "atom_model.calls": "count",
        "trace.overhead_frac": "fraction",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Per-layer metrics of the traced pass: ``{name: value}`` for every name in metric_units()."""
    calls = Counter()
    inclusive = Counter()
    layer_self = Counter()
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    for sid, idx in enumerate(tracer.name_ids):
        name = tracer.names[idx]
        calls[name] += 1
        inclusive[name] += tracer.ends[sid] - tracer.starts[sid]  # no atompair function recurses
        layer_self[name.split(".", 1)[0]] += selfs[sid]
    counters = tracer.counters
    values = {}
    for name in CALLS_AND_TIME:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.s"] = inclusive[name]
    for name in CALLS_ONLY:
        values[f"{name}.calls"] = calls[name]
    for layer in SELF_TIME:
        values[f"{layer}.self_s"] = layer_self[layer]
    values.update({
        "dynamics.quantum_jump_estimate.traj_time": counters["dynamics.quantum_jump_estimate.traj_time"],
        "dynamics.quantum_jump_estimate.samples": counters["dynamics.quantum_jump_estimate.samples"],
        "dynamics.steady_state_numeric.per_set": _ratio(calls["dynamics.steady_state_numeric"], len(counters.param_sets)),
        "farfield.field_operator.per_point": _ratio(calls["farfield.field_operator"], counters["scans.points"]),
        "scans.points": counters["scans.points"],
        "exact_oracle.pair_field_matrix.per_pair": _ratio(calls["exact_oracle.pair_field_matrix"], calls["exact_oracle.g2_exact"]),
        "validation.checks": counters["validation.checks"],
        "atom_model.calls": sum(n for name, n in calls.items() if name.startswith("atom_model.")),
        "trace.overhead_frac": overhead_frac,
    })
    units = metric_units()
    return {name: values[name] for name in units}
