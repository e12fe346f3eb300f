"""Span tracer wrapped around rfharvest's layer boundaries from outside.

``Tracer.patch()`` replaces every public function of the seven traced
modules, plus two methods, with a wrapper that records a span (name,
start, end, parent) in memory. The wrapper is installed under every
name that binds the original in any loaded ``rfharvest`` module, so a
function imported by another module (``simulate`` in ``learning`` and
``harness``, for example) is traced on every path. Leaving the context
restores the originals.

Per-layer metrics are derived from the recorded spans afterwards. A
layer that the workload never calls reads 0; a function, method or
result attribute that no longer exists reads null.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

from workloads import KnownBattery

MODULES = ("gilbert_elliott", "learning", "harness", "threshold", "value_iteration", "battery", "cli")
# (module, class, method) -> span name
METHODS = {
    ("learning", "SleepTimePlanner", "plan"): "learning.plan",
    ("learning", "EpisodeTrace", "write_jsonl"): "learning.write_jsonl",
}
# bytes of per-episode state touched once per Monte-Carlo slot: the good
# flag (bool), timer (int64), running total (float64) and one float64 draw
MC_BYTES_PER_EPISODE_SLOT = 1 + 8 + 8 + 8


# probes read a traced call's arguments (bound by name) and result


def _solve_probe(arguments, result):
    return {"iterations": result.iterations, "lines": len(result.value.lines)}


def _absorption_probe(arguments, result):
    return {"capacity": result.capacity}


def _chain_probe(arguments, result):
    """Bytes of the chain's arrays, computed from their shapes and dtypes."""
    return {"bytes": sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))}


def _mc_probe(arguments, result):
    return {"bytes": arguments["episodes"] * arguments["horizon"] * MC_BYTES_PER_EPISODE_SLOT}


PROBES = {
    "value_iteration.solve": _solve_probe,
    "battery.absorption_analysis": _absorption_probe,
    "battery.build_chain": _chain_probe,
    "harness.mc_policy_value": _mc_probe,
}


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict | None] = {}
        self.wrapped: set[str] = set()
        self.enabled = False  # spans are recorded only while set
        self._stack: list[int] = []

    def _wrap(self, span: str, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        probe = PROBES.get(span)
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    self.attrs[idx] = probe(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    self.attrs[idx] = None
            return result

        return wrapper

    def _targets(self):
        """(span name, original, [(owner, attribute)]) for each traced callable."""
        loaded = [m for name, m in list(sys.modules.items()) if name == "rfharvest" or name.startswith("rfharvest.")]
        for short in MODULES:
            module = importlib.import_module(f"rfharvest.{short}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                owners = [(m, a) for m in loaded for a, v in list(vars(m).items()) if v is fn]
                yield f"{short}.{attr}", fn, owners
        for (short, cls_name, method), span in METHODS.items():
            cls = getattr(importlib.import_module(f"rfharvest.{short}"), cls_name, None)
            fn = None if cls is None else cls.__dict__.get(method)
            if inspect.isfunction(fn):
                yield span, fn, [(cls, method)]

    @contextlib.contextmanager
    def patch(self):
        saved = []
        try:
            for span, fn, owners in list(self._targets()):
                wrapper = self._wrap(span, fn)
                self.wrapped.add(span)
                for owner, attr in owners:
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- derived quantities -------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        out = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[i]
        return out


def _percentile_us(durations: list[float], pct: float) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(np.asarray(durations), pct) * 1e6)


def layer_metrics(tracer: Tracer, stats: dict, overhead_frac: float) -> dict:
    """Every per-layer metric, keyed by name, as (value or None)."""
    selfs = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    def present(span):
        return span in tracer.wrapped

    def calls(span):
        return len(by_name.get(span, [])) if present(span) else None

    def self_s(span):
        return sum(selfs[i] for i in by_name.get(span, [])) if present(span) else None

    def total_s(span, where=lambda i: True):
        if not present(span):
            return None
        return sum(tracer.ends[i] - tracer.starts[i] for i in by_name.get(span, []) if where(i))

    def pct_us(span, pct):
        if not present(span):
            return None
        return _percentile_us([tracer.ends[i] - tracer.starts[i] for i in by_name.get(span, [])], pct)

    def attr_values(span, key):
        """Probe values of the span's calls that returned; None if one lacked it."""
        if not present(span):
            return None
        values = []
        for i in by_name.get(span, []):
            if i not in tracer.attrs:  # the call raised
                continue
            a = tracer.attrs[i]
            if a is None or key not in a:
                return None
            values.append(a[key])
        return values

    def attr_sum(span, key):
        values = attr_values(span, key)
        return None if values is None else sum(values)

    def miss_ratio():
        plans = calls("learning.plan")
        if plans is None or not present("threshold.optimal_sleep_time"):
            return None
        misses = sum(
            1
            for i in by_name.get("threshold.optimal_sleep_time", [])
            if tracer.parents[i] >= 0 and tracer.names[tracer.parents[i]] == "learning.plan"
        )
        return misses / plans if plans else 0.0

    def at_capacity(cap):
        span = "battery.absorption_analysis"
        if attr_values(span, "capacity") is None:
            return None
        return total_s(span, lambda i: (tracer.attrs.get(i) or {}).get("capacity") == cap)

    lines = attr_values("value_iteration.solve", "lines")
    records = stats.get("records", 0)
    metrics = {
        "learning.observe.calls": calls("learning.observe"),
        "learning.observe.self_s": self_s("learning.observe"),
        "learning.observe.us_p50": pct_us("learning.observe", 50),
        "learning.observe.us_p99": pct_us("learning.observe", 99),
        "learning.sample_and_plan.calls": calls("learning.sample_and_plan"),
        "learning.sample_and_plan.self_s": self_s("learning.sample_and_plan"),
        "learning.plan.calls": calls("learning.plan"),
        "learning.plan.miss_ratio": miss_ratio(),
        "learning.run_learner.self_s": self_s("learning.run_learner"),
        "learning.write_jsonl.s": total_s("learning.write_jsonl"),
        "learning.write_jsonl.bytes": stats.get("jsonl_bytes", 0),
        "learning.hypotheses_mean": stats.get("hypotheses", 0) / records if records else 0.0,
        "harness.evaluate.self_s": self_s("harness.evaluate"),
        "gilbert_elliott.simulate.calls": calls("gilbert_elliott.simulate"),
        "gilbert_elliott.simulate.self_s": self_s("gilbert_elliott.simulate"),
        "cli.main.self_s": self_s("cli.main"),
        "threshold.optimal_sleep_time.calls": calls("threshold.optimal_sleep_time"),
        "threshold.optimal_sleep_time.self_s": self_s("threshold.optimal_sleep_time"),
        "threshold.optimal_sleep_time.us_p50": pct_us("threshold.optimal_sleep_time", 50),
        "threshold.policy_value_linear_system.calls": calls("threshold.policy_value_linear_system"),
        "threshold.build_lookup_table.s": total_s("threshold.build_lookup_table"),
        "value_iteration.solve.calls": calls("value_iteration.solve"),
        "value_iteration.solve.iterations": attr_sum("value_iteration.solve", "iterations"),
        "value_iteration.bellman_backup_alpha.calls": calls("value_iteration.bellman_backup_alpha"),
        "value_iteration.bellman_backup_alpha.self_s": self_s("value_iteration.bellman_backup_alpha"),
        "value_iteration.bellman_backup_alpha.us_p50": pct_us("value_iteration.bellman_backup_alpha", 50),
        "value_iteration.prune_lines.self_s": self_s("value_iteration.prune_lines"),
        "value_iteration.sup_difference.self_s": self_s("value_iteration.sup_difference"),
        "value_iteration.lines_max": None if lines is None else max(lines, default=0),
        "battery.build_chain.s": total_s("battery.build_chain"),
        "battery.bytes_computed": attr_sum("battery.build_chain", "bytes"),
        "harness.mc_policy_value.s": total_s("harness.mc_policy_value"),
        "harness.mc_policy_value.bytes_computed": attr_sum("harness.mc_policy_value", "bytes"),
        "trace.overhead_frac": overhead_frac,
    }
    for cap in KnownBattery.LADDER:
        metrics[f"battery.absorption_analysis.c{cap}.s"] = at_capacity(cap)
    return metrics
