"""Spans around the package's public functions, recorded from outside.

:func:`install` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent span, item, counters) while the
tracer is active, and calls straight through otherwise.  The item is the
worker's attempt number, so spans of one item run share it.  A function is
replaced under every ``viskeep`` module attribute bound to it, because the
modules import each other's names (``cli`` calls ``gain_polytope`` through
its own namespace).  No file of the package is changed; :func:`uninstall`
puts the originals back.

Span times are CPU time of the process, the clock the worker times items
with; :func:`layer_metrics` scales them like the item times (see
worker.py).  Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer numbers and :meth:`Tracer.dump` gives them out for writing when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import process_time

from viskeep import (boxes, chains, cli, inequalities, scenarios, simulate,
                     synthesis, systems)

MODULES = ("cli", "scenarios", "inequalities", "synthesis", "boxes",
           "systems", "simulate", "chains")


class Tracer:
    """In-memory span recorder with an explicit parent stack."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item, counts]
        self._stack: list[int] = []
        self.active = False
        self.item = None
        self._installed: list[tuple] = []

    def call(self, name, fn, before, after, args, kwargs):
        counts = before(*args, **kwargs) if before else {}
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.item, counts]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = process_time()
            self._stack.pop()
        if after:
            counts.update(after(result, *args, **kwargs))
        return result

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "item", "counts")
        return [dict(zip(keys, rec)) for rec in self.spans]


# ----------------------------------------------------------------------
# Counters taken at the layer boundary
# ----------------------------------------------------------------------


def _rows_in(system, *_a, **_k):
    return {"rows_in": len(system.rows)}


def _rows_out(result, *_a, **_k):
    return {"rows_out": len(result.rows)}


def _elim_pairs(system, var, *_a, **_k):
    pos = sum(1 for r in system.rows if r.g[var] > 0)
    neg = sum(1 for r in system.rows if r.g[var] < 0)
    return {"pairs": pos * neg}


_SWITCHING = inspect.signature(systems.simulate_linear_switching)


def _switching_steps(*args, **kwargs):
    call = _SWITCHING.bind(*args, **kwargs)
    call.apply_defaults()
    a = call.arguments
    return {"state_steps": a["n_runs"] * int(round(a["horizon"] / a["dt"]))}


def _link_steps(result, *_a, **_k):
    traces = result if isinstance(result, list) else [result]
    return {
        "link_steps": sum(len(t.times) - 1 for t in traces),
        "clamps": sum(t.clamp_events for t in traces),
    }


def _csv_bytes(_result, trace, path, *_a, **_k):
    return {"bytes": os.path.getsize(path)}


# (span name, module, attribute, counters before the call, after the call)
TARGETS = (
    ("cli.main", cli, "main", None, None),
    ("scenarios.polytope", scenarios, "gain_polytope", None, _rows_out),
    ("scenarios.polytope", scenarios, "gain_polytope_ubb", None, _rows_out),
    ("scenarios.polytope", scenarios, "gain_polytope_circle", None, _rows_out),
    ("scenarios.fme_check", scenarios, "derive_conditions_fme", None, None),
    ("scenarios.build_system", scenarios, "build_basic_system", None, None),
    ("scenarios.build_system", scenarios, "build_ubb_system", None, None),
    ("scenarios.build_system", scenarios, "build_circle_system", None, None),
    ("scenarios.closed_form", scenarios, "feasible_basic", None, None),
    ("scenarios.closed_form", scenarios, "feasible_ubb", None, None),
    ("scenarios.closed_form", scenarios, "feasible_circle", None, None),
    ("inequalities.reduce", inequalities.LinearInequalitySystem, "reduce",
     _rows_in, _rows_out),
    ("inequalities.eliminate", inequalities.LinearInequalitySystem,
     "eliminate", _elim_pairs, None),
    ("synthesis.min_norm", synthesis, "min_norm_gain", None, None),
    ("boxes.shifted_cone", boxes, "shifted_cone", None, None),
    ("systems.admissible_cert", systems, "check_admissible", None, None),
    ("systems.cone_cert", systems, "check_D_invariant_cone", None, None),
    ("systems.switching", systems, "simulate_linear_switching",
     _switching_steps, None),
    ("simulate.rk4", simulate, "simulate_basic", None, _link_steps),
    ("simulate.rk4", simulate, "simulate_ubb", None, _link_steps),
    ("simulate.rk4", simulate, "simulate_circle", None, _link_steps),
    ("simulate.rk4", simulate, "simulate_chain", None, _link_steps),
    ("simulate.monitor", simulate, "monitor", None, None),
    ("simulate.csv", simulate.SimTrace, "to_csv", None, _csv_bytes),
    ("chains.feasible", chains, "feasible_chain", None, None),
)


def _wrapper(tracer, name, fn, before, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, before, after, args, kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target; :func:`uninstall` undoes it."""
    if tracer._installed:
        raise RuntimeError("tracer already installed")
    package = [m for n, m in sorted(sys.modules.items())
               if n == "viskeep" or n.startswith("viskeep.")]
    for name, owner, attr, before, after in TARGETS:
        original = getattr(owner, attr)
        wrapped = _wrapper(tracer, name, original, before, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            tracer._installed.append((owner, attr, original))
            continue
        for mod in package:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    tracer._installed.append((mod, key, original))


def uninstall(tracer: Tracer) -> None:
    for owner, attr, original in reversed(tracer._installed):
        setattr(owner, attr, original)
    tracer._installed.clear()


# ----------------------------------------------------------------------
# Per-layer numbers
# ----------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the children's durations (children never overlap:
    spans come from one thread with a strict call stack)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _item, _c in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[list], traced_s: float, passes: int,
                  scale: dict | None = None) -> dict:
    """Per-pass per-layer metrics from the spans of `passes` traced passes.

    `traced_s` is the summed, already scaled item time of those passes;
    `scale` maps a span's item to the factor its times are multiplied by.
    The module self times plus ``trace.unspanned_s`` add up to
    ``trace.run_s``.
    """
    scale = scale or {}
    incl = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    roots = 0.0
    for rec, own in zip(spans, self_times(spans)):
        name, start, end, parent, item = rec[:5]
        k = scale.get(item, 1.0)
        incl[name] += (end - start) * k
        self_by_name[name] += own * k
        calls[name] += 1
        for key, val in rec[5].items():
            counts[f"{name}.{key}"] += val
        if parent is None:
            roots += (end - start) * k

    def rate(num, den):
        return num / den if den > 0 else 0.0

    per = 1.0 / passes
    m = {
        "inequalities.reduce_s": incl["inequalities.reduce"],
        "inequalities.reduce_calls": calls["inequalities.reduce"],
        "inequalities.reduce_rows_in": counts["inequalities.reduce.rows_in"],
        "inequalities.reduce_rows_out": counts["inequalities.reduce.rows_out"],
        "inequalities.eliminate_calls": calls["inequalities.eliminate"],
        "inequalities.eliminate_pairs": counts["inequalities.eliminate.pairs"],
        "scenarios.polytope_s": incl["scenarios.polytope"],
        "scenarios.polytope_rows": counts["scenarios.polytope.rows_out"],
        "scenarios.fme_check_s": incl["scenarios.fme_check"],
        "synthesis.min_norm_self_s": self_by_name["synthesis.min_norm"],
        "boxes.shifted_cone_s": incl["boxes.shifted_cone"],
        "boxes.shifted_cone_calls": calls["boxes.shifted_cone"],
        "systems.cone_cert_s": incl["systems.cone_cert"],
        "systems.admissible_cert_s": incl["systems.admissible_cert"],
        "systems.switching_s": incl["systems.switching"],
        "systems.switching_state_steps": counts["systems.switching.state_steps"],
        "simulate.rk4_s": incl["simulate.rk4"],
        "simulate.rk4_link_steps": counts["simulate.rk4.link_steps"],
        "simulate.clamp_events": counts["simulate.rk4.clamps"],
        "simulate.monitor_s": incl["simulate.monitor"],
        "simulate.csv_s": incl["simulate.csv"],
        "simulate.csv_bytes": counts["simulate.csv.bytes"],
    }
    m = {k: v * per for k, v in m.items()}
    m["systems.switching_steps_per_s"] = rate(
        m["systems.switching_state_steps"], m["systems.switching_s"])
    m["simulate.rk4_link_steps_per_s"] = rate(
        m["simulate.rk4_link_steps"], m["simulate.rk4_s"])
    m["simulate.csv_bytes_per_s"] = rate(m["simulate.csv_bytes"], m["simulate.csv_s"])
    for mod in MODULES:
        m[f"{mod}.self_s"] = per * sum(
            v for k, v in self_by_name.items() if k.split(".", 1)[0] == mod)
    m["trace.unspanned_s"] = per * (traced_s - roots)
    m["trace.run_s"] = per * traced_s
    return m
