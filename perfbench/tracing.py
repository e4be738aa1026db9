"""Per-layer tracing from outside the package.

``install`` wraps the public functions named in ``TRACED`` and binds each
wrapper wherever a ``wignerflow`` module holds the original object, so the
callers pick the wrapper up without any file under ``src/`` changing.  Every
call records a span ``[id, parent, name, start, end, counts]``; spans stay in
memory and the step writes them out when it ends.  ``per_layer_metrics``
turns the spans of all steps of a traced round into the per-layer metrics.

Worker threads (``sample_field --threads``) start with an empty span stack;
their spans take the innermost open span of the main thread as parent, which
is the ``sample_field`` call that started them.
"""

import importlib
import os
import sys
import threading
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _count_integrand(args, kwargs, counts):
    """integrate_1d: count integrand evaluations through a counting wrapper."""
    f = args[0]

    def counted(t):
        counts["evals"] += 1
        return f(t)

    counts["evals"] = 0
    return (counted,) + tuple(args[1:]), kwargs


def _grid_rows(obj):
    if hasattr(obj, "spec") and hasattr(obj, "values"):
        return obj.spec.nx * obj.spec.nk
    return len(obj)


def _key(a, kw, r):
    return {"key": [a[0], a[1]]}


# (span name, module, attribute, argument hook, result hook).  An argument
# hook may replace the call's arguments and fill counts; a result hook fills
# counts from the arguments and the result.  A "key" count lists the call's
# distinct inputs, for the repeat ratio.  Both partition functions record as
# one layer, thermo.partition.
TRACED = [
    ("specfun.bessel_k", "wignerflow.specfun", "bessel_k", None, None),
    ("specfun.integrate_1d", "wignerflow.specfun", "integrate_1d",
     _count_integrand, None),
    ("specfun.faddeeva_w", "wignerflow.specfun", "faddeeva_w", None,
     lambda a, kw, r: {"points": int(getattr(a[0], "size", 1))}),
    ("gaussian.integrate_quantum_trajectory", "wignerflow.gaussian",
     "integrate_quantum_trajectory", None,
     lambda a, kw, r: {"steps": len(r[0]) - 1}),
    ("gaussian.find_stagnation_points", "wignerflow.gaussian",
     "find_stagnation_points", None, lambda a, kw, r: {"points": len(r)}),
    ("gaussian.circulation_number", "wignerflow.gaussian",
     "circulation_number", None, None),
    ("classical.integrate_orbit", "wignerflow.classical", "integrate_orbit",
     None, lambda a, kw, r: {"steps": len(r) - 1,
                             "key": [a[0].model.kind.value, a[0].model.a,
                                     a[0].start.x, a[0].start.k, a[0].step]}),
    ("classical.toda_closed_period", "wignerflow.classical",
     "toda_closed_period", None, None),
    ("classical.toda_species_series", "wignerflow.classical",
     "toda_species_series", None, None),
    ("thermo.observables", "wignerflow.thermo", "observables", None, None),
    ("thermo.beta_star", "wignerflow.thermo", "beta_star", None, None),
    ("thermo.partition", "wignerflow.thermo", "z0_closed", None, _key),
    ("thermo.partition", "wignerflow.thermo", "z_st_closed", None, _key),
    ("fieldgrid.sample_field", "wignerflow.fieldgrid", "sample_field", None,
     lambda a, kw, r: {"nodes": a[2].nx * a[2].nk}),
    ("fieldgrid.export_table", "wignerflow.fieldgrid", "export_table", None,
     lambda a, kw, r: {"rows": _grid_rows(a[0]), "format": a[1],
                       "bytes": os.path.getsize(a[2])}),
    ("fieldgrid.zero_contours", "wignerflow.fieldgrid", "zero_contours", None,
     lambda a, kw, r: {"cells": (a[0].spec.nx - 1) * (a[0].spec.nk - 1),
                       "segments": sum(len(p) - 1 for p in r)}),
] + [(f"cli.{cmd}", "wignerflow.cli", f"cmd_{cmd}", None, None)
     for cmd in ("orbit", "analytic", "thermo", "field", "stagnation",
                 "trajectory")]


class Recorder:
    """Spans of one process, kept in memory until the step ends."""

    def __init__(self):
        self.spans = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before, after):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            with self._lock:
                span_id = next(self._ids)
            counts = {}
            if before is not None:
                args, kwargs = before(args, kwargs, counts)
            stack.append(span_id)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # a call that raises (a validity error the caller handles)
                # still took its time
                stack.pop()
                self.spans.append([span_id, parent, name, start, _now(),
                                   counts])
                raise
            end = _now()
            stack.pop()
            if after is not None:
                counts.update(after(args, kwargs, result))
            self.spans.append([span_id, parent, name, start, end, counts])
            return result

        traced.__wrapped__ = fn
        return traced


def install():
    """Bind a wrapper for every traced function; return the recorder."""
    rec = Recorder()
    for name, module, attr, before, after in TRACED:
        original = getattr(importlib.import_module(module), attr)
        wrapper = rec.wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("wignerflow") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return rec


# ---------------------------------------------------------------------------
# aggregation (parent process)
# ---------------------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_table(spans):
    """Per span name: calls, total and self time (``total_s``, ``self_s``),
    time per export format (``csv_s``, ``json_s``), summed counts, and the
    calls per distinct key (``repeat_ratio``)."""
    children = {}
    for sid, parent, name, start, end, counts in spans:
        children.setdefault(parent, []).append((start, end))
    table, keys = {}, {}
    for sid, parent, name, start, end, counts in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        dur = end - start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - _covered(children.get(sid, []))
        for key, value in counts.items():
            if key == "key":
                keys.setdefault(name, set()).add(tuple(value))
            elif key == "format":
                row[f"{value}_s"] = row.get(f"{value}_s", 0.0) + dur
            else:
                row[key] = row.get(key, 0) + value
    for name, distinct in keys.items():
        table[name]["repeat_ratio"] = table[name]["calls"] / len(distinct)
    return table


def per_layer_metrics(step_spans, names):
    """The metrics ``names`` (``<span name>.<field>``) of one traced round,
    0 where the span never ran.  ``step_spans`` lists each step's spans;
    span ids are unique within a step only."""
    merged = []
    for i, spans in enumerate(step_spans):
        off = (i + 1) << 40
        merged.extend([sid + off, parent + off if parent else 0, name, s, e, c]
                      for sid, parent, name, s, e, c in spans)
    table = span_table(merged)
    out = {}
    for metric in names:
        span, field = metric.rsplit(".", 1)
        out[metric] = table.get(span, {}).get(field, 0)
    return out
