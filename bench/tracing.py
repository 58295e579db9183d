"""Span recording around kscope's public layer functions.

:func:`installed` replaces each layer function, in every kscope module that
binds it by name, with a wrapper that records a span (name, start, end,
parent) and the layer's counts.  Spans stay in memory until
:meth:`Tracer.write`.  A layer's self time is its spans' durations minus
the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

import numpy as np


def _rows(result):
    return int(len(result[0]))


def _jumps(result):
    return int(result.jump_radii.size)


def _clamped(reports):
    flags = ("NONPOSITIVE_VARIANCE", "DEGENERATE_PATTERN")
    return sum(
        1 for r in reports.values() if any(w.startswith(flags) for w in r.warnings)
    )


def _replicates(report):
    return int(report.replicates) * len(report.windows)


# (layer, module, attribute, counts): counts maps a count name to a function
# of the call's result.
LAYERS = [
    ("simulate.simulate", "kscope.simulate", "simulate", {"points": len}),
    ("pattern.validate", "kscope.pattern", "PointPattern.__init__", {}),
    ("pattern.io", "kscope.pattern", "load_pattern", {}),
    ("pattern.io", "kscope.pattern", "save_pattern", {}),
    ("pattern.pairs", "kscope.pattern", "pair_arrays", {"pairs": _rows}),
    ("geometry.set_covariance", "kscope.geometry", "Box.set_covariance",
     {"shifts": np.size}),
    ("geometry.set_covariance", "kscope.geometry", "Disk.set_covariance",
     {"shifts": np.size}),
    ("estimate.k_hat", "kscope.estimate", "k_hat", {"jumps": _jumps}),
    ("estimate.sigma2_hat", "kscope.estimate", "sigma2_hat", {}),
    ("estimate.scaled_delta", "kscope.estimate", "scaled_delta", {}),
    ("gof.one_sample", "kscope.gof", "one_sample_reports",
     {"tests": len, "clamped": _clamped}),
    ("gof.two_sample", "kscope.gof", "two_sample_reports",
     {"tests": len, "clamped": _clamped}),
    ("mcharness.run_study", "kscope.mcharness", "run_study",
     {"replicates": _replicates}),
    ("cli.main", "kscope.cli", "main", {}),
]

MODULES = [
    "kscope", "kscope.geometry", "kscope.pattern", "kscope.simulate",
    "kscope.estimate", "kscope.gof", "kscope.mcharness", "kscope.cli",
]


class Tracer:
    """Spans, per-layer call counts and counts of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.child_time = []
        self.counts = {}
        self.calls = {}
        self.absent = []
        self._stack = []

    def wrap(self, layer, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None, parent])
            self.child_time.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][2] = end
                if parent >= 0:
                    self.child_time[parent] += end - self.spans[idx][1]
            self.calls[layer] = self.calls.get(layer, 0) + 1
            for name, count in counts.items():
                key = f"{layer}.{name}"
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        return traced

    def self_seconds(self) -> dict:
        out = {}
        for (name, start, end, _parent), child in zip(self.spans, self.child_time):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    modules = [importlib.import_module(m) for m in MODULES]
    undo = []
    for layer, module_name, attr, counts in LAYERS:
        owner_name, _, method = attr.rpartition(".")
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None)
        if original is None:
            if f"{module_name}.{attr}" not in tracer.absent:
                tracer.absent.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(layer, original, counts)
        if owner_name:
            targets = [(owner, method)]
        else:
            targets = [(mod, name) for mod in modules
                       for name, value in vars(mod).items() if value is original]
        for target, name in targets:
            setattr(target, name, wrapped)
            undo.append((target, name, original))
    try:
        yield tracer
    finally:
        for target, name, original in reversed(undo):
            setattr(target, name, original)


SELF_TIMED = [
    "simulate.simulate", "pattern.validate", "pattern.io", "pattern.pairs",
    "geometry.set_covariance", "estimate.k_hat", "estimate.sigma2_hat",
    "estimate.scaled_delta", "gof.one_sample", "gof.two_sample",
    "mcharness.run_study", "cli.main",
]
COUNTED = [
    "simulate.simulate.points", "pattern.pairs.pairs",
    "geometry.set_covariance.shifts", "estimate.k_hat.jumps",
    "gof.one_sample.tests", "gof.one_sample.clamped",
    "gof.two_sample.tests", "gof.two_sample.clamped",
    "mcharness.run_study.replicates",
]
CALLED = ["pattern.pairs", "estimate.sigma2_hat"]


def per_layer(tracer: Tracer, overhead_s: float) -> dict:
    """The per-layer metrics; a layer that did not run reports zeros."""
    self_s = tracer.self_seconds()
    out = {f"{layer}.self_s": {"value": self_s.get(layer, 0.0), "unit": "s"}
           for layer in SELF_TIMED}
    for name in COUNTED:
        out[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    for layer in CALLED:
        out[f"{layer}.calls"] = {"value": tracer.calls.get(layer, 0), "unit": "count"}
    pair_s = self_s.get("pattern.pairs", 0.0)
    out["pattern.pairs.pairs_per_s"] = {
        "value": tracer.counts.get("pattern.pairs.pairs", 0) / pair_s if pair_s else 0.0,
        "unit": "1/s",
    }
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
