"""Spans and call counters recorded from outside the program.

The tracer replaces public callables of ``confsub`` modules and classes
with thin wrappers while it is installed, and puts the originals back when
it is removed, so traced and untraced passes can alternate in one process.
Nothing under ``src/`` changes.

A span is ``(id, name, start, end, parent id, pass id)``.  Every span is
folded into per-name inclusive and self time as it closes; the first
SPAN_CAP spans are also kept in memory and written out at exit.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter

SPAN_CAP = 100_000  # about 7 MB of JSON


def _span_targets():
    """(owner, attribute, span name or None, counter name or None).

    A span name may be a callable of the call's arguments.  Functions that
    other modules bind by name (``eval_expr``) are wrapped where they are
    bound, so the recursion inside ``expr`` stays unwrapped and only the
    outermost evaluation opens a span.
    """
    from confsub import (catalog, geometry, identities, jets, report,
                         soliton, submersion)
    from confsub.jets import Jet

    def eval_name(args, kwargs):
        env = args[1] if len(args) > 1 else kwargs["env"]
        for value in env.values():
            return "expr.eval_jet" if isinstance(value, Jet) else "expr.eval"
        return "expr.eval"

    targets = [
        (identities.IdentityContext, "__init__", "identities.context",
         "identities.contexts"),
        (report, "run_check",
         lambda a, k: "identities.check." + (a[0] if a else k["check_id"]),
         None),
        (geometry.ChartManifold, "metric_at", None, "geometry.metric_evals"),
        (jets.JetSpace, "seed", None, "jets.seeds"),
        (catalog, "run_example",
         lambda a, k: "catalog.run_example." + (a[0] if a else
                                                k["example_id"]), None),
    ]
    for name in SOLITON_FUNCTIONS:
        targets.append((soliton, name, "soliton." + name, None))
    for name in SUBMERSION_FUNCTIONS:
        targets.append((submersion, name, "submersion." + name, None))
    for name in SUBMERSION_METHODS:
        counter = ("submersion.projectors_calls" if name == "projectors_at"
                   else None)
        targets.append((submersion.SubmersionSetup, name,
                        "submersion." + name, counter))
    for name in GEOMETRY_FUNCTIONS:
        targets.append((geometry, name, "geometry." + name, None))
    for module in (geometry, submersion, catalog):
        targets.append((module, "eval_expr", eval_name, None))
    return targets


SOLITON_FUNCTIONS = ("fit_mu", "conformal_field_fit", "fiber_soliton_report",
                     "base_soliton_report", "scalar_mu_consistency",
                     "harmonicity_report")
SUBMERSION_FUNCTIONS = ("structure_flags", "mean_curvature_at",
                        "vertical_trace_T_at", "fiber_slice_chart")
SUBMERSION_METHODS = ("projectors_at", "lambda_sq_at")  # of SubmersionSetup
GEOMETRY_FUNCTIONS = ("christoffels_at", "curvature_tensor_at",
                      "ricci_matrix_at")


class Tracer:
    """Installs span and counter wrappers on ``confsub`` callables."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.pass_id = 0
        self._stack = []  # open frames: [name, start, child time, id, parent]
        self._active = Counter()  # open frames per name
        self._next_id = 1
        self._saved = []
        self.missing = []  # targets the program no longer defines

    # -- spans -----------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, perf_counter(), 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def close(self, frame):
        end = perf_counter()
        name, start, child, span_id, parent = frame
        self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        if self._active[name] == 0:  # a recursive call is counted once
            self.inclusive[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent,
                               self.pass_id))
        else:
            self.dropped += 1

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, span_name, counter):
        tracer = self
        counts = self.counts
        if span_name is None:
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            name = span_name
            if callable(name):
                name = name(args, kwargs)
            frame = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)
        return traced

    def install(self):
        if self._saved:
            return
        self.missing = []
        for owner, attr, span_name, counter in _span_targets():
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        """Write the kept spans, oldest first, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "pass"],
                       "dropped": self.dropped,
                       "spans": sorted(self.spans)}, fh)
