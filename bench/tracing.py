"""Per-layer tracing: timing wrappers around the public functions of triforms.

The wrappers are installed from outside the library.  Each is bound wherever
callers look the name up: on the class for MultiPoly methods, and in every
loaded triforms module whose globals hold the original function (for
example ``biquadratic.ternary_zeros_ext``, imported by name at load time).
A span's self time is its duration minus the time its wrapped child spans
cover.  Spans stay in memory, up to a cap, and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (label, module, attributes timed under the label, metrics reported); the
# label is the metric-name prefix.
TARGETS = (
    ("poly.MultiPoly.init", "triforms.poly", ("MultiPoly.__init__",), ("calls",)),
    ("poly.MultiPoly.mul", "triforms.poly", ("MultiPoly.__mul__",), ("self_s",)),
    ("poly.MultiPoly.add", "triforms.poly", ("MultiPoly.__add__",), ("self_s",)),
    ("poly.MultiPoly.substitute_linear", "triforms.poly",
     ("MultiPoly.substitute_linear",), ("self_s",)),
    ("poly.parse_poly", "triforms.poly", ("parse_poly",), ("self_s",)),
    ("cli.main", "triforms.cli", ("main",), ("calls", "self_s")),
    ("matrices.block_substitution", "triforms.matrices", ("block_substitution",), ("self_s",)),
    ("elimination.det_bareiss", "triforms.elimination", ("det_bareiss",), ("calls", "self_s")),
    ("elimination.det_mod_p", "triforms.elimination", ("det_mod_p",), ("calls", "self_s")),
    ("elimination.macaulay_resultant", "triforms.elimination",
     ("macaulay_resultant",), ("calls", "self_s")),
    ("elimination.is_smooth_mod_p", "triforms.elimination", ("is_smooth_mod_p",), ("self_s",)),
    ("elimination.bad_primes", "triforms.elimination", ("bad_primes",), ("self_s",)),
    ("cubic.cubic_invariants", "triforms.cubic", ("cubic_invariants",), ("self_s",)),
    ("biquadratic.canonicalize", "triforms.biquadratic", ("canonicalize",), ("self_s",)),
    ("biquadratic.act_22", "triforms.biquadratic", ("act_22",), ("self_s",)),
    ("biquadratic.verify_well_defined", "triforms.biquadratic",
     ("verify_well_defined",), ("self_s",)),
    ("biquadratic.sextic_covariant", "triforms.biquadratic",
     ("sextic_covariant_x", "sextic_covariant_z"), ("self_s",)),
    ("biquadratic.gram_matrices", "triforms.biquadratic", ("gram_matrices",), ("calls", "self_s")),
    ("biquadratic.tangency_test", "triforms.biquadratic", ("tangency_test",), ("calls", "self_s")),
    ("biquadratic.branch_locus_report", "triforms.biquadratic",
     ("branch_locus_report",), ("self_s",)),
    ("biquadratic.is_generic_mod_p", "triforms.biquadratic",
     ("is_generic_mod_p",), ("self_s", "true_ratio")),
    ("finitefield.ternary_zeros_ext", "triforms.finitefield",
     ("ternary_zeros_ext",), ("calls", "self_s")),
)

UNITS = {"calls": "calls/job", "self_s": "s/job", "true_ratio": "ratio"}
SPAN_CAP = 20_000  # spans kept in memory; later ones only count in the tallies


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {
        f"{label}.{metric}": UNITS[metric]
        for label, _module, _attrs, metrics in TARGETS
        for metric in metrics
    }
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Spans and per-label tallies of the wrapped calls made inside jobs."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.true_results: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._job_id = -1
        self._next_span = 0
        self._restore: list[tuple] = []

    def job(self, kind: str, fn):
        """Run one job as a root span; wrapped calls inside it are recorded."""
        self._job_id += 1
        return self.span("job." + kind, fn, (), {})

    def span(self, label: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_span, 0.0]  # span id, time covered by child spans
        self._next_span += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[label] += 1
            self.self_s[label] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (self._job_id, frame[0], parent and parent[0], label, start, end)
                )
            else:
                self.dropped += 1

    def _wrap(self, label: str, fn, count_true: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:  # outside a job, e.g. in an answer check
                return fn(*args, **kwargs)
            result = tracer.span(label, fn, args, kwargs)
            if count_true and result is True:
                tracer.true_results[label] += 1
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper wherever a caller looks up each target."""
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "triforms" or name.startswith("triforms.")
        ]
        for label, module_name, attrs, metrics in TARGETS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    self._bind(owner, method, self._wrap(label, original, False))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(label, original, "true_ratio" in metrics)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, name, wrapper)

    def _bind(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def metrics(self, jobs: int, overhead_ratio: float, time_scale: float) -> dict[str, float]:
        """Per-job calls and self time of every target, plus the ratios; self
        times are multiplied by ``time_scale`` (see speed.py)."""
        out = {}
        for label, _module, _attrs, metrics in TARGETS:
            for metric in metrics:
                if metric == "calls":
                    value = self.calls[label] / jobs
                elif metric == "self_s":
                    value = self.self_s[label] * time_scale / jobs
                else:
                    calls = self.calls[label]
                    value = self.true_results[label] / calls if calls else 0.0
                out[f"{label}.{metric}"] = value
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path) -> None:
        data = {
            "span_fields": ["job", "span", "parent", "label", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
        }
        path.write_text(json.dumps(data))
