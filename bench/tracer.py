"""In-memory tracing of the figurate library, installed from outside it.

The tracer wraps public functions of figurate.core, figurate.logbehavior and
figurate.seqio, both in their home module and in every figurate module that
imported them by name (for example figurate.verify.closed_form and
figurate.logbehavior.coefficient_r), and restores the originals on exit.

* Operation, check and route calls become spans: (name, kind, start, end,
  parent span index, operation id).
* Leaf calls (about 10^5 to 10^6 per sweep) are only aggregated into a call
  count and a total time, which is also subtracted from the enclosing span's
  self time.
* Every Fraction built is counted through a wrapper on Fraction.__new__.

Self time of a name is its total duration minus the time covered by traced
calls inside it. Everything stays in memory; the caller writes it out.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LEAVES = {"core": ("closed_form", "closed_form_alt", "coefficient_r", "coefficient_t")}
ROUTES = {
    "core": (
        "generate_first_order",
        "generate_second_order",
        "progression_sums",
        "quotient_direct",
        "quotient_recurrence",
    ),
    "logbehavior": (
        "check_doslic_criterion",
        "margin_sequence",
        "check_quotient_bounds",
        "classify_log_behavior",
        "quotient_monotonicity",
    ),
    "seqio": ("parse_sequence_file", "emit_bfile", "emit_csv"),
}
IMPORTERS = ("core", "logbehavior", "seqio", "verify", "cli")
# Byte counters kept at the seqio boundary: text read by the parser, text emitted.
BYTE_COUNTERS = {
    "seqio.parse_sequence_file": ("seqio.bytes_in", lambda args, result: args[0]),
    "seqio.emit_bfile": ("seqio.bytes_out", lambda args, result: result),
    "seqio.emit_csv": ("seqio.bytes_out", lambda args, result: result),
}


class Timer:
    """Untraced stand-in for Tracer: times only the spans the benchmark opens."""

    def __init__(self):
        self.times = defaultdict(float)

    @contextmanager
    def span(self, name):
        start = perf_counter()
        try:
            yield
        finally:
            self.times[name] += perf_counter() - start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []  # open spans: [name, start, time covered by children, index]
        self._op = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.covered = defaultdict(float)
        self.counts = defaultdict(int)

    @contextmanager
    def span(self, name, kind="check"):
        if kind == "operation":
            self._op += 1
        index = len(self.spans)
        parent = self._stack[-1][3] if self._stack else None
        self.spans.append(None)
        frame = [name, perf_counter(), 0.0, index]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._account(name, end - frame[1], frame[2])
            self.spans[index] = (name, kind, frame[1], end, parent, self._op)

    def _account(self, name, elapsed, covered):
        self.calls[name] += 1
        self.total[name] += elapsed
        self.covered[name] += covered
        if self._stack:
            self._stack[-1][2] += elapsed

    def _leaf(self, name, function):
        calls, total, stack, clock = self.calls, self.total, self._stack, perf_counter

        def leaf(*args, **kwargs):
            start = clock()
            result = function(*args, **kwargs)
            elapsed = clock() - start
            calls[name] += 1
            total[name] += elapsed
            if stack:
                stack[-1][2] += elapsed
            return result

        return leaf

    def _route(self, name, function):
        counter = BYTE_COUNTERS.get(name)

        def route(*args, **kwargs):
            with self.span(name, "route"):
                result = function(*args, **kwargs)
            if counter is not None:
                key, pick = counter
                text = pick(args, result)
                self.counts[key] += len(text.encode() if isinstance(text, str) else text)
            return result

        return route

    @contextmanager
    def installed(self):
        """Wrap the traced functions and Fraction.__new__; restore them on exit."""
        modules = {name: importlib.import_module(f"figurate.{name}") for name in IMPORTERS}
        patches = []
        for kinds, make in ((LEAVES, self._leaf), (ROUTES, self._route)):
            for home, names in kinds.items():
                for attr in names:
                    original = getattr(modules[home], attr)
                    wrapper = make(f"{home}.{attr}", original)
                    for module in modules.values():
                        if getattr(module, attr, None) is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        positive = modules["logbehavior"].PositiveSequence
        patches.append((positive, "__init__", positive.__dict__["__init__"]))
        positive.__init__ = self._route("logbehavior.PositiveSequence", positive.__init__)

        counts = self.counts
        original_new = Fraction.__dict__["__new__"]
        construct = original_new.__func__

        def counting_new(cls, *args, **kwargs):
            counts["fraction.constructed"] += 1
            return construct(cls, *args, **kwargs)

        patches.append((Fraction, "__new__", original_new))
        Fraction.__new__ = counting_new
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def take(self) -> dict:
        """Flat counters since the last take: <name>.calls, <name>.s (self time), counts."""
        flat = dict(self.counts)
        for name, calls in self.calls.items():
            flat[f"{name}.calls"] = calls
            flat[f"{name}.s"] = self.total[name] - self.covered[name]
        for counter in (self.calls, self.total, self.covered, self.counts):
            counter.clear()
        return flat
