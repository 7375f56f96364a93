"""Per-layer spans, recorded from outside the library.

The traced run replaces module-level callables that the library looks up by
name at call time (``link3d.net.build_kernel_map``, ``link3d.link._gather``,
``SparseTensor.lookup``, ...) with wrappers.  Each wrapper records a span --
name, start, end, parent span, and the op it belongs to -- plus counts taken
from the call's arguments and result.  The untraced run installs nothing.

A target attribute that no longer exists, or a wrapped function that never
fires on a workload whose path must reach it, is reported as a missing span
and its metrics are left out of the result, never reported as zero time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median


class Tracer:
    """In-memory span recorder; ``restore`` puts the original callables back."""

    def __init__(self):
        self.spans = []            # finished spans, in end order
        self.absent = []           # (span name, "module.attr") never found
        self._stack = []
        self._saved = []
        self._next_id = 0
        self._op = None

    def wrap(self, owner, attr, name, count=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(args, kwargs, result)`` returns a dict of counts for the span.
        """
        orig = owner.__dict__.get(attr)
        if orig is None:
            where = (f"{owner.__module__}.{owner.__qualname__}"
                     if isinstance(owner, type) else owner.__name__)
            self.absent.append((name, f"{where}.{attr}"))
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    @contextmanager
    def op(self):
        """Root span of one timed op; spans opened inside belong to it."""
        span = self._open("op")
        self._op = span["id"]
        span["op"] = span["id"]
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def _open(self, name):
        span = {
            "id": self._next_id,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def per_op(spans):
    """Group the spans recorded inside ops by their op id (op order)."""
    ops = defaultdict(list)
    for s in spans:
        if s["op"] is not None:
            ops[s["op"]].append(s)
    return [ops[k] for k in sorted(ops)]


# spans whose self time is glue, not layer work: the op root and the encoder
GLUE = ("op", "net.encoder")


def layer_metrics(spans, layers, on_path, absent=()):
    """Per-op medians of the layer metrics, plus the list of missing spans.

    ``layers`` maps a span name to its metric builders: ``(metric, unit,
    fn(op_spans_of_that_name, self_time_by_id))``.  Span names in
    ``on_path`` that never fired, and names in ``absent`` (a wrapped target
    that does not exist), are missing and their metrics are left out; span
    names off the workload's path read 0.  ``trace.op_s`` is the traced
    op time and ``trace.coverage`` the share of it spent in the self time of
    spans other than ``GLUE``.
    """
    ops = per_op(spans)
    fired = {s["name"] for s in spans}
    missing = sorted({n for n in on_path if n not in fired} | set(absent))
    values = defaultdict(list)
    for op_spans in ops:
        own = self_times(op_spans)
        by_name = defaultdict(list)
        for s in op_spans:
            by_name[s["name"]].append(s)
        root = by_name["op"][0]
        op_s = root["end"] - root["start"]
        values["trace.op_s"].append(op_s)
        covered = sum(own[s["id"]] for s in op_spans if s["name"] not in GLUE)
        values["trace.coverage"].append(covered / op_s)
        for name, metrics in layers.items():
            if name in missing:
                continue
            for metric, _, fn in metrics:
                values[metric].append(fn(by_name.get(name, []), own))
    units = {m: u for ms in layers.values() for m, u, _ in ms}
    units.update({"trace.op_s": "s", "trace.coverage": "ratio"})
    out = {m: {"value": float(median(v)), "unit": units[m]} for m, v in values.items()}
    return out, missing


def total_s(spans, _own):
    return sum(s["end"] - s["start"] for s in spans)


def self_s(spans, own):
    return sum(own[s["id"]] for s in spans)


def calls(spans, _own):
    return len(spans)


def count_sum(key):
    def fn(spans, _own):
        return sum(s["counts"].get(key, 0) for s in spans)
    return fn


def count_ratio(num, den):
    def fn(spans, _own):
        d = sum(s["counts"].get(den, 0) for s in spans)
        return sum(s["counts"].get(num, 0) for s in spans) / d if d else 0.0
    return fn
