"""Spans and counters recorded from outside the program.

A span wraps one module attribute (``owner.attr``) for the length of a
``with Tracer(...)`` block and restores it afterwards.  The wrapped name is
the one the caller resolves, e.g. ``harness.run`` for the stepper that
``harness.run_experiment`` calls.  A name that no longer resolves is listed in
``missing`` instead of being measured as zero.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """``points`` are (owner module, attribute, span name[, note]); the span's
    layer is the part of its name before the first dot, and ``note(args,
    result)`` keeps a small summary of each call.  ``counted`` are (owner
    module, attribute) pairs whose calls are counted, not timed; each span
    records the running count at its start and end."""

    def __init__(self, package: str, points, counted=()):
        self.package = package
        self.points = list(points)
        self.counted = list(counted)
        self.spans = []  # [name, start, end, parent, note, count0, count1]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, *note in self.points:
            self._patch(owner, attr, name,
                        lambda n, fn: self._span_wrapper(n, fn, *note))
        for owner, attr in self.counted:
            self._patch(owner, attr, f"{owner}.{attr}", self._count_wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _patch(self, owner, attr, name, make):
        mod = importlib.import_module(f"{self.package}.{owner}")
        fn = getattr(mod, attr, None)
        if not callable(fn):
            if name in self.missing:
                return
            self.missing.append(name)
            print(f"perfbench: warning: {owner}.{attr} no longer resolves; "
                  f"layer {name} is reported as missing", file=sys.stderr)
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(name, fn))

    def _span_wrapper(self, name, fn, note=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None,
                   None, counts.total(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec[4] = note(args, out)
                return out
            finally:
                rec[6] = counts.total()
                rec[2] = perf_counter()
                stack.pop()
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- reading the record ---------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def named(self, name):
        return [s for s in self.spans if s[0] == name]

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.named(name))

    def self_times(self) -> dict:
        """Span name -> duration minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0]] += (s[2] - s[1]) - child[i]
        return dict(out)

    def top_level(self, layer: str) -> list:
        """Spans of ``layer`` not called from another span of that layer."""
        def lay(s):
            return s[0].split(".", 1)[0]
        return [s for s in self.spans if lay(s) == layer and
                (s[3] is None or lay(self.spans[s[3]]) != layer)]
