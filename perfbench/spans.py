"""In-memory span tracer that wraps polarkit's module attributes from outside.

The library has no instrumentation of its own, so the traced run replaces the
module attributes that callers resolve at call time (``codec.tensor_apply``,
``polarlab.erasure_polynomials``, ...) with thin wrappers.  Each wrapped call
records one span (name, start, end, parent, run id) and, optionally, work
counts derived from its arguments.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans and counts while ``run_id`` is set; passes through otherwise."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = defaultdict(Counter)  # run id -> metric name -> count
        self.returns = []  # (run id, name, result) for calls marked keep_result
        self.run_id = None
        self._stack = []
        self._patched = []

    def wrap(self, module, attr, name, count=None, keep_result=False):
        """Replace ``module.attr`` by a recording wrapper.

        ``count(args, kwargs, result)`` returns {metric name: n}; it runs after
        the span has closed, with recording paused, so its own cost and any
        library calls it makes stay out of every span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            run_id = self.run_id
            if run_id is None:
                return original(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, run_id]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None or keep_result:
                self.run_id = None
                try:
                    if count is not None:
                        self.counts[run_id].update(count(args, kwargs, result))
                    if keep_result:
                        self.returns.append((run_id, name, result))
                finally:
                    self.run_id = run_id
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unwrap_all(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, run_id):
        """Per-name totals for one run: calls, inclusive s, self s, root s.

        Inclusive time counts only spans with no same-name ancestor, so a
        name never counts its own nested calls twice.  Self time is a span's
        duration minus the time its direct child spans cover.
        """
        spans = self.spans
        child_time = Counter()
        for span in spans:
            if span[4] == run_id and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        root_s = 0.0
        for i, (name, start, end, parent, rid) in enumerate(spans):
            if rid != run_id:
                continue
            dur = end - start
            row = out[name]
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            if parent < 0:
                root_s += dur
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["s"] += dur
        return dict(out), root_s

    def dump(self, path, meta):
        """Write every span and count as gzipped JSON."""
        payload = {
            "meta": meta,
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
