"""In-memory span tracer that wraps module-level functions from outside.

A span is a list ``[name, start, end, parent]`` where ``parent`` is the
index of the enclosing span (or -1).  Spans stay in memory until
``summary()`` is called.  Counts are kept beside them, for facts read from
the return values of wrapped calls.

Wrapping replaces ``module.attr`` and every alias of the same function
object in the given modules (``from x import f`` makes such aliases), so
calls made through any of those names are traced.  A name that does not
exist is recorded as absent instead of raising, so the benchmark keeps
working after a refactor removes a layer.

Single-threaded use only: spans opened in forked children are lost.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time


def rebind(module, attr: str, new, aliases=()) -> bool:
    """Replace ``module.attr``, and every alias of the same object in
    ``aliases``, by ``new``.  Returns False, binding nothing, when the
    module or the function is missing."""
    orig = getattr(module, attr, None) if module is not None else None
    if not callable(orig):
        return False
    for mod in (module, *aliases):
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
    return True


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, on_return=None, aliases=()) -> bool:
        """Trace calls of ``module.attr`` as spans called ``name``.

        ``on_return(tracer, args, kwargs, result)`` runs after the span
        closes.  Returns False, and records ``name`` as absent, when the
        function does not exist.
        """
        orig = getattr(module, attr, None) if module is not None else None
        if not callable(orig):
            self.absent.add(name)
            return False

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return rebind(module, attr, traced, aliases)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and the start of
        its first span; per ``"parent>name"`` pair: total seconds.  A span's
        self time is its duration minus the durations of its direct
        children, so the self times of a subtree sum to the duration of its
        root."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        first_start: dict = {}
        for name, start, _, _ in self.spans:
            first_start.setdefault(name, start)
        by_name: dict = {}
        by_parent: dict = collections.defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            dur = end - start
            rec = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time[i]
            pname = self.spans[parent][0] if parent >= 0 else ""
            by_parent[f"{pname}>{name}"] += dur
        return {"spans": by_name, "by_parent": dict(by_parent),
                "counts": dict(self.counts), "absent": sorted(self.absent),
                "first_start": first_start}
