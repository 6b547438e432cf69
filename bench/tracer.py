"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the package's layers by replacing the
called name at its call site (a module or class attribute) with a wrapper,
so nothing inside the package changes. Each span carries its name, start,
end, parent span and unit id; counts are recorded by the same wrappers.
Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans and counts while ``active``; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, unit]
        self.counts: Counter = Counter()
        self.unit = None
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, on_args=None, on_result=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``restore``.

        ``on_args(tracer, args, kwargs)`` may return replacement arguments;
        ``on_result(tracer, args, kwargs, result)`` records counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if on_args is not None:
                args, kwargs = on_args(tracer, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer.unit]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.counts[name + ".calls"] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def children(self) -> list[list[int]]:
        """Indices of each span's direct children."""
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                kids[span[3]].append(i)
        return kids

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct children cover."""
        kids = self.children()
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - sum(
                self.spans[c][2] - self.spans[c][1] for c in kids[i])
        return out

    def durations(self, name: str) -> float:
        """Total inclusive duration of the spans called ``name``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")
