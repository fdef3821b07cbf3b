"""Host-time spans recorded around the calls the benchmark makes into each
``repro`` layer.

A span is ``(id, name, start, end, parent)``; the layer is the name's
prefix before the first dot (``core.replay`` -> ``core``).  Calls too hot
to record one by one (``access_warp`` in the serving loop runs ~200k
times per rep) are *tallied* instead: each call adds its duration and a
count to a ``(parent span, name)`` bucket, and the bucket counts as a
child of that span.  A span's self time is its duration minus its child
spans and tallies.  Everything stays in memory until the worker hands it
to the parent, which writes Chrome-trace JSON at exit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Spans:
    """Span recorder for one (workload, rep); ``enabled=False`` records
    nothing and hands every wrapped callable back unchanged."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[id, name, start, end, parent]`` per span, in start order.
        self.records: list[list] = []
        #: ``(parent id, name) -> [calls, total seconds]``.
        self.tallies: dict[tuple[int | None, str], list] = {}
        self._stack: list[int] = []

    @contextmanager
    def _span(self, name: str):
        record = [len(self.records), name, time.monotonic(), None,
                  self._stack[-1] if self._stack else None]
        self.records.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.monotonic()

    def span(self, name: str):
        """Context manager timing one call into layer ``layer_of(name)``."""
        return self._span(name) if self.enabled else nullcontext()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span."""
        if not self.enabled:
            return fn

        def wrapped(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)

        return wrapped

    def wrap_method(self, obj, attr: str, name: str) -> None:
        """Record every call of ``obj.attr`` as a span, by shadowing the
        method on the instance (untouched when disabled)."""
        if self.enabled:
            setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    def tally(self, fn, name: str):
        """``fn`` with every call tallied under the span open at the time."""
        if not self.enabled:
            return fn
        stack = self._stack
        tallies = self.tallies

        def tallied(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (stack[-1] if stack else None, name)
                bucket = tallies.get(key)
                if bucket is None:
                    bucket = tallies[key] = [0, 0.0]
                bucket[0] += 1
                bucket[1] += time.monotonic() - start

        return tallied

    def tally_method(self, obj, attr: str, name: str) -> None:
        """Tally every call of ``obj.attr``, by shadowing the method on the
        instance (untouched when disabled)."""
        if self.enabled:
            setattr(obj, attr, self.tally(getattr(obj, attr), name))

    # -- analysis --------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form (what a worker sends to the parent)."""
        return {
            "spans": [list(r) for r in self.records],
            "tallies": [[p, n, c, s] for (p, n), (c, s) in self.tallies.items()],
        }


def self_times(doc: dict) -> tuple[dict[int, float], dict[str, float]]:
    """Self seconds per span id, and total seconds per tally name, from a
    :meth:`Spans.to_dict` document."""
    own = {sid: end - start for sid, _, start, end, _ in doc["spans"]}
    for sid, _, start, end, parent in doc["spans"]:
        if parent is not None:
            own[parent] -= end - start
    tallied: dict[str, float] = {}
    for parent, name, _calls, seconds in doc["tallies"]:
        if parent is not None:
            own[parent] -= seconds
        tallied[name] = tallied.get(name, 0.0) + seconds
    return own, tallied


def layer_self(doc: dict) -> dict[str, float]:
    """Self seconds per layer, summed over spans and tallies."""
    own, tallied = self_times(doc)
    out: dict[str, float] = {}
    for sid, name, *_ in doc["spans"]:
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + own[sid]
    for name, seconds in tallied.items():
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + seconds
    return out


def chrome_events(doc: dict, workload: str, rep: int, origin: float, pid: int) -> list[dict]:
    """Chrome-trace ``X`` events for one rep (process ``pid``, one thread
    lane per rep); tallies ride on their parent span's ``args``."""
    own, _ = self_times(doc)
    by_parent: dict[int, dict] = {}
    for parent, name, calls, seconds in doc["tallies"]:
        by_parent.setdefault(parent, {})[name] = {
            "calls": calls, "total_us": seconds * 1e6,
        }
    events = []
    for sid, name, start, end, parent in doc["spans"]:
        args = {"workload": workload, "rep": rep, "id": sid, "parent": parent,
                "self_us": own[sid] * 1e6}
        if sid in by_parent:
            args["tallies"] = by_parent[sid]
        events.append({
            "name": name, "cat": layer_of(name), "ph": "X", "pid": pid, "tid": rep,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6, "args": args,
        })
    return events
