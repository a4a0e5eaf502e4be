"""In-memory span recorder that instruments a program from outside.

Each wrapped call records one span: name, start, end, the span that was
open when it began (its parent) and an optional integer payload (rows,
nodes, ...).  Counters record calls that are too frequent or too cheap to
time.  Wrappers replace the attribute the caller looks up and are removed
again by `restore`.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []     # span name per span
        self.starts = []
        self.ends = []
        self.parents = []   # index of the enclosing span, -1 at top level
        self.payloads = []  # integer payload per span (0 when unused)
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.payloads.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, payload: int = 0) -> None:
        self.ends[idx] = time.perf_counter()
        self.payloads[idx] = payload
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, payload=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span per call.
        `payload(args, kwargs, result)` returns the span's integer payload."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, payload(args, kwargs, result) if payload else 0)
            return result

        self.patch(owner, attr, original, traced)

    def wrap_counter(self, owner, attr: str, name: str, amount=None) -> None:
        """Replace `owner.attr` by a wrapper that only counts; `amount(args)`
        gives the increment (default 1)."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += amount(args) if amount else 1
            return original(*args, **kwargs)

        self.patch(owner, attr, original, counted)

    def patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds (duration
        minus the time direct children cover) and summed payload."""
        child_time = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "payload": 0})
        for idx, name in enumerate(self.names):
            entry = out[name]
            duration = self.ends[idx] - self.starts[idx]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[idx]
            entry["payload"] += self.payloads[idx]
        return dict(out)

    def payload_under(self, name: str, parent_name: str) -> int:
        """Summed payload of `name` spans whose direct parent is a
        `parent_name` span."""
        return sum(self.payloads[i] for i, n in enumerate(self.names)
                   if n == name and self.parents[i] >= 0
                   and self.names[self.parents[i]] == parent_name)

    def write(self, path) -> None:
        """All spans as JSON lines, then the counters."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for idx, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": self.parents[idx],
                    "start_us": round((self.starts[idx] - origin) * 1e6, 1),
                    "end_us": round((self.ends[idx] - origin) * 1e6, 1),
                    "payload": self.payloads[idx]}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")
