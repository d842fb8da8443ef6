"""Spans around the benchmark's calls into the library, kept in memory.

A span records its name, start, end, the span that caused it and the op it
belongs to.  Self time is a span's duration minus the time its child spans
cover; calls run on one thread, so children never overlap and their
durations simply add up.
"""
from __future__ import annotations

import json
import time


class Tracer:
    """Records one span per call made through :meth:`call`."""

    enabled = True

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or None, op id or None, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def call(self, name: str, fn, *args):
        spans = self.spans
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.op, False]
        self._stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured elsewhere, such as the import before tracing."""
        self.spans.append([name, start, end, None, None, False])

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors, self seconds and total seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op, failed in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, op, failed) in enumerate(self.spans):
            agg = out.setdefault(
                name, {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["errors"] += int(failed)
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "failed": failed}) + "\n")


class NullTracer:
    """Calls straight through; used for every end-to-end measurement."""

    enabled = False
    op = None

    def call(self, name: str, fn, *args):
        return fn(*args)

    def record(self, name: str, start: float, end: float) -> None:
        pass
