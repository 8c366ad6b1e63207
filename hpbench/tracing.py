"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into hpdiv's
public functions; nothing inside the package is instrumented. A span has a
name, start and end (perf_counter seconds), the index of its parent span
and the operation (trial or estimate call) it belongs to. The replay is
serial, so children nest inside their parent and a span's self time is its
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"name": name, "op": op, "parent": parent, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Record one observation of a count or derived value."""
        self.counts.setdefault(name, []).append(float(value))

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans with this name; 0 when none ran."""
        d = [(s["end"] - s["start"]) * 1e3 for s in self.spans if s["name"] == name]
        return sum(d) / len(d) if d else 0.0

    def per_op_ms(self, op: int, names) -> float:
        """Summed duration of the named spans belonging to one operation."""
        return sum(
            (s["end"] - s["start"]) * 1e3
            for s in self.spans
            if s["op"] == op and s["name"] in names
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in milliseconds."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] += (s["end"] - s["start"]) * 1e3
        out: dict[str, dict[str, float]] = {}
        for s, covered in zip(self.spans, child_ms):
            row = out.setdefault(s["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = (s["end"] - s["start"]) * 1e3
            row["calls"] += 1
            row["total_ms"] += dur
            row["self_ms"] += dur - covered
        return out

    def summary_by_root(self) -> dict[str, dict[str, dict[str, float]]]:
        """``summary`` for the spans under each root span name."""
        roots = []
        for s in self.spans:
            roots.append(s["name"] if s["parent"] is None else roots[s["parent"]])
        out = {}
        for name in dict.fromkeys(roots):
            sub = Tracer()
            keep = [i for i, r in enumerate(roots) if r == name]
            index = {old: new for new, old in enumerate(keep)}
            sub.spans = [
                dict(self.spans[i], parent=index.get(self.spans[i]["parent"])) for i in keep
            ]
            out[name] = sub.summary()
        return out

    def empty_span_cost_ms(self, repeats: int = 2000) -> float:
        """Cost of recording one span with nothing inside it."""
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(repeats):
            with probe.span("probe", 0):
                pass
        return (time.perf_counter() - t0) * 1e3 / repeats
