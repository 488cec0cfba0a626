"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (``time.perf_counter`` seconds since the
tracer was made), the id of the span that caused it, and the run id of the
repetition it belongs to. Spans are only kept in memory; ``write`` dumps
them, with each span's self time, when the benchmark ends. A disabled
tracer records nothing, so untraced runs pay one attribute test per span.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run_id = "setup"
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._stack: list[int] = []

    def now(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def add(self, name: str, start: float, end: float, parent: int | None,
            **attrs) -> int | None:
        """Record a finished span; returns its id."""
        if not self.enabled:
            return None
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "run": self.run_id, **attrs})
        return sid

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as a child of the innermost open span (main thread)."""
        if not self.enabled:
            yield None
            return
        start = self.now()
        sid = self.add(name, start, start, self.current, **attrs)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = self.now()

    def durations(self, run_id: str) -> dict[str, float]:
        """Summed duration per span name within one run."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["run"] == run_id:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it its children cover."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, edge = 0.0, s["start"]
            for a, b in sorted(kids.get(s["id"], [])):
                a, b = max(a, edge), min(b, s["end"])
                if b > a:
                    covered += b - a
                    edge = b
            out.append(s["end"] - s["start"] - covered)
        return out

    def write(self, path: str, meta: dict) -> None:
        spans = [dict(s, self_s=st) for s, st in zip(self.spans, self.self_times())]
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": spans}, f, indent=1)


class StageClock:
    """``progress=`` callback for the pipelines: each stage tick closes a
    span from the previous tick of the same thread to now, named
    ``<prefix>.<stage>`` and parented to the span open on the main thread. The ticks fire where the pipelines
    materialize anyway, so the callback does not change the Ray plan."""

    def __init__(self, tracer: Tracer, prefix: str):
        self.tracer, self.prefix = tracer, prefix
        self.start = tracer.now()
        self._last: dict[int, float] = {}
        self._lock = threading.Lock()

    def __call__(self, stage: str, info: dict) -> None:
        now = self.tracer.now()
        with self._lock:
            start = self._last.get(threading.get_ident(), self.start)
            self._last[threading.get_ident()] = now
        attrs = {k: v for k, v in info.items() if isinstance(v, (int, float, str))}
        self.tracer.add(f"{self.prefix}.{stage}", start, now, self.tracer.current,
                        info=attrs)

    def close(self) -> None:
        """Close the tail span: last tick to now (outputs consumed)."""
        start = max(self._last.values(), default=self.start)
        self.tracer.add(f"{self.prefix}.consume", start, self.tracer.now(),
                        self.tracer.current)
