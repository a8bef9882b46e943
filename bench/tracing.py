"""Spans recorded from outside the program, for the traced benchmark run.

A `Tracer` replaces public functions of the program with wrappers at
the place the caller looks them up (`lluad.mixcrypto.mult` as well as
`lluad.curve.mult`, say).  Each wrapped call records one span: a name,
a start, an end, and the span open on the same thread when it began
(its parent).  Spans stay in memory, one compact buffer per thread,
and are written out once the run ends.

A span's self time is its duration minus the time its child spans
cover.  Children on one thread nest inside their parent and never
overlap each other, so that cover is the sum of their durations.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

_clock = time.perf_counter_ns


class _ThreadSpans:
    """Spans of one thread, as parallel arrays (name id, start, end,
    parent index or -1)."""

    def __init__(self, label: str):
        self.label = label
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.open: list[int] = []

    def begin(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.open[-1] if self.open else -1)
        self.end.append(-1)
        self.open.append(index)
        self.start.append(_clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = _clock()
        self.open.pop()


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def mean(self, scale: float) -> float:
        return self.total_s / self.calls * scale if self.calls else 0.0


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)

    # -- recording -----------------------------------------------------

    def _buffer(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadSpans(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self._names)
                self._names.append(name)
            return self._ids[name]

    def record(self, name_id: int, start_ns: int, end_ns: int) -> None:
        """A span timed by the caller, child of the span open now."""
        buf = self._buffer()
        buf.name.append(name_id)
        buf.parent.append(buf.open[-1] if buf.open else -1)
        buf.start.append(start_ns)
        buf.end.append(end_ns)

    def wrap(self, owner, attr: str, name: str, size_counter: str | None = None):
        """Replace `owner.attr` with a recording wrapper; with
        `size_counter`, also add len(result) to that counter."""
        original = getattr(owner, attr)
        name_id = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            index = buf.begin(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                buf.finish(index)
            if size_counter is not None:
                tracer.counters[size_counter] += len(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------

    def stats(self, since_ns: int = 0) -> dict[str, SpanStats]:
        """Calls, total and self time per span name, over the closed
        spans that started at or after `since_ns`."""
        out: dict[str, SpanStats] = {}
        for buf in list(self._buffers):
            n = len(buf.name)
            child = [0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0 and buf.end[i] >= 0:
                    child[p] += buf.end[i] - buf.start[i]
            for i in range(n):
                if buf.end[i] < 0 or buf.start[i] < since_ns:
                    continue
                duration = buf.end[i] - buf.start[i]
                st = out.setdefault(self._names[buf.name[i]], SpanStats())
                st.calls += 1
                st.total_s += duration * 1e-9
                st.self_s += (duration - child[i]) * 1e-9
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: thread, index, parent, name,
        start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("thread\tindex\tparent\tname\tstart_ns\tend_ns\n")
            for buf in self._buffers:
                label = buf.label.replace("\t", " ")
                for i in range(len(buf.name)):
                    fh.write(
                        f"{label}\t{i}\t{buf.parent[i]}\t{self._names[buf.name[i]]}"
                        f"\t{buf.start[i]}\t{buf.end[i]}\n"
                    )


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one wrapped call over a direct call, in seconds:
    the per-span share of the tracing overhead."""
    tracer = Tracer()

    class Box:
        @staticmethod
        def noop():
            return None

    direct = Box.noop
    tracer.wrap(Box, "noop", "noop")
    wrapped = Box.noop
    best = float("inf")
    for _ in range(3):
        t0 = _clock()
        for _ in range(samples):
            direct()
        t1 = _clock()
        for _ in range(samples):
            wrapped()
        t2 = _clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0) * 1e-9
