"""In-memory span recorder for the traced benchmark run.

Wrappers are installed on module attributes, so every call that looks the
name up at call time goes through them: the benchmark's own calls and the
package's internal calls through the names each module imported.  Each
wrapped call records a span (name, start, end, parent) in flat arrays and
updates per-name totals; self time is a span's duration minus the time of
its wrapped child spans.  Hot leaf functions can be counted without a span.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


class Stat:
    __slots__ = ("calls", "total", "self_time", "first")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.first = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, list[int]] = {}
        self._stack: list[list] = []  # [span index, child time]
        self._installed: list[tuple[object, str, object]] = []

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def wrap(self, fn, name: str, on_exit=None):
        """fn wrapped in a span; on_exit(args, result, seconds) runs after it."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                if stack:
                    stack[-1][1] += dur
                st.calls += 1
                st.total += dur
                st.self_time += dur - frame[1]
                if st.first is None:
                    st.first = dur
            if on_exit is not None:
                on_exit(args, result, dur)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """Generator function whose every next() is a span named name."""
        tracer = self

        def traced(*args, **kwargs):
            step = tracer.wrap(fn(*args, **kwargs).__next__, name)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    def counter(self, fn, name: str):
        """fn wrapped to count calls only; a span per call would swamp the run."""
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, module, attr: str, wrapper) -> None:
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def save(self, path: Path) -> None:
        """Write every span: name index, parent span index, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
