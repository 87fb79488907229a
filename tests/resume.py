"""Checkpoint access and interrupt hooks for the resumable CSV tests.

A checkpoint is JSON holding the mode, lo and hi of its scan and the last
n of the last fully written piece.  stop_at_slice stands in for
scan._summarize, the fold that writes the CSV text of each piece one
slice (scan._SLICE rows) at a time, and raises KeyboardInterrupt at a
chosen write.  The hook lives in the parent process: pool workers are
forked before a test patches anything, so they would not see a patched
name.
"""

from __future__ import annotations

import json
from pathlib import Path

from binodiv import scan


def checkpoint_last(path) -> int:
    """The last n a checkpoint file records."""
    return json.loads(Path(path).read_text(encoding="ascii"))["last"]


def write_checkpoint(path, mode: str, lo: int, hi: int, last: int) -> None:
    body = {"mode": mode, "lo": lo, "hi": hi, "last": last}
    Path(path).write_text(json.dumps(body) + "\n", encoding="ascii")


def stop_at_slice(slices: int):
    """A scan._summarize whose CSV sink takes the first `slices` slices of
    the call, counted across pieces, and raises KeyboardInterrupt in place
    of the next write."""
    real = scan._summarize

    class Sink:
        def __init__(self, fh):
            self.fh, self.done = fh, 0

        def write(self, text):
            if self.done == slices:
                raise KeyboardInterrupt
            self.done += 1
            return self.fh.write(text)

        def flush(self):
            self.fh.flush()

    def summarize(lo, hi, mode, workers, progress, sink=None, after=None):
        return real(lo, hi, mode, workers, progress, Sink(sink), after)

    return summarize


def last_row_n(path) -> int:
    """The n of the last row of a CSV file."""
    return int(Path(path).read_text(encoding="ascii").splitlines()[-1].split(",")[0])
