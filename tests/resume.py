"""Checkpoint access and interrupt hooks for the resumable CSV tests.

A checkpoint is JSON holding the mode, lo and hi of its scan and the last
n of the last fully written chunk.  stop_at_slice stands in for the chunk
emitter scan._csv_slices, which yields the text of scan._SLICE rows at a
time, and raises KeyboardInterrupt at a chosen slice.
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
    """A scan._csv_slices that emits the first `slices` slices of the scan,
    counted across chunks, and raises KeyboardInterrupt in place of the next."""
    real = scan._csv_slices
    done = 0

    def emit(chunk):
        nonlocal done
        for text in real(chunk):
            if done == slices:
                raise KeyboardInterrupt
            done += 1
            yield text

    return emit


def last_row_n(path) -> int:
    """The n of the last row of a CSV file."""
    return int(Path(path).read_text(encoding="ascii").splitlines()[-1].split(",")[0])
