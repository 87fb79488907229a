import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binodiv import arith, scan
from binodiv.arith import PrimePower, is_prime, is_prime_power, primes_upto
from binodiv.conditions import condition1_holds, condition2_direct
from binodiv.scan import (
    CHUNK,
    CSV_HEADER,
    MAX_N,
    GapReport,
    Histogram,
    ScanRecord,
    direct_search,
    failure_histogram,
    format_record,
    iter_scan,
    parse_record,
    prime_gap_stats,
    read_csv,
    scan_one,
    scan_range,
    scan_to_csv,
    scan_with_two,
    sieve_pair_for,
)
from oracles import condition5_sieve_pair
from resume import checkpoint_last, last_row_n, stop_at_slice, write_checkpoint


def test_scan_one_any_mode():
    assert scan_one(9) == ScanRecord(9, "prime_power", (3, 3))
    assert scan_one(16) == ScanRecord(16, "prime_power", (2, 2))
    rec = scan_one(10)
    assert rec.stage == "sieve" and rec.witness == (5, 3)
    assert rec.sieve_pair == (PrimePower(5, 1, 5), PrimePower(3, 2, 9))
    rec = scan_one(12)
    assert rec.witness == (2, 11)
    assert rec.sieve_pair == (PrimePower(2, 2, 4), PrimePower(11, 1, 11))


def test_scan_one_with_two_mode():
    assert scan_one(16, "with-two") == ScanRecord(16, "prime_power", (2, 2))
    assert scan_one(27, "with-two") == ScanRecord(27, "direct", (3, 2))
    rec = scan_one(10, "with-two")
    assert rec.stage == "sieve" and rec.witness == (2, 3)
    assert rec.sieve_pair == (PrimePower(2, 1, 2), PrimePower(3, 2, 9))
    assert scan_one(15, "with-two") == ScanRecord(15, "fail")


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        scan_one(8)
    with pytest.raises(ValueError):
        list(iter_scan(20, 10))
    with pytest.raises(ValueError):
        list(iter_scan(9, 10, "both"))


def test_sieve_pair_for():
    assert sieve_pair_for(10) == (PrimePower(5, 1, 5), PrimePower(3, 2, 9))
    assert sieve_pair_for(12) == (PrimePower(2, 2, 4), PrimePower(11, 1, 11))
    # the table of range exceptions is exactly where the window fails
    assert sieve_pair_for(31416) is None
    assert sieve_pair_for(46800) is None
    assert sieve_pair_for(195624) is None
    with pytest.raises(ValueError):
        sieve_pair_for(16)
    with pytest.raises(ValueError):
        sieve_pair_for(8)


def test_sieve_pair_window_shape():
    for n in range(9, 4000):
        if is_prime_power(n) is not None:
            continue
        pair = sieve_pair_for(n)
        if pair is None:
            continue
        pa, rb = pair
        assert n % pa.value == 0 and n % (pa.value * pa.prime) != 0
        assert rb.value < n < rb.value + pa.value


def test_direct_search_exceptional_n():
    assert direct_search(46800, 2) == 149
    assert direct_search(46800, 5) is None
    assert direct_search(195624, 2) == 3
    assert direct_search(31416, 2) == 7853
    assert direct_search(5504490, 2) is None
    assert direct_search(5504490, 3) == 5


def test_direct_search_prime_powers():
    assert direct_search(16, 2) == 2
    assert direct_search(27, 3) == 2
    assert direct_search(16, 3) == 2  # partner is the base prime
    with pytest.raises(ValueError):
        direct_search(16, 4)
    with pytest.raises(ValueError):
        direct_search(8, 2)


def test_direct_search_returns_least_witness():
    for n in (48, 120, 3600):
        r = direct_search(n, 2)
        assert r is not None and condition2_direct(n, 2, r)
        smaller = [int(q) for q in primes_upto(r - 1)] if r > 2 else []
        for q in smaller:
            assert not condition2_direct(n, 2, q), (n, q)


def test_condition5_sieve_pair():
    assert condition5_sieve_pair(35) == (7, 31)
    assert condition5_sieve_pair(100) == (5, 97)
    assert condition5_sieve_pair(30) is None
    assert condition5_sieve_pair(32) is None  # powers of two never qualify
    assert condition5_sieve_pair(64) is None
    pair = condition5_sieve_pair(35)
    p, r = pair
    assert 35 % p == 0 and is_prime(r) and r + 2 < 35 < r + p


def test_prime_gap_stats():
    assert prime_gap_stats(10) == GapReport(10, 2, ((1, 1), (2, 2)))
    assert prime_gap_stats(3) == GapReport(3, 1, ((1, 1),))
    got = prime_gap_stats(100)
    assert got.max_gap == 8
    assert sum(c for _, c in got.histogram) == 24  # 25 primes below 100
    assert prime_gap_stats(1000).max_gap == 20
    with pytest.raises(ValueError):
        prime_gap_stats(2)


def test_iter_scan_matches_scan_one():
    records = list(iter_scan(9, 300))
    assert [r.n for r in records] == list(range(9, 301))
    for rec in records[::13]:
        assert scan_one(rec.n) == rec


def test_any_mode_stage_soundness():
    for rec in iter_scan(9, 2500):
        n = rec.n
        assert rec.stage in ("prime_power", "sieve", "direct")
        if rec.stage == "prime_power":
            pp = is_prime_power(n)
            assert pp is not None and rec.witness == (pp.prime, pp.prime)
        elif rec.stage == "sieve":
            assert rec.sieve_pair == sieve_pair_for(n)
            pa, rb = rec.sieve_pair
            assert rec.witness == (pa.prime, rb.prime)
            assert condition2_direct(n, *rec.witness)
        else:
            assert rec.witness is not None
            assert condition2_direct(n, *rec.witness)
            assert rec.witness[1] == direct_search(n, rec.witness[0])


def test_with_two_stage_soundness():
    for rec in iter_scan(9, 2500, "with-two"):
        n = rec.n
        if rec.stage == "fail":
            assert rec.witness is None
            continue
        assert 2 in rec.witness
        if rec.stage == "prime_power":
            assert rec.witness == (2, 2) and is_prime_power(n).prime == 2
        elif rec.stage == "sieve":
            pa, rb = rec.sieve_pair
            assert rec.witness == (pa.prime, rb.prime)
            assert n % pa.value == 0 and rb.value < n < rb.value + pa.value
            assert condition2_direct(n, *rec.witness)
        else:
            assert condition2_direct(n, *rec.witness)


def test_with_two_failures_are_genuinely_uncoverable():
    # exhaustive independent check: a failing n admits no covering pair
    # containing 2, over every prime r < n and both decision routes
    summary = scan_with_two(9, 400)
    fails = [rec.n for rec in summary.exceptions if rec.stage == "fail"]
    assert fails[:5] == [15, 45, 51, 55, 63]
    assert len(fails) == 31
    for n in fails:
        assert is_prime_power(n) is None
        for r in primes_upto(n - 1):
            r = int(r)
            assert not condition1_holds(n, 2, r), (n, r)
            assert not condition2_direct(n, 2, r), (n, r)


def test_scan_with_two_small_counts():
    summary = scan_with_two(9, 10**4)
    assert summary.counts == {
        "prime_power": 10,
        "sieve": 3752,
        "direct": 5086,
        "other_divisor": 0,
        "fail": 1144,
    }
    assert summary.satisfied() == 8848
    assert summary.satisfied() + summary.counts["fail"] == 10**4 - 9 + 1


def test_scan_range_no_failures_at_small_scale():
    summary = scan_range(9, 20000)
    assert summary.counts["fail"] == 0
    assert summary.counts["other_divisor"] == 0
    assert summary.exceptions == []
    assert summary.satisfied() == 20000 - 9 + 1


def test_scan_is_deterministic_across_workers():
    seq = list(iter_scan(9, 3000, workers=1))
    par = list(iter_scan(9, 3000, workers=2))
    assert seq == par


def test_scan_splits_cleanly():
    whole = scan_range(9, 3000)
    left = scan_range(9, 1500)
    right = scan_range(1501, 3000)
    for stage in whole.counts:
        assert whole.counts[stage] == left.counts[stage] + right.counts[stage]


def test_scan_across_chunk_boundary():
    lo, hi = CHUNK - 5, CHUNK + 5
    records = list(iter_scan(lo, hi))
    assert [r.n for r in records] == list(range(lo, hi + 1))
    for rec in records:
        assert scan_one(rec.n) == rec


def test_progress_callback_reports_cumulative_counts():
    seen = []
    scan_range(9, CHUNK + 100, progress=seen.append)
    assert seen[-1] == CHUNK + 100 - 9 + 1
    assert seen == sorted(seen)


def test_summary_json_shape():
    summary = scan_with_two(9, 120)
    import json

    body = json.loads(summary.to_json())
    assert set(body) == {"lo", "hi", "mode", "counts", "exceptions", "elapsed_seconds"}
    assert body["lo"] == 9 and body["hi"] == 120
    assert body["mode"] == "with-two"
    assert json.loads(scan_range(9, 20).to_json())["mode"] == "any"
    assert set(body["counts"]) == {"prime_power", "sieve", "direct", "other_divisor", "fail"}
    for exc in body["exceptions"]:
        assert exc["stage"] == "fail" and exc["p"] is None and exc["r"] is None


def test_failure_histogram():
    summary = scan_with_two(9, 1000)
    fails = [rec.n for rec in summary.exceptions if rec.stage == "fail"]
    hist = failure_histogram(1000, 128, fail_ns=fails)
    assert isinstance(hist, Histogram)
    assert hist.total() == len(fails)
    assert hist.buckets[0][1] >= 1  # 15 lands in the first bucket
    assert [start for start, _ in hist.buckets] == list(range(0, 1001, 128))
    recomputed = failure_histogram(1000, 128)
    assert recomputed == hist


def test_failure_histogram_validation():
    with pytest.raises(ValueError):
        failure_histogram(8, 10)
    with pytest.raises(ValueError):
        failure_histogram(100, 0)
    with pytest.raises(ValueError):
        failure_histogram(100, 10, fail_ns=[5])
    with pytest.raises(ValueError):
        failure_histogram(100, 10, fail_ns=[200])
    empty = failure_histogram(20, 7, fail_ns=[])
    assert empty.total() == 0


def test_csv_round_trip():
    for mode in ("any", "with-two"):
        for rec in iter_scan(9, 1500, mode):
            line = format_record(rec)
            assert parse_record(line) == rec, line


def test_csv_field_layout():
    assert format_record(scan_one(10)) == "10,sieve,5,3,5,9"
    assert format_record(scan_one(9)) == "9,prime_power,3,3,,"
    assert format_record(scan_one(15, "with-two")) == "15,fail,,,,"
    assert format_record(scan_one(10, "with-two")) == "10,sieve,2,3,2,9"


def test_parse_record_rejects_malformed():
    with pytest.raises(ValueError):
        parse_record("10,sieve,5,3,5")
    with pytest.raises(ValueError):
        parse_record("10,window,5,3,5,9")
    with pytest.raises(ValueError):
        parse_record("10,sieve,5,3,6,9")  # 6 is not a prime power
    with pytest.raises(ValueError):
        parse_record("10,sieve,,,5,9")  # pair without witness
    # a witness exactly when the stage is not fail, a pair exactly when it is sieve
    for line in ("10,fail,2,3,,", "10,direct,,,,", "12,direct,2,11,4,11", "12,sieve,2,11,,"):
        with pytest.raises(ValueError):
            parse_record(line)


def test_scan_to_csv_matches_in_memory_scan(tmp_path):
    out = tmp_path / "scan.csv"
    summary = scan_to_csv(9, 2000, str(out))
    assert summary.counts == scan_range(9, 2000).counts
    records = list(read_csv(str(out)))
    assert records == list(iter_scan(9, 2000))
    with open(out, encoding="ascii") as fh:
        assert fh.readline().rstrip("\n") == CSV_HEADER


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,stage\n9,prime_power\n", encoding="ascii")
    with pytest.raises(ValueError):
        list(read_csv(str(path)))


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# slices in a full chunk
SLICES = CHUNK // scan._SLICE


def test_interrupted_resume_is_byte_identical(tmp_path, monkeypatch):
    lo, hi = 9, CHUNK + 15000
    clean = tmp_path / "clean.csv"
    whole = scan_to_csv(lo, hi, str(clean), checkpoint_path=str(tmp_path / "clean.ckpt"))

    out = tmp_path / "resumed.csv"
    ckpt = tmp_path / "resumed.ckpt"
    with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
        m.setattr(scan, "_csv_slices", stop_at_slice(SLICES))  # as the second chunk starts
        scan_to_csv(lo, hi, str(out), checkpoint_path=str(ckpt))
    stopped_at = checkpoint_last(ckpt)
    assert stopped_at == lo + CHUNK - 1
    assert last_row_n(out) == stopped_at  # checkpoint covers every written row
    resumed = scan_to_csv(lo, hi, str(out), checkpoint_path=str(ckpt))
    # the summary covers the whole range, the rows of the first run included
    assert (resumed.lo, resumed.hi) == (lo, hi)
    assert resumed.counts == whole.counts
    assert resumed.exceptions == whole.exceptions
    assert _digest(out) == _digest(clean)
    assert checkpoint_last(ckpt) == hi


def test_interrupt_in_a_later_chunk_resumes_byte_identical(tmp_path, monkeypatch):
    lo, hi = 9, CHUNK + 3 * scan._SLICE + 100
    clean = tmp_path / "clean.csv"
    whole = scan_to_csv(lo, hi, str(clean), mode="with-two")

    out = tmp_path / "resumed.csv"
    ckpt = tmp_path / "resumed.ckpt"
    with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
        m.setattr(scan, "_csv_slices", stop_at_slice(SLICES + 2))  # two slices into the second chunk
        scan_to_csv(lo, hi, str(out), mode="with-two", checkpoint_path=str(ckpt))
    # the checkpoint covers the first chunk; the rows written past it go on resume
    assert checkpoint_last(ckpt) == lo + CHUNK - 1
    assert last_row_n(out) == lo + CHUNK - 1 + 2 * scan._SLICE
    resumed = scan_to_csv(lo, hi, str(out), mode="with-two", checkpoint_path=str(ckpt))
    assert (resumed.lo, resumed.hi, resumed.mode) == (lo, hi, "with-two")
    assert resumed.counts == whole.counts
    assert resumed.exceptions == whole.exceptions
    assert _digest(out) == _digest(clean)


def test_crash_mid_chunk_resumes_byte_identical(tmp_path):
    lo, hi = 9, CHUNK + 3000
    clean = tmp_path / "clean.csv"
    whole = scan_to_csv(lo, hi, str(clean))
    # a crash inside the second chunk: its checkpoint was never written, and
    # the CSV holds some of its rows and then half a line
    lines = clean.read_text(encoding="ascii").splitlines(keepends=True)
    kept = 1 + CHUNK + 1500
    out = tmp_path / "crashed.csv"
    out.write_text("".join(lines[:kept]) + lines[kept][:7], encoding="ascii")
    ckpt = tmp_path / "crashed.ckpt"
    write_checkpoint(ckpt, "any", lo, hi, lo + CHUNK - 1)
    resumed = scan_to_csv(lo, hi, str(out), checkpoint_path=str(ckpt))
    assert resumed.counts == whole.counts
    assert resumed.exceptions == whole.exceptions
    assert _digest(out) == _digest(clean)
    assert checkpoint_last(ckpt) == hi


def test_scan_to_csv_checkpoints_each_chunk_end(tmp_path, monkeypatch):
    seen = []
    real = scan._write_checkpoint

    def record(path, run, n):
        seen.append(n)
        real(path, run, n)

    monkeypatch.setattr(scan, "_write_checkpoint", record)
    lo, hi = 9, 2 * CHUNK + 100
    ckpt = tmp_path / "rows.ckpt"
    scan_to_csv(lo, hi, str(tmp_path / "rows.csv"), checkpoint_path=str(ckpt))
    assert seen == [lo + CHUNK - 1, lo + 2 * CHUNK - 1, hi]
    assert json.loads(ckpt.read_text()) == {"mode": "any", "lo": lo, "hi": hi, "last": hi}


def test_scan_to_csv_progress_reports_cumulative_counts(tmp_path):
    seen = []
    scan_to_csv(9, CHUNK + 100, str(tmp_path / "rows.csv"), progress=seen.append)
    assert seen == [CHUNK, CHUNK + 100 - 9 + 1]


def test_resume_with_torn_tail_line(tmp_path):
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "scan.ckpt"
    clean = tmp_path / "clean.csv"
    scan_to_csv(9, 1200, str(clean))
    scan_to_csv(9, 1200, str(out), checkpoint_path=str(ckpt))
    # simulate a crash after the checkpoint: stale rows plus a torn line
    with open(out, "r+", encoding="ascii") as fh:
        body = fh.read()
        fh.seek(0)
        fh.write(body[: len(body) * 3 // 4])
        fh.truncate()
    lines = out.read_text(encoding="ascii").splitlines()
    last_full = int(lines[-2].split(",")[0])
    write_checkpoint(ckpt, "any", 9, 1200, last_full - 37)
    scan_to_csv(9, 1200, str(out), checkpoint_path=str(ckpt))
    assert _digest(out) == _digest(clean)


def test_resume_rescans_damaged_rows_below_checkpoint(tmp_path):
    clean = tmp_path / "clean.csv"
    scan_to_csv(9, 600, str(clean))
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "scan.ckpt"
    scan_to_csv(9, 600, str(out), checkpoint_path=str(ckpt))
    lines = out.read_text(encoding="ascii").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("300,"))
    lines[at] = "300,bogus,,,,\n"
    out.write_text("".join(lines), encoding="ascii")
    summary = scan_to_csv(9, 600, str(out), checkpoint_path=str(ckpt))
    assert _digest(out) == _digest(clean)
    assert sum(summary.counts.values()) == 600 - 9 + 1


@pytest.mark.parametrize("edit", ["drop", "repeat", "garble"])
def test_resume_rescans_from_a_missing_repeated_or_garbled_row(tmp_path, edit):
    # a resume over a file without one row once reported success with 591
    # rows and a summary of 591 of the 592 n; a garbled fail row was counted,
    # then scanned and counted again
    clean = tmp_path / "clean.csv"
    whole = scan_to_csv(9, 600, str(clean), mode="with-two")
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "scan.ckpt"
    scan_to_csv(9, 600, str(out), mode="with-two", checkpoint_path=str(ckpt))
    lines = out.read_text(encoding="ascii").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines[300:], 300) if line.endswith(",fail,,,,\n"))
    row = lines[at]
    lines[at : at + 1] = {"drop": [], "repeat": [row, row], "garble": [row.replace(",,,,", ",")]}[edit]
    out.write_text("".join(lines), encoding="ascii")
    summary = scan_to_csv(9, 600, str(out), mode="with-two", checkpoint_path=str(ckpt))
    assert _digest(out) == _digest(clean)
    assert summary.counts == whole.counts
    assert summary.exceptions == whole.exceptions


def test_resume_after_completion_is_a_no_op(tmp_path):
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "scan.ckpt"
    first = scan_to_csv(9, 600, str(out), checkpoint_path=str(ckpt), mode="with-two")
    before = _digest(out)
    again = scan_to_csv(9, 600, str(out), checkpoint_path=str(ckpt), mode="with-two")
    # nothing is scanned, and the summary still covers the whole range
    assert (again.lo, again.hi, again.mode) == (9, 600, "with-two")
    assert again.counts == first.counts
    assert again.exceptions == first.exceptions
    assert again.counts["fail"] > 0
    assert again.elapsed_seconds == 0.0
    assert _digest(out) == before


def test_garbage_checkpoint_triggers_fresh_run(tmp_path):
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "scan.ckpt"
    clean = tmp_path / "clean.csv"
    scan_to_csv(9, 500, str(clean))
    out.write_text("not,a,scan\n", encoding="ascii")
    ckpt.write_text("bogus\n", encoding="ascii")
    scan_to_csv(9, 500, str(out), checkpoint_path=str(ckpt))
    assert _digest(out) == _digest(clean)


def test_resume_refuses_a_checkpoint_of_another_run(tmp_path):
    out = tmp_path / "r.csv"
    ckpt = tmp_path / "r.ckpt"
    scan_to_csv(9, 3000, str(out), checkpoint_path=str(ckpt))
    before = _digest(out)
    # a with-two resume of [9, 1000] once counted the 2,992 any-mode rows
    with pytest.raises(ValueError, match=r"\"any\".*\b3000\b.*this scan is with-two on \[9, 1000\]"):
        scan_to_csv(9, 1000, str(out), checkpoint_path=str(ckpt), mode="with-two")
    for lo, hi in ((9, 2000), (10, 3000), (9, 4000)):
        with pytest.raises(ValueError, match=rf"this scan is any on \[{lo}, {hi}\]"):
            scan_to_csv(lo, hi, str(out), checkpoint_path=str(ckpt))
    ckpt.write_text("2000\n", encoding="ascii")  # the earlier bare format
    with pytest.raises(ValueError, match=r"holds 2000; this scan is any on \[9, 3000\]"):
        scan_to_csv(9, 3000, str(out), checkpoint_path=str(ckpt))
    assert _digest(out) == before


def _emitted(chunk):
    return "".join(line for rows in scan._csv_slices(chunk) for line in rows)


def _formatted(chunk):
    return "".join(format_record(rec) + "\n" for rec in scan._materialize(chunk))


@settings(max_examples=30, deadline=None)
@given(
    a=st.integers(9, 200000),
    width=st.integers(0, 3000),
    mode=st.sampled_from(scan.MODES),
    size=st.sampled_from([1, 7, 4096]),
)
def test_chunk_emitter_matches_format_record(a, width, mode, size):
    b = min(a + width, 200000)
    (chunk,) = scan._run_chunks(a, b, mode, 1, keep=True)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scan, "_SLICE", size)
        assert _emitted(chunk) == _formatted(chunk)


def test_chunk_emitter_covers_every_stage():
    texts = []
    for a, b, mode in ((31000, 32000, "any"), (46000, 47000, "any"), (9, 5000, "with-two")):
        (chunk,) = scan._run_chunks(a, b, mode, 1, keep=True)
        texts.append(_emitted(chunk))
        assert texts[-1] == _formatted(chunk)
    lines = "".join(texts).splitlines()
    assert {line.split(",")[1] for line in lines} == set(scan.STAGES)
    for row in ("31416,other_divisor,2,7853,,", "46800,other_divisor,2,149,,", "15,fail,,,,"):
        assert row in lines


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("any", "50d8741fb3c4f019f8352f6af13ff9f8b07b92c32f438b29c40983adeceafbe1"),
        ("with-two", "ca282e6ca25442eb8f15354c4ad1802e56431a6187b336584b32be3e2dd239b5"),
    ],
)
def test_scan_to_csv_bytes_are_pinned(tmp_path, mode, digest):
    out = tmp_path / "rows.csv"
    scan_to_csv(9, 200000, str(out), mode=mode)
    assert _digest(out) == digest


def test_scan_to_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        scan_to_csv(5, 20, str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        scan_to_csv(9, 20, str(tmp_path / "x.csv"), mode="other")


def test_out_of_envelope_ranges_are_refused_before_any_table(tmp_path, monkeypatch):
    def no_tables(limit):
        raise AssertionError(f"primes_upto({limit}) called")

    monkeypatch.setattr(scan, "primes_upto", no_tables)
    monkeypatch.setattr(arith, "primes_upto", no_tables)
    too_big = MAX_N + 1
    calls = [
        lambda: scan_one(too_big),
        lambda: scan_one(10**9 + 1, "with-two"),
        lambda: scan_range(MAX_N - 5, too_big),
        lambda: scan_with_two(9, too_big),
        lambda: list(iter_scan(too_big, too_big + 3)),
        lambda: direct_search(too_big + 1, 2),
        lambda: prime_gap_stats(too_big),
        lambda: failure_histogram(too_big, 1000),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=str(MAX_N)):
            call()
    out = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match=str(MAX_N)):
        scan_to_csv(MAX_N - 5, too_big, str(out), checkpoint_path=str(tmp_path / "rows.ckpt"))
    assert not out.exists()
