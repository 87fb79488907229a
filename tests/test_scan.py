import hashlib
import io
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binodiv import arith, scan
from binodiv.arith import PrimePower, is_prime, is_prime_power, largest_prime_power_below, primes_upto
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
from oracles import condition5_sieve_pair, equipartition_count
from resume import checkpoint_last, last_row_n, stop_at_slice, write_checkpoint


def test_scan_one_any_mode():
    assert scan_one(9) == ScanRecord(9, "prime_power", (3, 2))
    assert scan_one(16) == ScanRecord(16, "prime_power", (2, 3))
    assert scan_one(10007) == ScanRecord(10007, "prime_power", (10007, 2))
    rec = scan_one(10)
    assert rec.stage == "sieve" and rec.witness == (5, 3)
    assert rec.sieve_pair == (PrimePower(5, 1, 5), PrimePower(3, 2, 9))
    rec = scan_one(12)
    assert rec.witness == (2, 11)
    assert rec.sieve_pair == (PrimePower(2, 2, 4), PrimePower(11, 1, 11))


def test_scan_one_with_two_mode():
    assert scan_one(16, "with-two") == ScanRecord(16, "prime_power", (2, 3))
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
    # 2 divides no index of blocks of a power of 2, and 3 covers them all
    # but at 512, where two blocks of 256 add without carry in bases 3 and 5
    assert direct_search(16, 2) == 3
    assert direct_search(512, 2) == 7
    assert direct_search(27, 3) == 2
    assert direct_search(10007, 10007) == 2
    assert direct_search(16, 3) == 2  # partner is the base prime
    with pytest.raises(ValueError):
        direct_search(16, 4)
    with pytest.raises(ValueError):
        direct_search(8, 2)


def test_direct_search_finds_no_partner_below_a_prime_n():
    # k = 1 forces r = 13, which is not below n, yet (11, 13) covers A_13
    assert direct_search(13, 11) is None
    assert condition2_direct(13, 11, 13)


def test_direct_search_returns_least_witness():
    for n in (48, 120, 3600):
        r = direct_search(n, 2)
        assert r is not None and condition2_direct(n, 2, r)
        smaller = [int(q) for q in primes_upto(r - 1)] if r > 2 else []
        for q in smaller:
            assert not condition2_direct(n, 2, q), (n, q)


@pytest.mark.parametrize(
    "n, p, want",
    [
        (100, 18446744073709551557, None),
        (10**6, 18446744073709551557, None),
        (100, 101, None),
        (125, 18446744073709551557, None),
        (128, 18446744073709551557, None),
        (16, 17, None),
        (27, 29, None),
        (49, 53, None),
    ],
)
def test_direct_search_with_a_prime_above_n(n, p, want):
    # the prime beyond int64 used to overflow the batched search; above a
    # non-prime-power n no partner exists; at n = q**e, k = 1 leaves only
    # r = q, and the index for blocks of 5 of 125 is prime to 5, the one for
    # blocks of 64 of 128 odd (and every prime factor of either is below n)
    assert equipartition_count(125, 5).value % 5 and equipartition_count(128, 64).value % 2
    assert direct_search(n, p) == want
    if n < 1000:
        # the least prime r < n that condition2_direct accepts, tried in order
        assert want == next((int(r) for r in primes_upto(n - 1) if condition2_direct(n, p, int(r))), None)


@pytest.mark.parametrize("mode", ["any", "with-two"])
def test_prime_power_rows_record_the_least_partner_of_the_base_prime(mode):
    hi = 2 * 10**5
    primes = [int(q) for q in primes_upto(hi)]
    powers = {q**e: q for q in primes for e in range(1, hi.bit_length()) if 9 <= q**e <= hi}
    rows = [rec for rec in iter_scan(9, hi, mode) if rec.n in powers]
    assert len(rows) == len(powers)
    for rec in rows:
        n, q = rec.n, powers[rec.n]
        assert rec.stage == ("prime_power" if mode == "any" or q == 2 else "direct"), rec
        p, r = rec.witness
        assert p == q, rec
        assert condition1_holds(n, p, r) and condition2_direct(n, p, r), rec
        for s in primes[: primes.index(r)]:
            assert not condition2_direct(n, p, s), (rec, s)


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
            assert pp is not None and rec.witness[0] == pp.prime
            assert condition2_direct(n, *rec.witness)
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
            assert rec.witness[0] == is_prime_power(n).prime == 2
            assert condition2_direct(n, *rec.witness)
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


# starts just above the proper power 2**20 and just above the prime 1,000,003,
# and one chunk below a seam under 10**7; each scan runs 300 n into a second chunk
@pytest.mark.parametrize(
    "lo, mode",
    [(2**20 + 1, "any"), (2**20 + 1, "with-two"), (1_000_004, "any"), (1_000_004, "with-two"), (10**7 - CHUNK - 700, "any")],
)
def test_window_columns_match_the_scalar_route_across_chunk_seams(lo, mode):
    records = list(iter_scan(lo, lo + CHUNK + 299, mode, workers=2))
    rng = random.Random(lo)
    picked = set(range(300)) | set(range(CHUNK, CHUNK + 300)) | set(rng.sample(range(len(records)), 600))
    for rec in (records[i] for i in sorted(picked)):
        n = rec.n
        if is_prime_power(n) is not None:
            continue
        if mode == "any":
            # sieve records carry the scalar pair, and every other record has none
            assert rec.sieve_pair == sieve_pair_for(n), n
            continue
        # window A pairs n's part of 2 with the largest prime power below n
        below = largest_prime_power_below(n).value
        in_a = rec.stage == "sieve" and rec.witness[0] == 2
        assert in_a == (below + (n & -n) > n), n
        if in_a:
            assert rec.sieve_pair[1].value == below, n


@pytest.mark.parametrize("width", [1, 2, 511, 512, CHUNK])
@pytest.mark.parametrize("lo", [9, 2**20 - 511, 2**20 + 1, 1009**2 - 511, 1009**2 - 1, 1009**2 + 1, MAX_N - CHUNK])
def test_lppd_arrays_match_the_scalar_divisor(lo, width):
    # the sieve reads only the module's primes up to sqrt(MAX_N)
    ns = np.arange(lo, lo + width, dtype=np.int64)
    val, base = scan._lppd_arrays(ns)
    # the base part of each mode: the lppd prime's part, and the part of 2
    part, two_part = scan._p_part(ns, base), scan._p_part(ns, np.full_like(ns, 2))
    rng = random.Random(lo + width)
    picked = set(range(min(width, 512))) | set(range(max(width - 512, 0), width)) | set(rng.sample(range(width), min(width, 500)))
    for i in sorted(picked):
        n = lo + i
        want = arith.largest_prime_power_divisor(n)
        assert (int(val[i]), int(base[i]), int(part[i])) == (want.value, want.prime, want.value), n
        assert int(two_part[i]) == n & -n, n


def test_progress_callback_reports_cumulative_counts():
    seen = []
    scan_range(9, CHUNK + 100, progress=lambda done, total: seen.append((done, total)))
    total = CHUNK + 100 - 9 + 1
    assert seen == [(CHUNK, total), (total, total)]


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
    hist = failure_histogram(1000, 128)
    assert isinstance(hist, Histogram)
    assert hist.total() == len(fails)
    assert hist.buckets[0][1] >= 1  # 15 lands in the first bucket
    assert [start for start, _ in hist.buckets] == list(range(0, 1001, 128))
    assert [c for _, c in hist.buckets] == np.bincount(np.array(fails) // 128, minlength=8).tolist()


def test_failure_histogram_validation():
    with pytest.raises(ValueError):
        failure_histogram(8, 10)
    with pytest.raises(ValueError):
        failure_histogram(100, 0)
    # 15 is the least failure
    empty = failure_histogram(14, 7)
    assert empty.buckets == ((0, 0), (7, 0), (14, 0))


def test_csv_round_trip():
    for mode in ("any", "with-two"):
        for rec in iter_scan(9, 1500, mode):
            line = format_record(rec)
            assert parse_record(line) == rec, line


def test_csv_field_layout():
    assert format_record(scan_one(10)) == "10,sieve,5,3,5,9"
    assert format_record(scan_one(9)) == "9,prime_power,3,2,,"
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
    # p without r, pa without rb, or a field that is not a decimal number
    for line in ("10,direct,5,,,", "10,sieve,5,3,5,", "10,sieve,5,3,,9", "10,direct,5,+3,,", "1_0,direct,5,3,,"):
        with pytest.raises(ValueError, match="fields do not fit"):
            parse_record(line)
    # a number with a leading zero, which int() would read as the clean one
    for line in ("0300,sieve,5,293,25,293", "300,sieve,05,293,25,293"):
        with pytest.raises(ValueError, match="leading zero"):
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
        m.setattr(scan, "_summarize", stop_at_slice(SLICES))  # as the second chunk starts
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
        m.setattr(scan, "_summarize", stop_at_slice(SLICES + 2))  # two slices into the second chunk
        scan_to_csv(lo, hi, str(out), mode="with-two", checkpoint_path=str(ckpt))
    # the checkpoint covers the first chunk; the rows written past it go on resume
    assert checkpoint_last(ckpt) == lo + CHUNK - 1
    assert last_row_n(out) == lo + CHUNK - 1 + 2 * scan._SLICE
    resumed = scan_to_csv(lo, hi, str(out), mode="with-two", checkpoint_path=str(ckpt))
    assert (resumed.lo, resumed.hi, resumed.mode) == (lo, hi, "with-two")
    assert resumed.counts == whole.counts
    assert resumed.exceptions == whole.exceptions
    assert _digest(out) == _digest(clean)


@pytest.mark.parametrize("mode", scan.MODES)
def test_scan_to_csv_summary_is_the_scan_summary(tmp_path, monkeypatch, mode):
    # chunks of two slices, so that three chunks and more stay small
    monkeypatch.setattr(scan, "CHUNK", 2 * scan._SLICE)
    # the first chunk holds 31416, the first other_divisor row
    lo, hi = 28000, 28000 + 3 * scan.CHUNK + 100
    run = scan_with_two if mode == "with-two" else scan_range
    want = run(lo, hi, workers=1)
    assert want.exceptions
    fresh = scan_to_csv(lo, hi, str(tmp_path / "fresh.csv"), mode=mode, workers=1)
    assert (fresh.lo, fresh.hi, fresh.mode, fresh.counts, fresh.exceptions) == (lo, hi, mode, want.counts, want.exceptions)

    out, ckpt = tmp_path / "resumed.csv", tmp_path / "resumed.ckpt"
    with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
        m.setattr(scan, "_summarize", stop_at_slice(3))  # one slice into the second chunk
        scan_to_csv(lo, hi, str(out), mode=mode, checkpoint_path=str(ckpt), workers=1)
    assert checkpoint_last(ckpt) == lo + scan.CHUNK - 1
    resumed = scan_to_csv(lo, hi, str(out), mode=mode, checkpoint_path=str(ckpt), workers=1)
    assert (resumed.lo, resumed.hi, resumed.mode, resumed.counts, resumed.exceptions) == (lo, hi, mode, want.counts, want.exceptions)
    assert out.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


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


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_to_csv_checkpoints_each_chunk_end(tmp_path, monkeypatch, workers):
    # a range of more than one chunk keeps its seams at lo + i * CHUNK
    seen = []
    real = scan._write_checkpoint
    out = tmp_path / "rows.csv"

    def record(path, run, n):
        # the rows a checkpoint covers are on disk before it is written
        rows = out.read_text(encoding="ascii").splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(lo, n + 1))
        seen.append(n)
        real(path, run, n)

    monkeypatch.setattr(scan, "_write_checkpoint", record)
    lo, hi = 9, 2 * CHUNK + 100
    ckpt = tmp_path / "rows.ckpt"
    scan_to_csv(lo, hi, str(out), checkpoint_path=str(ckpt), workers=workers)
    assert seen == [lo + CHUNK - 1, lo + 2 * CHUNK - 1, hi]
    assert json.loads(ckpt.read_text()) == {"mode": "any", "lo": lo, "hi": hi, "last": hi}


def test_scan_to_csv_progress_reports_cumulative_counts(tmp_path):
    seen = []

    def report(done, total):
        seen.append((done, total))

    lo, hi = 9, CHUNK + 100
    out, ckpt = str(tmp_path / "rows.csv"), str(tmp_path / "rows.ckpt")
    scan_to_csv(lo, hi, out, checkpoint_path=ckpt, progress=report)
    assert seen == [(CHUNK, hi - lo + 1), (hi - lo + 1, hi - lo + 1)]
    # a resumed call counts only the n it writes; its 92 n are at most one
    # chunk, so 2 workers split them into two pieces of 46, each reported
    write_checkpoint(ckpt, "any", lo, hi, lo + CHUNK - 1)
    seen.clear()
    scan_to_csv(lo, hi, out, checkpoint_path=ckpt, workers=2, progress=report)
    assert hi - lo - CHUNK + 1 == 92
    assert seen == [(46, 92), (92, 92)]


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


@pytest.mark.parametrize(
    "row",
    [
        "300,bogus,,,,",
        "300,sieve,,,,",
        "300,direct,2,,,",
        "300,sieve,5,3,,9",
        "300,direct,2,x,,",
        "0300,sieve,5,293,25,293",
        "300,sieve,05,293,25,293",
    ],
)
def test_resume_rescans_damaged_rows_below_checkpoint(tmp_path, row):
    # an unknown stage, fields that do not fit the stage, or a number with a
    # leading zero (the clean row is 300,sieve,5,293,25,293); a sieve row
    # without its witness or pair, or one with a leading zero, once survived
    # a resume, so the file was not the clean bytes
    clean = tmp_path / "clean.csv"
    whole = scan_to_csv(9, 600, str(clean))
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "scan.ckpt"
    scan_to_csv(9, 600, str(out), checkpoint_path=str(ckpt))
    lines = out.read_text(encoding="ascii").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("300,"))
    lines[at] = f"{row}\n"
    out.write_text("".join(lines), encoding="ascii")
    summary = scan_to_csv(9, 600, str(out), checkpoint_path=str(ckpt))
    assert _digest(out) == _digest(clean)
    assert summary.counts == whole.counts
    assert list(read_csv(str(out))) == list(read_csv(str(clean)))


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


@pytest.mark.parametrize("damage", ["cut", "missing", "header"])
def test_resume_over_a_cut_missing_or_foreign_csv_writes_the_clean_bytes(tmp_path, damage):
    # a row cut at or below the checkpoint is scanned again; a missing CSV,
    # or one under another header, is written afresh
    clean = tmp_path / "clean.csv"
    whole = scan_to_csv(9, 600, str(clean))
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "scan.ckpt"
    scan_to_csv(9, 600, str(out), checkpoint_path=str(ckpt))
    assert checkpoint_last(ckpt) == 600
    body = out.read_text(encoding="ascii")
    if damage == "cut":
        out.write_text(body[: body.index("\n300,") + len("\n300,s")], encoding="ascii")
    elif damage == "missing":
        out.unlink()
    else:
        out.write_text(body.replace(CSV_HEADER, "n,stage,p,r", 1), encoding="ascii")
    summary = scan_to_csv(9, 600, str(out), checkpoint_path=str(ckpt))
    assert _digest(out) == _digest(clean)
    assert summary.counts == whole.counts


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
    return "".join(scan._csv_slices(chunk.lo, *chunk.rows))


def _formatted(chunk):
    return "".join(format_record(rec) + "\n" for rec in scan._materialize(chunk))


def _first_difference(got: str, want: str):
    """The first line where two CSV texts differ, as (index, got, want), or
    None; a diff of two whole scans would take pytest minutes to print."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (g, w) in enumerate(itertools.zip_longest(got_lines, want_lines)):
        if g != w:
            return i, g, w
    return None


@settings(max_examples=30, deadline=None)
@given(
    a=st.integers(9, 200000),
    width=st.integers(0, 3000),
    mode=st.sampled_from(scan.MODES),
    size=st.sampled_from([1, 7, 4096]),
)
def test_chunk_emitter_matches_format_record(a, width, mode, size):
    b = min(a + width, 200000)
    (chunk,) = scan._run_chunks(a, b, mode, 1, keep="arrays")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scan, "_SLICE", size)
        assert _first_difference(_emitted(chunk), _formatted(chunk)) is None


def test_chunk_emitter_covers_every_stage():
    texts = []
    for a, b, mode in ((31000, 32000, "any"), (46000, 47000, "any"), (9, 5000, "with-two")):
        (chunk,) = scan._run_chunks(a, b, mode, 1, keep="arrays")
        texts.append(_emitted(chunk))
        assert _first_difference(texts[-1], _formatted(chunk)) is None
    lines = "".join(texts).splitlines()
    assert {line.split(",")[1] for line in lines} == set(scan.STAGES)
    for row in ("31416,other_divisor,2,7853,,", "46800,other_divisor,2,149,,", "15,fail,,,,"):
        assert row in lines


class _CountingText(io.StringIO):
    """A text file that counts the calls that write to it."""

    calls = 0

    def write(self, s):
        self.calls += 1
        return super().write(s)

    def writelines(self, lines):
        self.calls += 1
        return super().writelines(lines)


def _records(lo, hi, mode):
    return "".join(format_record(rec) + "\n" for rec in iter_scan(lo, hi, mode, workers=1))


def test_csv_writer_makes_one_write_per_slice():
    lo, hi = 9, CHUNK + 3 * scan._SLICE + 100
    fh = _CountingText()
    ends = [lo - 1]

    def after(n):
        # every row of the chunk is written before the hook sees its last n
        assert 0 < fh.calls <= math.ceil((n - ends[-1]) / scan._SLICE)
        assert fh.getvalue().endswith(format_record(scan_one(n)) + "\n")
        fh.calls = 0
        ends.append(n)

    scan._summarize(lo, hi, "any", 1, None, fh, after)
    assert ends == [lo - 1, lo + CHUNK - 1, hi]
    assert _first_difference(fh.getvalue(), _records(lo, hi, "any")) is None


@pytest.mark.parametrize("mode", scan.MODES)
@pytest.mark.parametrize(
    "lo, hi",
    [
        (999_000, 1_001_000),  # n crosses 10**6
        (MAX_N - 1_500, MAX_N),
        (500_000, 500_000),
        (2**20 - 5_000, 2**20 + 5_000),  # four slices and 1,809 rows
        (9, CHUNK + 2 * scan._SLICE + 9),  # a full chunk, then two slices and one row
    ],
)
def test_csv_writer_matches_format_record(lo, hi, mode):
    fh = io.StringIO()
    scan._summarize(lo, hi, mode, 1, None, fh)
    text = fh.getvalue()
    assert _first_difference(text, _records(lo, hi, mode)) is None
    if hi == MAX_N:
        assert text.splitlines()[-1] == format_record(scan_one(MAX_N, mode))


def test_csv_slices_write_every_digit_count_and_empty_fields():
    values = [1, 9, 10, 99, 100] + [v for k in range(3, scan._DIGITS) for v in (10**k - 1, 10**k)] + [10**scan._DIGITS - 1]
    values += [0] * 4
    rows = len(values)
    # each column takes every value and a 0 on its own row; n runs across a
    # power of ten for each digit count, up to the last n of twelve digits
    cols = [np.roll(np.array(values, dtype=np.int64), j) for j in range(4)]
    stage = (np.arange(rows) % len(scan.STAGES)).astype(np.uint8)
    for lo in [10**k - 2 for k in range(1, scan._DIGITS)] + [10**scan._DIGITS - rows]:
        chunk = scan._ChunkResult(lo, np.zeros(len(scan.STAGES), dtype=np.int64), [], (stage, *cols))
        want = "".join(
            f"{lo + i},{scan.STAGES[stage[i]]},{','.join(str(int(col[i]) or '') for col in cols)}\n" for i in range(rows)
        )
        with pytest.MonkeyPatch.context() as m:
            m.setattr(scan, "_SLICE", 8)  # three slices and four rows
            assert _first_difference(_emitted(chunk), want) is None


@pytest.mark.parametrize("digits", [scan._DIGITS, scan._DIGITS + 1])
def test_import_refuses_a_max_n_with_more_digits_than_a_csv_field(monkeypatch, digits):
    # the module's source with MAX_N = 10**(digits - 1), run as a module of binodiv
    source = Path(scan.__file__).read_text(encoding="utf-8")
    assert source.count("\nMAX_N = 10**8\n") == 1
    code = compile(source.replace("\nMAX_N = 10**8\n", f"\nMAX_N = 10**{digits - 1}\n"), scan.__file__, "exec")
    wide = types.ModuleType("binodiv.wide_scan")
    wide.__package__ = "binodiv"
    monkeypatch.setitem(sys.modules, wide.__name__, wide)  # dataclasses look their module up
    if digits <= scan._DIGITS:
        exec(code, wide.__dict__)
        assert wide.MAX_N == 10 ** (digits - 1)
    else:
        with pytest.raises(ValueError, match=rf"MAX_N = 10{{{digits - 1}}} has more digits than the {scan._DIGITS} a CSV field"):
            exec(code, wide.__dict__)


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("any", "34bd86a9d77168c040940be47d5400fafb0537acdcacd3fb82d234d1b2b94512"),
        ("with-two", "8a0c3659ddf210ead432c6d03af965322c8b67fef665d785c8ec4f32309e0926"),
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


# ---------------------------------------------------------------------------
# the worker pool kept across scan calls


def _pool_pids() -> set[int]:
    """The pids of the kept pool's workers; empty when no pool is kept."""
    return set(scan._pool[2]._processes or ()) if scan._pool is not None else set()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _rows(tmp_path, lo: int, hi: int, workers: int) -> bytes:
    """The CSV rows of [lo, hi] scanned on this many workers."""
    out = tmp_path / f"rows-{workers}.csv"
    scan_to_csv(lo, hi, str(out), workers=workers)
    return out.read_bytes()


def test_consecutive_scans_are_served_by_one_pool(tmp_path):
    lo, hi = 9, 3 * CHUNK
    assert _rows(tmp_path, lo, hi, 2) == _rows(tmp_path, lo, hi, 1)
    pool, pids = scan._pool[2], _pool_pids()
    assert len(pids) == 2
    par, seq = scan_range(lo, hi, workers=2), scan_range(lo, hi, workers=1)
    assert (par.counts, par.exceptions) == (seq.counts, seq.exceptions)
    assert scan._pool[2] is pool and _pool_pids() == pids
    assert all(_alive(pid) for pid in pids)


def test_another_worker_count_replaces_the_pool(tmp_path):
    lo, hi = 9, 3 * CHUNK
    scan_range(lo, hi, workers=2)
    old, old_pids = scan._pool[2], _pool_pids()
    # no test asks for more than 2 workers, so a pool of one stands for
    # another count; the old pool's workers are joined before it is made
    one = scan._worker_pool(1)
    assert one is not old and scan._pool[:2] == (os.getpid(), 1)
    assert not any(_alive(pid) for pid in old_pids)
    assert _rows(tmp_path, lo, hi, 2) == _rows(tmp_path, lo, hi, 1)
    assert scan._pool[2] is not one and scan._pool[:2] == (os.getpid(), 2)
    assert _pool_pids().isdisjoint(old_pids)


def test_a_killed_worker_fails_that_call_and_the_next_forks_anew(tmp_path):
    lo, hi = 9, 3 * CHUNK
    scan_range(lo, hi, workers=2)
    pool, pids = scan._pool[2], _pool_pids()
    os.kill(min(pids), signal.SIGKILL)
    # the pool's manager thread marks it broken and exits
    pool._executor_manager_thread.join(timeout=60)
    with pytest.raises(BrokenProcessPool):
        scan_range(lo, hi, workers=2)
    assert scan._pool is None
    assert _rows(tmp_path, lo, hi, 2) == _rows(tmp_path, lo, hi, 1)
    assert _pool_pids().isdisjoint(pids)


def test_a_scan_left_early_keeps_the_pool(tmp_path):
    lo, hi = 9, 6 * CHUNK
    it = iter_scan(lo, hi, workers=2)
    assert next(it) == scan_one(lo)
    pids = _pool_pids()
    # the chunks not yet started are cancelled, and the next scan runs at once
    it.close()
    assert _rows(tmp_path, lo, 3 * CHUNK, 2) == _rows(tmp_path, lo, 3 * CHUNK, 1)
    assert _pool_pids() == pids


def test_a_worker_count_above_the_cores_makes_one_worker_per_core(monkeypatch):
    sizes = []

    class Recorded(ThreadPoolExecutor):
        """Threads in place of worker processes, so that no count forks."""

        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)
            assert mp_context.get_start_method() == "fork"
            super().__init__(max_workers=max_workers)

    lo, hi = 9, 2 * CHUNK + 100
    scan._close_pool()  # so that the next scan makes a pool
    monkeypatch.setattr(scan.futures, "ProcessPoolExecutor", Recorded)
    try:
        got = list(iter_scan(lo, hi, workers=10**6))
        cpus = os.cpu_count() or 1
        assert sizes == ([cpus] if cpus > 1 else [])
        if sizes:
            assert scan._pool[:2] == (os.getpid(), cpus)
    finally:
        scan._close_pool()
    assert got == list(iter_scan(lo, hi, workers=1))


@pytest.mark.parametrize("workers", [0, -3])
def test_a_worker_count_below_one_is_refused(tmp_path, workers):
    out = tmp_path / "rows.csv"
    calls = [
        lambda: scan_range(9, 3 * CHUNK, workers=workers),
        lambda: scan_with_two(9, 100, workers=workers),
        lambda: next(iter_scan(9, 100, workers=workers)),
        lambda: scan_to_csv(9, 100, str(out), workers=workers),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"need workers >= 1, got {workers}"):
            call()
    assert not out.exists()


def test_the_pool_forks_its_workers_whatever_the_default_start_method():
    # forkserver is the default from Python 3.14 on; a worker forked by the
    # calling process is its child
    code = (
        "import multiprocessing, os\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "from binodiv import scan\n"
        "print(scan._worker_pool(2).submit(os.getppid).result(), os.getpid())\n"
    )
    src = str(Path(scan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    parent, pid = proc.stdout.split()
    assert parent == pid


def test_a_process_that_scanned_on_the_pool_exits_with_its_workers():
    code = "from binodiv import scan\nscan.scan_range(9, 3 * scan.CHUNK, workers=2)\nprint(*scan._pool[2]._processes)\n"
    src = str(Path(scan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


# ---------------------------------------------------------------------------
# a range of at most one chunk, split across the workers


def test_chunk_bounds_split_a_short_range_into_near_equal_pieces():
    assert scan._chunk_bounds(9, 9, 2) == [(9, 9)]
    assert scan._chunk_bounds(9, 11, 2) == [(9, 9), (10, 11)]
    assert scan._chunk_bounds(9, 100, 2) == [(9, 54), (55, 100)]
    assert scan._chunk_bounds(9, 8 + CHUNK, 2) == [(9, 8 + CHUNK // 2), (9 + CHUNK // 2, 8 + CHUNK)]
    assert scan._chunk_bounds(9, 8 + CHUNK, 1) == [(9, 8 + CHUNK)]
    assert scan._chunk_bounds(10, 20, 4) == [(10, 11), (12, 14), (15, 17), (18, 20)]
    # one more n makes two chunks, whose seam stays at lo + CHUNK
    assert scan._chunk_bounds(9, 9 + CHUNK, 2) == [(9, 8 + CHUNK), (9 + CHUNK, 9 + CHUNK)]


def _checkpointed(tmp_path, monkeypatch, lo, hi, mode, workers):
    """The CSV bytes of [lo, hi] on this many workers and the n of each
    checkpoint, checking that each covers exactly the rows on disk."""
    out, ckpt = tmp_path / f"split-{workers}.csv", tmp_path / f"split-{workers}.ckpt"
    seen = []
    real = scan._write_checkpoint

    def record(path, run, n):
        rows = out.read_text(encoding="ascii").splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(lo, n + 1))
        seen.append(n)
        real(path, run, n)

    with monkeypatch.context() as m:
        m.setattr(scan, "_write_checkpoint", record)
        scan_to_csv(lo, hi, str(out), mode=mode, checkpoint_path=str(ckpt), workers=workers)
    return out.read_bytes(), seen


@pytest.mark.parametrize("mode", scan.MODES)
@pytest.mark.parametrize("width", [1, 2, 3, 511, 512, CHUNK])
def test_a_one_chunk_range_split_across_workers_gives_the_same_output(tmp_path, monkeypatch, mode, width):
    # 31416, the first other_divisor row, lies in every range wider than 16
    lo = 31_400
    hi = lo + width - 1
    run = scan_with_two if mode == "with-two" else scan_range
    one, two = run(lo, hi, workers=1), run(lo, hi, workers=2)
    assert (two.lo, two.hi, two.mode, two.counts, two.exceptions) == (one.lo, one.hi, one.mode, one.counts, one.exceptions)
    assert list(iter_scan(lo, hi, mode, workers=2)) == list(iter_scan(lo, hi, mode, workers=1))
    rows_one, seen_one = _checkpointed(tmp_path, monkeypatch, lo, hi, mode, 1)
    rows_two, seen_two = _checkpointed(tmp_path, monkeypatch, lo, hi, mode, 2)
    assert rows_two == rows_one
    # each checkpoint is a piece's last n: one piece on 1 worker or for one
    # n, else two of width // 2 and width - width // 2 n
    assert seen_one == [hi]
    assert seen_two == ([hi] if width == 1 else [lo + width // 2 - 1, hi])
    if width > 1:
        assert scan._pool is not None and scan._pool[:2] == (os.getpid(), 2)


def test_a_csv_scan_on_the_pool_formats_no_row_in_the_parent(tmp_path, monkeypatch):
    # fork the pool's workers before the patch, so that only they format
    scan._worker_pool(2).submit(int).result()

    def refuse(*args):
        raise AssertionError("CSV rows made in the parent")

    want = {width: _rows(tmp_path, 9, 8 + width, 1) for width in (100, 3 * CHUNK)}
    monkeypatch.setattr(scan, "_csv_slices", refuse)
    for width, rows in want.items():
        assert _rows(tmp_path, 9, 8 + width, 2) == rows
    fh = io.StringIO()
    scan._summarize(9, 108, "with-two", 2, None, fh)
    assert fh.getvalue() == _records(9, 108, "with-two")
