"""Acceptance gate for the package.

Each test prints one verdict line (run pytest with -s to see them) and then
asserts the same facts, so a red test always names its criterion.  The two
large scans are module fixtures; the whole module takes about 21 s on a
2-vCPU KVM guest, half of it in the restricted-mode scan of [9, 10^6].
"""

import hashlib
import math
import random
import time

import pytest

from binodiv import scan
from binodiv.arith import is_prime_power, primes_upto
from binodiv.conditions import condition1_holds, condition2_direct
from binodiv.density import dickman_rho, psi_count
from binodiv.kummer import prime_divides_equipartition, valuation_binomial
from binodiv.permgroup import (
    CycleType,
    check_condition4_pair,
    check_condition5,
    find_condition5_failure_witness,
    group_order,
)
from binodiv.scan import CHUNK, scan_one, scan_range, scan_to_csv, scan_with_two
from resume import checkpoint_last, last_row_n, stop_at_slice


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def large_any_scan():
    return scan_range(9, 10**7)


@pytest.fixture(scope="module")
def with_two_scan():
    return scan_with_two(9, 10**6)


def test_criterion_01_binomial_valuation_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(301):
        for k in range(n + 1):
            c = math.comb(n, k)
            for p in (2, 3, 5, 7, 11, 13):
                v, m = 0, c
                while m % p == 0:
                    m //= p
                    v += 1
                if valuation_binomial(n, k, p) != v:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(1, ok, f"carry-count valuations match the big-integer oracle, n <= 300 ({elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_02_block_partition_divisibility_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(4, 61):
        for d in range(2, n):
            if n % d or n // d < 2:
                continue
            m = n // d
            exact = math.factorial(n) // (math.factorial(d) ** m * math.factorial(m))
            for p in (2, 3, 5, 7):
                if prime_divides_equipartition(n, d, p) != (exact % p == 0):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(2, ok, f"block-partition index divisibility matches the exact oracle, n <= 60 ({elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_03_two_routes_agree_on_random_samples():
    t0 = time.perf_counter()
    rng = random.Random(41921)
    primes = [int(q) for q in primes_upto(200)]
    checked = mismatches = 0
    while checked < 2000:
        n = rng.randrange(9, 50001)
        if is_prime_power(n) is not None:
            continue
        p, r = rng.sample(primes, 2)
        if condition1_holds(n, p, r) != condition2_direct(n, p, r):
            mismatches += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    _verdict(3, ok, f"binomial and subgroup-index routes agree on 2000 random samples ({elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed < 120.0


def test_criterion_04_full_scan_to_ten_million(large_any_scan):
    summary = large_any_scan
    fails = summary.counts["fail"]
    others = {rec.n: rec for rec in summary.exceptions if rec.stage == "other_divisor"}
    small = {n for n in others if n <= 10**6}
    expected = {31416: (2, 7853), 46800: (2, 149), 195624: (2, 3)}
    witnesses_match = all(others[n].witness == w for n, w in expected.items() if n in others)
    witnesses_valid = all(condition2_direct(n, *w) for n, w in expected.items())
    ok = (
        fails == 0
        and small == set(expected)
        and witnesses_match
        and witnesses_valid
        and summary.elapsed_seconds < 1800.0
    )
    _verdict(
        4,
        ok,
        "scan of [9, 10^7]: zero failures, expected final-stage exceptions below 10^6, "
        f"valid witnesses ({summary.elapsed_seconds:.0f}s)",
    )
    assert fails == 0
    assert small == set(expected)
    assert witnesses_match
    assert witnesses_valid
    assert summary.elapsed_seconds < 1800.0


def test_criterion_05_restricted_scan_satisfied_count(with_two_scan):
    summary = with_two_scan
    satisfied = summary.satisfied()
    ok = abs(satisfied - 867_247) <= 10 and summary.elapsed_seconds < 3600.0
    _verdict(
        5,
        ok,
        f"restricted scan of [9, 10^6]: satisfied count {satisfied} "
        f"within 10 of 867247 ({summary.elapsed_seconds:.0f}s)",
    )
    assert abs(satisfied - 867_247) <= 10
    assert summary.elapsed_seconds < 3600.0


def test_criterion_06_rho_at_twenty():
    t0 = time.perf_counter()
    value = dickman_rho(20.0)
    elapsed = time.perf_counter() - t0
    rel = abs(value / 2.462e-29 - 1.0)
    ok = rel <= 0.05 and value < 1e-28 and elapsed < 30.0
    _verdict(6, ok, f"rho(20) = {value:.4e}, within 5% of 2.462e-29 and below 1e-28")
    assert rel <= 0.05
    assert value < 1e-28
    assert elapsed < 30.0


def test_criterion_07_smooth_ratios_track_rho():
    t0 = time.perf_counter()
    worst = 0.0
    for u in (1.5, 2.0, 2.5, 3.0):
        y = 10 ** (6 / u)
        ratio = psi_count(10**6, y).count / 10**6
        worst = max(worst, abs(ratio - dickman_rho(u)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 60.0
    _verdict(
        7, ok, f"smooth-number ratios track rho(u) for u in {{1.5, 2, 2.5, 3}}, worst gap {worst:.3f}"
    )
    assert worst <= 0.05
    assert elapsed < 60.0


def test_criterion_08_small_degree_generation():
    t0 = time.perf_counter()
    rows = (
        (5, (3, 1, 1), (5,)),
        (6, (4, 2), (5, 1)),
        (7, (5, 1, 1), (7,)),
        (8, (4, 4), (5, 1, 1, 1)),
    )
    pairs_generate = all(
        check_condition4_pair(n, CycleType(n, pc), CycleType(n, pd)) for n, pc, pd in rows
    )
    found = {n: check_condition5(n) for n in range(5, 9)}
    verdicts_ok = (
        found[5] is not None
        and found[6] is None
        and found[7] is not None
        and found[8] is None
    )
    witness = find_condition5_failure_witness(8, CycleType(8, (2, 2, 2, 2)), CycleType(8, (7, 1)))
    witness_ok = witness is not None and group_order(list(witness)) == 168
    elapsed = time.perf_counter() - t0
    ok = pairs_generate and verdicts_ok and witness_ok and elapsed < 300.0
    _verdict(
        8,
        ok,
        "degree 5..8 class pairs generate, prime-order verdicts as expected, "
        f"degree-8 witness has group order 168 ({elapsed:.1f}s)",
    )
    assert pairs_generate
    assert verdicts_ok
    assert witness_ok
    assert elapsed < 300.0


def test_criterion_09_window_certificates_revalidate():
    t0 = time.perf_counter()
    rng = random.Random(60913)
    records = []
    while len(records) < 10**4:
        rec = scan_one(rng.randrange(9, 10**6))
        if rec.stage == "sieve":
            records.append(rec)
    mismatches = sum(0 if condition2_direct(rec.n, *rec.witness) else 1 for rec in records)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 300.0
    _verdict(9, ok, f"10^4 random window-certificate records revalidated ({elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed < 300.0


def test_criterion_10_interrupt_and_resume(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    lo, hi = 9, 10**5
    clean = tmp_path / "clean.csv"
    scan_to_csv(lo, hi, str(clean))

    out = tmp_path / "resumed.csv"
    ckpt = tmp_path / "resumed.ckpt"
    with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
        # four slices into the second chunk, whose rows lie above the checkpoint
        m.setattr(scan, "_csv_slices", stop_at_slice(CHUNK // scan._SLICE + 4))
        scan_to_csv(lo, hi, str(out), checkpoint_path=str(ckpt))
    assert checkpoint_last(ckpt) == lo + CHUNK - 1
    # the rows of those four slices are in the CSV, and the resume drops them
    assert last_row_n(out) == lo + CHUNK - 1 + 4 * scan._SLICE
    scan_to_csv(lo, hi, str(out), checkpoint_path=str(ckpt))

    def digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    identical = digest(out) == digest(clean)
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 60.0
    _verdict(10, ok, f"interrupted and resumed scan of [9, 10^5] is byte-identical ({elapsed:.1f}s)")
    assert identical
    assert elapsed < 60.0


def test_final_stage_exceptions_between_one_and_ten_million(large_any_scan):
    # not part of the gate: pins the remaining final-stage records of the
    # large scan and revalidates their witnesses
    others = {
        rec.n: rec.witness
        for rec in large_any_scan.exceptions
        if rec.stage == "other_divisor" and rec.n > 10**6
    }
    assert others == {5504490: (3, 5), 7458780: (2, 276251), 9968112: (2, 3)}
    for n, witness in others.items():
        assert condition2_direct(n, *witness)
