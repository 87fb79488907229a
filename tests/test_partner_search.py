"""The batched partner search against a brute-force oracle.

The oracle tries every prime r < n in ascending order with
condition2_direct, so it shares no filtering, batching or candidate
generation with the scanner.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from binodiv import conditions, scan
from binodiv.arith import factorize, is_prime_power, largest_prime_power_divisor, primes_upto
from binodiv.conditions import _dominated_mask, condition2_direct
from binodiv.scan import direct_search, iter_scan, scan_one, scan_range


def least_partner(n, p):
    """The least prime r < n with condition2_direct(n, p, r), or None."""
    for r in primes_upto(n - 1):
        if condition2_direct(n, p, int(r)):
            return int(r)
    return None


def _searched(rec):
    return rec.stage in ("direct", "other_divisor", "fail") and is_prime_power(rec.n) is None


def test_with_two_witnesses_match_oracle():
    seen = 0
    for rec in iter_scan(9, 3000, "with-two"):
        if not _searched(rec):
            continue
        want = least_partner(rec.n, 2)
        got = None if rec.witness is None else rec.witness[1]
        assert rec.stage == ("fail" if want is None else "direct"), rec
        assert got == want, rec
        seen += 1
    assert seen > 1000


def test_any_mode_witnesses_match_oracle():
    # any mode leaves few n to the search: 7 up to 3000, 50 up to 30000
    seen = 0
    for rec in iter_scan(9, 30000, "any"):
        if not _searched(rec):
            continue
        # the base of the largest prime-power divisor first, then the other
        # prime divisors in ascending order; the first with a partner wins
        lead = largest_prime_power_divisor(rec.n).prime
        order = [lead] + [q for q in factorize(rec.n).primes() if q != lead]
        want = None
        for i, p in enumerate(order):
            r = least_partner(rec.n, p)
            if r is not None:
                want = ("direct" if i == 0 else "other_divisor", (p, r))
                break
        assert want is not None, rec
        assert (rec.stage, rec.witness) == want, rec
        seen += 1
    assert seen == 50


def test_witnesses_below_1000_near_a_million_are_least():
    rng = random.Random(20260)
    checked = 0
    while checked < 20:
        n = rng.randrange(10**6 - 20000, 10**6)
        rec = scan_one(n, "with-two")
        if not _searched(rec) or rec.witness is None or rec.witness[1] >= 1000:
            continue
        r = rec.witness[1]
        assert condition2_direct(n, 2, r), n
        for q in primes_upto(r - 1):
            assert not condition2_direct(n, 2, int(q)), (n, int(q))
        checked += 1


def test_pinned_witnesses():
    assert direct_search(46800, 2) == 149
    assert direct_search(31416, 2) == 7853
    assert direct_search(195624, 2) == 3
    assert direct_search(5504490, 2) is None
    assert direct_search(5504490, 3) == 5


def _naive_dominated(k, n, base):
    while k:
        if k % base > n % base:
            return False
        k //= base
        n //= base
    return True


_BASES = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 97, 1009])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 10**7),
    base=_BASES,
    fractions=st.lists(st.floats(0.0, 1.0), max_size=60),
    compact=st.sampled_from([0, 3, 1024]),
)
def test_dominated_mask_matches_digit_loop(n, base, fractions, compact):
    ks = np.array([int(f * n) for f in fractions], dtype=np.int64)
    want = [_naive_dominated(int(k), n, base) for k in ks]
    with mock.patch.object(conditions, "_COMPACT", compact):
        assert _dominated_mask(ks, n, base).tolist() == want


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 10**7), _BASES, st.floats(0.0, 1.0)), max_size=60),
    compact=st.sampled_from([0, 3, 1024]),
)
def test_dominated_mask_per_entry_n_and_base(rows, compact):
    ns = np.array([n for n, _, _ in rows], dtype=np.int64)
    bases = np.array([b for _, b, _ in rows], dtype=np.int64)
    ks = np.array([int(f * n) for n, _, f in rows], dtype=np.int64)
    want = [_naive_dominated(int(k), int(n), int(b)) for k, n, b in zip(ks, ns, bases)]
    with mock.patch.object(conditions, "_COMPACT", compact):
        assert _dominated_mask(ks, ns, bases).tolist() == want


def test_big_candidates_sweep_the_scans_prime_table():
    # n below 10**6 in a scan up to 1.1 * 10**6 use the cap-10**7 table
    scan._context.cache_clear()
    scan_range(900_000, 1_100_000, workers=1)
    assert scan._context.cache_info().misses == 1


@settings(max_examples=100, deadline=None)
@given(
    prime=st.sampled_from([2, 3, 7, 997, 9973, 99991]),
    ns=st.lists(st.integers(2, scan.MAX_N), min_size=1, max_size=40),
)
def test_pow_below_is_the_largest_power_below_each_n(prime, ns):
    want = []
    for n in ns:
        q = 1
        while q * prime < n:
            q *= prime
        want.append(q)
    assert scan._pow_below(np.array(ns, dtype=np.int64), prime).tolist() == want
