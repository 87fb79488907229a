"""The batched partner search against a brute-force oracle.

The oracle tries every prime r < n in ascending order with
condition2_direct, so it shares no filtering, batching or candidate
generation with the scanner.
"""

import math
import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binodiv import conditions, scan
from binodiv.arith import factorize, is_prime_power, largest_prime_power_divisor, primes_upto
from binodiv.conditions import (
    _condition1_many,
    _digit_slots,
    _dominated_mask,
    _enumerate_p,
    condition1_holds,
    condition2_direct,
    obstructions,
)
from binodiv.kummer import valuation_binomial
from binodiv.scan import ScanRecord, direct_search, iter_scan, scan_one, scan_range


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


def test_other_divisors_are_searched_in_one_call(monkeypatch):
    calls = []
    real = scan._partner_search

    def counted(ns, ps, primes):
        calls.append(ps.tolist())
        return real(ns, ps, primes)

    monkeypatch.setattr(scan, "_partner_search", counted)
    # the first other divisor, 2, has no partner; the next, 3, has 5
    assert scan_one(5504490) == ScanRecord(5504490, "other_divisor", (3, 5))
    assert len(calls) == 2
    assert 2 in calls[1] and 3 in calls[1]


def test_least_verified_makes_at_most_two_verifier_calls(monkeypatch):
    calls = []
    real = scan._condition1_many

    def counted(ns, ps, rs):
        calls.append(rs.size)
        return real(ns, ps, rs)

    monkeypatch.setattr(scan, "_condition1_many", counted)
    ns = np.array([46800, 31416, 15], dtype=np.int64)
    owner = np.repeat(np.arange(3), 168)
    qs = np.tile(primes_upto(1000), 3)
    found = np.zeros(3, dtype=np.int64)
    scan._least_verified(ns, np.full(3, 2), owner, qs, found)
    assert len(calls) == 2
    # 46800 pairs 2 with 149, and neither of the others has a partner below 1000
    assert found.tolist() == [149, 0, 0]


def test_least_verified_without_candidates_leaves_found_alone():
    found = np.array([0, 7, 0], dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    scan._least_verified(np.array([46800, 12, 15]), np.array([2, 2, 2]), empty, empty, found)
    assert found.tolist() == [0, 7, 0]


def _sizes(ns, ps, rs):
    """Both obstruction set sizes of each triple, and that of the set
    _condition1_many enumerates."""
    (rp, _, dp), (rr, _, dr) = _digit_slots(ns, ps), _digit_slots(ns, rs)
    cp, cr = rp.prod(axis=0) - 2, rr.prod(axis=0) - 2
    return cp, cr, np.where(_enumerate_p(cp, cr, np.where(ps == 2, 1, dp), np.where(rs == 2, 1, dr)), cp, cr)


_PRIMES = primes_upto(10**5)
# smaller obstruction sets of 2 to 23,326 members; (98272, 2, 673) fails,
# but only past the _PREFIX least members of its 2,046
_ANCHORS = [(30, 5, 29), (31416, 2, 7853), (46800, 2, 149), (9455, 2, 31), (98272, 2, 673), (98303, 2, 3)]


@st.composite
def _triples(draw):
    n = draw(st.integers(9, 10**5).filter(lambda n: is_prime_power(n) is None))
    below = _PRIMES[: int(np.searchsorted(_PRIMES, n))]
    pick = st.integers(0, below.size - 1).map(lambda i: int(below[i]))
    # a prime divisor of n passes k = 1, the one test every pair must pass
    p = draw(st.sampled_from(factorize(n).primes()) | pick)
    return n, p, draw(pick)


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(_triples(), max_size=40),
    tiers=st.sampled_from([(conditions._PREFIX, conditions._GROW, conditions._BATCH), (16, 4, 1024), (2, 2, 32)]),
)
def test_condition1_many_matches_the_family_route(triples, tiers):
    ns, ps, rs = (np.array(col, dtype=np.int64) for col in zip(*(_ANCHORS + triples)))
    size = np.minimum(*_sizes(ns, ps, rs)[:2])
    prefix, grow, batch = tiers
    assert set(((size > prefix).astype(int) + (size > batch)).tolist()) == {0, 1, 2}
    want = [condition2_direct(int(n), int(p), int(r)) for n, p, r in zip(ns, ps, rs)]
    with mock.patch.multiple(conditions, _PREFIX=prefix, _GROW=grow, _BATCH=batch):
        assert _condition1_many(ns, ps, rs).tolist() == want


@lru_cache(maxsize=None)
def _binomials_covered(n, p, r):
    return all(math.comb(n, k) % p == 0 or math.comb(n, k) % r == 0 for k in range(1, n))


# pairs with 2: (665, 7, 2), (525, 7, 2) and (1263, 2, 23) enumerate their
# larger set; (870, 2, 11) and (1263, 2, 23) have both sets above 40 members;
# the set of (107, 107, 2) is empty
_TWO_ANCHORS = [
    (665, 7, 2), (525, 7, 2), (1263, 2, 23), (870, 2, 11), (481, 2, 199),
    (890, 89, 2), (1344, 17, 2), (36, 2, 3), (107, 107, 2), (6, 227, 2),
]
_BELOW_1600 = [int(q) for q in primes_upto(1600)]


@st.composite
def _two_triples(draw):
    n = draw(st.integers(2, 1600))
    r = draw(st.sampled_from(_BELOW_1600))
    return (n, 2, r) if draw(st.booleans()) else (n, r, 2)


@settings(max_examples=40, deadline=None)
@given(
    triples=st.lists(_two_triples(), max_size=12),
    tiers=st.sampled_from([(2, 2, 8), (8, 4, 64), (conditions._PREFIX, conditions._GROW, conditions._BATCH)]),
    cap=st.sampled_from([conditions.OBSTRUCTION_CAP, 40]),
)
def test_condition1_with_two_matches_binomials(triples, tiers, cap):
    ns, ps, rs = (np.array(col, dtype=np.int64) for col in zip(*(_TWO_ANCHORS + triples)))
    cp, cr, picked = _sizes(ns, ps, rs)
    assert (picked > np.minimum(cp, cr)).any()
    # enumerated sets of at most the prefix, within one tile, and split across tiles
    prefix, grow, batch = tiers
    if batch < conditions._BATCH:
        assert set(((picked > prefix).astype(int) + (picked > batch)).tolist()) == {0, 1, 2}
    if cap < conditions.OBSTRUCTION_CAP:
        assert (np.minimum(cp, cr) > cap).any() and ((picked > cap) & (np.minimum(cp, cr) <= cap)).any()
    want = [_binomials_covered(int(n), int(p), int(r)) for n, p, r in zip(ns, ps, rs)]
    assert set(want) == {False, True}
    with mock.patch.multiple(conditions, _PREFIX=prefix, _GROW=grow, _BATCH=batch, OBSTRUCTION_CAP=cap):
        # the rule never enumerates a set above the cap while the other is within it
        picked = _sizes(ns, ps, rs)[2]
        assert ((picked <= cap) | (np.minimum(cp, cr) > cap)).all()
        assert _condition1_many(ns, ps, rs).tolist() == want
        assert [condition1_holds(int(n), int(p), int(r)) for n, p, r in zip(ns, ps, rs)] == want


@pytest.mark.parametrize("tiers", [(2, 2, 8), (8, 4, 64), (conditions._PREFIX, conditions._GROW, conditions._BATCH)])
@pytest.mark.parametrize("triple, base", [((665, 7, 2), 7), ((525, 7, 2), 7), ((870, 2, 11), 11)])
def test_condition1_many_tests_each_member_of_a_holding_set_once(monkeypatch, tiers, triple, base):
    tested = []
    real = conditions._members

    def spy(*args):
        members = real(*args)
        tested.extend(members.tolist())
        return members

    monkeypatch.setattr(conditions, "_members", spy)
    prefix, grow, batch = tiers
    with mock.patch.multiple(conditions, _PREFIX=prefix, _GROW=grow, _BATCH=batch):
        assert _condition1_many(*(np.array([x], dtype=np.int64) for x in triple)).tolist() == [True]
    assert sorted(tested) == obstructions(triple[0], base).members.tolist()


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


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(1, 10**6), _BASES, st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8))
def test_members_are_slices_of_the_ascending_dominated_values(rows):
    # the batched builder against the one-set builder, on ranges [lo, hi)
    ns = np.array([n for n, _, _, _ in rows], dtype=np.int64)
    radix, place, _ = _digit_slots(ns, np.array([b for _, b, _, _ in rows], dtype=np.int64))
    want, lo, hi = [], [], []
    for (n, b, f, g), count in zip(rows, radix.prod(axis=0).tolist()):
        lo.append(int(f * (count - 1)))
        hi.append(lo[-1] + 1 + int(g * (count - 1 - lo[-1])))
        want += conditions._dominated_values(n, b)[lo[-1] : hi[-1]].tolist()
    assert conditions._members(radix, place, np.array(lo), np.array(hi)).tolist() == want


def test_a_scan_builds_one_prime_table_for_its_whole_range():
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


def _k0(n, p):
    k = 1
    while n % (k * p) == 0:
        k *= p
    return k


def test_term_divisors_are_the_prime_divisors_of_the_binomial():
    rng = random.Random(11)
    ns, ks = [80, 98304, 2 * 3**9], [16, 32768, 3**9]  # 3 divides a term of C(80, 16), not the binomial
    while len(ns) < 40:
        n = rng.randrange(9, 10**5)
        if is_prime_power(n) is None:
            p = rng.choice(factorize(n).primes() + (2, 3, 5, 7))
            ns.append(n)
            ks.append(_k0(n, p))
    rows = np.array(sorted(rng.sample(range(len(ns)), 30) + [0, 1, 2]), dtype=np.int64)
    owner, qs = scan._term_divisors(np.array(ns), np.array(ks), rows, _PRIMES)
    want = [(i, int(q)) for i in rows.tolist() for q in primes_upto(ns[i] - 1) if valuation_binomial(ns[i], ks[i], int(q)) > 0]
    assert list(zip(owner.tolist(), qs.tolist())) == want


@pytest.mark.parametrize("n, p, r", [(233926, 7, 1601), (71994, 13, 1531), (352604, 7, 4463)])
def test_swept_partners_above_the_small_bound_match_oracle(monkeypatch, n, p, r):
    swept = []
    real = scan._swept

    def spy(ns, ks, rows, band):
        swept.append((rows.size, int(band[0])))
        return real(ns, ks, rows, band)

    monkeypatch.setattr(scan, "_swept", spy)
    assert direct_search(n, p) == least_partner(n, p) == r
    # the pair takes the sweep in both bands
    assert [size for size, _ in swept] == [1, 1] and swept[1][1] > scan._SMALL_BOUND
