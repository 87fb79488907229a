"""The batched partner search against a brute-force oracle.

The oracle tries every prime r < n in ascending order with
condition2_direct, so it shares no filtering, batching or candidate
generation with the scanner.
"""

import random
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primefactors

from binodiv import conditions, scan
from binodiv.arith import factorize, is_prime_power, largest_prime_power_below, largest_prime_power_divisor, primes_upto
from binodiv.conditions import (
    _condition1_many,
    _digit_table,
    _dominated_mask,
    _least_member,
    condition1_holds,
    condition2_direct,
    obstructions,
)
from binodiv.kummer import valuation_binomial
from binodiv.scan import ScanRecord, direct_search, iter_scan, scan_one, scan_range
from oracles import fails_at_a_least_member


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

    def counted(ns, ps):
        calls.append(ps.tolist())
        return real(ns, ps)

    monkeypatch.setattr(scan, "_partner_search", counted)
    # the first other divisor, 2, has no partner; the next, 3, has 5
    assert scan_one(5504490) == ScanRecord(5504490, "other_divisor", (3, 5))
    assert len(calls) == 2
    assert 2 in calls[1] and 3 in calls[1]


@pytest.mark.parametrize("group", [scan._GROUP, 64])
def test_partner_search_decides_each_band_in_one_kernel_call(monkeypatch, group):
    calls = []
    real = scan._condition1_many

    def counted(ns, ps, rs):
        calls.append(rs.size)
        return real(ns, ps, rs)

    monkeypatch.setattr(scan, "_condition1_many", counted)
    monkeypatch.setattr(scan, "_GROUP", group)
    # 257 n, 1,546 candidates with p = 2; 12 partners lie at or above
    # _SMALL_BOUND and 34 n have none
    ns = np.array([n for n in range(2000, 2300) if is_prime_power(n) is None], dtype=np.int64)
    got = scan._partner_search(ns, np.full(ns.size, 2))
    assert len(calls) <= 2 * -(-ns.size // group)
    assert got.tolist() == [least_partner(int(n), 2) or 0 for n in ns]


def test_partner_search_records_the_lesser_of_two_holding_candidates():
    # 5 and 499 are both candidates of 2000 below _SMALL_BOUND, and both hold
    owner, qs = scan._term_divisors(np.array([2000]), np.array([16]))
    assert {5, 499} <= set(qs.tolist())
    assert condition2_direct(2000, 2, 5) and condition2_direct(2000, 2, 499)
    assert scan._partner_search(np.array([2000]), np.array([2])).tolist() == [5]


def test_partner_search_leaves_a_row_without_a_partner_at_zero():
    ns = np.array([46800, 5504490, 15, 31416], dtype=np.int64)
    assert scan._partner_search(ns, np.full(4, 2)).tolist() == [149, 0, 0, 7853]


def _counts(ns, ps, rs):
    """Both obstruction set sizes of each triple."""
    return (np.array([obstructions(int(n), int(q)).count for n, q in zip(ns, qs)]) for qs in (ps, rs))


_PRIMES = primes_upto(10**5)
# smaller obstruction sets of 2 to 23,326 members; (98272, 2, 673) fails,
# but only past the 16 least members of its 2,046
_ANCHORS = [(30, 5, 29), (31416, 2, 7853), (46800, 2, 149), (9455, 2, 31), (98272, 2, 673), (98303, 2, 3)]
_CUTS = [1, 2, conditions._CUT]


@st.composite
def _triples(draw):
    n = draw(st.integers(9, 10**5).filter(lambda n: is_prime_power(n) is None))
    below = _PRIMES[: int(np.searchsorted(_PRIMES, n))]
    pick = st.integers(0, below.size - 1).map(lambda i: int(below[i]))
    # a prime divisor of n passes k = 1, the one test every pair must pass
    p = draw(st.sampled_from(factorize(n).primes()) | pick)
    return n, p, draw(pick)


@settings(max_examples=60, deadline=None)
@given(triples=st.lists(_triples(), max_size=40), cut=st.sampled_from(_CUTS))
def test_condition1_many_matches_the_family_route(triples, cut):
    ns, ps, rs = (np.array(col, dtype=np.int64) for col in zip(*(_ANCHORS + triples)))
    size = np.minimum(*_counts(ns, ps, rs))[: len(_ANCHORS)]
    assert size.min() == 2 and size.max() > conditions._CUT
    want = [condition2_direct(int(n), int(p), int(r)) for n, p, r in zip(ns, ps, rs)]
    with mock.patch.object(conditions, "_CUT", cut):
        assert _condition1_many(ns, ps, rs).tolist() == want


@cache
def _binomials_covered(n, p, r):
    # c runs through C(n, 1), ..., C(n, n - 1), one product and one division a step
    c = 1
    for k in range(1, n):
        c = c * (n - k + 1) // k
        if c % p and c % r:
            return False
    return True


# pairs with 2: (870, 2, 11) and (1263, 2, 23) have both sets above 40
# members; (665, 7, 2) and (525, 7, 2) enumerate their larger set, one above
# 40; the cost of (202, 2, 3) alone would pick its base-3 set, also above
# 40; the set of (107, 107, 2) is empty; (53, 2, 3), (481, 2, 199) and
# (1263, 2, 23) fail at k = 1, with no set
_TWO_ANCHORS = [
    (665, 7, 2), (525, 7, 2), (1263, 2, 23), (870, 2, 11), (481, 2, 199),
    (890, 89, 2), (1344, 17, 2), (36, 2, 3), (107, 107, 2), (6, 227, 2), (53, 2, 3), (202, 2, 3),
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
    cut=st.sampled_from(_CUTS),
    cap=st.sampled_from([conditions.OBSTRUCTION_CAP, 40]),
)
def test_condition1_with_two_matches_binomials(triples, cut, cap):
    ns, ps, rs = (np.array(col, dtype=np.int64) for col in zip(*(_TWO_ANCHORS + triples)))
    cp, cr = _counts(ns, ps, rs)
    if cap < conditions.OBSTRUCTION_CAP:
        # condition1_holds leapfrogs where both sets are above the cap, else enumerates one
        assert (np.minimum(cp, cr) > cap).any() and ((np.maximum(cp, cr) > cap) & (np.minimum(cp, cr) <= cap)).any()
    want = [_binomials_covered(int(n), int(p), int(r)) for n, p, r in zip(ns, ps, rs)]
    assert set(want) == {False, True}
    with mock.patch.multiple(conditions, _CUT=cut, OBSTRUCTION_CAP=cap):
        assert _condition1_many(ns, ps, rs).tolist() == want
        runs = [_enumerating(int(n), int(p), int(r)) for n, p, r in zip(ns, ps, rs)]
    assert [holds for holds, _ in runs] == want
    # one set a triple unless both are above the cap, or a prime is above n
    # or a least member is carry-free in both bases (either decides it with
    # no set), and never one above the cap
    least = np.array([fails_at_a_least_member(int(n), int(p), int(r)) for n, p, r in zip(ns, ps, rs)])
    assert [len(sizes) for _, sizes in runs] == ((np.minimum(cp, cr) <= cap) & (np.maximum(ps, rs) <= ns) & ~least).tolist()
    assert all(size <= cap for _, sizes in runs for size in sizes)
    if cap == conditions.OBSTRUCTION_CAP:
        # the cost rule, not the size, picks the set
        assert any(sizes and sizes[0] > min(a, b) for (_, sizes), a, b in zip(runs, cp, cr))


def _enumerating(n, p, r):
    """condition1_holds(n, p, r) and the sizes of the sets it enumerates."""
    sizes = []
    real = conditions._dominated_values

    def spy(n, q):
        values = real(n, q)
        sizes.append(values.size - 2)
        return values

    with mock.patch.object(conditions, "_dominated_values", spy):
        return condition1_holds(n, p, r), sizes


@pytest.mark.parametrize("cut", _CUTS)
@pytest.mark.parametrize("triple", [(665, 7, 2), (525, 7, 2), (870, 2, 11), (46800, 2, 149)])
def test_condition1_many_leapfrogs_over_the_members_of_a_holding_triple(monkeypatch, cut, triple):
    n, p, r = triple
    landed = []
    real = conditions._least_member

    def spy(x, n, base, place, digs):
        k = real(x, n, base, place, digs)
        landed.append((int(base[0]), k.tolist()))
        return k

    monkeypatch.setattr(conditions, "_least_member", spy)
    monkeypatch.setattr(conditions, "_CUT", cut)
    assert _condition1_many(*(np.array([v], dtype=np.int64) for v in triple)).tolist() == [True]
    # each round steps in base 2, then in the other base
    odd = p if r == 2 else r
    assert [base for base, _ in landed] == [2, odd] * (len(landed) // 2)
    # n, past the end of every cursor, is dominated in both bases
    members = {q: obstructions(n, q).members.tolist() + [n] for q in (p, r)}
    for base, ks in landed:
        assert set(ks) <= set(members[base])
    if cut == 1:
        # one cursor: strictly ascending members of both sets, at most min(cp, cr) + 1 rounds
        for q in (p, r):
            ks = [k for base, (k,) in landed if base == q]
            assert ks == sorted(set(ks))
        assert len(landed) // 2 <= min(len(members[p]), len(members[r]))


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


def _naive_least_member(x, n, base):
    """The least k >= x whose base digits are at most those of n, 0 <= x <= n:
    x if its digits are, else the least such k above it with last digit 0."""
    if x == 0:
        return 0
    (xh, xl), (nh, nl) = divmod(x, base), divmod(n, base)
    if xl > nl:
        return _naive_least_member(xh + 1, nh, base) * base
    kh = _naive_least_member(xh, nh, base)
    return x if kh == xh else kh * base


def _least_members(rows):
    """_least_member on rows (x, n, base), bases mixed."""
    x, ns, bases = (np.array(col, dtype=np.int64) for col in zip(*rows))
    place, digs, _ = _digit_table(np.where(bases == 2, 0, ns), bases)
    return _least_member(x, ns, bases, place, digs).tolist()


def test_least_member_matches_an_upward_scan():
    rows = [(x, n, base) for n in range(1, 201) for base in (2, 3, 5, 7) for x in range(n + 1)]
    want = []
    for x, n, base in rows:
        k = x
        while not _naive_dominated(k, n, base):
            k += 1
        want.append(k)
    assert _least_members(rows) == want


@st.composite
def _least_member_rows(draw):
    n = draw(st.integers(1, 10**8) | st.integers(2**62, 2**63 - 1))
    return draw(st.integers(0, n)), n, draw(_BASES)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_least_member_rows(), min_size=1, max_size=30))
def test_least_member_matches_the_digit_recursion(rows):
    assert _least_members(rows) == [_naive_least_member(*row) for row in rows]


def test_scans_and_point_queries_build_no_table_above_the_root_primes(monkeypatch):
    limits = []
    real = scan.primes_upto

    def spy(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(scan, "primes_upto", spy)
    for run in (scan_range, scan.scan_with_two):
        run(900_000, 1_100_000, workers=1)
    assert scan_one(99_999_990).stage == "sieve"
    # k0 = 2: of the primes 3, 5, 239, 4649 and 99999989 of C(n, 2), only the last passes
    assert direct_search(99_999_990, 2) == 99_999_989
    assert max(limits, default=0) <= 10**4


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


def _term_rows():
    """(ns, ks): hand-picked rows first, then random n with k0 for a prime
    divisor or a small prime."""
    rng = random.Random(11)
    ns, ks = [80, 98304, 2 * 3**9, 12, 15, 30, 24, 54], [16, 32768, 3**9, 4, 3, 5, 8, 27]
    while len(ns) < 40:
        n = rng.randrange(9, 10**5)
        if is_prime_power(n) is None:
            p = rng.choice(factorize(n).primes() + (2, 3, 5, 7))
            ns.append(n)
            ks.append(_k0(n, p))
    return np.array(ns), np.array(ks)


def test_term_divisors_are_the_primes_dividing_a_numerator_term():
    ns, ks = _term_rows()
    owner, qs = scan._term_divisors(ns, ks)
    got = list(zip(owner.tolist(), qs.tolist()))
    ns, ks = ns.tolist(), ks.tolist()
    # factor every term with sympy, which shares no code with the sieve
    want = [(i, q) for i in range(len(ns)) for q in sorted({q for t in range(ns[i] - ks[i] + 1, ns[i] + 1) for q in primefactors(t)}) if q < ns[i]]
    assert got == want
    # primes q <= k dividing a term but not the binomial stay candidates (the
    # kernel rejects them): 3 for C(80, 16), 2 for C(12, 4) and C(15, 3),
    # 5 = k for C(30, 5), 5 and 7 for C(24, 8), 5, 11, 13, 19 and 23 for C(54, 27)
    kept = [(0, 3), (3, 2), (4, 2), (5, 5), (6, 5), (6, 7)] + [(7, q) for q in (5, 11, 13, 19, 23)]
    assert all(valuation_binomial(ns[i], ks[i], q) == 0 for i, q in kept)
    assert set(kept) <= set(got)


def test_term_divisors_keep_rows_apart_above_max_n():
    # the prime cofactor 10**8 + 7 of the first term exceeds MAX_N, so a key
    # of row * MAX_N + q would read it as a divisor of row 1
    ns = np.array([2 * (10**8 + 7), 30])
    owner, qs = scan._term_divisors(ns, np.array([1, 1]))
    assert list(zip(owner.tolist(), qs.tolist())) == [(0, 2), (0, 10**8 + 7), (1, 2), (1, 3), (1, 5)]


def _spy_searches(monkeypatch):
    """The pairs (n, p) of each _partner_search call."""
    searched = []
    real = scan._partner_search

    def spy(ns, ps):
        searched.append(list(zip(ns.tolist(), ps.tolist())))
        return real(ns, ps)

    monkeypatch.setattr(scan, "_partner_search", spy)
    return searched


@pytest.mark.parametrize("block", [scan.CHUNK, 1], ids=["sieved", "scalar"])
@pytest.mark.parametrize("n, p, r", [(233926, 7, 1601), (71994, 13, 1531), (352604, 7, 4463)])
def test_partners_above_the_small_bound_match_oracle_on_both_routes(monkeypatch, n, p, r, block):
    # a p-part above CHUNK takes the scalar loop; patched to 1, every one does
    searched = _spy_searches(monkeypatch)
    monkeypatch.setattr(scan, "CHUNK", block)
    assert direct_search(n, p) == least_partner(n, p) == r
    assert searched == ([] if block == 1 else [[(n, p)]])


@pytest.mark.parametrize(
    "n, p, r",
    [(393216, 2, 3), (156250, 5, 2), (2 * 65537, 65537, 2), (3 * 65537, 65537, 3), (5 * 17**4, 17, 2)],
)
def test_a_p_part_above_a_chunk_takes_the_scalar_loop(monkeypatch, n, p, r):
    assert _k0(n, p) > scan.CHUNK and is_prime_power(n) is None
    searched = _spy_searches(monkeypatch)
    limits = []
    real = scan.primes_upto

    def spy(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(scan, "primes_upto", spy)
    assert direct_search(n, p) == least_partner(n, p) == r
    # no batched search, so no term block longer than a chunk, and no table
    assert searched == [] and limits == []


@pytest.mark.parametrize(
    "lo, hi, run",
    [(10**6 - 8191, 10**6, scan.scan_with_two), (10**6 - 8191, 10**6, scan_range), (195000, 196000, scan_range)],
)
def test_scans_search_no_p_part_above_the_gap_below_n(monkeypatch, lo, hi, run):
    # a residual n fails window A, so the p-part of its base prime, and in
    # any mode of every other prime divisor (each below the largest
    # prime-power divisor), is at most n minus the prime power below n;
    # so no term block of a scan outgrows a chunk
    calls = []
    real = scan._term_divisors

    def spy(ns, ks):
        calls.append((ns.tolist(), ks.tolist()))
        return real(ns, ks)

    monkeypatch.setattr(scan, "_term_divisors", spy)
    summary = run(lo, hi, workers=1)
    rows = [(n, k) for ns, ks in calls for n, k in zip(ns, ks)]
    assert rows and all(k <= n - largest_prime_power_below(n).value for n, k in rows)
    if lo == 195000:
        # the base prime 19 of 195624 has no partner, so a second call
        # searches its other prime divisors
        assert summary.counts["other_divisor"] == 1 and len(calls) == 2
