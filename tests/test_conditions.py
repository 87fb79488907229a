import itertools
import math
import random

import numpy as np
import pytest

from binodiv import conditions
from binodiv.arith import is_prime_power, primes_upto
from binodiv.conditions import (
    OBSTRUCTION_CAP,
    SMALL_INDEX_TABLE,
    condition1_holds,
    condition2_direct,
    obstructions,
    primitive_index_divisible,
    witness_for,
)
from binodiv.conditions import _imprimitive_covered
from binodiv.permgroup import Permutation, group_order
from binodiv.scan import MODES, iter_scan, sieve_pair_for
from oracles import equipartition_count, fails_at_a_least_member

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _brute_obstructions(n, p):
    return [k for k in range(1, n) if math.comb(n, k) % p != 0]


def _brute_condition1(n, p, r):
    return all(math.comb(n, k) % p == 0 or math.comb(n, k) % r == 0 for k in range(1, n))


def test_obstructions_match_brute():
    for n in range(1, 200):
        for p in (2, 3, 5):
            got = obstructions(n, p)
            want = _brute_obstructions(n, p)
            assert got.count == len(want), (n, p)
            assert got.members.tolist() == want, (n, p)


def test_obstructions_all_binomials_odd():
    # n = 2**a - 1 has every base-2 digit set, so no C(n, k) is even
    for a in (4, 6, 10):
        n = 2**a - 1
        got = obstructions(n, 2)
        assert got.count == n - 1
        assert got.members.tolist() == list(range(1, n))


def test_obstructions_prime_power_has_unique_least():
    got = obstructions(48, 2)
    assert got.members[0] == 16  # 2**v_2(48)
    got = obstructions(46800, 5)
    assert got.members[0] == 25


def test_obstructions_cap():
    n = 2**21 - 1
    got = obstructions(n, 2)
    assert got.count == n - 1 > OBSTRUCTION_CAP
    assert got.members is None


def test_obstructions_rejects_nonprime():
    with pytest.raises(ValueError):
        obstructions(10, 4)
    with pytest.raises(ValueError):
        obstructions(0, 2)


def test_condition1_matches_brute_dense():
    for n in range(2, 130):
        for i, p in enumerate(SMALL_PRIMES):
            for r in SMALL_PRIMES[i:]:
                assert condition1_holds(n, p, r) == _brute_condition1(n, p, r), (n, p, r)


def test_condition1_matches_brute_random():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randrange(130, 2000)
        p, r = rng.choice(SMALL_PRIMES), rng.choice(SMALL_PRIMES)
        assert condition1_holds(n, p, r) == _brute_condition1(n, p, r), (n, p, r)


def test_condition1_symmetric():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(2, 10**5)
        p, r = rng.choice(SMALL_PRIMES), rng.choice(SMALL_PRIMES)
        assert condition1_holds(n, p, r) == condition1_holds(n, r, p)


def test_condition1_specific():
    assert not condition1_holds(15, 2, 7)
    assert condition1_holds(12, 2, 3)
    assert condition1_holds(10, 2, 3)
    assert condition1_holds(10, 5, 3)
    # prime powers are covered by their base alone
    assert condition1_holds(16, 2, 3)
    assert condition1_holds(27, 3, 2)
    with pytest.raises(ValueError):
        condition1_holds(10, 6, 3)


def _spy_routes(monkeypatch):
    """Lists that record each set enumeration and each kernel call."""
    sets, kernel = [], []
    enumerate_set, leapfrog = conditions._dominated_values, conditions._condition1_many

    def set_spy(n, q):
        sets.append((n, q))
        return enumerate_set(n, q)

    def kernel_spy(ns, ps, rs):
        kernel.append(int(ns[0]))
        return leapfrog(ns, ps, rs)

    monkeypatch.setattr(conditions, "_dominated_values", set_spy)
    monkeypatch.setattr(conditions, "_condition1_many", kernel_spy)
    return sets, kernel


@pytest.mark.parametrize("triple", [(15, 2, 7), (12, 2, 7), (14, 5, 7), (2**62, 3, 5)])
def test_condition1_fails_at_a_least_member_with_no_set(monkeypatch, triple):
    # k = 1, 4 = 2**v_2(12), 7 = 7**v_7(14) and 1 are carry-free in both bases
    sets, kernel = _spy_routes(monkeypatch)
    expansions, expand = [], conditions.digits

    def digits_spy(n, b):
        expansions.append((n, b))
        return expand(n, b)

    monkeypatch.setattr(conditions, "digits", digits_spy)
    assert not condition1_holds(*triple)
    assert sets == kernel == expansions == []


def test_condition1_past_the_least_members(monkeypatch):
    sets, kernel = _spy_routes(monkeypatch)
    # k = 2 carries in base 3 and k = 1 in base 2, so (22, 2, 3) fails only at a later member
    assert not condition1_holds(22, 2, 3)
    assert len(sets) == 1
    # the least base-2 "member" of 16 is 16 itself, not in (0, 16)
    assert condition1_holds(16, 2, 3)
    assert condition1_holds(46800, 2, 149)
    assert len(sets) == 3 and kernel == []


def test_condition1_matches_binomials_below_600():
    ps = [int(q) for q in primes_upto(23)]
    for n in range(1, 600):
        row = [math.comb(n, k) for k in range(1, n)]
        # bit k - 1 marks a C(n, k) prime to q
        prime_to = {q: sum(1 << i for i, c in enumerate(row) if c % q) for q in ps}
        for p, r in itertools.product(ps, repeat=2):
            assert condition1_holds(n, p, r) == (prime_to[p] & prime_to[r] == 0), (n, p, r)


def _spy_fallback(monkeypatch):
    monkeypatch.setattr(conditions, "OBSTRUCTION_CAP", 2)
    return _spy_routes(monkeypatch)[1]


def test_condition1_fallback_scan_matches_brute(monkeypatch):
    triples, want, kernel = [], [], 0
    for n in range(9, 400):
        row = [math.comb(n, k) for k in range(1, n)]
        for p, r in itertools.permutations(SMALL_PRIMES, 2):
            triples.append((n, p, r))
            want.append(all(c % p == 0 or c % r == 0 for c in row))
            # with the cap at 2, the kernel takes every triple whose least
            # members carry and whose sets both have more than 2 members
            big = all(sum(c % q != 0 for c in row) > 2 for q in (p, r))
            kernel += big and not fails_at_a_least_member(n, p, r)
    assert conditions._condition1_many(*(np.array(col, dtype=np.int64) for col in zip(*triples))).tolist() == want
    calls = _spy_fallback(monkeypatch)
    assert [condition1_holds(*t) for t in triples] == want
    assert len(calls) == kernel


def test_condition1_fallback_matches_enumeration_above_2_20(monkeypatch):
    # n just above 2^20: the kernel against the enumeration at the default cap
    ns = range(2**20 + 1, 2**20 + 8)
    pairs = [(2, 3), (2, 5), (2, 7), (3, 5)]
    expect = [condition1_holds(n, p, r) for n in ns for p, r in pairs]
    assert True in expect and False in expect
    triples = [(n, p, r) for n in ns for p, r in pairs]
    assert conditions._condition1_many(*(np.array(col, dtype=np.int64) for col in zip(*triples))).tolist() == expect
    calls = _spy_fallback(monkeypatch)
    assert [condition1_holds(*t) for t in triples] == expect
    # the kernel takes each triple whose least members carry and whose sets both have more than 2 members
    big = [min(obstructions(n, q).count for q in (p, r)) > 2 for n, p, r in triples]
    assert len(calls) == sum(b and not fails_at_a_least_member(*t) for b, t in zip(big, triples)) > 0


def test_condition1_fallback_agrees_near_the_int64_limit():
    # few set bits, so condition1_holds enumerates the base-2 set; the
    # leapfrog kernel must agree, digit tables and bit steps near 2**63
    rng = random.Random(63)
    got = []
    for _ in range(40):
        n = (1 << 62) | sum(1 << b for b in rng.sample(range(62), 5))
        r = rng.choice([3, 5, 7, 11, 13, 101, 1009, 65537])
        want = condition1_holds(n, 2, r)
        assert obstructions(n, 2).count == 62
        for p, q in ((2, r), (r, 2)):
            assert conditions._condition1_many(*(np.array([v], dtype=np.int64) for v in (n, p, q))).tolist() == [want], (n, r)
        got.append(want)
    assert set(got) == {False, True}


def test_small_table_verdicts():
    assert witness_for(6, 2, 5).holds
    assert witness_for(5, 2, 5).holds
    assert witness_for(7, 3, 7).holds
    assert not witness_for(7, 3, 11).holds
    assert not witness_for(5, 3, 7).holds
    # degenerate degrees have no proper subgroups to obstruct
    assert witness_for(1, 2, 3).holds
    assert witness_for(2, 2, 3).holds


def test_small_table_6_2_3():
    # indices of A_6 are 6, 10, 15: each is divisible by 2 or by 3
    assert all(i % 2 == 0 or i % 3 == 0 for i in SMALL_INDEX_TABLE[6])
    assert witness_for(6, 2, 3).holds


def test_small_table_shape():
    assert set(SMALL_INDEX_TABLE) == set(range(1, 9))
    for n in range(5, 9):
        half = math.factorial(n) // 2
        for idx in SMALL_INDEX_TABLE[n]:
            assert 1 < idx <= half and half % idx == 0


def test_condition2_direct_requires_nine():
    with pytest.raises(ValueError):
        condition2_direct(8, 2, 3)
    with pytest.raises(ValueError):
        condition2_direct(12, 4, 3)


def test_condition2_direct_prime_power_escape():
    # no pair escapes the family sweep at a prime power: the d = 8 blocks
    # of n = 16 give index 6435, coprime to both 2 and 7
    assert not _imprimitive_covered(16, 2, 7)
    assert not condition2_direct(16, 2, 7)
    # every block size of 16 is a power of 2, so 2 alone divides none
    assert not condition2_direct(16, 2, 2)
    assert condition2_direct(16, 2, 3)
    # base prime not in the pair: k = 1 already fails
    assert not condition2_direct(16, 3, 5)


@pytest.mark.parametrize(
    "n, d, p, r, index, residues",
    [(16, 8, 2, 7, 6435, (1, 2)), (25, 5, 5, 29, 5_194_672_859_376, (1, 9))],
)
def test_a_prime_power_pair_is_refused_at_an_imprimitive_index(n, d, p, r, index, residues):
    # every C(n, k) is divisible by p, yet the stabilizer of n/d blocks of
    # size d has an index prime to both p and r
    m = n // d
    assert equipartition_count(n, d).value == index == math.factorial(n) // (math.factorial(d) ** m * math.factorial(m))
    assert (index % p, index % r) == residues
    assert condition1_holds(n, p, r)
    assert not condition2_direct(n, p, r)
    assert not witness_for(n, p, r).holds


def test_a_prime_pair_is_refused_at_the_affine_group():
    # AGL(1, 13) & A_13 is made by x -> x + 1 and x -> 4x (4 = 2^2, as
    # x -> 2x is odd); its index 13!/156 is 1 mod 13 and 1 mod 17
    gens = [Permutation(tuple((x + 1) % 13 for x in range(13))), Permutation(tuple(4 * x % 13 for x in range(13)))]
    assert all(g.is_even() for g in gens)
    index = math.factorial(13) // 2 // group_order(gens)
    assert index == 39_916_800 == math.factorial(13) // 156
    assert (index % 13, index % 17) == (1, 1)
    assert condition1_holds(13, 13, 17)
    assert not condition2_direct(13, 13, 17)
    assert not witness_for(13, 13, 17).holds


def test_condition2_direct_equals_condition1_off_prime_powers():
    for n in range(9, 400):
        if is_prime_power(n) is not None:
            continue
        for i, p in enumerate(SMALL_PRIMES):
            for r in SMALL_PRIMES[i:]:
                assert condition2_direct(n, p, r) == condition1_holds(n, p, r), (n, p, r)


def test_condition2_direct_equals_condition1_random():
    rng = random.Random(1234)
    ps = [int(q) for q in primes_upto(200)]
    done = 0
    while done < 300:
        n = rng.randrange(9, 5 * 10**4)
        if is_prime_power(n) is not None:
            continue
        p, r = rng.choice(ps), rng.choice(ps)
        assert condition2_direct(n, p, r) == condition1_holds(n, p, r), (n, p, r)
        done += 1


def test_condition2_implies_condition1_for_composite_range():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randrange(9, 10**4)
        p, r = rng.choice(SMALL_PRIMES), rng.choice(SMALL_PRIMES)
        if witness_for(n, p, r).holds:
            assert condition1_holds(n, p, r), (n, p, r)


def test_table_two_witnesses_validate():
    assert condition2_direct(31416, 2, 7853)
    assert condition2_direct(46800, 2, 149)
    assert condition2_direct(195624, 2, 3)
    # and these n are genuine sieve failures
    assert sieve_pair_for(31416) is None
    assert sieve_pair_for(46800) is None
    assert sieve_pair_for(195624) is None


def test_sieve_pair_certificate_implies_condition2():
    for n in range(9, 3000):
        if is_prime_power(n) is not None:
            continue
        pair = sieve_pair_for(n)
        if pair is None:
            continue
        pa, rb = pair
        assert condition2_direct(n, pa.prime, rb.prime), n


def test_primitive_index_divisible():
    assert primitive_index_divisible(12, 7)
    assert not primitive_index_divisible(12, 11)
    assert not primitive_index_divisible(12, 13)
    assert primitive_index_divisible(9, 5)
    # p = n - 2 covers unless n - 1 is a power of 2
    assert primitive_index_divisible(13, 11)
    assert primitive_index_divisible(15, 13)
    assert not primitive_index_divisible(9, 7)
    assert not primitive_index_divisible(33, 31)
    assert not primitive_index_divisible(13, 13)
    with pytest.raises(ValueError):
        primitive_index_divisible(8, 3)
    with pytest.raises(ValueError):
        primitive_index_divisible(12, 9)


def test_primitive_index_divisible_on_pgammal_2_8():
    # PGammaL(2, 8) < A_9 is primitive of order 1,512 = 2^3 3^3 7, so the
    # rule is about its index, 120, not its order.  GF(8) = GF(2)[a] with
    # a^3 = a + 1, elements as bit masks 0..7, and infinity as point 8.
    def times_a(x):
        x <<= 1
        return x ^ 0b1011 if x & 0b1000 else x

    def mul(x, y):
        out = 0
        while y:
            if y & 1:
                out ^= x
            x, y = times_a(x), y >> 1
        return out

    def inverse(x):
        if x in (0, 8):
            return 8 - x
        return next(y for y in range(1, 8) if mul(x, y) == 1)

    def fixing_infinity(f):
        return lambda x: 8 if x == 8 else f(x)

    maps = (
        fixing_infinity(lambda x: x ^ 1),  # x -> x + 1
        fixing_infinity(times_a),  # x -> a x
        inverse,  # x -> 1/x
        fixing_infinity(lambda x: mul(x, x)),  # x -> x^2
    )
    gens = [Permutation(tuple(map(f, range(9)))) for f in maps]
    assert all(g.is_even() for g in gens)
    assert group_order(gens) == 1512
    # x -> a x is a 7-cycle on the units, fixing 0 and infinity
    assert gens[1].cycle_type().parts == (7, 1, 1)
    for p in (2, 3, 5, 7):
        assert primitive_index_divisible(9, p) == (120 % p == 0), p


def test_psl_3_3_leaves_11_dividing_every_primitive_index_of_a_13():
    # PSL(3, 3) = SL(3, 3) on the 13 points of PG(2, 3), each a vector
    # over GF(3) whose first nonzero coordinate is 1, made by transvections
    points = [v for v in itertools.product(range(3), repeat=3) if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
    assert len(points) == 13

    def act(i, j):
        def image(v):
            w = list(v)
            w[i] = (w[i] + w[j]) % 3
            # scale by the inverse of the first nonzero coordinate, itself in GF(3)
            c = next(x for x in w if x)
            return points.index(tuple(x * c % 3 for x in w))

        return Permutation(tuple(image(v) for v in points))

    gens = [act(i, j) for i, j in itertools.permutations(range(3), 2)]
    assert all(g.is_even() for g in gens)
    assert group_order(gens) == 5616
    # every element, by closure under the generators
    group, frontier = {Permutation.identity(13)}, [Permutation.identity(13)]
    while frontier:
        frontier = [h for h in {g * t for g in frontier for t in gens} if h not in group]
        group.update(frontier)
    assert len(group) == 5616
    assert all(g.cycle_type().element_order() != 11 for g in group)
    # 2-transitive, so primitive; its index is divisible by 11 but not by 13
    assert len({(g.images[0], g.images[1]) for g in group}) == 13 * 12
    index = math.factorial(13) // 2 // 5616
    assert index % 11 == 0 and index % 13 != 0
    assert primitive_index_divisible(13, 11)
    assert condition2_direct(13, 11, 13)
    assert witness_for(13, 11, 13).holds


@pytest.mark.parametrize("n, p, r", [(13, 11, 13), (46800, 2, 149), (16, 2, 3)])
def test_each_argument_is_tested_for_primality_once(monkeypatch, n, p, r):
    tested = []

    def counted(m, real=conditions.is_prime):
        tested.append(m)
        return real(m)

    monkeypatch.setattr(conditions, "is_prime", counted)
    for call in (condition2_direct, witness_for):
        tested.clear()
        call(n, p, r)
        assert tested == [p, r], call


def test_pgl_2_32_refuses_31_at_33():
    # PGL(2, 32) = PSL(2, 32) < A_33 on the projective line over GF(32) is
    # primitive, and its order 32 * 33 * 31 holds the one factor 31 of 33!
    order = 32 * 33 * 31
    assert order == 32_736
    assert (math.factorial(33) // 2 // order) % 31 != 0
    assert not primitive_index_divisible(33, 31)


def test_twin_primes_hold_at_the_larger():
    ps = primes_upto(10**4)
    twins = [int(n) for n in ps[1:][np.diff(ps) == 2] if n >= 13]
    assert len(twins) == 203 and twins[0] == 13
    for n in twins:
        assert condition2_direct(n, n - 2, n), n


def test_witness_for_routes():
    w = witness_for(6, 2, 5)
    assert (w.holds, w.stage) == (True, "small_table")
    w = witness_for(16, 2, 7)
    assert (w.holds, w.stage) == (False, "direct_search")
    w = witness_for(16, 2, 3)
    assert (w.holds, w.stage) == (True, "direct_search")
    w = witness_for(10, 5, 3)
    assert (w.holds, w.stage) == (True, "sieve_pair")
    w = witness_for(12, 2, 11)
    assert (w.holds, w.stage) == (True, "sieve_pair")
    w = witness_for(15, 2, 7)
    assert (w.holds, w.stage) == (False, "direct_search")
    w = witness_for(46800, 2, 149)
    assert (w.holds, w.stage) == (True, "direct_search")


@pytest.mark.parametrize("mode", MODES)
def test_route_does_not_depend_on_argument_order(mode):
    # 2 || 10 and 3**2 < 10 < 3**2 + 2, whichever of 2 and 3 comes first
    assert witness_for(10, 2, 3).stage == witness_for(10, 3, 2).stage == "sieve_pair"
    rows = [rec for rec in iter_scan(9, 20000, mode) if rec.stage == "sieve"]
    assert len(rows) > 7000
    for rec in rows:
        p, r = rec.witness
        assert witness_for(rec.n, p, r).stage == witness_for(rec.n, r, p).stage == "sieve_pair", rec


def test_witness_fields():
    w = witness_for(12, 2, 3)
    assert (w.n, w.p, w.r, w.condition1, w.holds, w.stage) == (12, 2, 3, True, True, "sieve_pair")


def test_witness_decides_condition1_on_every_route():
    # n <= 8 decides Condition (2) without the binomials, yet the witness
    # still carries the Condition (1) verdict
    stages = set()
    for n in range(1, 301):
        for p, r in itertools.product(SMALL_PRIMES, repeat=2):
            w = witness_for(n, p, r)
            assert w.condition1 == condition1_holds(n, p, r), (n, p, r)
            stages.add(w.stage)
    assert stages == {"small_table", "sieve_pair", "direct_search"}


def test_witness_refuses_n_below_one():
    with pytest.raises(ValueError, match="n must be a positive integer"):
        witness_for(0, 2, 3)


def test_n_beyond_int64_is_refused():
    # the digit kernels are int64: this n once died in an OverflowError
    big = 9223372036854775837
    for call in (condition1_holds, condition2_direct, witness_for):
        with pytest.raises(ValueError, match="int64"):
            call(big, 2, 3)
    with pytest.raises(ValueError, match="int64"):
        obstructions(1 << 63, 2)
    n = (1 << 63) - 25  # the largest prime below the limit
    assert not condition1_holds(n, 2, 3)
    assert not condition2_direct(n, 2, 3)


# a prime in [2**63, 2**64): is_prime takes it, the int64 digit kernels cannot
BIG_PRIME = 18446744073709551557


@pytest.mark.parametrize("n, p, r", [(100, 3, BIG_PRIME), (100, 101, BIG_PRIME), (81, 3, BIG_PRIME), (81, BIG_PRIME, 3)])
def test_a_prime_beyond_int64_is_decided_without_the_kernels(n, p, r):
    # every k is carry-free in a base above n, so only the other prime can
    # divide each C(n, k); 3 divides all of them exactly when n is a power of 3
    want = all(math.comb(n, k) % p == 0 or math.comb(n, k) % r == 0 for k in range(1, n))
    assert condition1_holds(n, p, r) == want == (n == 81)
    if n == 100:
        assert condition2_direct(n, p, r) is False
