import math
import random

import pytest

from binodiv.arith import is_prime_power, primes_upto
from binodiv.conditions import (
    OBSTRUCTION_CAP,
    SMALL_INDEX_TABLE,
    condition1_holds,
    condition2_direct,
    condition2_holds,
    obstructions,
    primitive_index_divisible,
    witness_for,
)
from binodiv.conditions import _imprimitive_covered
from binodiv.scan import sieve_pair_for

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
    got = obstructions(n, 2, cap=OBSTRUCTION_CAP)
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


def test_small_table_verdicts():
    assert condition2_holds(6, 2, 5)
    assert condition2_holds(5, 2, 5)
    assert condition2_holds(7, 3, 7)
    assert not condition2_holds(7, 3, 11)
    assert not condition2_holds(5, 3, 7)
    # degenerate degrees have no proper subgroups to obstruct
    assert condition2_holds(1, 2, 3)
    assert condition2_holds(2, 2, 3)


def test_small_table_6_2_3():
    # indices of A_6 are 6, 10, 15: each is divisible by 2 or by 3
    assert all(i % 2 == 0 or i % 3 == 0 for i in SMALL_INDEX_TABLE[6])
    assert condition2_holds(6, 2, 3)


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
    # the family sweep is genuinely wrong for prime powers: the d = 8
    # blocks of n = 16 give index 6435, coprime to both 2 and 7
    assert not _imprimitive_covered(16, 2, 7)
    assert condition2_direct(16, 2, 7)
    assert condition2_direct(16, 2, 2)
    # base prime not in the pair: no escape, and k = 1 already fails
    assert not condition2_direct(16, 3, 5)


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
        if condition2_holds(n, p, r):
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
    with pytest.raises(ValueError):
        primitive_index_divisible(8, 3)
    with pytest.raises(ValueError):
        primitive_index_divisible(12, 9)


def test_witness_for_routes():
    w = witness_for(6, 2, 5)
    assert (w.holds, w.stage) == (True, "small_table")
    w = witness_for(16, 2, 7)
    assert (w.holds, w.stage) == (True, "prime_power_case")
    w = witness_for(10, 5, 3)
    assert (w.holds, w.stage) == (True, "sieve_pair")
    w = witness_for(12, 2, 11)
    assert (w.holds, w.stage) == (True, "sieve_pair")
    w = witness_for(15, 2, 7)
    assert (w.holds, w.stage) == (False, "direct_search")
    w = witness_for(46800, 2, 149)
    assert (w.holds, w.stage) == (True, "direct_search")


def test_witness_fields():
    w = witness_for(12, 2, 3)
    assert (w.n, w.condition, w.p, w.r) == (12, "condition2", 2, 3)


def test_n_beyond_int64_is_refused():
    # the digit kernels are int64: this n once died in an OverflowError
    big = 9223372036854775837
    for call in (condition1_holds, condition2_direct, condition2_holds, witness_for):
        with pytest.raises(ValueError, match="int64"):
            call(big, 2, 3)
    with pytest.raises(ValueError, match="int64"):
        obstructions(1 << 63, 2)
    n = (1 << 63) - 25  # the largest prime below the limit
    assert not condition1_holds(n, 2, 3)
    assert not condition2_direct(n, 2, 3)
