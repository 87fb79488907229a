import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import binodiv.arith
from binodiv.arith import (
    Factorization,
    PrimePower,
    digit_sum,
    digits,
    factorize,
    is_prime,
    is_prime_power,
    largest_prime_power_below,
    largest_prime_power_divisor,
    primes_upto,
)
from oracles import largest_prime_power_below_by_scan


def test_primes_upto_small():
    assert primes_upto(1).tolist() == []
    assert primes_upto(2).tolist() == [2]
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # limit itself is included when prime
    assert primes_upto(29)[-1] == 29
    assert primes_upto(10**5).size == 9592


def test_primes_upto_matches_sympy():
    got = primes_upto(3000).tolist()
    assert got == list(sympy.primerange(2, 3001))


def test_is_prime_small_range():
    for n in range(20000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_negative():
    with pytest.raises(ValueError):
        is_prime(-7)


def test_is_prime_large_random():
    rng = random.Random(0xA11CE)
    for _ in range(200):
        n = rng.randrange(2, 2**63)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_mersenne_and_carmichael():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    for n in (561, 41041, 825265, 321197185):
        assert not is_prime(n)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
# psi_k, the least strong pseudoprime to the first k prime bases, k = 1..11
# (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2017)
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


@pytest.mark.parametrize("k", range(1, 12))
def test_is_prime_catches_each_witness_prefix_pseudoprime(k):
    # psi_k passes the first k rounds, so only a later witness catches it
    psi = PSI[k - 1]
    assert not sympy.isprime(psi)
    assert all(_strong_probable_prime(psi, a) for a in BASES[:k])
    assert not is_prime(psi)
    for n in range(psi - 100, psi + 101):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_the_sieve_below_10_6():
    flags = np.zeros(10**6, dtype=bool)
    flags[primes_upto(10**6 - 1)] = True
    assert [is_prime(n) for n in range(10**6)] == flags.tolist()


def test_is_prime_matches_sympy_up_to_psi_12():
    # bit lengths drawn uniformly, so every witness prefix is reached
    rng = random.Random(0x5EED)
    for _ in range(4000):
        bits = rng.randrange(11, PSI_12.bit_length() + 1)
        n = min(rng.getrandbits(bits) | 1 << (bits - 1) | 1, PSI_12 - 2)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_runs_three_witnesses_below_psi_3(monkeypatch):
    # 9,999,991 < psi_3 is prime: one modular exponentiation per witness 2, 3, 5
    calls = []

    def spy(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(binodiv.arith, "pow", spy, raising=False)
    assert is_prime(9_999_991)
    assert [a for a, _, _ in calls] == [2, 3, 5]


def test_is_prime_refuses_the_twelve_base_pseudoprime():
    # psi_12 passes all twelve Miller-Rabin rounds, so it cannot be answered
    assert not sympy.isprime(PSI_12)
    with pytest.raises(ValueError):
        is_prime(PSI_12)
    with pytest.raises(ValueError):
        is_prime(PSI_12 + 2)
    for n in range(PSI_12 - 200, PSI_12):
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_basics():
    assert isinstance(factorize(6), Factorization)
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(46800).factors == ((2, 4), (3, 2), (5, 2), (13, 1))
    assert factorize(31416).factors == ((2, 3), (3, 1), (7, 1), (11, 1), (17, 1))
    with pytest.raises(ValueError):
        factorize(0)


def _factorint(n):
    return tuple(sorted(sympy.factorint(n).items()))


def test_factorize_round_trip_dense():
    for n in range(1, 20001):
        f = factorize(n)
        assert f.factors == _factorint(n), n
        assert f.reconstruct() == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_round_trip_random(n):
    f = factorize(n)
    assert f.reconstruct() == n
    assert all(is_prime(p) for p in f.primes())


def test_factorize_semiprime_of_big_primes():
    p, q = 1000003, 1000033
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(p * p).factors == ((p, 2),)


def test_factorize_matches_sympy_beyond_the_trial_primes():
    # trial division stops at 37, so every prime factor from 41 up, repeated
    # ones included, is left to rho
    rng = random.Random(0xFAC7)
    qs = [int(q) for q in primes_upto(1 << 21) if q > 37]
    cases = [q**e for q in rng.sample(qs, 60) for e in range(2, 5) if q**e < 2**63]
    cases += [41**e for e in range(1, 12)]
    cases += [q1 * q1 * q2 for q1, q2 in (rng.sample(qs, 2) for _ in range(60))]
    cases += [rng.randrange(2**40, 2**63) for _ in range(60)]
    for n in cases:
        assert factorize(n).factors == _factorint(n), n


def test_point_queries_build_no_prime_table():
    # a fresh interpreter, so no earlier test has built or cached a table;
    # the root primes of scan are built on import, before the spy
    code = """
import binodiv.arith, binodiv.scan
from binodiv.conditions import condition2_direct
def spy(limit):
    raise AssertionError(f"primes_upto({limit}) called")
binodiv.arith.primes_upto = binodiv.scan.primes_upto = spy
assert condition2_direct(46800, 2, 149)
assert binodiv.arith.factorize(1000003 * 998244353).factors == ((1000003, 1), (998244353, 1))
assert binodiv.scan.sieve_pair_for(10**9 + 10) is not None
"""
    pkg_root = str(Path(binodiv.arith.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": pythonpath}
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_divisors():
    assert factorize(1).divisors() == [1]
    assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
    f = factorize(46800)
    divs = f.divisors()
    assert len(divs) == math.prod(e + 1 for _, e in f.factors)
    assert divs == sorted(divs)
    assert all(46800 % d == 0 for d in divs)


def test_digits_round_trip():
    assert digits(0, 10) == ()
    assert digits(46800, 10) == (0, 0, 8, 6, 4)
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(0, 10**12)
        b = rng.randrange(2, 40)
        ds = digits(n, b)
        assert sum(d * b**i for i, d in enumerate(ds)) == n
        assert all(0 <= d < b for d in ds)
        assert not ds or ds[-1] != 0
        assert digit_sum(n, b) == sum(ds)


def test_digit_sum_rejects_bad_args():
    with pytest.raises(ValueError):
        digit_sum(-1, 10)
    with pytest.raises(ValueError):
        digit_sum(5, 1)


def test_prime_power_of():
    pp = PrimePower.of(3, 4)
    assert (pp.prime, pp.exponent, pp.value) == (3, 4, 81)


def test_is_prime_power_dense():
    # brute force: n is a prime power iff its factorization has one prime
    for n in range(2, 20000):
        f = factorize(n)
        pp = is_prime_power(n)
        if len(f.factors) == 1:
            p, e = f.factors[0]
            assert pp == PrimePower(p, e, n)
        else:
            assert pp is None
    assert is_prime_power(1) is None
    assert is_prime_power(0) is None


def test_is_prime_power_large():
    assert is_prime_power(2**62) == PrimePower(2, 62, 2**62)
    assert is_prime_power(3**37) == PrimePower(3, 37, 3**37)
    assert is_prime_power(2**61 - 1) == PrimePower(2**61 - 1, 1, 2**61 - 1)
    assert is_prime_power(2**62 - 1) is None


def test_is_prime_power_without_a_factor_up_to_37():
    # every prime factor above 37: the roots of prime exponent decide
    qs = (41, 43, 1009, 2**31 - 1)
    powers = [PrimePower.of(q, e) for q in qs for e in range(1, 80) if q**e < PSI_12]
    assert PrimePower.of(41, 13) in powers
    for pp in powers:
        assert is_prime_power(pp.value) == pp, pp
    for a, b in itertools.combinations(powers, 2):
        if a.prime != b.prime and a.value * b.value < PSI_12:
            assert is_prime_power(a.value * b.value) is None, (a, b)


def test_is_prime_power_refuses_what_is_prime_refuses():
    for n in (2**80, 2**80 + 1, PSI_12):
        with pytest.raises(ValueError, match="is_prime is exact only below"):
            is_prime_power(n)


def test_largest_prime_power_divisor_dense():
    for n in range(2, 5000):
        got = largest_prime_power_divisor(n)
        best = max(p**e for p, e in factorize(n).factors)
        assert got.value == best
        assert got.value == got.prime**got.exponent
        assert n % got.value == 0
    with pytest.raises(ValueError):
        largest_prime_power_divisor(1)


def test_largest_prime_power_divisor_examples():
    assert largest_prime_power_divisor(46800).value == 25
    assert largest_prime_power_divisor(31416).value == 17
    assert largest_prime_power_divisor(5504490).value == 37


def test_largest_prime_power_below_dense():
    pps = [m for m in range(2, 4100) if is_prime_power(m) is not None]
    arr = np.asarray(pps)
    for n in range(3, 4096):
        expect = int(arr[np.searchsorted(arr, n) - 1])
        got = largest_prime_power_below(n)
        assert got.value == expect and got.value < n
    with pytest.raises(ValueError):
        largest_prime_power_below(2)


def test_largest_prime_power_below_at_powers():
    assert largest_prime_power_below(9).value == 8
    assert largest_prime_power_below(10).value == 9
    assert largest_prime_power_below(128).value == 127


def test_largest_prime_power_below_up_to_10_8():
    rng = random.Random(20)
    for n in (rng.randrange(10**6, 10**8) for _ in range(1000)):
        assert largest_prime_power_below(n) == largest_prime_power_below_by_scan(n), n


def test_largest_prime_power_below_just_above_proper_prime_powers():
    # every q**e, e >= 2, in [10**6, 10**8), and the powers of 2 and 3 up to 2**62
    proper = [q**e for q in primes_upto(10**4).tolist() for e in range(2, 27) if 10**6 <= q**e < 10**8]
    proper += [2**e for e in range(2, 63)] + [3**e for e in range(2, 40)]
    assert len(proper) > 1000
    for value in proper:
        for n in (value + 1, value + 2, value + 3):
            assert largest_prime_power_below(n) == largest_prime_power_below_by_scan(n), n
