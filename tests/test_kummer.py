import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binodiv.arith import digits
from binodiv.conditions import _dominated_mask
from binodiv.kummer import (
    _carry_free,
    carries_add,
    equipartition_has_carry,
    prime_divides_equipartition,
    valuation_binomial,
)
from oracles import EquipartitionIndex, equipartition_count


def _vp(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _schoolbook_carries(x: int, y: int, p: int) -> int:
    # independent column-by-column addition
    total = 0
    carry = 0
    while x or y or carry:
        s = x % p + y % p + carry
        carry = int(s >= p)
        total += carry
        x //= p
        y //= p
    return total


def test_carries_add_small():
    assert carries_add(1, 1, 2) == 1
    assert carries_add(0, 7, 2) == 0
    assert carries_add(5, 3, 10) == 0
    assert carries_add(5, 5, 10) == 1
    assert carries_add(999, 1, 10) == 3


def test_carries_add_errors():
    with pytest.raises(ValueError):
        carries_add(-1, 2, 3)
    with pytest.raises(ValueError):
        carries_add(1, 2, 1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from([2, 3, 5, 7, 11, 13, 97]),
)
def test_carries_add_matches_schoolbook(x, y, p):
    assert carries_add(x, y, p) == _schoolbook_carries(x, y, p)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=2**62), st.sampled_from(["2", "3", "odd", "above"]))
def test_carry_free_matches_digit_tuples_and_the_mask(data, n, kind):
    if kind == "odd":
        b = data.draw(st.sampled_from([5, 7, 11, 97, 65537]))
    else:
        b = n + data.draw(st.integers(1, 10**6)) if kind == "above" else int(kind)
    if data.draw(st.booleans()):
        # a k under n digit by digit, so carry-free ones are drawn often
        k = sum(data.draw(st.integers(0, d)) * b**i for i, d in enumerate(digits(n, b)))
    else:
        k = data.draw(st.integers(0, n))
    # k <= n, so k has no more digits than n
    want = all(d <= e for d, e in zip(digits(k, b), digits(n, b)))
    assert _carry_free(n, k, b) == want == bool(_dominated_mask(np.array([k], dtype=np.int64), n, b)[0])
    assert not _carry_free(n, n + 1 + k, b)


def test_carry_free_is_kummer_on_small_binomials():
    for p in (2, 3, 5, 7):
        for n in range(60):
            assert [_carry_free(n, k, p) for k in range(n + 1)] == [math.comb(n, k) % p != 0 for k in range(n + 1)]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_carries_add_digit_sum_identity(x, y, p):
    # total carry count equals the digit-sum defect over p - 1
    def s(m):
        out = 0
        while m:
            out += m % p
            m //= p
        return out

    assert carries_add(x, y, p) * (p - 1) == s(x) + s(y) - s(x + y)


def test_valuation_binomial_exact_small():
    for n in range(0, 130):
        for p in (2, 3, 5, 7):
            for k in range(n + 1):
                assert valuation_binomial(n, k, p) == _vp(math.comb(n, k), p), (n, k, p)


def test_valuation_binomial_legendre_cross_check():
    # v_p(n!) = (n - digit_sum_p(n)) / (p - 1)
    def s(m, p):
        out = 0
        while m:
            out += m % p
            m //= p
        return out

    def vfact(m, p):
        return (m - s(m, p)) // (p - 1)

    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(0, 10**6)
        k = rng.randrange(0, n + 1) if n else 0
        p = rng.choice([2, 3, 5, 7, 11, 13])
        expect = vfact(n, p) - vfact(k, p) - vfact(n - k, p)
        assert valuation_binomial(n, k, p) == expect


def test_valuation_binomial_rejects_bad_k():
    with pytest.raises(ValueError):
        valuation_binomial(5, 6, 2)
    with pytest.raises(ValueError):
        valuation_binomial(5, -1, 2)


def test_equipartition_count_formula():
    for n, d, want in [(4, 2, 3), (6, 2, 15), (6, 3, 10), (9, 3, 280)]:
        got = equipartition_count(n, d)
        assert got == EquipartitionIndex(n, d, want)
    for n in range(4, 61):
        for d in range(2, n):
            if n % d:
                continue
            m = n // d
            want = math.factorial(n) // (math.factorial(d) ** m * math.factorial(m))
            assert equipartition_count(n, d).value == want, (n, d)


def test_equipartition_count_guards():
    with pytest.raises(ValueError):
        equipartition_count(6, 1)
    with pytest.raises(ValueError):
        equipartition_count(6, 6)
    with pytest.raises(ValueError):
        equipartition_count(6, 4)
    with pytest.raises(ValueError):
        equipartition_count(2000, 2)


def test_equipartition_has_carry_matches_multi_operand_addition():
    def s(m, p):
        out = 0
        while m:
            out += m % p
            m //= p
        return out

    for n in range(4, 200):
        for d in range(2, n):
            if n % d:
                continue
            for p in (2, 3, 5):
                want = s(d, p) * (n // d) != s(n, p)
                assert equipartition_has_carry(n, d, p) == want


def test_prime_divides_equipartition_oracle():
    # the carry criterion against the exact index, over the full small grid
    for n in range(4, 61):
        for d in range(2, n):
            if n % d:
                continue
            value = equipartition_count(n, d).value
            for p in (2, 3, 5, 7):
                assert prime_divides_equipartition(n, d, p) == (value % p == 0), (n, d, p)


def test_prime_power_blocks_never_divisible():
    # blocks of size p**j swallow the whole p-valuation of n!
    for n, d, p in [(16, 8, 2), (16, 4, 2), (12, 4, 2), (18, 9, 3), (27, 9, 3), (50, 25, 5)]:
        assert _vp(equipartition_count(n, d).value, p) == 0
        assert not prime_divides_equipartition(n, d, p)


def test_divisible_case_16_8():
    # 16!/((8!)**2 * 2!) = 6435 = 3**2 * 5 * 11 * 13
    assert equipartition_count(16, 8).value == 6435
    assert prime_divides_equipartition(16, 8, 3)
    assert prime_divides_equipartition(16, 8, 13)
    assert not prime_divides_equipartition(16, 8, 2)
    assert not prime_divides_equipartition(16, 8, 7)
