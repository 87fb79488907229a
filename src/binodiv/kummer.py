"""Carry counting and p-adic valuations of binomial-type quantities.

The p-adic valuation of C(x+y, x) equals the number of carries when adding
x and y in base p.  The same idea decides divisibility of the equipartition
index n! / ((d!)**(n/d) * (n/d)!), the index of the stabilizer of a
partition of n points into blocks of size d: a prime p divides it exactly
when adding n/d copies of d in base p carries somewhere and d is not itself
a power of p.
"""

from __future__ import annotations

from .arith import digit_sum

__all__ = [
    "carries_add",
    "equipartition_has_carry",
    "prime_divides_equipartition",
    "valuation_binomial",
]


def carries_add(x: int, y: int, p: int) -> int:
    """Number of carries when adding x and y schoolbook-style in base p.

    Each carry turns p units of one digit into one of the next, so the
    count is (s(x) + s(y) - s(x + y)) / (p - 1) with s the base-p digit sum.
    """
    if x < 0 or y < 0:
        raise ValueError("carries_add expects nonnegative addends")
    return (digit_sum(x, p) + digit_sum(y, p) - digit_sum(x + y, p)) // (p - 1)


def valuation_binomial(n: int, k: int, p: int) -> int:
    """v_p(C(n, k)) as the carry count of k + (n - k) in base p."""
    if not 0 <= k <= n:
        raise ValueError("valuation_binomial expects 0 <= k <= n")
    return carries_add(k, n - k, p)


def equipartition_has_carry(n: int, d: int, p: int) -> bool:
    """Whether adding n/d copies of d in base p produces any carry.

    Carry-freeness of a multi-operand sum is equivalent to digit sums being
    additive, so this is just digit_sum(d, p) * m != digit_sum(n, p) with
    m = n/d.  Digit sums are submultiplicative and digit_sum(m, p) < m once
    m >= p, so m >= p copies always carry and need no digit sums.
    """
    _check_block(n, d, p)
    return _copies_carry(d, n // d, p, digit_sum(n, p))


def prime_divides_equipartition(n: int, d: int, p: int) -> bool:
    """Whether prime p divides the equipartition index for blocks of size d.

    True exactly when the copies-of-d addition carries in base p and d is
    not a power of p.  The d = p**j case is genuinely exceptional: there the
    whole valuation of n! is swallowed by the block factorials.
    """
    _check_block(n, d, p)
    return _prime_divides_copies(d, n // d, p, digit_sum(n, p))


def _carry_free(n: int, k: int, b: int) -> bool:
    """Whether k and n - k add with no carry in base b, k >= 0: no base-b digit
    of k exceeds n's, so prime b does not divide C(n, k) (Kummer)."""
    while k:
        if k % b > n % b:
            return False
        k, n = k // b, n // b
    return True


def _prime_divides_copies(d: int, m: int, p: int, n_sum: int) -> bool:
    """Unchecked prime_divides_equipartition for n = d * m of base-p digit sum n_sum."""
    return _copies_carry(d, m, p, n_sum) and not _is_power_of(d, p)


def _copies_carry(d: int, m: int, p: int, n_sum: int) -> bool:
    """equipartition_has_carry for n = d * m of base-p digit sum n_sum, unchecked."""
    return m >= p or digit_sum(d, p) * m != n_sum


def _is_power_of(d: int, p: int) -> bool:
    # own loop: it stops at d's first nonzero base-p digit, digits() expands all
    while d % p == 0:
        d //= p
    return d == 1


def _check_block(n: int, d: int, p: int = 2) -> None:
    if p < 2:
        raise ValueError("base must be at least 2")
    if n < 2 or d < 1:
        raise ValueError("expected n >= 2 and d >= 1")
    if not 1 < d < n:
        raise ValueError("block size must satisfy 1 < d < n")
    if n % d != 0:
        raise ValueError("block size must divide n")
