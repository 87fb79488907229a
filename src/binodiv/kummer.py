"""Carry counting and p-adic valuations of binomial-type quantities.

The p-adic valuation of C(x+y, x) equals the number of carries when adding
x and y in base p.  The same idea decides divisibility of the equipartition
index n! / ((d!)**(n/d) * (n/d)!), the index of the stabilizer of a
partition of n points into blocks of size d: a prime p divides it exactly
when adding n/d copies of d in base p carries somewhere and d is not itself
a power of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import digit_sum

__all__ = [
    "EquipartitionIndex",
    "binomial_exact",
    "carries_add",
    "equipartition_count",
    "equipartition_has_carry",
    "prime_divides_equipartition",
    "valuation_binomial",
]

_BINOMIAL_N_CAP = 10**4
_EQUIPARTITION_N_CAP = 10**3


@dataclass(frozen=True)
class EquipartitionIndex:
    """Exact value of n! / ((d!)**(n/d) * (n/d)!) for d | n."""

    n: int
    d: int
    value: int


def carries_add(x: int, y: int, p: int) -> int:
    """Number of carries when adding x and y schoolbook-style in base p."""
    if x < 0 or y < 0:
        raise ValueError("carries_add expects nonnegative addends")
    if p < 2:
        raise ValueError("base must be at least 2")
    carries = 0
    carry = 0
    while x or y or carry:
        col = x % p + y % p + carry
        carry = 1 if col >= p else 0
        carries += carry
        x //= p
        y //= p
    return carries


def valuation_binomial(n: int, k: int, p: int) -> int:
    """v_p(C(n, k)) as the carry count of k + (n - k) in base p."""
    if not 0 <= k <= n:
        raise ValueError("valuation_binomial expects 0 <= k <= n")
    return carries_add(k, n - k, p)


def binomial_exact(n: int, k: int) -> int:
    """Exact C(n, k), guarded to n <= 10**4."""
    if not 0 <= k <= n:
        raise ValueError("binomial_exact expects 0 <= k <= n")
    if n > _BINOMIAL_N_CAP:
        raise ValueError(f"binomial_exact is capped at n <= {_BINOMIAL_N_CAP}")
    return math.comb(n, k)


def equipartition_count(n: int, d: int) -> EquipartitionIndex:
    """Exact equipartition index via the telescoping product of binomials.

    n! / ((d!)**m * m!) with m = n/d equals prod_{j=1..m} C(j*d - 1, d - 1):
    place the largest unused point, then choose the rest of its block.
    """
    _check_block(n, d)
    if n > _EQUIPARTITION_N_CAP:
        raise ValueError(f"equipartition_count is capped at n <= {_EQUIPARTITION_N_CAP}")
    value = 1
    for j in range(1, n // d + 1):
        value *= math.comb(j * d - 1, d - 1)
    return EquipartitionIndex(n, d, value)


def equipartition_has_carry(n: int, d: int, p: int) -> bool:
    """Whether adding n/d copies of d in base p produces any carry.

    Carry-freeness of a multi-operand sum is equivalent to digit sums being
    additive, so this is just digit_sum(d, p) * m != digit_sum(n, p) with
    m = n/d.  Digit sums are submultiplicative and digit_sum(m, p) < m once
    m >= p, so m >= p copies always carry and need no digit sums.
    """
    _check_block(n, d)
    if p < 2:
        raise ValueError("base must be at least 2")
    m = n // d
    return m >= p or digit_sum(d, p) * m != digit_sum(n, p)


def prime_divides_equipartition(n: int, d: int, p: int) -> bool:
    """Whether prime p divides the equipartition index for blocks of size d.

    True exactly when the copies-of-d addition carries in base p and d is
    not a power of p.  The d = p**j case is genuinely exceptional: there the
    whole valuation of n! is swallowed by the block factorials.
    """
    has_carry = equipartition_has_carry(n, d, p)
    return has_carry and not _is_power_of(d, p)


def _is_power_of(d: int, p: int) -> bool:
    while d % p == 0:
        d //= p
    return d == 1


def _check_block(n: int, d: int) -> None:
    if n < 2 or d < 1:
        raise ValueError("expected n >= 2 and d >= 1")
    if not 1 < d < n:
        raise ValueError("block size must satisfy 1 < d < n")
    if n % d != 0:
        raise ValueError("block size must divide n")
