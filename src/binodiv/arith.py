"""Integer arithmetic helpers: primality, factorization, digits, prime powers.

Everything here is exact.  Primality is deterministic Miller-Rabin: an n
below psi_k, the least strong pseudoprime to the first k primes, runs only
those k witnesses (2, 3 and 5 below 25,326,001), and the twelve primes up
to 37 are exact below psi_12 > 2**78; larger n are refused.  Factorization
is trial division by those twelve witness primes, followed by Brent's
cycle-finding variant of Pollard rho for the cofactor.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Factorization",
    "PrimePower",
    "digit_sum",
    "digits",
    "factorize",
    "is_prime",
    "is_prime_power",
    "largest_prime_power_below",
    "largest_prime_power_divisor",
    "primes_upto",
]

# Miller-Rabin with the first k prime bases is exact below psi_k, the least
# strong pseudoprime to all of them (OEIS A014233): psi_1 to psi_8 as listed
# by Jaeschke (Math. Comp. 61, 1993), psi_9 to psi_11 by Jiang and Deng
# (Math. Comp. 83, 2014), psi_12 by Sorenson and Webster (Math. Comp. 86,
# 2017); psi_12 = 399165290221 * 798330580441 > 2**78.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321,
    3825123056546413051, 3825123056546413051, 3825123056546413051,
)
_MR_BOUND = 318665857834031151167461


@dataclass(frozen=True)
class PrimePower:
    """A value p**e with p prime and e >= 1."""

    prime: int
    exponent: int
    value: int

    @classmethod
    def of(cls, prime: int, exponent: int) -> "PrimePower":
        return cls(prime, exponent, prime**exponent)


@dataclass(frozen=True)
class Factorization:
    """Sorted prime factorization n = prod(p**e)."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        divs.sort()
        return divs


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for 0 <= n < psi_12 (about 3.2e23).

    Trial division by the primes up to 37 settles n < 41**2; otherwise n
    runs Miller-Rabin with the first k primes as witnesses, for the least
    k with n < psi_k (_MR_PSI): 2 alone below 2,047, 2, 3 and 5 below
    25,326,001, all twelve from 3,825,123,056,546,413,051 on.  Larger n
    raise ValueError: psi_12 itself passes every round.
    """
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is exact only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # a composite below 41**2 has a prime factor up to 37
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (simple Eratosthenes sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


def _brent_rho(n: int, rng: random.Random) -> int:
    """One nontrivial factor of odd composite n (not necessarily prime)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Exact prime factorization for 1 <= n < 2**64.

    Output is deterministic: the rho stage is seeded from n itself.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    residue = n
    counts: dict[int, int] = {}
    for p in _MR_WITNESSES:
        if p * p > residue:
            break
        if residue % p == 0:
            e = 0
            while residue % p == 0:
                residue //= p
                e += 1
            counts[p] = e
    if residue > 1:
        if is_prime(residue):
            counts[residue] = counts.get(residue, 0) + 1
        else:
            rng = random.Random(n)
            stack = [residue]
            while stack:
                m = stack.pop()
                if is_prime(m):
                    counts[m] = counts.get(m, 0) + 1
                    continue
                d = _brent_rho(m, rng)
                stack.append(d)
                stack.append(m // d)
    return Factorization(n, tuple(sorted(counts.items())))


def digits(n: int, base: int) -> tuple[int, ...]:
    """Little-endian base digits of n >= 0, the last nonzero (empty for n = 0)."""
    if n < 0:
        raise ValueError("digits expects a nonnegative integer")
    if base < 2:
        raise ValueError("base must be at least 2")
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return tuple(out)


def digit_sum(n: int, base: int) -> int:
    """Sum of base-b digits of n >= 0."""
    # own loop: sum(digits(...)) builds a tuple, and the imprimitive test ran 15% slower
    if n < 0:
        raise ValueError("digit_sum expects a nonnegative integer")
    if base < 2:
        raise ValueError("base must be at least 2")
    s = 0
    while n:
        s += n % base
        n //= base
    return s


def largest_prime_power_divisor(n: int) -> PrimePower:
    """The maximal prime-power divisor p**v_p(n) of greatest value, n >= 2."""
    if n < 2:
        raise ValueError("largest_prime_power_divisor expects n >= 2")
    best = None
    for p, e in factorize(n).factors:
        v = p**e
        if best is None or v > best.value:
            best = PrimePower(p, e, v)
    assert best is not None
    return best


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2:
        return n
    r = int(round(n ** (1.0 / k)))
    while r > 1 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def is_prime_power(n: int) -> PrimePower | None:
    """PrimePower for n = p**e (e >= 1), else None; exact below psi_12.

    Larger n raise ValueError, as in is_prime.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is exact only below {_MR_BOUND}, got {n}")
    if n < 2:
        return None
    for q in _MR_WITNESSES:
        if n % q == 0:
            m, e = n, 0
            while m % q == 0:
                m //= q
                e += 1
            return PrimePower(q, e, n) if m == 1 else None
    if is_prime(n):
        return PrimePower(n, 1, n)
    # every prime factor now exceeds 37, and 41**17 > psi_12
    for e in (2, 3, 5, 7, 11, 13):
        if 41**e > n:
            break
        r = _iroot(n, e)
        if r**e == n:
            root = is_prime_power(r)
            return None if root is None else PrimePower(root.prime, root.exponent * e, n)
    return None


def largest_prime_power_below(n: int) -> PrimePower:
    """The largest prime power strictly less than n, for n >= 3: the largest
    prime below n unless, for some e >= 2, the first prime r down from the
    e-th root of n - 1 has r**e above it (prime gaps keep each search short).
    """
    if n < 3:
        raise ValueError("largest_prime_power_below expects n >= 3")
    m = next(m for m in range(n - 1, 1, -1) if is_prime(m))
    best = PrimePower(m, 1, m)
    for e in range(2, (n - 1).bit_length()):
        r = _iroot(n - 1, e)
        while r**e > best.value:
            if is_prime(r):
                best = PrimePower(r, e, r**e)
                break
            r -= 1
    return best
