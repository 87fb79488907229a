"""Reference implementations that the tests compare the package against.

Direct, slower routes to quantities the package decides another way:
exact equipartition indices, group orders by breadth-first closure, class
pair generation by a generation test on every member, Dickman
rho from 100-digit Taylor panels tabulated on a mesh, the prime-order window
pair, the largest prime power below n by a downward scan, and whether a
pair fails at the least k that leaves a binomial prime to one of its primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from binodiv.arith import PrimePower, factorize, is_prime, is_prime_power
from binodiv.density import U_MAX
from binodiv.kummer import _check_block
from binodiv.permgroup import CycleType, Permutation, _reaches_order, class_members
from binodiv.scan import _check_scan_n

_EQUIPARTITION_N_CAP = 10**3
_NAIVE_CAP = 20160
MESH_STEP = 2.0**-10
_RHO_TERMS = 48  # Taylor terms per panel; tails decay at least geometrically
# the continuity constant of each panel carries absolute error from the
# previous, larger scaled panel, costing a couple of digits per unit of u;
# working precision has to cover the ~48 digit fall of rho plus headroom
_RHO_DPS = 100


@dataclass(frozen=True)
class EquipartitionIndex:
    """Exact value of n! / ((d!)**(n/d) * (n/d)!) for d | n."""

    n: int
    d: int
    value: int


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


def naive_closure_order(generators: list[Permutation]) -> int:
    """Breadth-first closure count; independent check for group_order.

    Only for degree <= 8, where the closure fits in memory comfortably.
    """
    if not generators:
        return 1
    degree = generators[0].degree
    if degree > 8:
        raise ValueError("naive closure capped at degree 8")
    ident = Permutation.identity(degree)
    elems = {ident.images}
    frontier = [ident]
    gens = [g for g in generators if not g.is_identity()]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = h * g
                if prod.images not in elems:
                    elems.add(prod.images)
                    nxt.append(prod)
                    if len(elems) > _NAIVE_CAP:
                        raise ValueError("closure exceeds cap")
        frontier = nxt
    return len(elems)


def condition4_pair_by_full_sweep(n: int, ctC: CycleType, ctD: CycleType, splitC: int = 0, splitD: int = 0) -> bool:
    """Whether the first member c of C's half generates A_n with every member
    of D's half, one bounded generation test per member."""
    target = math.factorial(n) // 2
    c = next(class_members(n, ctC, splitC))
    return all(_reaches_order([c, d], target) for d in class_members(n, ctD, splitD))


@lru_cache(maxsize=1)
def reference_rho_panels() -> list[tuple[float, ...]]:
    """Taylor coefficients of rho about k + 1/2, one tuple per unit panel.

    Panel k's series in t = u - (k + 1/2) comes from the previous panel:
    rho'(m + t) = -rho(m - 1 + t) / (m + t), and the shifted argument
    lands at the same offset t from the previous midpoint, so the product
    with the geometric series for 1/(m + t) and one termwise integration
    give the new coefficients up to the continuity constant.  Unlike the
    package's positive series, this route alternates in sign and so works
    in 100-digit arithmetic.
    """
    with mpmath.workdps(_RHO_DPS):
        one = mpmath.mpf(1)
        panels = [[one] + [mpmath.mpf(0)] * (_RHO_TERMS - 1)]
        left_value = one  # rho at the left edge of the next panel
        for k in range(1, U_MAX):
            m = mpmath.mpf(2 * k + 1) / 2
            prev = panels[k - 1]
            # inv[i]: coefficient of t^i in 1/(m + t)
            inv = [(-1) ** i / m ** (i + 1) for i in range(_RHO_TERMS)]
            deriv = [
                -mpmath.fsum(prev[l] * inv[j - l] for l in range(j + 1))
                for j in range(_RHO_TERMS)
            ]
            coeffs = [mpmath.mpf(0)] * _RHO_TERMS
            for j in range(_RHO_TERMS - 1):
                coeffs[j + 1] = deriv[j] / (j + 1)
            half = mpmath.mpf(1) / 2
            tail = mpmath.fsum(coeffs[j] * (-half) ** j for j in range(1, _RHO_TERMS))
            coeffs[0] = left_value - tail
            panels.append(coeffs)
            left_value = mpmath.fsum(c * half**j for j, c in enumerate(coeffs))
        return [tuple(float(c) for c in p) for p in panels]


@dataclass(frozen=True)
class RhoTable:
    """Uniform mesh of (u, rho(u)) values on [0, u_max]."""

    mesh_step: float
    values: np.ndarray  # shape (m, 2), columns u and rho

    @property
    def u_max(self) -> float:
        return float(self.values[-1, 0])


def build_rho_table(u_max: float = float(U_MAX), step: float = MESH_STEP) -> RhoTable:
    """Tabulate rho on a uniform mesh over [0, u_max] from the reference panels."""
    if not 0 < u_max <= U_MAX:
        raise ValueError(f"u_max = {u_max} outside (0, {U_MAX}]")
    if step <= 0:
        raise ValueError("step must be positive")
    n = int(round(u_max / step))
    us = np.arange(n + 1, dtype=np.float64) * step
    rho = np.ones(n + 1, dtype=np.float64)
    panels = reference_rho_panels()
    for k in range(1, U_MAX):
        lo, hi = k, min(k + 1, u_max)
        if lo >= u_max:
            break
        sel = (us > lo) & (us <= hi)
        if not sel.any():
            continue
        t = us[sel] - (k + 0.5)
        acc = np.zeros_like(t)
        for c in reversed(panels[k]):
            acc = acc * t + c
        rho[sel] = acc
    return RhoTable(step, np.column_stack([us, rho]))


def condition5_sieve_pair(n: int) -> tuple[int, int] | None:
    """Window pair for prime-order class arguments, or None.

    Pairs the largest prime divisor p of n with the largest prime
    r < n - 2 when r + p > n; the shape forces r + 2 < n < r + p.  Always
    None for powers of 2, where p = 2 leaves the window empty.
    """
    _check_scan_n(n)
    p = factorize(n).factors[-1][0]
    r = n - 3
    while r >= 2 and not is_prime(r):
        r -= 1
    if r >= 2 and r + p > n:
        return (p, r)
    return None


def largest_prime_power_below_by_scan(n: int) -> PrimePower:
    """The largest prime power below n >= 3, testing n - 1, n - 2, ... in turn."""
    if n < 3:
        raise ValueError("need n >= 3")
    return next(pp for m in range(n - 1, 1, -1) if (pp := is_prime_power(m)) is not None)


def fails_at_a_least_member(n: int, p: int, r: int) -> bool:
    """Whether C(n, q**v_q(n)), with 0 < q**v_q(n) < n, is prime to both
    primes for q = p or q = r, by the big binomial itself."""
    for q, other in ((p, r), (r, p)):
        k = 1
        while n % (k * q) == 0:
            k *= q
        c = math.comb(n, k)
        if k < n and c % q and c % other:
            return True
    return False
