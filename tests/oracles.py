"""Reference implementations that the tests compare the package against.

Direct, slower routes to quantities the package decides another way:
exact equipartition indices, group orders by breadth-first closure, Dickman
rho tabulated on a mesh, the prime-order window pair, and the largest prime
power below n by a downward scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from binodiv.arith import PrimePower, factorize, is_prime, is_prime_power
from binodiv.density import U_MAX, _panels
from binodiv.kummer import _check_block
from binodiv.permgroup import Permutation
from binodiv.scan import _check_scan_n

_EQUIPARTITION_N_CAP = 10**3
_NAIVE_CAP = 20160
MESH_STEP = 2.0**-10


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


@dataclass(frozen=True)
class RhoTable:
    """Uniform mesh of (u, rho(u)) values on [0, u_max]."""

    mesh_step: float
    values: np.ndarray  # shape (m, 2), columns u and rho

    @property
    def u_max(self) -> float:
        return float(self.values[-1, 0])


def build_rho_table(u_max: float = float(U_MAX), step: float = MESH_STEP) -> RhoTable:
    """Tabulate rho on a uniform mesh over [0, u_max]."""
    if not 0 < u_max <= U_MAX:
        raise ValueError(f"u_max = {u_max} outside (0, {U_MAX}]")
    if step <= 0:
        raise ValueError("step must be positive")
    n = int(round(u_max / step))
    us = np.arange(n + 1, dtype=np.float64) * step
    rho = np.ones(n + 1, dtype=np.float64)
    panels = _panels()
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
