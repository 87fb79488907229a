"""Dickman rho and exact smooth-number counts.

rho solves u*rho'(u) = -rho(u-1) with rho = 1 on [0, 1] and sits around
2.5e-29 by u = 20, so the construction works panel by panel on [k, k+1]:
each panel is a Taylor polynomial about its midpoint, derived from the
previous panel's series in extended precision and pinned by continuity
at the left endpoint.  Evaluation afterwards is float64 Horner.

Psi(x, y) counts integers in [1, x] with no prime factor above y; it is
exact, by a largest-prime-factor sieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .arith import primes_upto

__all__ = [
    "PsiCount",
    "U_MAX",
    "density_bound_report",
    "dickman_rho",
    "psi_count",
]

U_MAX = 30

_TERMS = 48  # Taylor terms per panel; tails decay at least geometrically
# the continuity constant of each panel carries absolute error from the
# previous, larger scaled panel, costing a couple of digits per unit of u;
# working precision has to cover the ~48 digit fall of rho plus headroom
_DPS = 100

PSI_X_CAP = 10**7


@dataclass(frozen=True)
class PsiCount:
    x: int
    y: float
    count: int


@lru_cache(maxsize=1)
def _panels() -> list[tuple[float, ...]]:
    """Taylor coefficients of rho about k + 1/2, one tuple per unit panel.

    Panel k's series in t = u - (k + 1/2) comes from the previous panel:
    rho'(m + t) = -rho(m - 1 + t) / (m + t), and the shifted argument
    lands at the same offset t from the previous midpoint, so the product
    with the geometric series for 1/(m + t) and one termwise integration
    give the new coefficients up to the continuity constant.
    """
    with mpmath.workdps(_DPS):
        one = mpmath.mpf(1)
        panels = [[one] + [mpmath.mpf(0)] * (_TERMS - 1)]
        left_value = one  # rho at the left edge of the next panel
        for k in range(1, U_MAX):
            m = mpmath.mpf(2 * k + 1) / 2
            prev = panels[k - 1]
            # inv[i]: coefficient of t^i in 1/(m + t)
            inv = [(-1) ** i / m ** (i + 1) for i in range(_TERMS)]
            deriv = [
                -mpmath.fsum(prev[l] * inv[j - l] for l in range(j + 1))
                for j in range(_TERMS)
            ]
            coeffs = [mpmath.mpf(0)] * _TERMS
            for j in range(_TERMS - 1):
                coeffs[j + 1] = deriv[j] / (j + 1)
            half = mpmath.mpf(1) / 2
            tail = mpmath.fsum(coeffs[j] * (-half) ** j for j in range(1, _TERMS))
            coeffs[0] = left_value - tail
            panels.append(coeffs)
            left_value = mpmath.fsum(c * half**j for j, c in enumerate(coeffs))
        return [tuple(float(c) for c in p) for p in panels]


def _eval_panel(coeffs: tuple[float, ...], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def dickman_rho(u: float) -> float:
    """rho(u) for 0 <= u <= 30."""
    if not 0 <= u <= U_MAX:
        raise ValueError(f"u = {u} outside [0, {U_MAX}]")
    if u <= 1:
        return 1.0
    k = min(int(u), U_MAX - 1)  # u = U_MAX evaluates the last panel at t = 1/2
    return _eval_panel(_panels()[k], u - (k + 0.5))


def psi_count(x: int, y: float) -> PsiCount:
    """Exact Psi(x, y) by table lookup of largest prime factors."""
    if not 1 <= x <= PSI_X_CAP:
        raise ValueError(f"x = {x} outside [1, {PSI_X_CAP}]")
    lpf = _largest_prime_factors(x)
    # 1 has no prime factor, so it counts for every y
    count = 1 + int(np.count_nonzero(lpf[2:] <= y))
    return PsiCount(x, float(y), count)


@lru_cache(maxsize=2)
def _largest_prime_factors(cap: int) -> np.ndarray:
    """lpf[n] = largest prime factor of n for 2 <= n <= cap; lpf[1] = 0."""
    lpf = np.zeros(cap + 1, dtype=np.int32)
    for p in primes_upto(cap):  # ascending, so the last write wins
        lpf[p::p] = p
    return lpf


def density_bound_report(u: float) -> dict:
    """The density lower bound 1 - rho(u), as a JSON-ready mapping."""
    rho = dickman_rho(u)
    return {"u": float(u), "rho": rho, "one_minus_rho": 1.0 - rho}
