"""Dickman rho and exact smooth-number counts.

rho solves u*rho'(u) = -rho(u-1) with rho = 1 on [0, 1] and sits around
2.5e-29 by u = 20, so it is built panel by panel on [k, k+1], each a
power series in t = k + 1 - u whose terms are all positive (van de Lune
and Wattel, Math. Comp. 23, 1969): the delay equation gives the series
of rho' from the previous panel's, and the identity u*rho(u) =
int_{u-1}^{u} rho fixes the constant term.  With no cancellation
anywhere, float64 keeps about 14 digits at every u, and evaluation is
float64 Horner.

Psi(x, y) counts integers in [1, x] with no prime factor above y; it is
exact, by a largest-prime-factor sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

_TERMS = 48  # series terms per panel; each panel converges for |t| < 2

PSI_X_CAP = 10**7


@dataclass(frozen=True)
class PsiCount:
    x: int
    y: float
    count: int


def _build_panels() -> tuple[tuple[float, ...], ...]:
    """Coefficients a_i of rho(k + 1 - t) = sum a_i t^i, one tuple per k.

    With a' the previous panel's coefficients, u*rho'(u) = -rho(u - 1)
    and 1/(k + 1 - t) = sum t^j / (k + 1)^(j + 1) give
    (i + 1) a_{i+1} = sum_{j <= i} a'_j / (k + 1)^(i - j + 1), and
    (k + 1) rho(k + 1) = int_0^1 sum a_i t^i dt gives
    a_0 = sum_{i >= 1} a_i / (i + 1) / k.
    """
    i = np.arange(1, _TERMS)
    panels = [np.eye(1, _TERMS)[0]]  # rho = 1 on [0, 1]
    for k in range(1, U_MAX):
        inv = (k + 1.0) ** -i
        a = np.empty(_TERMS)
        a[1:] = np.convolve(panels[-1][:-1], inv)[: _TERMS - 1] / i
        a[0] = (a[1:] / (i + 1)).sum() / k
        panels.append(a)
    return tuple(tuple(p.tolist()) for p in panels)


_PANELS = _build_panels()


def dickman_rho(u: float) -> float:
    """rho(u) for 0 <= u <= 30."""
    if not 0 <= u <= U_MAX:
        raise ValueError(f"u = {u} outside [0, {U_MAX}]")
    if u <= 1:
        return 1.0
    k = min(int(u), U_MAX - 1)  # u = U_MAX evaluates the last panel at t = 0
    t = k + 1 - u
    acc = 0.0
    for c in reversed(_PANELS[k]):
        acc = acc * t + c
    return acc


def psi_count(x: int, y: float) -> PsiCount:
    """Exact Psi(x, y) by table lookup of largest prime factors."""
    if not 1 <= x <= PSI_X_CAP:
        raise ValueError(f"x = {x} outside [1, {PSI_X_CAP}]")
    try:
        y = float(y)
    except OverflowError:
        raise ValueError("y outside the float64 range (about 1.8e308 in magnitude)") from None
    if math.isnan(y):
        raise ValueError("y is NaN")
    lpf = _largest_prime_factors(x)
    # 1 has no prime factor, so it counts for every y
    count = 1 + int(np.count_nonzero(lpf[2:] <= y))
    return PsiCount(x, y, count)


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
