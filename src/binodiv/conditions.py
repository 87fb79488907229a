"""Divisibility conditions on binomial coefficients and subgroup indices.

Condition (1) for (n, p, r): every C(n, k) with 0 < k < n is divisible by
p or r.  Condition (2): every maximal subgroup of A_n has index divisible
by p or r.  For n >= 9 the maximal subgroups split into three families
(intransitive, imprimitive, primitive) and each family has an arithmetic
divisibility test, giving a direct decision procedure; for n <= 8 the
index lists are hardcoded from the classified maximal subgroups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import digits, factorize, is_prime, is_prime_power
from .kummer import prime_divides_equipartition

__all__ = [
    "ConditionWitness",
    "OBSTRUCTION_CAP",
    "ObstructionSet",
    "SMALL_INDEX_TABLE",
    "condition1_holds",
    "condition2_direct",
    "condition2_holds",
    "obstructions",
    "primitive_index_divisible",
    "witness_for",
]

OBSTRUCTION_CAP = 1 << 20
# _condition2_many: members per digit loop, and the least members tried
# before a whole obstruction set
_BATCH = 1 << 14
_PREFIX = 256
# _dominated_mask compacts its arrays while more entries than this remain
_COMPACT = 1024

# Maximal subgroup indices of A_n for n <= 8.  A_1, A_2 have no proper
# subgroups; A_3 is cyclic of order 3; A_4 has V_4 (index 3) and the points
# stabilizers (index 4); 5 <= n <= 8 are the classified lists.
SMALL_INDEX_TABLE: dict[int, tuple[int, ...]] = {
    1: (),
    2: (),
    3: (3,),
    4: (3, 4),
    5: (5, 6, 10),
    6: (6, 10, 15),
    7: (7, 15, 21, 35),
    8: (8, 15, 28, 35, 56),
}


@dataclass(frozen=True)
class ObstructionSet:
    """The k in (0, n) with p not dividing C(n, k).

    count is always exact (digit product formula).  members is the explicit
    ascending enumeration, or None when count exceeded the requested cap.
    """

    n: int
    p: int
    count: int
    members: np.ndarray | None


@dataclass(frozen=True)
class ConditionWitness:
    """Outcome of a condition check for one (n, p, r), with the deciding route."""

    n: int
    condition: str  # "condition1" | "condition2"
    holds: bool
    p: int
    r: int
    stage: str  # "small_table" | "prime_power_case" | "sieve_pair" | "direct_search"


def _dominated_count(n: int, p: int) -> int:
    """Number of k in [0, n] whose base-p digits are dominated by n's."""
    return math.prod(d + 1 for d in digits(n, p))


def _dominated_counts(ns: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """_dominated_count(ns[i], bases[i]) for every i."""
    out = np.ones(ns.size, dtype=np.int64)
    m = ns
    while m.any():
        m, d = divmod(m, bases)
        out *= d + 1
    return out


def _dominated_values(n: int, p: int, least: int | None = None) -> np.ndarray:
    """Dominated k in [0, n], ascending, endpoints included.

    Built from the lowest digit up: digit c at position i adds c * p**i to
    every value of the positions below, a block above all of them.  With
    `least`, the expansion stops once it holds `least` values, which are
    then the smallest ones.
    """
    vals = np.zeros(1, dtype=np.int64)
    step = 1
    for d in digits(n, p):
        if least is not None and vals.size >= least:
            break
        if d == 1:
            vals = np.concatenate((vals, vals + step))
        elif d:
            vals = (np.arange(d + 1, dtype=np.int64)[:, None] * step + vals).ravel()
        step *= p
    return vals[:least]


def _members(n: int, p: int, least: int | None = None) -> np.ndarray:
    """The base-p obstruction members of n (dominated k in (0, n)),
    ascending; with `least`, only the smallest `least`."""
    if least is None:
        return _dominated_values(n, p)[1:-1]
    vals = _dominated_values(n, p, least + 2)[1:]
    return vals[vals < n][:least]


def _dominated_mask(ks: np.ndarray, n, base) -> np.ndarray:
    """Boolean mask over the int64 array ks: base digits dominated by those
    of n (0 <= ks <= n).

    n and base are integers or arrays like ks.  While many entries are
    undecided (more than _COMPACT, or 32 times that when n is one integer
    and each step is cheaper), an entry leaves the digit loop at its first
    digit above n's, or once its remaining digits are all zero; the rest
    finish in a plain digit loop.
    """
    scalar = not isinstance(n, np.ndarray)
    k, m, b = ks, n, base
    ok = np.ones(k.size, dtype=bool)
    fine, live = ok, None
    if k.size > (_COMPACT << 5 if scalar else _COMPACT):
        live = np.arange(k.size)
        while live.size > _COMPACT:
            k, dk = divmod(k, b)
            m, dm = divmod(m, b)
            carry = dk > dm
            ok[live[carry]] = False
            keep = ~carry & (k > 0)
            live = live[keep]
            k = k[keep]
            if not scalar:
                m = m[keep]
            if isinstance(b, np.ndarray):
                b = b[keep]
        fine = ok[live]
    while (m if scalar else k.any()) and fine.any():
        k, dk = divmod(k, b)
        m, dm = divmod(m, b)
        fine &= dk <= dm
    if live is not None:
        ok[live] = fine
    return ok


def obstructions(n: int, p: int, cap: int = OBSTRUCTION_CAP) -> ObstructionSet:
    """Carry-free k for (n, p): the k in (0, n) with p not dividing C(n, k)."""
    _check_n_prime(n, p)
    count = _dominated_count(n, p) - 2
    if count > cap:
        return ObstructionSet(n, p, count, None)
    return ObstructionSet(n, p, count, _members(n, p))


def condition1_holds(n: int, p: int, r: int) -> bool:
    """Whether p or r divides every C(n, k) with 0 < k < n.

    Enumerates whichever carry-free set is smaller and tests its members
    for a carry in the other base; if both sets are enormous, falls back to
    a chunked sweep over all k.
    """
    _check_n_prime(n, p)
    _check_prime(r)
    return _condition1(n, p, r)


def _condition1(n: int, p: int, r: int) -> bool:
    cp = _dominated_count(n, p) - 2
    cr = _dominated_count(n, r) - 2
    if cp <= 0 or cr <= 0:
        return True
    if min(cp, cr) > OBSTRUCTION_CAP:
        return not _exists_doubly_carry_free(n, p, r)
    a, b = (p, r) if cp <= cr else (r, p)
    members = _members(n, a)
    return not _dominated_mask(members, n, b).any()


def _exists_doubly_carry_free(n: int, p: int, r: int) -> bool:
    """Chunked scan of all k in (0, n) for one carry-free in both bases."""
    chunk = 1 << 20
    for lo in range(1, n, chunk):
        ks = np.arange(lo, min(n, lo + chunk), dtype=np.int64)
        mp = _dominated_mask(ks, n, p)
        if mp.any() and _dominated_mask(ks[mp], n, r).any():
            return True
    return False


def _condition2_many(ns: np.ndarray, ps: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """condition2_direct over the triples (ns[i], ps[i], rs[i]); no n may be
    a prime power.

    Condition (1) tests, like _condition1, the smaller of the base-p and
    base-r obstruction sets in the other base, in digit loops over the
    concatenated sets of many triples: first their _PREFIX least members,
    which refute most failing triples, then the whole sets of the rest.  A
    set above _BATCH members is decided alone by _condition1.  The triples
    that pass get the imprimitive and primitive family tests.
    """
    holds = np.ones(ns.size, dtype=bool)
    cp = _dominated_counts(ns, ps)
    cr = _dominated_counts(ns, rs)
    a = np.where(cp <= cr, ps, rs)
    b = np.where(cp <= cr, rs, ps)
    size = np.minimum(cp, cr) - 2
    _refute_condition1(ns, a, b, np.arange(ns.size), holds, _PREFIX)
    for i in np.flatnonzero(holds & (size > _BATCH)).tolist():
        holds[i] = _condition1(int(ns[i]), int(ps[i]), int(rs[i]))
    _refute_condition1(ns, a, b, np.flatnonzero(holds & (size > _PREFIX) & (size <= _BATCH)), holds)
    for i in np.flatnonzero(holds).tolist():
        holds[i] = _transitive_covered(int(ns[i]), int(ps[i]), int(rs[i]))
    return holds


def _refute_condition1(ns, a, b, todo: np.ndarray, holds: np.ndarray, least: int | None = None) -> None:
    """Clear holds[i] for each i in todo where some base-a[i] obstruction
    member of ns[i] (of the `least` smallest, if given) is carry-free in
    base b[i] too; digit loops over at most _BATCH members."""
    group: list[int] = []
    sets: list[np.ndarray] = []
    total = 0
    for i in todo.tolist():
        mem = _members(int(ns[i]), int(a[i]), least)
        if total + mem.size > _BATCH:
            _clear_refuted(ns, b, group, sets, holds)
            group, sets, total = [], [], 0
        group.append(i)
        sets.append(mem)
        total += mem.size
    _clear_refuted(ns, b, group, sets, holds)


def _clear_refuted(ns, b, group: list[int], sets: list[np.ndarray], holds: np.ndarray) -> None:
    """One digit loop over the concatenated sets: clear holds[i] for each i
    in group whose set has a member carry-free in base b[i]."""
    if group:
        sizes = [s.size for s in sets]
        free = _dominated_mask(
            np.concatenate(sets), np.repeat(ns[group], sizes), np.repeat(b[group], sizes)
        )
        holds[np.repeat(group, sizes)[free]] = False


def primitive_index_divisible(n: int, p: int) -> bool:
    """Whether p divides the index of every primitive proper subgroup of A_n.

    For n >= 9 this holds exactly when p <= n - 3 (the order of a primitive
    proper subgroup is never divisible by such a prime).
    """
    if n < 9:
        raise ValueError("primitive_index_divisible requires n >= 9")
    _check_prime(p)
    return p <= n - 3


def condition2_direct(n: int, p: int, r: int) -> bool:
    """Condition (2) decided family by family, n >= 9.

    Intransitive indices are the binomials (Condition (1)); imprimitive
    indices are equipartition counts over nontrivial divisors; primitive
    indices are covered whenever min(p, r) <= n - 3.  A power of p (or r)
    is accepted outright: such n always has a certifying class pair built
    on its base prime, so the family sweep is skipped.
    """
    if n < 9:
        raise ValueError("condition2_direct requires n >= 9")
    _check_prime(p)
    _check_prime(r)
    pp = is_prime_power(n)
    if pp is not None and pp.prime in (p, r):
        return True
    return _condition1(n, p, r) and _transitive_covered(n, p, r)


def _transitive_covered(n: int, p: int, r: int) -> bool:
    """The imprimitive and primitive families of condition2_direct."""
    return _imprimitive_covered(n, p, r) and (p <= n - 3 or r <= n - 3)


def _imprimitive_covered(n: int, p: int, r: int) -> bool:
    for d in factorize(n).divisors():
        if d == 1 or d == n:
            continue
        if not (
            prime_divides_equipartition(n, d, p)
            or prime_divides_equipartition(n, d, r)
        ):
            return False
    return True


def condition2_holds(n: int, p: int, r: int) -> bool:
    """Condition (2) for any n >= 1, by the cheapest valid route.

    n <= 8 uses the hardcoded index table.  Prime powers p**m >= 9 are
    accepted outright when the base prime is in the pair (a suitable
    partner prime always exists); otherwise they get the direct check.
    Everything else reduces to Condition (1), to which Condition (2) is
    equivalent for non-prime-powers.
    """
    return witness_for(n, p, r).holds


def witness_for(n: int, p: int, r: int) -> ConditionWitness:
    """Condition (2) verdict plus the route that decided it."""
    return _witness(n, p, r)[0]


def _witness(n: int, p: int, r: int) -> tuple[ConditionWitness, bool | None]:
    """witness_for(n, p, r), and the Condition (1) verdict where deciding
    Condition (2) settled it (None elsewhere)."""
    if n < 1:
        raise ValueError("condition2_holds requires n >= 1")
    _check_prime(p)
    _check_prime(r)
    if n <= 8:
        holds = all(i % p == 0 or i % r == 0 for i in SMALL_INDEX_TABLE[n])
        return ConditionWitness(n, "condition2", holds, p, r, "small_table"), None
    pp = is_prime_power(n)
    if pp is not None and pp.prime in (p, r):
        return ConditionWitness(n, "condition2", True, p, r, "prime_power_case"), None
    c1 = _condition1(n, p, r)
    if pp is not None:
        holds, stage = c1 and _transitive_covered(n, p, r), "direct_search"
    else:
        holds, stage = c1, "sieve_pair" if _sieve_window_holds(n, p, r) else "direct_search"
    return ConditionWitness(n, "condition2", holds, p, r, stage), c1


def _sieve_window_holds(n: int, p: int, r: int) -> bool:
    """Whether the pair is certified by a prime-power window at this n.

    Looks for p**a exactly dividing n and a power r**b with
    r**b < n < r**b + p**a: a counts the trailing zero base-p digits of n,
    and b + 1 is the number of base-r digits of n - 1.
    """
    a = next(i for i, d in enumerate(digits(n, p)) if d)
    b = len(digits(n - 1, r)) - 1
    return a > 0 and b > 0 and r**b + p**a > n


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _check_n_prime(n: int, p: int) -> None:
    if n < 1:
        raise ValueError("n must be a positive integer")
    _check_prime(p)
