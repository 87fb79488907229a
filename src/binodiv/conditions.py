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
# _condition1_many: members per tile; first each set's _PREFIX least members
# (or its share of a tile), where most refutations are, then tiers _GROW times longer
_BATCH = 1 << 14
_PREFIX = 16
_GROW = 4
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


def _enumerate_p(cp, cr, sp, sr):
    """Both Condition (1) kernels' rule: enumerate the base-p set (cp members;
    sp digit steps to test a k in base p) over the base-r set when testing it
    in base r costs no more, and never one above OBSTRUCTION_CAP while the
    other is within it.  Either set gives the same verdict."""
    return (cp * sr <= cr * sp) & (cp <= OBSTRUCTION_CAP) | (cr > OBSTRUCTION_CAP)


def _digit_slots(ns: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radix d + 1 and place value bases[i]**position of each nonzero base
    digit d of ns[i], lowest first, as (slots, len(ns)) arrays padded with
    radix 1 and place 0 (so radices multiply to the dominated count), and
    the number of base digits of each ns[i]."""
    digs, m = [], ns
    while m.any():
        m, d = divmod(m, bases)
        digs.append(d)
    radix = np.array(digs, dtype=np.int64).reshape(len(digs), ns.size) + 1
    nonzero = radix > 1
    # bases**position, wrapping harmlessly above a column's top digit
    place = np.cumprod(np.vstack((np.ones_like(ns), np.broadcast_to(bases, radix.shape)[1:])), axis=0) * nonzero
    order = np.argsort(~nonzero, axis=0, kind="stable")[: int(nonzero.sum(axis=0).max(initial=0))]
    ndig = (np.cumsum(nonzero[::-1], axis=0) > 0).sum(axis=0)
    return np.take_along_axis(radix, order, 0), np.take_along_axis(place, order, 0), ndig


def _members(radix: np.ndarray, place: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For each slot column i (see _digit_slots), the dominated k numbered
    lo[i] <= j < hi[i], lo[i] < hi[i], in order of i, then j.

    The j-th is j in the mixed radix of the slots read in place values, so
    k ascends with j and the obstruction members are 1 <= j <= count - 2.
    Built top slot first, the prefixes j // below of each level expanding
    into those in [lo, hi) of the level below, as one cumulative sum."""
    below = np.cumprod(np.vstack((np.ones_like(lo), radix[:-1])), axis=0)
    first, last = lo // below, (hi - 1) // below
    skip, tail = first % radix, radix - 1 - last % radix
    parents = last // radix - first // radix + 1
    head = np.cumsum(parents, axis=1) - parents
    val = np.zeros(lo.size, dtype=np.int64)
    # higher levels hold only the prefix 0; a prefix's children are
    # prefix * radix + c, c in [skip, radix - tail) at a column's ends
    for t in reversed(range(int(last.any(axis=1).sum()))):
        cnt = np.repeat(radix[t], parents[t])
        cnt[head[t]] -= skip[t]
        cnt[head[t] + parents[t] - 1] -= tail[t]
        val[head[t]] += skip[t] * place[t]
        after = val + (cnt - 1) * np.repeat(place[t], parents[t])
        step = np.repeat(place[t], last[t] - first[t] + 1)
        step[np.cumsum(cnt) - cnt] = val - np.concatenate(([0], after[:-1]))
        val = np.cumsum(step)
    return val


def _dominated_values(n: int, p: int) -> np.ndarray:
    """Dominated k in [0, n], ascending: one whole set, a broadcast per digit."""
    vals = np.zeros(1, dtype=np.int64)
    for i, d in enumerate(digits(n, p)):
        if d == 1:
            vals = np.concatenate((vals, vals + p**i))
        elif d:
            vals = (np.arange(d + 1, dtype=np.int64)[:, None] * p**i + vals).ravel()
    return vals


def _dominated_mask(ks: np.ndarray, n, base) -> np.ndarray:
    """Boolean mask over the int64 array ks: base digits dominated by those
    of n (0 <= ks <= n).

    n and base are integers or arrays like ks.  Base 2 is the bit test
    k & ~n == 0.  Else, while many entries are undecided (more than
    _COMPACT, or 32 times that when n is one integer and each step is
    cheaper), an entry leaves the digit loop at its first digit above n's,
    or once its remaining digits are all zero; the rest finish in a plain
    digit loop.
    """
    scalar = not isinstance(n, np.ndarray)
    if not isinstance(base, np.ndarray) and base == 2:
        return (ks & ~n) == 0
    if isinstance(base, np.ndarray) and (two := base == 2).any():
        ok = (ks & ~n) == 0
        if not two.all():
            ok[~two] = _dominated_mask(ks[~two], n if scalar else n[~two], base[~two])
        return ok
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
    count = math.prod(d + 1 for d in digits(n, p)) - 2
    return ObstructionSet(n, p, count, None if count > cap else _dominated_values(n, p)[1:-1])


def condition1_holds(n: int, p: int, r: int) -> bool:
    """Whether p or r divides every C(n, k) with 0 < k < n.

    Tests the members of the carry-free set _enumerate_p picks for a carry
    in the other base; if both sets are enormous, sweeps all k in chunks.
    """
    _check_n_prime(n, p)
    _check_prime(r)
    return _condition1(n, p, r)


def _condition1(n: int, p: int, r: int) -> bool:
    dp, dr = digits(n, p), digits(n, r)
    cp, cr = (math.prod(d + 1 for d in ds) - 2 for ds in (dp, dr))
    if min(cp, cr) > OBSTRUCTION_CAP:
        return not _exists_doubly_carry_free(n, p, r)
    a, b = (p, r) if _enumerate_p(cp, cr, 1 if p == 2 else len(dp), 1 if r == 2 else len(dr)) else (r, p)
    return not _dominated_mask(_dominated_values(n, a)[1:-1], n, b).any()


def _exists_doubly_carry_free(n: int, p: int, r: int) -> bool:
    """Chunked scan of all k in (0, n) for one carry-free in both bases."""
    chunk = 1 << 20
    for lo in range(1, n, chunk):
        ks = np.arange(lo, min(n, lo + chunk), dtype=np.int64)
        mp = _dominated_mask(ks, n, p)
        if mp.any() and _dominated_mask(ks[mp], n, r).any():
            return True
    return False


def _condition1_many(ns: np.ndarray, ps: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """_condition1 over the triples (ns[i], ps[i], rs[i]), none with n a
    prime power, which makes each verdict condition2_direct's.

    Lemma: let n >= 9 not be a prime power and primes p != r satisfy
    Condition (1) (p = r fails both conditions).  k = 1 forces p | n or
    r | n, so min(p, r) <= n/2 <= n - 3 covers the primitive family.  If
    neither prime divided an imprimitive index n!/((d!)^m m!), n = dm, then
    by prime_divides_equipartition either m copies of d add without carry
    in both bases, so k = d is carry-free in both; or d = p^j, say, and they
    add without carry in base r, so k = p^v_p(n) = d p^v_p(m) < n is
    carry-free in base p (one digit, under a nonzero digit of n) and in
    base r (p^v_p(m) of the m copies of d), contradicting Condition (1).

    Each triple tests the members of the set _enumerate_p picks in the
    other base in tiers, slices of one numbering (_members): its _PREFIX
    least (more when few triples share a tile), then slices _GROW times
    longer, at most _BATCH, while it holds.  A triple with both sets above
    OBSTRUCTION_CAP goes to _condition1.
    """
    radix, place, ndig = _digit_slots(np.concatenate((ns, ns)), bases := np.concatenate((ps, rs)))
    (cp, cr), (sp, sr) = np.split(radix.prod(axis=0) - 2, 2), np.split(np.where(bases == 2, 1, ndig), 2)
    first = _enumerate_p(cp, cr, sp, sr)
    col = np.arange(ns.size) + np.where(first, 0, ns.size)  # the picked set's slot columns
    radix, place, b, size = radix[:, col], place[:, col], np.where(first, rs, ps), np.where(first, cp, cr)
    holds = np.ones(ns.size, dtype=bool)
    for i in np.flatnonzero(size > OBSTRUCTION_CAP).tolist():
        holds[i] = _condition1(int(ns[i]), int(ps[i]), int(rs[i]))
    lo, width = 1, _PREFIX
    while (i := np.flatnonzero(holds & (size >= lo) & (size <= OBSTRUCTION_CAP))).size:
        # members lo..lo + width - 1 of each open triple, at most _BATCH a tile
        width = max(width, _BATCH // i.size)
        for own in np.split(i, range(step := _BATCH // width, i.size, step)):
            count = np.minimum(size[own] + 1 - lo, width)
            k = _members(radix[:, own], place[:, own], np.full(own.size, lo), lo + count)
            free = _dominated_mask(k, np.repeat(ns[own], count), np.repeat(b[own], count))
            holds[own[np.logical_or.reduceat(free, np.cumsum(count) - count)]] = False
        lo, width = lo + width, min(width * _GROW, _BATCH)
    return holds


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
    _check_n_prime(n, p)
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
    _check_n_prime(n, p)
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
    if n >= 1 << 63:
        raise ValueError(f"n must be below 2**63, the int64 limit of the digit kernels, got {n}")
    _check_prime(p)
