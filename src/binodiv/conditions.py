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

from .arith import digit_sum, digits, factorize, is_prime, is_prime_power
from .kummer import _carry_free, _prime_divides_copies, prime_divides_equipartition  # noqa: F401 (perfbench spans it)

__all__ = [
    "ConditionWitness",
    "OBSTRUCTION_CAP",
    "ObstructionSet",
    "SMALL_INDEX_TABLE",
    "condition1_holds",
    "condition2_direct",
    "obstructions",
    "primitive_index_divisible",
    "witness_for",
]

OBSTRUCTION_CAP = 1 << 20
# _condition1_many cuts ranges to refill about this many cursors once at most half are live
_CUT = 256
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
    ascending enumeration, or None when count exceeds OBSTRUCTION_CAP.
    """

    n: int
    p: int
    count: int
    members: np.ndarray | None


@dataclass(frozen=True)
class ConditionWitness:
    """Both verdicts for one (n, p, r): Condition (1), and Condition (2)
    (holds) with the route that decided it."""

    n: int
    p: int
    r: int
    condition1: bool
    holds: bool
    stage: str  # "small_table" (n <= 8) | "sieve_pair" | "direct_search" (prime powers too)


def _dominated_values(n: int, p: int) -> np.ndarray:
    """Dominated k in [0, n], ascending: one whole set, a broadcast per digit."""
    vals = np.zeros(1, dtype=np.int64)
    for i, d in enumerate(digits(n, p)):
        if d == 1:
            vals = np.concatenate((vals, vals + p**i))
        elif d:
            vals = (np.arange(d + 1, dtype=np.int64)[:, None] * p**i + vals).ravel()
    return vals


def _dominated_mask(ks: np.ndarray, n: int, base: int) -> np.ndarray:
    """Boolean mask over the int64 array ks: base digits dominated by those
    of n (0 <= ks <= n).

    Base 2 is the bit test k & ~n == 0.  Else, while more than _COMPACT
    entries are undecided (if there were 32 times that to start with), an
    entry leaves the digit loop at its first digit above n's, or once its
    remaining digits are all zero; the rest finish in a plain digit loop.
    """
    if base == 2:
        return (ks & ~n) == 0
    k, m = ks, n
    ok = np.ones(k.size, dtype=bool)
    fine, live = ok, None
    if k.size > _COMPACT << 5:
        live = np.arange(k.size)
        while live.size > _COMPACT:
            k, dk = divmod(k, base)
            m, dm = divmod(m, base)
            carry = dk > dm
            ok[live[carry]] = False
            keep = ~carry & (k > 0)
            live, k = live[keep], k[keep]
        fine = ok[live]
    while m and fine.any():
        k, dk = divmod(k, base)
        m, dm = divmod(m, base)
        fine &= dk <= dm
    if live is not None:
        ok[live] = fine
    return ok


def obstructions(n: int, p: int) -> ObstructionSet:
    """Carry-free k for (n, p): the k in (0, n) with p not dividing C(n, k)."""
    _check_n_prime(n, p)
    count = math.prod(d + 1 for d in digits(n, p)) - 2
    return ObstructionSet(n, p, count, None if count > OBSTRUCTION_CAP else _dominated_values(n, p)[1:-1])


def condition1_holds(n: int, p: int, r: int) -> bool:
    """Whether p or r divides every C(n, k) with 0 < k < n.

    Tests the least member of each carry-free set in the other base, then
    the members of one set; if both sets are enormous, leapfrogs between
    them (_condition1_many).
    """
    _check_n_prime(n, p)
    _check_prime(r)
    return _condition1(n, p, r)


def _condition1(n: int, p: int, r: int) -> bool:
    """First q**v_q(n), the least carry-free k of base q (Kummer), is tested
    in the other base for q = p and q = r; most failing pairs stop there,
    with no digit tuple built.  Past that, a prime above n (which may not
    fit the int64 kernels) leaves every k carry-free in its base, so the
    pair holds.  Otherwise enumerates the base-p set (cp members; sp digit
    steps to test a k in base p) over the base-r set when testing it in
    base r costs no more, and never one above OBSTRUCTION_CAP while the
    other is within it.  Either set gives the same verdict."""
    for q, b in ((p, r), (r, p)):
        k = 1
        while n % (k * q) == 0:
            k *= q
        if k < n and _carry_free(n, k, b):
            return False
    if max(p, r) > n:
        return True
    dp, dr = digits(n, p), digits(n, r)
    cp, cr = (math.prod(d + 1 for d in ds) - 2 for ds in (dp, dr))
    if min(cp, cr) > OBSTRUCTION_CAP:
        return bool(_condition1_many(*(np.array([v], dtype=np.int64) for v in (n, p, r)))[0])
    sp, sr = (1 if q == 2 else len(ds) for q, ds in ((p, dp), (r, dr)))
    a, b = (p, r) if cr > OBSTRUCTION_CAP or cp <= OBSTRUCTION_CAP and cp * sr <= cr * sp else (r, p)
    return not _dominated_mask(_dominated_values(n, a)[1:-1], n, b).any()


def _condition1_many(ns: np.ndarray, ps: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """_condition1 over the triples (ns[i], ps[i], rs[i]), n >= 1.

    Lemma: for n >= 9 not a prime power each verdict is condition2_direct's.
    Let primes p != r satisfy Condition (1) (p = r fails both conditions).
    k = 1 forces p | n or r | n, so min(p, r) <= n/2 <= n - 3 covers the
    primitive family.  If neither prime divided an imprimitive index
    n!/((d!)^m m!), n = dm, then by prime_divides_equipartition either m
    copies of d add without carry in both bases, so k = d is carry-free in
    both; or d = p^j, say, and they add without carry in base r, so
    k = p^v_p(n) = d p^v_p(m) < n is carry-free in base p (one digit, under
    a nonzero digit of n) and in base r (p^v_p(m) of the m copies of d),
    contradicting Condition (1).

    A leapfrog intersection of the two carry-free sets (Veldhuizen,
    Leapfrog Triejoin, ICDT 2014) over cursors, each a triple and a range
    [x, end), first [1, n).  A round moves x to the least member >= x of
    one set, the base-2 set if there is one, then to the least member of
    the other set >= that: the triple fails when both land on the same
    k < end, and the cursor is done once it passes end.  The members a
    cursor lands on ascend in both sets, so for sets of cp and cr members it
    takes at most min(cp, cr) + 1 rounds.  Once at most _CUT // 2 cursors
    are live, each live range is cut into _CUT // live equal parts, so that
    the last triples still move about _CUT cursors a round.
    """
    holds = np.ones(ns.size, dtype=bool)
    two = rs == 2
    # the base, digit table and digit counts of each set, a base-2 set first
    sets = [(b, *_digit_table(np.where(b == 2, 0, ns), b)) for b in (np.where(two, 2, ps), np.where(two, ps, rs))]
    tid = np.flatnonzero(ns > 1)
    x, end = np.ones_like(tid), ns[tid]
    # each round moves every live cursor up, so none lasts max(ns) rounds
    for _ in range(int(ns.max(initial=1))):
        if not tid.size:
            return holds
        if (parts := _CUT // tid.size) > 1:
            tid, x, end = _cut(tid, x, end, parts)
        n, k = ns[tid], x
        for base, place, digs, width in sets:
            w = width[tid].max()
            a, k = k, _least_member(k, n, base[tid], place[:w, tid], digs[:w, tid])
        holds[tid[(a == k) & (k < end)]] = False
        live = (k < end) & holds[tid]
        tid, x, end = tid[live], k[live], end[live]
    raise AssertionError("a leapfrog cursor did not advance")


def _cut(tid: np.ndarray, x: np.ndarray, end: np.ndarray, parts: int):
    """Cursors (tid, x, end) with each range [x, end) cut into
    min(parts, end - x) parts, whose lengths differ by at most one."""
    count = np.minimum(parts, end - x)
    size, extra = np.divmod(end - x, count)
    own = np.repeat(np.arange(tid.size), count)
    i = np.arange(own.size) - np.repeat(np.cumsum(count) - count, count)
    size, extra, x = size[own], extra[own], x[own]
    # part i starts after i parts of size, the first extra of them one longer
    lo, hi = (x + size * j + np.minimum(j, extra) for j in (i, i + 1))
    return tid[own], lo, hi


def _digit_table(ns: np.ndarray, bases: np.ndarray):
    """Place values and base digits of each ns[i], lowest first, as columns
    of (width, len(ns)) arrays, and the number of digits of each.  Above
    the top digit of ns[i] the place is 1 and the digit is the base, which
    no digit reaches; 0 has no digits."""
    place, digs = [np.ones((0, ns.size), dtype=np.int64)], [np.ones((0, ns.size), dtype=np.int64)]
    m, power, width = ns, np.ones_like(ns), np.zeros_like(ns)
    while m.any():
        top = m > 0
        place.append(np.where(top, power, 1)[None])
        digs.append(np.where(top, m % bases, bases)[None])
        width += top
        m = m // bases
        # only where a digit follows, so no power exceeds its n
        power[m > 0] *= bases[m > 0]
    return np.vstack(place), np.vstack(digs), width


def _least_member(x: np.ndarray, n: np.ndarray, base: np.ndarray, place: np.ndarray, digs: np.ndarray) -> np.ndarray:
    """The least k >= x with base digits dominated by those of n, entrywise,
    0 <= x <= n: in base 2 by bits, in other bases by the columns (place,
    digs) of n's digit table (_digit_table)."""
    bits = base == 2
    if bits.all():
        return _least_submask(x, n)
    k = _least_digits(x, base, place, digs)
    return np.where(bits, _least_submask(x, n), k) if bits.any() else k


def _least_submask(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The least k >= x with k & ~n == 0, 0 <= x <= n.

    Such a k first exceeds y = x - 1 at a bit of n above every bit of y
    outside n.  So set all bits from the highest of those down, and count
    up once in the bits of n.  ~n is negative, so the sum is at most 0 and
    never wraps."""
    y = x - 1
    low = y & ~n
    for shift in (1, 2, 4, 8, 16, 32):
        low |= low >> shift
    return ((y | low | ~n) + 1) & n


def _least_digits(x: np.ndarray, base: np.ndarray, place: np.ndarray, digs: np.ndarray) -> np.ndarray:
    """The least k >= x with no digit above the one of digs in its place,
    x <= n for the number n of each digit table column (_digit_table).

    x is such a k unless a digit of x exceeds n's.  Else k agrees with x
    above the lowest digit that is below n's and higher than every digit
    over n's, adds one there and zeroes the digits under it.  Since x <= n,
    there is such a digit where x and n first differ."""
    q = x // place
    dig = q % base
    # digits over n's, or under one that is
    over = np.logical_or.accumulate((dig > digs)[::-1], axis=0)[::-1]
    j, col = ((dig < digs) > over).argmax(axis=0), np.arange(x.size)
    return np.where(over[0], (q[j, col] + 1) * place[j, col], x)


def primitive_index_divisible(n: int, p: int) -> bool:
    """Whether p divides the index of every primitive proper subgroup of
    A_n, for n >= 9 and a prime p: exactly when p <= n - 3, or when p =
    n - 2 and n - 1 is not a power of 2.

    A subgroup's index is prime to p exactly when it holds a Sylow
    p-subgroup of A_n.  For p <= n - 3 a primitive one that does is all of
    A_n.  For odd p, the Sylow subgroup holds a p-cycle, and a primitive
    group with a p-cycle contains A_n (Jordan's theorem).  For p = 2, it
    holds a double transposition, and a primitive group of degree n >= 9
    with a double transposition contains A_n (Jordan's theorem on double
    transpositions: a primitive group of minimal degree 4 has degree at
    most 8).  The order of such a subgroup may still be divisible by p:
    PGammaL(2, 8) < A_9 is primitive of order 1,512 = 2^3 * 3^3 * 7 and
    index 120.

    For p > n/2 a p-cycle generates a Sylow p-subgroup.  One that fixes
    two points (p = n - 2) lies in a primitive proper subgroup only if
    PGL(2, q) <= G <= PGammaL(2, q) on n = q + 1 points (G. A. Jones,
    Bull. Aust. Math. Soc. 89, 2014), whose (q - 1)-cycles have prime
    length only at q = 2^m: so (9, 7) gives False, through PGammaL(2, 8)
    above, and (13, 11) True.  For p = n - 1, PSL(2, p) on the p + 1
    points of the projective line holds a p-cycle; for p = n, AGL(1, n) &
    A_n holds an n-cycle; and a p > n does not divide |A_n|.
    """
    if n < 9:
        raise ValueError("primitive_index_divisible requires n >= 9")
    _check_prime(p)
    return _primitive_covered(n, p)


def _primitive_covered(n: int, p: int) -> bool:
    """primitive_index_divisible for n >= 9 and a prime p, unchecked."""
    return p <= n - 3 or p == n - 2 and (n - 1) & (n - 2) != 0


def condition2_direct(n: int, p: int, r: int) -> bool:
    """Condition (2) decided family by family, the same way for every n >= 9.

    Intransitive indices are the binomials (Condition (1)); imprimitive
    indices are equipartition counts over nontrivial divisors; primitive
    indices are covered when min(p, r) passes primitive_index_divisible.
    Reading the rule for min(p, r) alone is exact: a pair that passes
    Condition (1) holds a prime divisor of n (k = 1).  So at a composite n
    the smaller prime is at most n/2 <= n - 3; at a prime n the pair holds
    n, which misses the index of AGL(1, n) & A_n, and the other prime
    covers the family only if it is the smaller one.
    """
    if n < 9:
        raise ValueError("condition2_direct requires n >= 9")
    _check_n_prime(n, p)
    _check_prime(r)
    return _condition1(n, p, r) and _transitive_covered(n, p, r)


def _transitive_covered(n: int, p: int, r: int) -> bool:
    """The imprimitive and primitive families of condition2_direct."""
    return _imprimitive_covered(n, p, r) and _primitive_covered(n, min(p, r))


def _imprimitive_covered(n: int, p: int, r: int) -> bool:
    sum_p, sum_r = digit_sum(n, p), digit_sum(n, r)
    for d in factorize(n).divisors()[1:-1]:
        m = n // d
        if not (_prime_divides_copies(d, m, p, sum_p) or _prime_divides_copies(d, m, r, sum_r)):
            return False
    return True


def witness_for(n: int, p: int, r: int) -> ConditionWitness:
    """Condition (1) and Condition (2) for (n, p, r), each decided once, and
    the route that decided Condition (2)."""
    _check_n_prime(n, p)
    _check_prime(r)
    c1 = _condition1(n, p, r)
    if n <= 8:
        holds, stage = all(i % p == 0 or i % r == 0 for i in SMALL_INDEX_TABLE[n]), "small_table"
    elif is_prime_power(n) is not None:
        holds, stage = c1 and _transitive_covered(n, p, r), "direct_search"
    else:
        window = _sieve_window_holds(n, p, r) or _sieve_window_holds(n, r, p)
        holds, stage = c1, "sieve_pair" if window else "direct_search"
    return ConditionWitness(n, p, r, c1, holds, stage)


def _sieve_window_holds(n: int, p: int, r: int) -> bool:
    """Whether the pair is certified by a prime-power window at this n with
    p dividing n; witness_for tries both orders.

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
