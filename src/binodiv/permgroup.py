"""Small permutation-group engine, degree <= 16.

Enough machinery to verify pair-generation conditions in alternating
groups of degree 5 through 8 exhaustively: conjugacy classes by cycle
type (with the even-class splitting criterion), group order by
stabilizer chain, and sweeps over class pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, gcd, inf, lcm

from .arith import is_prime, is_prime_power

__all__ = [
    "CycleType",
    "Permutation",
    "StabilizerChain",
    "check_condition4_pair",
    "check_condition5",
    "class_members",
    "find_condition5_failure_witness",
    "group_order",
    "parse_cycles",
]

MAX_DEGREE = 16


class Permutation:
    """Bijection on {1..n}, stored 0-based; composition is left to right."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds {MAX_DEGREE}")
        if sorted(images) != list(range(n)):
            raise ValueError("images is not a bijection")
        object.__setattr__(self, "images", tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        o = other.images
        return Permutation(tuple(o[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> "CycleType":
        parts = sorted((len(c) for c in self.cycles()), reverse=True)
        fixed = self.degree - sum(parts)
        return CycleType(self.degree, tuple(parts) + (1,) * fixed)

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths of a degree-n permutation, fixed points as 1s."""

    degree: int
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(sorted(self.parts, reverse=True))
        if sum(parts) != self.degree or any(l < 1 for l in parts):
            raise ValueError(f"parts {self.parts} do not partition {self.degree}")
        object.__setattr__(self, "parts", parts)

    def is_even(self) -> bool:
        return (self.degree - len(self.parts)) % 2 == 0

    def element_order(self) -> int:
        return lcm(*self.parts)

    def splits(self) -> bool:
        """Whether the S_n-class splits into two A_n-classes: exactly when
        n >= 2 (S_0 and S_1 are A_0 and A_1) and the cycle lengths are odd
        and pairwise distinct (the centralizer then has no odd element)."""
        return (
            self.degree >= 2
            and self.is_even()
            and all(l % 2 == 1 for l in self.parts)
            and len(set(self.parts)) == len(self.parts)
        )

    def class_size(self) -> int:
        """Size of the full S_n conjugacy class."""
        cent = 1
        for l, m in itertools.groupby(self.parts):
            k = len(list(m))
            cent *= l**k * factorial(k)
        return factorial(self.degree) // cent

    def representative(self) -> Permutation:
        """Consecutive-points representative, longest cycles first."""
        img = list(range(self.degree))
        at = 0
        for l in self.parts:
            for i in range(l):
                img[at + i] = at + (i + 1) % l
            at += l
        return Permutation(tuple(img))


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint cycle notation, e.g. "(1 2 3)(4 5)".

    An empty string or "()" is the identity.
    """
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds {MAX_DEGREE}")
    img = list(range(degree))
    seen: set[int] = set()
    body = text.strip()
    if body in ("", "()"):
        return Permutation(tuple(img))
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"malformed cycle notation: {text!r}")
    for chunk in body[1:-1].split(")("):
        pts = [int(tok) for tok in chunk.replace(",", " ").split()]
        if not pts:
            continue
        if any(p < 1 or p > degree for p in pts):
            raise ValueError(f"point out of range 1..{degree} in {text!r}")
        if seen & set(pts) or len(set(pts)) != len(pts):
            raise ValueError(f"cycles not disjoint in {text!r}")
        seen |= set(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = b - 1
    return Permutation(tuple(img))


def format_cycles(g: Permutation) -> str:
    cycs = g.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)


class _Reached(Exception):
    """A bounded build's orbit product reached its target order."""


class StabilizerChain:
    """Schreier-Sims stabilizer chain; order is the product of orbit sizes."""

    def __init__(self, degree: int, generators: list[Permutation]):
        self.degree = degree
        self.base: list[int] = []
        self._gens: list[list[tuple[int, ...]]] = []
        self._trans: list[dict[int, tuple]] = []  # orbit point -> (u, u^-1)
        self._processed: list[set[tuple[int, ...]]] = []
        self._target = inf  # _reaches_order lowers it to stop the build early
        self._extend(generators)

    def order(self) -> int:
        out = 1
        for t in self._trans:
            out *= len(t)
        return out

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._strip(g.images, 0)[0] == tuple(range(self.degree))

    def _extend(self, generators: list[Permutation]) -> None:
        for g in generators:
            if g.degree != self.degree:
                raise ValueError("degree mismatch")
            self._add(g.images, 0)

    def _strip(self, g: tuple[int, ...], level: int) -> tuple[tuple[int, ...], int]:
        for i in range(level, len(self.base)):
            t = self._trans[i].get(g[self.base[i]])
            if t is None:
                return g, i
            g = tuple(map(t[1].__getitem__, g))
        return g, len(self.base)

    def _add(self, g: tuple[int, ...], level: int) -> None:
        h, j = self._strip(g, level)
        ident = tuple(range(self.degree))
        if h == ident:
            return
        if j == len(self.base):
            b = next(p for p in range(self.degree) if h[p] != p)
            self.base.append(b)
            self._gens.append([])
            self._trans.append({b: (ident, ident)})
            self._processed.append(set())
        # h fixes base[:j], so it belongs to every level up to j
        for i in range(level, j + 1):
            self._gens[i].append(h)
            self._close(i)

    def _close(self, i: int) -> None:
        """Recompute the orbit at level i and sift fresh Schreier generators."""
        gens = self._gens[i]
        trans = self._trans[i]
        # restart from every known orbit point: a fresh generator can grow
        # the orbit from anywhere, not just from the base point
        queue = list(trans)
        while queue:
            p = queue.pop()
            u = trans[p][0]
            for s in gens:
                q = s[p]
                if q not in trans:
                    us = tuple(map(s.__getitem__, u))
                    trans[q] = (us, tuple(sorted(range(len(us)), key=us.__getitem__)))
                    queue.append(q)
        if self.order() >= self._target:
            raise _Reached
        for p, (u, _) in list(trans.items()):
            for s in gens:
                schreier = tuple(map(trans[s[p]][1].__getitem__, map(s.__getitem__, u)))
                if schreier not in self._processed[i]:
                    self._processed[i].add(schreier)
                    self._add(schreier, i + 1)


def group_order(generators: list[Permutation]) -> int:
    """Order of the group the generators produce; 1 for an empty list."""
    if not generators:
        return 1
    return StabilizerChain(generators[0].degree, list(generators)).order()


def _reaches_order(generators: list[Permutation], target: int) -> bool:
    """Whether the generators produce a group of order at least target.

    Each orbit is one of a subgroup of the true point stabilizer, so the
    orbit product bounds the order below; the build stops once it reaches
    target. Even generators of degree n reach n!/2 iff they generate A_n.
    """
    chain = StabilizerChain(generators[0].degree, [])
    chain._target = target
    try:
        chain._extend(generators)
    except _Reached:
        return True
    return False


def _members_raw(pts: tuple[int, ...], parts: tuple[int, ...], img: list[int]):
    """All permutations of the given type on the given points.

    img holds the images fixed so far.  The least remaining point always
    leads its cycle, so each permutation appears exactly once.
    """
    if not pts:
        yield Permutation(tuple(img))
        return
    lead = pts[0]
    rest = pts[1:]
    for l in sorted(set(parts)):
        idx = parts.index(l)
        sub = parts[:idx] + parts[idx + 1 :]
        if l == 1:
            # lead is a fixed point; only do this once per level
            yield from _members_raw(rest, sub, img)
            continue
        for companions in itertools.permutations(rest, l - 1):
            cyc = (lead, *companions)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
            left = tuple(p for p in rest if p not in companions)
            yield from _members_raw(left, sub, img)
            for a in cyc:
                img[a] = a


def class_members(n: int, ct: CycleType, half: int | None = None):
    """Stream the S_n conjugacy class of an even cycle type.

    When the class splits in A_n, half 0 or 1 restricts to one A_n-class.
    A member's half is the parity of the sequence of its cycles, longest
    first and each from its least point, then its fixed point if any: the
    parity of a permutation carrying the consecutive-points representative
    (half 0) to it.  When the class does not split, 0 and 1 are accepted
    and ignored, and the whole class streams.
    """
    if n > 12:
        raise ValueError("class_members capped at degree 12")
    if ct.degree != n:
        raise ValueError("degree mismatch")
    if not ct.is_even():
        raise ValueError(f"cycle type {ct.parts} is odd")
    if half not in (None, 0, 1):
        raise ValueError("half must be 0 or 1")
    pick = half if ct.splits() else None
    for g in _members_raw(tuple(range(n)), ct.parts, list(range(n))):
        if pick is not None:
            seq = [p for c in sorted(g.cycles(), key=len, reverse=True) for p in c]
            seq += [p for p in range(n) if g.images[p] == p]
            if sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 != pick:
                continue
        yield g


def check_condition4_pair(
    n: int,
    ctC: CycleType,
    ctD: CycleType,
    splitC: int = 0,
    splitD: int = 0,
) -> bool:
    """Whether every (c, d) in class C x class D generates A_n.

    Fixes the first member c of C, since any pair is simultaneously
    conjugate to one (c, d), and tests one d per orbit of D under
    conjugation by the normalizer of <c> in S_n; it stops at the first d
    that fails.  class_members refuses a type of another degree, or an
    odd one.
    """
    if not 5 <= n <= 8:
        raise ValueError("pair checks cover 5 <= n <= 8")
    for ct, half in ((ctC, splitC), (ctD, splitD)):
        if half not in (0, 1):
            raise ValueError("half must be 0 or 1")
        order = ct.element_order()
        if is_prime_power(order) is None:
            raise ValueError(f"element order {order} is not a prime power")
    target = factorial(n) // 2
    c = next(class_members(n, ctC, splitC))
    # Conjugation by g in the normalizer of <c> is an automorphism of A_n
    # that maps <c, d> to <c^g, d^g> = <c, d^g>, so d and d^g generate A_n
    # with c or both fail.  An odd g carries d into the other A_n-half of a
    # split D; such images are only stored, never swept, and each stored
    # image generates with c all the same.
    seen: set[tuple[int, ...]] = set()
    maps = None
    for d in class_members(n, ctD, splitD):
        if d.images in seen:
            continue
        if not _reaches_order([c, d], target):
            return False
        if maps is None:  # most failing pairs fail at their first d
            maps = [(g.images, g.inverse().images) for g in _normalizer_generators(c)]
        seen.add(d.images)
        orbit = [d.images]
        for x in orbit:  # grows as it is read: breadth-first
            for g, g_inv in maps:
                y = tuple(map(g.__getitem__, map(x.__getitem__, g_inv)))
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
    return True


def _normalizer_generators(c: Permutation) -> list[Permutation]:
    """Generators of the normalizer of <c> in S_n.

    The centralizer is the product of Z_l wr S_m over the cycle lengths l
    of c (m cycles each) and S_f on its f fixed points: each cycle alone,
    the point-by-point swaps of consecutive equal-length cycles, and a
    transposition and a full cycle of the fixed points generate it.  The
    power map x_i -> x_(i*j mod l) on every cycle (x_0 ... x_(l-1))
    conjugates c to c^j; over the units j mod ord(c) these give the rest.
    """
    n = c.degree
    cycs = sorted(c.cycles(), key=len)

    def perm(pairs) -> Permutation:
        img = list(range(n))
        for a, b in pairs:
            img[a] = b
        return Permutation(tuple(img))

    gens = [perm(zip(cyc, cyc[1:] + cyc[:1])) for cyc in cycs]
    gens += [perm([*zip(a, b), *zip(b, a)]) for a, b in zip(cycs, cycs[1:]) if len(a) == len(b)]
    fixed = [p for p in range(n) if c.images[p] == p]
    if len(fixed) >= 2:
        gens += [perm([(fixed[0], fixed[1]), (fixed[1], fixed[0])]), perm(zip(fixed, fixed[1:] + fixed[:1]))]
    order = c.cycle_type().element_order()
    gens += [
        perm((x, cyc[i * j % len(cyc)]) for cyc in cycs for i, x in enumerate(cyc))
        for j in range(2, order)
        if gcd(j, order) == 1
    ]
    return gens


def _prime_order_classes(n: int) -> list[tuple[CycleType, int | None]]:
    """Even prime-order A_n-classes in sweep order.

    Order: prime q ascending, number of q-cycles ascending, and for a
    split type half 0 before half 1.
    """
    out: list[tuple[CycleType, int | None]] = []
    for q in filter(is_prime, range(2, n + 1)):
        for m in range(1, n // q + 1):
            if (m * (q - 1)) % 2 != 0:
                continue
            ct = CycleType(n, (q,) * m + (1,) * (n - q * m))
            if ct.splits():
                out.append((ct, 0))
                out.append((ct, 1))
            else:
                out.append((ct, None))
    return out


def check_condition5(n: int) -> tuple[CycleType, CycleType] | None:
    """First pair of prime-order classes all of whose element pairs generate A_n.

    Classes are ordered as in _prime_order_classes and unordered pairs
    swept in combinations-with-replacement order; None when every pair
    has a non-generating element pair.
    """
    if not 5 <= n <= 8:
        raise ValueError("pair checks cover 5 <= n <= 8")
    for a, b in itertools.combinations_with_replacement(_prime_order_classes(n), 2):
        # sweep the smaller class (b on a tie, as the sort is stable);
        # generation is symmetric in the pair.  A split class's half holds
        # half of its members.
        (ctC, hC), (ctD, hD) = sorted((a, b), key=lambda c: c[0].class_size() // (1 if c[1] is None else 2), reverse=True)
        if check_condition4_pair(n, ctC, ctD, splitC=hC or 0, splitD=hD or 0):
            return (a[0], b[0])
    return None


def find_condition5_failure_witness(
    n: int, ctC: CycleType, ctD: CycleType
) -> tuple[Permutation, Permutation] | None:
    """A non-generating pair from the two classes, for degree 8.

    c is the fixed-point-free involution representative; the sweep
    returns the first d whose pair with c is intransitive or generates a
    group of order 168.
    """
    if n != 8:
        raise ValueError("witness search is specific to degree 8")
    if ctC.parts != (2, 2, 2, 2):
        raise ValueError("ctC must be the fixed-point-free involution type")
    if ctD.degree != 8 or not ctD.is_even():
        raise ValueError("ctD must be an even type of degree 8")
    c = ctC.representative()
    for d in class_members(8, ctD):
        chain = StabilizerChain(8, [c, d])
        # c moves point 0, so 0 is the first base point and the first
        # basic orbit is the orbit of 0 under <c, d>
        if len(chain._trans[0]) < 8 or chain.order() == 168:
            return c, d
    return None
