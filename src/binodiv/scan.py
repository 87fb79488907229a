"""Staged range scanner for covering prime pairs.

Classifies every n in a range by the cheapest argument that produces a
prime pair (p, r) dividing all proper subgroup indices of A_n:

  prime_power    n itself is a prime power; a covering pair always exists
  sieve          window test: p**a | n and some prime power r**b satisfies
                 r**b < n < r**b + p**a
  direct         search found a partner r for the base of the largest
                 prime-power divisor of n
  other_divisor  search found a partner for some other prime divisor of n
  fail           no covering pair exists within the mode's search space

Mode "any" admits every prime pair; mode "with-two" only pairs containing
2, where failures are a real (and counted) outcome.  Bulk staging is
vectorized over chunks of 2**16 integers; the n of a chunk that resist
the cheap stages go to one batched partner search.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .arith import (
    PrimePower,
    _iroot,
    digit_sum,  # noqa: F401  (unused here; perfbench/workloads.py counts calls through this name)
    factorize,
    is_prime,
    is_prime_power,
    largest_prime_power_below,
    largest_prime_power_divisor,
    primes_upto,
)
from .conditions import (
    _BATCH,
    _condition2_many,
    _dominated_mask,
    _members,
    condition2_direct,
)

__all__ = [
    "CHUNK",
    "CSV_HEADER",
    "GapReport",
    "Histogram",
    "MAX_N",
    "MODES",
    "STAGES",
    "ScanRecord",
    "ScanSummary",
    "condition5_sieve_pair",
    "direct_search",
    "failure_histogram",
    "format_record",
    "iter_scan",
    "parse_record",
    "prime_gap_stats",
    "read_csv",
    "scan_one",
    "scan_range",
    "scan_to_csv",
    "scan_with_two",
    "sieve_pair_for",
]

CHUNK = 1 << 16
# the largest n any scan or search accepts; see _round_cap
MAX_N = 10**8
MODES = ("any", "with-two")
STAGES = ("prime_power", "sieve", "direct", "other_divisor", "fail")
_PRIME_POWER, _SIEVE, _DIRECT, _OTHER, _FAIL = range(5)

# Partner-search tuning.  Every prime below _SMALL_BOUND is a candidate;
# larger ones come from factoring the numerator terms of C(n, k0) when
# k0 <= _TERM_CAP, else from a vectorized remainder sweep.  _FILTER_MEMBERS
# leading obstruction members prune candidates before the exact test runs,
# and no digit loop takes more than _BATCH members.  _GROUP pairs (n, p)
# are searched together.
_SMALL_BOUND = 1000
_TERM_CAP = 16
_FILTER_MEMBERS = 10
_GROUP = 1024


@dataclass(frozen=True)
class ScanRecord:
    """Stage classification of one n, with the certifying data.

    witness is the covering pair (p, r) when one is recorded; sieve_pair
    carries the two prime powers of a window certificate.
    """

    n: int
    stage: str
    witness: tuple[int, int] | None = None
    sieve_pair: tuple[PrimePower, PrimePower] | None = None


@dataclass
class ScanSummary:
    """Aggregate of one scan: per-stage counts plus exceptional records."""

    lo: int
    hi: int
    mode: str
    counts: dict[str, int]
    exceptions: list[ScanRecord]
    elapsed_seconds: float

    def satisfied(self) -> int:
        """How many scanned n found a covering pair."""
        return sum(c for stage, c in self.counts.items() if stage != "fail")

    def to_json(self) -> str:
        body = {
            "lo": self.lo,
            "hi": self.hi,
            "mode": self.mode,
            "counts": dict(self.counts),
            "exceptions": [
                {
                    "n": rec.n,
                    "stage": rec.stage,
                    "p": rec.witness[0] if rec.witness else None,
                    "r": rec.witness[1] if rec.witness else None,
                }
                for rec in self.exceptions
            ],
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }
        return json.dumps(body, indent=2)


@dataclass(frozen=True)
class Histogram:
    """Failure counts bucketed by n // bucket_width, covering [0, hi]."""

    bucket_width: int
    buckets: tuple[tuple[int, int], ...]

    def total(self) -> int:
        return sum(c for _, c in self.buckets)


@dataclass(frozen=True)
class GapReport:
    """Gap statistics over consecutive primes up to a limit."""

    limit: int
    max_gap: int
    histogram: tuple[tuple[int, int], ...]


def _check_scan_n(n: int) -> None:
    if n < 9:
        raise ValueError(f"need n >= 9, got {n}")


def _check_range(lo: int, hi: int) -> None:
    if lo < 9 or hi < lo:
        raise ValueError(f"need 9 <= lo <= hi, got [{lo}, {hi}]")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


# ---------------------------------------------------------------------------
# shared prime tables


@dataclass(frozen=True)
class _ScanContext:
    cap: int
    primes: np.ndarray
    pp_values: np.ndarray
    pp_primes: np.ndarray
    sqrt_primes: np.ndarray


def _round_cap(hi: int) -> int:
    """The table cap for n up to hi: the least power of ten >= max(hi, 10**6).

    Refuses hi above MAX_N, the largest cap whose tables have been measured,
    before any table is built.
    """
    if hi > MAX_N:
        raise ValueError(f"n must be at most {MAX_N} (prime tables are built up to there), got {hi}")
    cap = 1_000_000
    while cap < hi:
        cap *= 10
    return cap


@lru_cache(maxsize=2)
def _context(cap: int) -> _ScanContext:
    ps = primes_upto(cap)
    vals = [ps]
    bases = [ps]
    e = 2
    while 2**e <= cap:
        sub = ps[: int(np.searchsorted(ps, _iroot(cap, e), side="right"))]
        vals.append(sub.astype(np.int64) ** e)
        bases.append(sub)
        e += 1
    values = np.concatenate(vals)
    value_bases = np.concatenate(bases)
    order = np.argsort(values, kind="stable")
    sqrt_primes = ps[: int(np.searchsorted(ps, _iroot(cap, 2), side="right"))]
    return _ScanContext(cap, ps, values[order], value_bases[order], sqrt_primes)


# ---------------------------------------------------------------------------
# scalar operations


def sieve_pair_for(n: int) -> tuple[PrimePower, PrimePower] | None:
    """Window certificate for n: the largest prime-power divisor p**a paired
    with the largest prime power r**b below n, when r**b < n < r**b + p**a.

    n must be at least 9 and not itself a prime power.
    """
    _check_scan_n(n)
    if is_prime_power(n) is not None:
        raise ValueError(f"{n} is a prime power")
    pa = largest_prime_power_divisor(n)
    rb = largest_prime_power_below(n)
    if rb.value + pa.value > n:
        return (pa, rb)
    return None


@lru_cache(maxsize=1)
def _small_prime_list() -> tuple[int, ...]:
    return tuple(int(q) for q in primes_upto(_SMALL_BOUND))


def _big_candidates(n: int, k0: int) -> list[int]:
    """Ascending primes q with _SMALL_BOUND < q < n dividing C(n, k0).

    For q > k0 divisibility means exactly one numerator term of C(n, k0) is
    a multiple of q, i.e. n mod q < k0; small k0 factors the terms, large
    k0 sweeps remainders over the full prime table.
    """
    if n - 1 <= _SMALL_BOUND:
        return []
    out: set[int] = set()
    if k0 <= _TERM_CAP:
        for t in range(n - k0 + 1, n + 1):
            for q, _ in factorize(t).factors:
                if _SMALL_BOUND < q < n:
                    out.add(q)
    else:
        ps = _context(_round_cap(n)).primes
        lo = int(np.searchsorted(ps, _SMALL_BOUND, side="right"))
        hi = int(np.searchsorted(ps, n, side="left"))
        sub = ps[lo:hi]
        out.update(int(q) for q in sub[(n % sub) < k0])
    return sorted(out)


def _filter_members(n: int, p: int) -> np.ndarray:
    """The _FILTER_MEMBERS least base-p obstruction members of n, ascending
    from k0 = p**v_p(n); padded with the largest when there are fewer."""
    mem = _members(n, p, _FILTER_MEMBERS)
    return mem[np.minimum(np.arange(_FILTER_MEMBERS), mem.size - 1)]


def _partner_search(ns: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """For each i the least prime r < ns[i] with condition2_direct(ns[i],
    ps[i], r), or 0 where there is none; no n may be a prime power.

    Any viable r must divide C(n, k) for every base-p obstruction member k
    (Kummer: the sum k + (n - k) carries in base r).  The candidates are
    every prime below _SMALL_BOUND, then, for the pairs still unresolved,
    the larger ones from _big_candidates.  Candidates with a leading member
    carry-free in their base are dropped, all at once, and _search_rounds
    decides the rest.  Pairs go _GROUP at a time.
    """
    found = np.zeros(ns.size, dtype=np.int64)
    small = np.array(_small_prime_list(), dtype=np.int64)
    step = _BATCH // small.size
    for a in range(0, ns.size, _GROUP):
        g = slice(a, a + _GROUP)
        n, p = ns[g], ps[g]
        lead = np.stack([_filter_members(int(x), int(y)) for x, y in zip(n, p)])
        kept = []
        for b in range(0, n.size, step):
            owner, col = np.nonzero(small[None, :] < n[b : b + step, None])
            kept.append(_filtered(lead, n, owner + b, small[col]))
        owner = np.concatenate([o for o, _ in kept])
        qs = np.concatenate([q for _, q in kept])
        _search_rounds(n, p, owner, qs, found[g])
        todo = np.flatnonzero(found[g] == 0)
        cands = [_big_candidates(int(n[i]), int(lead[i, 0])) for i in todo]
        owner = np.repeat(todo, [len(c) for c in cands])
        qs = np.array([q for c in cands for q in c], dtype=np.int64)
        _search_rounds(n, p, *_filtered(lead, n, owner, qs), found[g])
    return found


def _filtered(lead: np.ndarray, ns: np.ndarray, owner: np.ndarray, qs: np.ndarray):
    """The candidate pairs (owner[j], qs[j]) where no leading member of
    n = ns[owner[j]] is carry-free in base q = qs[j], i.e. where q divides
    C(n, k) for each.

    Where every member is below q, a member k is carry-free exactly when
    k <= n mod q (Kummer), so the test is n mod q < k0 for the least member
    k0; the other pairs run the digit loop, at most _BATCH members a call.
    """
    keep = ns[owner] % qs < lead[owner, 0]
    long = np.flatnonzero(lead[owner, -1] >= qs)
    step = _BATCH // _FILTER_MEMBERS
    for a in range(0, long.size, step):
        j = long[a : a + step]
        free = _dominated_mask(
            lead[owner[j]].ravel(),
            np.repeat(ns[owner[j]], _FILTER_MEMBERS),
            np.repeat(qs[j], _FILTER_MEMBERS),
        )
        keep[j] = ~free.reshape(-1, _FILTER_MEMBERS).any(axis=1)
    return owner[keep], qs[keep]


def _search_rounds(ns, ps, owner: np.ndarray, qs: np.ndarray, found: np.ndarray) -> None:
    """Set found[i] to the least verified candidate qs[j] with owner[j] = i,
    for every i with found[i] == 0 and such a candidate.

    owner is ascending, and qs ascending within each owner.  Round t
    decides the t-th candidate of every pair still unresolved in one
    _condition2_many call, so each pair stops at its least verified one.
    """
    rank = np.arange(owner.size) - np.searchsorted(owner, owner)
    t = 0
    while True:
        at = np.flatnonzero((rank == t) & (found[owner] == 0))
        if not at.size:
            return
        i = owner[at]
        hit = _condition2_many(ns[i], ps[i], qs[at])
        found[i[hit]] = qs[at][hit]
        t += 1


def direct_search(n: int, p: int) -> int | None:
    """Smallest prime r < n such that condition2_direct(n, p, r) holds.

    The one-pair call of the batched partner search.  For a prime power
    n = q**e the pair is accepted outright when q = p (returning 2), and
    otherwise k = 1 forces r | n, so q is the only possible partner.
    """
    _check_scan_n(n)
    _round_cap(n)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    pp = is_prime_power(n)
    if pp is not None:
        if pp.prime == p:
            return 2
        if pp.prime < n and condition2_direct(n, p, pp.prime):
            return pp.prime
        return None
    r = int(_partner_search(np.array([n], dtype=np.int64), np.array([p], dtype=np.int64))[0])
    return r or None


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


def prime_gap_stats(hi: int) -> GapReport:
    """Largest gap and gap multiplicities over consecutive primes <= hi."""
    if hi < 3:
        raise ValueError(f"need hi >= 3, got {hi}")
    _round_cap(hi)
    ps = primes_upto(hi)
    gaps = np.diff(ps)
    vals, cnts = np.unique(gaps, return_counts=True)
    return GapReport(hi, int(gaps.max()), tuple((int(g), int(c)) for g, c in zip(vals, cnts)))


# ---------------------------------------------------------------------------
# chunked staging


@dataclass
class _ChunkResult:
    lo: int
    counts: np.ndarray
    stage: np.ndarray | None
    wp: np.ndarray | None
    wr: np.ndarray | None
    pa: np.ndarray | None
    rb: np.ndarray | None
    exceptions: list[ScanRecord]


def _lppd_arrays(ctx: _ScanContext, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest prime-power divisor (value, base) for each n in the block."""
    first = int(ns[0])
    top = int(ns[-1])
    rem = ns.copy()
    best_val = np.ones(ns.size, dtype=np.int64)
    best_p = np.ones(ns.size, dtype=np.int64)
    for q in ctx.sqrt_primes:
        q = int(q)
        if q * q > top:
            break
        start = (-first) % q
        if start >= ns.size:
            continue
        sl = slice(start, None, q)
        sub = rem[sl]
        part = np.full(sub.size, q, dtype=np.int64)
        sub //= q
        idxs = np.flatnonzero(sub % q == 0)
        while idxs.size:
            sub[idxs] //= q
            part[idxs] *= q
            idxs = idxs[sub[idxs] % q == 0]
        bv = best_val[sl]
        bp = best_p[sl]
        upd = part > bv
        bv[upd] = part[upd]
        bp[upd] = q
    # whatever survives trial division is 1 or a single prime above sqrt
    upd = rem > best_val
    best_val[upd] = rem[upd]
    best_p[upd] = rem[upd]
    return best_val, best_p


def _pow2_below(ns: np.ndarray) -> np.ndarray:
    e = np.floor(np.log2((ns - 1).astype(np.float64))).astype(np.int64)
    out = np.left_shift(np.int64(1), e)
    big = out > ns - 1
    out[big] >>= 1
    small = (out << 1) <= ns - 1
    out[small] <<= 1
    return out


def _classify_residual(ns: np.ndarray, lead_p: np.ndarray, mode: str):
    """Stage codes and witness primes for residual n (none a prime power).

    With-two pins p = 2.  Any mode first searches a partner for the base of
    the largest prime-power divisor, then for each other prime divisor in
    ascending order, every round batched over the n still unresolved.
    """
    ps = np.full(ns.size, 2, dtype=np.int64) if mode == "with-two" else lead_p
    wr = _partner_search(ns, ps)
    wp = np.where(wr > 0, ps, 0)
    stage = np.where(wr > 0, _DIRECT, _FAIL).astype(np.uint8)
    if mode == "any":
        # then the other prime divisors, ascending, one round each
        todo = {
            int(i): [q for q in factorize(int(ns[i])).primes() if q != lead_p[i]]
            for i in np.flatnonzero(wr == 0)
        }
        while todo:
            i = np.fromiter(todo, dtype=np.int64)
            q = np.array([qs.pop(0) for qs in todo.values()], dtype=np.int64)
            r = _partner_search(ns[i], q)
            hit = r > 0
            stage[i[hit]], wp[i[hit]], wr[i[hit]] = _OTHER, q[hit], r[hit]
            todo = {j: qs for j, qs in todo.items() if qs and wr[j] == 0}
    return stage, wp, wr


def _classify_chunk(cap: int, a: int, b: int, mode: str, keep: bool) -> _ChunkResult:
    ctx = _context(cap)
    ns = np.arange(a, b + 1, dtype=np.int64)
    lppd_val, lppd_p = _lppd_arrays(ctx, ns)
    idx = np.searchsorted(ctx.pp_values, ns, side="left") - 1
    prevpp = ctx.pp_values[idx]
    prev_base = ctx.pp_primes[idx]

    stage = np.empty(ns.size, dtype=np.uint8)
    wp = np.zeros(ns.size, dtype=np.int64)
    wr = np.zeros(ns.size, dtype=np.int64)
    pa = np.zeros(ns.size, dtype=np.int64)
    rb = np.zeros(ns.size, dtype=np.int64)

    pp_mask = lppd_val == ns
    if mode == "any":
        stage[pp_mask] = _PRIME_POWER
        wp[pp_mask] = lppd_p[pp_mask]
        wr[pp_mask] = lppd_p[pp_mask]
        window = ~pp_mask & (prevpp + lppd_val > ns)
        stage[window] = _SIEVE
        wp[window] = lppd_p[window]
        wr[window] = prev_base[window]
        pa[window] = lppd_val[window]
        rb[window] = prevpp[window]
        residual = ~(pp_mask | window)
    else:
        two_pow = pp_mask & (np.bitwise_and(ns, ns - 1) == 0)
        stage[two_pow] = _PRIME_POWER
        wp[two_pow] = 2
        wr[two_pow] = 2
        odd_pp = pp_mask & ~two_pow
        # odd prime powers keep a pair containing 2: the base itself
        # partners with r = 2
        stage[odd_pp] = _DIRECT
        wp[odd_pp] = lppd_p[odd_pp]
        wr[odd_pp] = 2
        two_part = np.bitwise_and(ns, -ns)
        mask_a = ~pp_mask & (two_part > 1) & (prevpp + two_part > ns)
        stage[mask_a] = _SIEVE
        wp[mask_a] = 2
        wr[mask_a] = prev_base[mask_a]
        pa[mask_a] = two_part[mask_a]
        rb[mask_a] = prevpp[mask_a]
        pow2 = _pow2_below(ns)
        mask_b = ~(pp_mask | mask_a) & (lppd_val + pow2 > ns)
        stage[mask_b] = _SIEVE
        wp[mask_b] = lppd_p[mask_b]
        wr[mask_b] = 2
        pa[mask_b] = lppd_val[mask_b]
        rb[mask_b] = pow2[mask_b]
        residual = ~(pp_mask | mask_a | mask_b)

    exceptions: list[ScanRecord] = []
    res = np.flatnonzero(residual)
    if res.size:
        stage[res], wp[res], wr[res] = _classify_residual(ns[res], lppd_p[res], mode)
        for i in res[stage[res] >= _OTHER]:
            code = int(stage[i])
            witness = (int(wp[i]), int(wr[i])) if code == _OTHER else None
            exceptions.append(ScanRecord(int(ns[i]), STAGES[code], witness, None))

    counts = np.bincount(stage, minlength=len(STAGES)).astype(np.int64)
    if not keep:
        return _ChunkResult(a, counts, None, None, None, None, None, exceptions)
    return _ChunkResult(a, counts, stage, wp, wr, pa, rb, exceptions)


def _chunk_bounds(lo: int, hi: int) -> list[tuple[int, int]]:
    return [(a, min(a + CHUNK - 1, hi)) for a in range(lo, hi + 1, CHUNK)]


def _run_chunks(
    lo: int,
    hi: int,
    mode: str,
    workers: int | None,
    keep: bool,
) -> Iterator[_ChunkResult]:
    cap = _round_cap(hi)
    _context(cap)  # build before any fork so workers inherit the tables
    bounds = _chunk_bounds(lo, hi)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(bounds) <= 1:
        for a, b in bounds:
            yield _classify_chunk(cap, a, b, mode, keep)
        return
    workers = min(workers, len(bounds))
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        it = iter(bounds)
        pending: deque[futures.Future] = deque(
            pool.submit(_classify_chunk, cap, a, b, mode, keep)
            for a, b in itertools.islice(it, workers + 2)
        )
        while pending:
            res = pending.popleft().result()
            nxt = next(it, None)
            if nxt is not None:
                pending.append(pool.submit(_classify_chunk, cap, *nxt, mode, keep))
            yield res


def _pp_of(value: int, prime: int) -> PrimePower:
    e = 0
    v = value
    while v > 1:
        v //= prime
        e += 1
    return PrimePower(prime, e, value)


def _materialize(chunk: _ChunkResult) -> Iterator[ScanRecord]:
    assert chunk.stage is not None
    for i in range(chunk.stage.size):
        code = int(chunk.stage[i])
        witness = None
        pair = None
        p = int(chunk.wp[i])
        if p:
            witness = (p, int(chunk.wr[i]))
        if code == _SIEVE:
            pair = (
                _pp_of(int(chunk.pa[i]), witness[0]),
                _pp_of(int(chunk.rb[i]), witness[1]),
            )
        yield ScanRecord(chunk.lo + i, STAGES[code], witness, pair)


def iter_scan(
    lo: int,
    hi: int,
    mode: str = "any",
    *,
    workers: int | None = None,
) -> Iterator[ScanRecord]:
    """Records for lo..hi in ascending n, independent of worker count."""
    _check_range(lo, hi)
    _check_mode(mode)
    for chunk in _run_chunks(lo, hi, mode, workers, keep=True):
        yield from _materialize(chunk)


def scan_one(n: int, mode: str = "any") -> ScanRecord:
    """Classification of a single n."""
    return next(iter_scan(n, n, mode))


def _summarize(
    lo: int,
    hi: int,
    mode: str,
    workers: int | None,
    progress: Callable[[int], None] | None,
) -> ScanSummary:
    _check_range(lo, hi)
    _check_mode(mode)
    t0 = time.monotonic()
    counts = np.zeros(len(STAGES), dtype=np.int64)
    exceptions: list[ScanRecord] = []
    done = 0
    for chunk in _run_chunks(lo, hi, mode, workers, keep=False):
        counts += chunk.counts
        exceptions.extend(chunk.exceptions)
        done += int(chunk.counts.sum())
        if progress is not None:
            progress(done)
    named = {name: int(c) for name, c in zip(STAGES, counts)}
    return ScanSummary(lo, hi, mode, named, exceptions, time.monotonic() - t0)


def scan_range(
    lo: int,
    hi: int,
    *,
    workers: int | None = None,
    progress: Callable[[int], None] | None = None,
) -> ScanSummary:
    """Classify every n in [lo, hi] against arbitrary prime pairs."""
    return _summarize(lo, hi, "any", workers, progress)


def scan_with_two(
    lo: int,
    hi: int,
    *,
    workers: int | None = None,
    progress: Callable[[int], None] | None = None,
) -> ScanSummary:
    """Classify [lo, hi] with the pair search restricted to pairs containing 2."""
    return _summarize(lo, hi, "with-two", workers, progress)


def failure_histogram(
    hi: int,
    bucket_width: int,
    fail_ns: Iterable[int] | None = None,
) -> Histogram:
    """Histogram of restricted-mode failures in [9, hi].

    fail_ns, when given, must be the failing n of a previous
    scan_with_two(9, hi); otherwise that scan runs here.
    """
    if hi < 9:
        raise ValueError(f"need hi >= 9, got {hi}")
    if bucket_width < 1:
        raise ValueError(f"need bucket_width >= 1, got {bucket_width}")
    if fail_ns is None:
        summary = scan_with_two(9, hi)
        fail_ns = [rec.n for rec in summary.exceptions if rec.stage == "fail"]
    arr = np.asarray(sorted(fail_ns), dtype=np.int64)
    nbuckets = hi // bucket_width + 1
    if arr.size:
        if arr[0] < 9 or arr[-1] > hi:
            raise ValueError("failure values outside [9, hi]")
        counts = np.bincount(arr // bucket_width, minlength=nbuckets)
    else:
        counts = np.zeros(nbuckets, dtype=np.int64)
    buckets = tuple((int(i * bucket_width), int(c)) for i, c in enumerate(counts))
    return Histogram(bucket_width, buckets)


# ---------------------------------------------------------------------------
# CSV stream, checkpointed emission

CSV_HEADER = "n,stage,p,r,pa,rb"


def format_record(rec: ScanRecord) -> str:
    p = r = pa = rb = ""
    if rec.witness is not None:
        p, r = rec.witness
    if rec.sieve_pair is not None:
        pa = rec.sieve_pair[0].value
        rb = rec.sieve_pair[1].value
    return f"{rec.n},{rec.stage},{p},{r},{pa},{rb}"


def parse_record(line: str) -> ScanRecord:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 6:
        raise ValueError(f"bad record line: {line!r}")
    n = int(parts[0])
    stage = parts[1]
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    witness = (int(parts[2]), int(parts[3])) if parts[2] else None
    pair = None
    if parts[4]:
        pa = is_prime_power(int(parts[4]))
        rb = is_prime_power(int(parts[5]))
        if pa is None or rb is None or witness is None:
            raise ValueError(f"bad sieve pair in line {line!r}")
        pair = (pa, rb)
    return ScanRecord(n, stage, witness, pair)


def read_csv(path: str) -> Iterator[ScanRecord]:
    with open(path, "r", encoding="ascii") as fh:
        head = fh.readline().rstrip("\n")
        if head != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {head!r}")
        for line in fh:
            yield parse_record(line)


def _write_checkpoint(path: str, n: int) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(f"{n}\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_checkpoint(path: str) -> int | None:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return int(fh.read().strip())
    except (OSError, ValueError):
        return None


def _resume_rows(path: str, lo: int, last_n: int) -> tuple[int, dict[str, int], list[ScanRecord]] | None:
    """Drop CSV rows with n > last_n and everything from the first partial
    or malformed line on.

    Returns the n of the last row kept (lo - 1 when none is), and the stage
    counts and the exceptional records of the rows kept with n >= lo; or
    None when the file does not start with the expected header, in which
    case the caller should write a fresh file.
    """
    header = CSV_HEADER.encode("ascii")
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    last = lo - 1
    counts = dict.fromkeys(STAGES, 0)
    exceptions: list[ScanRecord] = []
    with fh:
        head = fh.readline()
        if head.rstrip(b"\n") != header or not head.endswith(b"\n"):
            return None
        offset = len(head)
        for line in fh:
            if not line.endswith(b"\n"):
                break
            try:
                n_txt, stage_txt, _ = line.split(b",", 2)
                n = int(n_txt)
                stage = stage_txt.decode("ascii")
                if n > last_n or stage not in counts:
                    break
                if n >= lo:
                    counts[stage] += 1
                    if stage in ("other_divisor", "fail"):
                        exceptions.append(parse_record(line.decode("ascii")))
            except ValueError:
                break
            offset += len(line)
            last = n
    with open(path, "r+b") as fh:
        fh.truncate(offset)
    return last, counts, exceptions


def scan_to_csv(
    lo: int,
    hi: int,
    out_path: str,
    *,
    mode: str = "any",
    checkpoint_path: str | None = None,
    checkpoint_every: int = 4096,
    workers: int | None = None,
    progress: Callable[[int], None] | None = None,
    _records: Iterable[ScanRecord] | None = None,
) -> ScanSummary:
    """Stream scan records to CSV with periodic atomic checkpoints.

    When the checkpoint file names a previous stopping point and the CSV
    starts with the header, the scan resumes after the last intact row up
    to that point and appends; an interrupted run followed by a resumed one
    therefore produces output byte-identical to a single uninterrupted
    run.  The returned summary
    covers all of [lo, hi], the rows kept from earlier runs included; its
    elapsed_seconds is this call's scanning time.  On interrupt the
    checkpoint is brought up to the last record written before the
    exception propagates.
    """
    _check_range(lo, hi)
    _check_mode(mode)
    _round_cap(hi)
    if checkpoint_every < 1:
        raise ValueError(f"need checkpoint_every >= 1, got {checkpoint_every}")
    start = lo
    open_mode = "w"
    counts = dict.fromkeys(STAGES, 0)
    exceptions: list[ScanRecord] = []
    if checkpoint_path is not None:
        done = _read_checkpoint(checkpoint_path)
        kept = _resume_rows(out_path, lo, done) if done is not None and done >= lo else None
        if kept is not None:
            # a damaged row at or below the checkpoint is scanned again
            last, counts, exceptions = kept
            start = last + 1
            open_mode = "a"
    t0 = time.monotonic()
    if start > hi:
        return ScanSummary(lo, hi, mode, counts, exceptions, 0.0)
    records = _records
    if records is None:
        records = iter_scan(start, hi, mode, workers=workers)
    last = start - 1
    with open(out_path, open_mode, encoding="ascii") as fh:
        if open_mode == "w":
            fh.write(CSV_HEADER + "\n")
        since = 0
        try:
            for rec in records:
                fh.write(format_record(rec) + "\n")
                counts[rec.stage] += 1
                if rec.stage in ("other_divisor", "fail"):
                    exceptions.append(rec)
                last = rec.n
                since += 1
                if checkpoint_path is not None and since >= checkpoint_every:
                    fh.flush()
                    _write_checkpoint(checkpoint_path, last)
                    since = 0
                    if progress is not None:
                        progress(last)
        except KeyboardInterrupt:
            fh.flush()
            if checkpoint_path is not None and last >= start:
                _write_checkpoint(checkpoint_path, last)
            raise
        fh.flush()
    if checkpoint_path is not None and last >= start:
        _write_checkpoint(checkpoint_path, last)
    return ScanSummary(lo, hi, mode, counts, exceptions, time.monotonic() - t0)
