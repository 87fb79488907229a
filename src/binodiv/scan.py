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
from typing import Callable, Iterable, Iterator, TextIO

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
from .conditions import _condition1_many, condition2_direct

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
# the prime every pair must contain, per mode
_PINNED = {"any": None, "with-two": 2}
STAGES = ("prime_power", "sieve", "direct", "other_divisor", "fail")
_PRIME_POWER, _SIEVE, _DIRECT, _OTHER, _FAIL = range(5)

# Partner-search tuning.  The candidates are the prime divisors of C(n, k0),
# k0 = p**v_p(n); those below _SMALL_BOUND are verified first, the rest
# only for the pairs still open.  _GROUP pairs (n, p) are searched together.
_SMALL_BOUND = 1000
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


def _check_scan(lo: int, hi: int, mode: str) -> int:
    """Refuse a bad range or mode, or hi above MAX_N, before any table is
    built or any output written; returns the table cap for hi."""
    if lo < 9 or hi < lo:
        raise ValueError(f"need 9 <= lo <= hi, got [{lo}, {hi}]")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return _round_cap(hi)


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


def _partner_search(ns: np.ndarray, ps: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """For each i the least prime r < ns[i] with condition2_direct(ns[i],
    ps[i], r), or 0 where there is none; no n may be a prime power, so
    Condition (1) decides each pair (see _condition1_many), and the prime
    table must reach every n.

    Any viable r must divide C(n, k) for every base-p obstruction member k
    (Kummer: the sum k + (n - k) carries in base r), the least of which is
    k0 = p**v_p(n); so the candidates are the prime divisors of C(n, k0).
    They come from _term_divisors, or, where factoring the k0 numerator
    terms costs more remainders than there are primes below n, from
    _swept.  _least_verified decides the candidates below _SMALL_BOUND
    first, then the rest of the pairs still open.  Pairs go _GROUP at a
    time.
    """
    found = np.zeros(ns.size, dtype=np.int64)
    split = int(np.searchsorted(primes, _SMALL_BOUND))
    for a in range(0, ns.size, _GROUP):
        g = slice(a, a + _GROUP)
        n, p = ns[g], ps[g]
        k0 = np.ones_like(n)
        while (more := n % (k0 * p) == 0).any():
            k0[more] *= p[more]
        # factoring takes k0 remainders per prime up to sqrt(n), the sweep one per prime below n
        root_pi, n_pi = np.searchsorted(primes, (np.sqrt(n), n), side="right")
        sweep = k0 * root_pi > n_pi
        owner, qs = _term_divisors(n, k0, np.flatnonzero(~sweep), primes)
        for band, in_band in ((primes[:split], qs < _SMALL_BOUND), (primes[split:], qs >= _SMALL_BOUND)):
            more_owner, more_qs = _swept(n, k0, np.flatnonzero(sweep & (found[g] == 0)), band)
            o, q = np.concatenate((owner[in_band], more_owner)), np.concatenate((qs[in_band], more_qs))
            order = np.argsort(o, kind="stable")
            _least_verified(n, p, o[order], q[order], found[g])
    return found


def _term_divisors(ns: np.ndarray, ks: np.ndarray, rows: np.ndarray, primes: np.ndarray):
    """The pairs (i, q), i in rows, with q a prime dividing C(ns[i], ks[i]),
    ascending in i and then q, by factoring the numerator terms
    ns[i] - ks[i] + 1, ..., ns[i]; the prime table must reach sqrt(ns).

    A prime q divides one of the k consecutive terms ending at n exactly
    when n mod q < k.  After division by the primes up to sqrt(max ns),
    what is left of a term is 1 or a prime.
    """
    n, k = ns[rows], ks[rows]
    low = primes[: int(np.searchsorted(primes, _iroot(int(n.max(initial=0)), 2), side="right"))]
    i, j = np.nonzero(n[:, None] % low < k[:, None])
    term = np.repeat(np.arange(rows.size), k)
    rem = n[term] - np.arange(term.size) + np.repeat(np.cumsum(k) - k, k)
    for q in np.unique(low[j]).tolist():
        at = np.flatnonzero(rem % q == 0)
        while at.size:
            rem[at] //= q
            at = at[rem[at] % q == 0]
    big = rem > 1
    # one key per pair sorts by i, then q, and drops repeats
    key = np.unique(np.concatenate((i, term[big])) * MAX_N + np.concatenate((low[j], rem[big])))
    return _binomial_divisors(ns, ks, rows[key // MAX_N], key % MAX_N)


def _swept(ns: np.ndarray, ks: np.ndarray, rows: np.ndarray, band: np.ndarray):
    """The pairs (i, q), i in rows, with q a prime of band below ns[i]
    dividing C(ns[i], ks[i]), ascending in i and then q; one remainder per
    prime."""
    owner, qs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for i in rows.tolist():
        sub = band[: int(np.searchsorted(band, ns[i]))]
        qs.append(sub[ns[i] % sub < ks[i]])
        owner.append(np.full(qs[-1].size, i))
    return _binomial_divisors(ns, ks, np.concatenate(owner), np.concatenate(qs))


def _binomial_divisors(ns: np.ndarray, ks: np.ndarray, owner: np.ndarray, qs: np.ndarray):
    """The pairs (owner[j], qs[j]) with qs[j] dividing C(ns[owner[j]], ks[owner[j]]),
    by Legendre: v_q(C(n, k)) sums n // q**e - k // q**e - (n - k) // q**e over e >= 1."""
    n, k = ns[owner], ks[owner]
    v, power = np.zeros_like(qs), qs.copy()
    while (live := power <= n).any():
        v += n // power - k // power - (n - k) // power
        power[live] *= qs[live]
    return owner[v > 0], qs[v > 0]


def _least_verified(ns, ps, owner: np.ndarray, qs: np.ndarray, found: np.ndarray) -> None:
    """Set found[i] to the least verified candidate qs[j] with owner[j] = i,
    for every i with found[i] == 0 and such a candidate; owner is ascending,
    and qs ascending within each owner.  One _condition1_many call decides
    each pair's least candidate, which settles most pairs that have a
    partner, and a second all other candidates of the pairs still open.
    """
    least = np.diff(owner, prepend=-1) != 0
    for tier in (least, ~least):
        at = np.flatnonzero(tier & (found[owner] == 0))
        hit = at[_condition1_many(ns[owner[at]], ps[owner[at]], qs[at])]
        # the first hit of each owner holds its least verified candidate
        i, first = np.unique(owner[hit], return_index=True)
        found[i] = qs[hit[first]]


def direct_search(n: int, p: int) -> int | None:
    """Smallest prime r < n such that condition2_direct(n, p, r) holds.

    The one-pair call of the batched partner search.  For a prime power
    n = q**e the pair is accepted outright when q = p (returning 2), and
    otherwise k = 1 forces r | n, so q is the only possible partner.
    """
    _check_scan_n(n)
    cap = _round_cap(n)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    pp = is_prime_power(n)
    if pp is not None:
        if pp.prime == p:
            return 2
        if pp.prime < n and condition2_direct(n, p, pp.prime):
            return pp.prime
        return None
    r = int(_partner_search(np.array([n], dtype=np.int64), np.array([p], dtype=np.int64), _context(cap).primes)[0])
    return r or None


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


def _lppd_arrays(ctx: _ScanContext, ns: np.ndarray, pinned: int | None):
    """Largest prime-power divisor (value, base) for each n in the block,
    and the base prime's part of each n: the pinned prime's part, or the
    lppd value itself when nothing is pinned."""
    first = int(ns[0])
    top = int(ns[-1])
    rem = ns.copy()
    best_val = np.ones(ns.size, dtype=np.int64)
    best_p = np.ones(ns.size, dtype=np.int64)
    base_part = best_val if pinned is None else np.ones(ns.size, dtype=np.int64)
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
        if q == pinned:
            base_part[sl] = part
        bv = best_val[sl]
        bp = best_p[sl]
        upd = part > bv
        bv[upd] = part[upd]
        bp[upd] = q
    # whatever survives trial division is 1 or a single prime above sqrt
    upd = rem > best_val
    best_val[upd] = rem[upd]
    best_p[upd] = rem[upd]
    return best_val, best_p, base_part


def _pow_below(ns: np.ndarray, prime: int) -> np.ndarray:
    """The largest power of prime below each n >= 2."""
    # Python ints, so no power overflows int64 on the way past the top n
    top = int(ns.max())
    powers = [1]
    while powers[-1] * prime < top:
        powers.append(powers[-1] * prime)
    table = np.array(powers, dtype=np.int64)
    return table[np.searchsorted(table, ns, side="left") - 1]


def _classify_residual(ctx: _ScanContext, ns: np.ndarray, base: np.ndarray, pinned: int | None):
    """Stage codes and witness primes for residual n (none a prime power).

    Searches a partner for each n's base prime; then, when no prime is
    pinned, one more search covers every other prime divisor of the n
    still open, and each n keeps the least divisor that has a partner.
    """
    wr = _partner_search(ns, base, ctx.primes)
    wp = np.where(wr > 0, base, 0)
    stage = np.where(wr > 0, _DIRECT, _FAIL).astype(np.uint8)
    if pinned is None:
        still_open = np.flatnonzero(wr == 0).tolist()
        pairs = [(i, q) for i in still_open for q in factorize(int(ns[i])).primes() if q != base[i]]
        i, q = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        r = _partner_search(ns[i], q, ctx.primes)
        hit = r > 0
        # i is ascending and q ascending within each i, so an n's first hit
        # is its least divisor with a partner
        at, first = np.unique(i[hit], return_index=True)
        stage[at], wp[at], wr[at] = _OTHER, q[hit][first], r[hit][first]
    return stage, wp, wr


def _classify_chunk(cap: int, a: int, b: int, mode: str, keep: bool) -> _ChunkResult:
    """One staging pipeline for both modes; mode only decides the pinned
    prime, which every pair must contain (None: any pair)."""
    pinned = _PINNED[mode]
    ctx = _context(cap)
    ns = np.arange(a, b + 1, dtype=np.int64)
    lppd_val, lppd_p, base_part = _lppd_arrays(ctx, ns, pinned)
    idx = np.searchsorted(ctx.pp_values, ns, side="left") - 1
    prevpp = ctx.pp_values[idx]
    prev_base = ctx.pp_primes[idx]
    # each n's base prime and its largest power below n; with nothing
    # pinned the base is the lppd's prime and has no power below, which
    # leaves window B empty
    if pinned is None:
        base, base_below = lppd_p, np.zeros(ns.size, dtype=np.int64)
    else:
        base, base_below = np.full_like(ns, pinned), _pow_below(ns, pinned)

    stage = np.empty(ns.size, dtype=np.uint8)
    wp = np.zeros(ns.size, dtype=np.int64)
    wr = np.zeros(ns.size, dtype=np.int64)
    pa = np.zeros(ns.size, dtype=np.int64)
    rb = np.zeros(ns.size, dtype=np.int64)

    # n = q**e pairs q with the base prime (q itself unless another is pinned)
    pp_mask = lppd_val == ns
    stage[pp_mask] = np.where(lppd_p[pp_mask] == base[pp_mask], _PRIME_POWER, _DIRECT)
    wp[pp_mask], wr[pp_mask] = lppd_p[pp_mask], base[pp_mask]
    # window A: the base prime's part of n and the largest prime power
    # below n; window B: the lppd and the largest power of the base prime
    # below n
    win_a = ~pp_mask & (prevpp + base_part > ns)
    win_b = ~(pp_mask | win_a) & (lppd_val + base_below > ns)
    for win, cols in ((win_a, (base, prev_base, base_part, prevpp)), (win_b, (lppd_p, base, lppd_val, base_below))):
        stage[win] = _SIEVE
        # copyto makes no fancy-indexed temporaries, which raised peak RSS
        for dst, src in zip((wp, wr, pa, rb), cols):
            np.copyto(dst, src, where=win)

    exceptions: list[ScanRecord] = []
    res = np.flatnonzero(~(pp_mask | win_a | win_b))
    if res.size:
        stage[res], wp[res], wr[res] = _classify_residual(ctx, ns[res], base[res], pinned)
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
    cap = _check_scan(lo, hi, mode)
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
    # own loop: len(digits(...)) took 85% longer, once per sieve record
    e, v = 0, value
    while v > 1:
        v, e = v // prime, e + 1
    return PrimePower(prime, e, value)


def _materialize(chunk: _ChunkResult) -> Iterator[ScanRecord]:
    cols = (chunk.stage, chunk.wp, chunk.wr, chunk.pa, chunk.rb)
    for n, (code, p, r, pa, rb) in enumerate(zip(*(col.tolist() for col in cols)), chunk.lo):
        pair = (_pp_of(pa, p), _pp_of(rb, r)) if code == _SIEVE else None
        yield ScanRecord(n, STAGES[code], (p, r) if p else None, pair)


def iter_scan(
    lo: int,
    hi: int,
    mode: str = "any",
    *,
    workers: int | None = None,
) -> Iterator[ScanRecord]:
    """Records for lo..hi in ascending n, independent of worker count."""
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
# rows per writelines call; formatting a whole chunk at once raised peak RSS
_SLICE = 1024


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
    # a row has a witness exactly when its stage is not fail, and a sieve
    # pair exactly when its stage is sieve
    has_witness, has_pair = any(parts[2:4]), any(parts[4:6])
    if has_witness != (stage != "fail") or has_pair != (stage == "sieve"):
        raise ValueError(f"fields do not fit stage {stage!r} in line {line!r}")
    witness = (int(parts[2]), int(parts[3])) if has_witness else None
    pair = None
    if has_pair:
        pa = is_prime_power(int(parts[4]))
        rb = is_prime_power(int(parts[5]))
        if pa is None or rb is None:
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


def _csv_slices(chunk: _ChunkResult) -> Iterator[list[str]]:
    """The chunk's CSV lines as format_record writes them, _SLICE rows at a
    time, formatted column-wise from its arrays.  A 0 in wp, wr, pa or rb
    means no witness or no sieve pair, so it becomes an empty field."""
    for a in range(0, chunk.stage.size, _SLICE):
        sl = slice(a, a + _SLICE)
        names = [STAGES[code] for code in chunk.stage[sl].tolist()]
        cols = ([v or "" for v in col[sl].tolist()] for col in (chunk.wp, chunk.wr, chunk.pa, chunk.rb))
        rows = zip(range(chunk.lo + a, chunk.lo + a + len(names)), names, *cols)
        yield [f"{n},{stage},{p},{r},{pa},{rb}\n" for n, stage, p, r, pa, rb in rows]


def _write_csv(fh: TextIO, lo: int, hi: int, mode: str, workers: int | None) -> Iterator[_ChunkResult]:
    """Write the CSV rows of [lo, hi] to fh, yielding each chunk once all
    of its rows are written."""
    for chunk in _run_chunks(lo, hi, mode, workers, keep=True):
        for rows in _csv_slices(chunk):
            fh.writelines(rows)
        yield chunk


def _write_checkpoint(path: str, run: dict, n: int) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(json.dumps({**run, "last": n}) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_checkpoint(path: str, run: dict) -> int | None:
    """The last n that a checkpoint of this run (mode, lo and hi) records,
    or None when the file is missing or holds no JSON; a checkpoint of
    another run, or one without mode and range, is refused."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
        saved = json.loads(text)
    except (OSError, ValueError):
        return None
    if not isinstance(saved, dict) or {k: saved.get(k) for k in run} != run or not isinstance(saved.get("last"), int):
        raise ValueError(f"checkpoint {path} holds {text.strip()}; this scan is {run['mode']} on [{run['lo']}, {run['hi']}]")
    return saved["last"]


def _resume_rows(path: str, lo: int, last_n: int) -> tuple[int, dict[str, int], list[ScanRecord]] | None:
    """Keep the rows n = lo, lo + 1, ... up to last_n; drop everything from
    the first partial, malformed or out-of-sequence line on (a missing or a
    repeated row ends the kept rows).

    Returns the n of the last row kept (lo - 1 when none is), and the stage
    counts and the exceptional records of the rows kept; or None when the
    file does not start with the expected header, in which case the caller
    should write a fresh file.
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
                if n != last + 1 or n > last_n or stage not in counts:
                    break
                if stage in ("other_divisor", "fail"):
                    exceptions.append(parse_record(line.decode("ascii")))
                counts[stage] += 1
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
    workers: int | None = None,
    progress: Callable[[int], None] | None = None,
) -> ScanSummary:
    """Stream scan records to CSV, with an atomic checkpoint after each chunk.

    The checkpoint is JSON holding mode, lo and hi of the call and the last
    n of the last fully written chunk.  When it names an earlier stopping
    point of the same call and the CSV starts with the header, the scan
    resumes after the last intact row up to that point and appends, so an
    interrupted and resumed run writes the bytes of an uninterrupted one.
    Rows above the checkpoint, left by an interrupt or a crash inside a
    chunk, are dropped on resume and written again.  A checkpoint of another
    mode or range, or one without them, raises ValueError before the CSV is
    opened.  progress gets the count of n written so far in this call.  The
    summary covers all of [lo, hi], rows kept from earlier runs included;
    its elapsed_seconds is this call's scanning time.
    """
    _check_scan(lo, hi, mode)
    run = {"mode": mode, "lo": lo, "hi": hi}
    start = lo
    open_mode = "w"
    counts = dict.fromkeys(STAGES, 0)
    exceptions: list[ScanRecord] = []
    if checkpoint_path is not None:
        done = _read_checkpoint(checkpoint_path, run)
        kept = _resume_rows(out_path, lo, done) if done is not None else None
        if kept is not None:
            # a damaged row at or below the checkpoint is scanned again
            last, counts, exceptions = kept
            start = last + 1
            open_mode = "a"
    t0 = time.monotonic()
    if start > hi:
        return ScanSummary(lo, hi, mode, counts, exceptions, 0.0)
    with open(out_path, open_mode, encoding="ascii") as fh:
        if open_mode == "w":
            fh.write(CSV_HEADER + "\n")
        for chunk in _write_csv(fh, start, hi, mode, workers):
            last = chunk.lo + chunk.stage.size - 1
            fh.flush()
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, run, last)
            for name, c in zip(STAGES, chunk.counts):
                counts[name] += int(c)
            exceptions.extend(chunk.exceptions)
            if progress is not None:
                progress(last - start + 1)
    return ScanSummary(lo, hi, mode, counts, exceptions, time.monotonic() - t0)
