"""Staged range scanner for covering prime pairs.

Classifies every n in a range by the cheapest argument that produces a
prime pair (p, r) dividing all proper subgroup indices of A_n:

  prime_power    n = q**e, with (q, 2), or (2, its least partner) if q = 2
  sieve          window test: p**a | n and some prime power r**b satisfies
                 r**b < n < r**b + p**a
  direct         a partner r for the base of the largest prime-power divisor
                 of n, found by search (2 for an odd prime power if 2 is pinned)
  other_divisor  search found a partner for some other prime divisor of n
  fail           no covering pair exists within the mode's search space

Mode "any" admits every prime pair; mode "with-two" only pairs containing
2, where failures are a real (and counted) outcome.  Bulk staging is
vectorized over chunks of 2**16 integers; the n of a chunk that resist
the cheap stages go to one batched partner search.  On a worker pool, a
range of at most one chunk is split into one piece per worker, and the
process that classifies a piece also makes its CSV rows; the caller
writes them, checkpoints and reports progress after each piece.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import time
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Iterator, TextIO

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
# the largest n any scan or search accepts
MAX_N = 10**8
MODES = ("any", "with-two")
# the prime every pair must contain, per mode
_PINNED = {"any": None, "with-two": 2}
STAGES = ("prime_power", "sieve", "direct", "other_divisor", "fail")
_PRIME_POWER, _SIEVE, _DIRECT, _OTHER, _FAIL = range(5)

# Partner-search tuning.  The candidates are the primes q < n dividing one
# of the k0 numerator terms of C(n, k0), k0 = p**v_p(n); those below
# _SMALL_BOUND are verified first, the rest only for the pairs still open.
_SMALL_BOUND = 1000
# pairs (n, p) searched together.  On the with-two chunk of the 2**16 n below
# 10**8 (one core, same CSV bytes) 1,024 took 4.4-5.1 s at a 65 MB peak, and
# 65,536 4.2-4.7 s at 586 MB: a wider batch saves little for much memory
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

    def to_dict(self) -> dict:
        """The JSON body of to_json, for writing with json.dump."""
        return {
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


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


def _check_max_n(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, whose square root bounds the scan's prime table, got {n}")


def _check_scan(lo: int, hi: int, mode: str, workers: int | None) -> None:
    """Refuse a bad range, mode or worker count, or hi above MAX_N, before
    any output is written."""
    if lo < 9 or hi < lo:
        raise ValueError(f"need 9 <= lo <= hi, got [{lo}, {hi}]")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if workers is not None and workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    _check_max_n(hi)


# ---------------------------------------------------------------------------
# block sieve

# the primes up to sqrt(MAX_N), which factor every n of a scan or search
_ROOT_PRIMES = primes_upto(_iroot(MAX_N, 2))


def _root_primes(top: int) -> np.ndarray:
    """The primes up to sqrt(top), top <= MAX_N."""
    return _ROOT_PRIMES[: int(np.searchsorted(_ROOT_PRIMES, _iroot(top, 2), side="right"))]


def _sieve(ends: np.ndarray, sizes: np.ndarray, primes: np.ndarray):
    """Factor blocks of consecutive integers over primes.

    Block i holds the sizes[i] integers up to ends[i]; the blocks lie end to
    end in slots.  Returns per slot the integer with the part of every prime
    of primes divided out, and its largest such prime-power part and that
    part's prime (1 and 1 where none divides it); and the pairs (i, q) with
    q dividing an integer of block i, ascending in i and then q.

    A lone block strides through the multiples of each prime up to the root
    of its length, as there are many.  Every other prime gives all of its
    multiples at once as hits, which are sorted by slot and reduced per slot.
    """
    start = np.cumsum(sizes) - sizes
    rem = np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(ends - sizes + 1 - start, sizes)
    top, top_q = np.ones_like(rem), np.ones_like(rem)
    # q divides an integer of block i exactly when ends[i] mod q < sizes[i]
    back = ends[:, None] % primes
    i, j = np.nonzero(back < sizes[:, None])
    strided = primes[:0]
    if sizes.size == 1:
        lo, hi = int(rem[0]), int(rem[-1])
        strided = primes[: int(np.searchsorted(primes, _iroot(hi - lo + 1, 2), side="right"))]
    for q in strided.tolist():
        sl = slice(-lo % q, None, q)
        # the multiples of q**e lie every q**(e - 1) places along those of q
        part, power = np.full(rem[sl].size, q, dtype=np.int64), q * q
        while power <= hi:
            part[-lo % power // q :: power // q] *= q
            power *= q
        rem[sl] //= part
        upd = part > top[sl]
        np.copyto(top[sl], part, where=upd)
        np.copyto(top_q[sl], q, where=upd)
    # the hits of every other prime, stepping down from its last multiple in
    # each block; one key per hit sorts them by slot and then prime
    far = j >= strided.size
    last = (start + sizes - 1)[i[far]] - back[i[far], j[far]]
    count = (last - start[i[far]]) // primes[j[far]] + 1
    h = np.repeat(np.arange(last.size), count)
    step = np.arange(h.size) - np.repeat(np.cumsum(count) - count, count)
    key = np.sort((last[h] - primes[j[far]][h] * step) * primes.size + j[far][h])
    slot, jq = key // primes.size, key % primes.size
    q = primes[jq]
    v, part = rem[slot] // q, q.copy()
    at = np.flatnonzero(v % q == 0)
    while at.size:
        v[at] //= q[at]
        part[at] *= q[at]
        at = at[v[at] % q[at] == 0]
    first = np.flatnonzero(np.diff(slot, prepend=-1))
    own = slot[first]
    rem[own] //= np.multiply.reduceat(part, first)
    # distinct primes have distinct parts, so the largest part names its prime
    big = np.maximum.reduceat(part * primes.size + jq, first)
    upd = big // primes.size > top[own]
    top[own[upd]], top_q[own[upd]] = big[upd] // primes.size, primes[big[upd] % primes.size]
    return rem, top, top_q, (i, primes[j])


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


def _p_part(ns: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """p**v_p(n) for each n of ns and p of ps."""
    part, at = np.ones_like(ns), np.flatnonzero(ns % ps == 0)
    while at.size:
        part[at] *= ps[at]
        at = at[ns[at] % (part[at] * ps[at]) == 0]
    return part


def _partner_search(ns: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """For each i the least prime r < ns[i] with condition2_direct(ns[i],
    ps[i], r), or 0 where there is none; no n may be a prime power, so
    Condition (1) decides each pair (by the lemma of
    conditions._condition1_many).

    Any viable r must divide C(n, k) for every base-p obstruction member k
    (Kummer: the sum k + (n - k) carries in base r), the least of which is
    k0 = p**v_p(n); so r divides one of the numerator terms n - k0 + 1,
    ..., n, and the candidates are the primes q < n that divide one, from
    _term_divisors.  The kernel decides each: a q that does not divide
    C(n, k0), such as p, leaves k0 carry-free in base q as in base p, so
    Condition (1) fails.  Every k0 must be at most CHUNK, so that no term
    block outgrows a chunk; a scan's residual n fail window A, so their k0
    is at most n minus the prime power below n.  One _condition1_many call
    decides the candidates below _SMALL_BOUND, and one more the rest of the
    pairs still open.  Pairs go _GROUP at a time.
    """
    found = np.zeros(ns.size, dtype=np.int64)
    for a in range(0, ns.size, _GROUP):
        g = slice(a, a + _GROUP)
        n, p, f = ns[g], ps[g], found[g]
        owner, qs = _term_divisors(n, _p_part(n, p))
        for small in (True, False):
            in_band = (qs < _SMALL_BOUND) == small
            o, q = owner[in_band], qs[in_band]
            at = np.flatnonzero(f[o] == 0)
            hit = at[_condition1_many(n[o[at]], p[o[at]], q[at])]
            # each row's candidates ascend, so its first hit is its least
            # verified candidate
            i, first = np.unique(o[hit], return_index=True)
            f[i] = q[hit[first]]
    return found


def _term_divisors(ns: np.ndarray, ks: np.ndarray):
    """The pairs (i, q) with q a prime below ns[i] (ns[i] not prime)
    dividing one of the numerator terms ns[i] - ks[i] + 1, ..., ns[i] of
    C(ns[i], ks[i]), ascending in i and then q, by sieving the terms as one
    block each.  After division by the primes up to sqrt(max ns), what is
    left of a term is 1 or a prime.
    """
    top = int(ns.max(initial=0))
    rem, _, _, (i, q) = _sieve(ns, ks, _root_primes(top))
    big = rem > 1
    term = np.repeat(np.arange(ns.size), ks)
    # one key per pair sorts by i, then q (no q exceeds top); a diff drops
    # repeats (np.unique hashes on numpy 2)
    scale = top + 1
    key = np.sort(np.concatenate((i, term[big])) * scale + np.concatenate((q, rem[big])))
    key = key[np.diff(key, prepend=-1) != 0]
    return key // scale, key % scale


def direct_search(n: int, p: int) -> int | None:
    """Smallest prime r < n such that condition2_direct(n, p, r) holds.

    None for p above n: every k is carry-free in base p, so r alone would
    have to divide every index, and no prime does (q divides every
    C(q**e, k) but not the index for q blocks of q**(e - 1)).  An n that is
    not a prime power, with p**v_p(n) at most CHUNK, takes the batched
    partner search.  Every other input tries candidates in turn with
    condition2_direct.  At n = q**e, k = 1 forces r = q if p != q; for p = q
    the primes are tried from 2 up, and they reach one in (n/2, n)
    (Bertrand), which divides every imprimitive index.  So at a prime n and
    p != n there is no partner r < n: direct_search(13, 11) is None, though
    condition2_direct(13, 11, 13) holds.  A larger p-part of an n that is
    not a prime power also tries the primes from 2 up: on every such input
    tried the least partner was at most 233, but an input with none would
    test every prime below n.
    """
    _check_scan_n(n)
    _check_max_n(n)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p > n:
        return None
    pp = is_prime_power(n)
    ns, ps = np.array([n], dtype=np.int64), np.array([p], dtype=np.int64)
    if pp is None and _p_part(ns, ps)[0] <= CHUNK:
        return int(_partner_search(ns, ps)[0]) or None
    rs = (pp.prime,) if pp is not None and pp.prime != p else (r for r in range(2, n) if is_prime(r))
    return next((r for r in rs if r < n and condition2_direct(n, p, r)), None)


def prime_gap_stats(hi: int) -> GapReport:
    """Largest gap and gap multiplicities over consecutive primes <= hi."""
    if hi < 3:
        raise ValueError(f"need hi >= 3, got {hi}")
    _check_max_n(hi)
    ps = primes_upto(hi)
    gaps = np.diff(ps)
    vals, cnts = np.unique(gaps, return_counts=True)
    return GapReport(hi, int(gaps.max()), tuple((int(g), int(c)) for g, c in zip(vals, cnts)))


# ---------------------------------------------------------------------------
# chunked staging


@dataclass
class _ChunkResult:
    """One piece of a scan: its first n, stage counts and exceptional
    records, and what the scan keeps of its rows (see _classify_chunk)."""

    lo: int
    counts: np.ndarray
    exceptions: list[ScanRecord]
    rows: tuple[np.ndarray, ...] | list[str] | None


def _lppd_arrays(ns: np.ndarray):
    """Largest prime-power divisor (value, base) for each n in the block."""
    rem, best_val, best_p, _ = _sieve(ns[-1:], np.array([ns.size]), _root_primes(int(ns[-1])))
    # whatever survives trial division is 1 or a single prime above sqrt
    upd = rem > best_val
    best_val[upd] = rem[upd]
    best_p[upd] = rem[upd]
    return best_val, best_p


def _pow_below(ns: np.ndarray, prime: int) -> np.ndarray:
    """The largest power of prime below each n >= 2."""
    # Python ints, so no power overflows int64 on the way past the top n
    top = int(ns.max())
    powers = [1]
    while powers[-1] * prime < top:
        powers.append(powers[-1] * prime)
    table = np.array(powers, dtype=np.int64)
    return table[np.searchsorted(table, ns, side="left") - 1]


def _classify_residual(ns: np.ndarray, base: np.ndarray, pinned: int | None):
    """Stage codes and witness primes for residual n (none a prime power).

    Searches a partner for each n's base prime; then, when no prime is
    pinned, one more search covers every other prime divisor of the n
    still open, and each n keeps the least divisor that has a partner.
    """
    wr = _partner_search(ns, base)
    wp = np.where(wr > 0, base, 0)
    stage = np.where(wr > 0, _DIRECT, _FAIL).astype(np.uint8)
    if pinned is None:
        still_open = np.flatnonzero(wr == 0).tolist()
        pairs = [(i, q) for i in still_open for q in factorize(int(ns[i])).primes() if q != base[i]]
        i, q = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        r = _partner_search(ns[i], q)
        hit = r > 0
        # i is ascending and q ascending within each i, so an n's first hit
        # is its least divisor with a partner
        at, first = np.unique(i[hit], return_index=True)
        stage[at], wp[at], wr[at] = _OTHER, q[hit][first], r[hit][first]
    return stage, wp, wr


def _classify_chunk(a: int, b: int, mode: str, keep: str | None) -> _ChunkResult:
    """One staging pipeline for both modes; mode only decides the pinned
    prime, which every pair must contain (None: any pair).

    keep chooses what comes back of the rows: nothing (None), the columns
    stage, wp, wr, pa and rb ("arrays"), or their CSV slices ("csv"), so
    that the process that classified [a, b] also formats it."""
    pinned = _PINNED[mode]
    ns = np.arange(a, b + 1, dtype=np.int64)
    lppd_val, lppd_p = _lppd_arrays(ns)
    # n is a prime power exactly when it is its own lppd; the largest prime
    # power below any other n is the last one in the chunk before n, or else
    # the one below a (the rows of prime powers never read it)
    pp_mask = lppd_val == ns
    last = np.maximum.accumulate(np.where(pp_mask, np.arange(ns.size), -1))
    below = largest_prime_power_below(a)
    prevpp = np.where(last >= 0, ns[last], below.value)
    prev_base = np.where(last >= 0, lppd_p[last], below.prime)
    # each n's base prime, its part of n and its largest power below n;
    # with nothing pinned the base is the lppd's prime and has no power
    # below, which leaves window B empty
    if pinned is None:
        base, base_part, base_below = lppd_p, lppd_val, np.zeros(ns.size, dtype=np.int64)
    else:
        base = np.full_like(ns, pinned)
        base_part, base_below = _p_part(ns, base), _pow_below(ns, pinned)

    stage = np.empty(ns.size, dtype=np.uint8)
    wp = np.zeros(ns.size, dtype=np.int64)
    wr = np.zeros(ns.size, dtype=np.int64)
    pa = np.zeros(ns.size, dtype=np.int64)
    rb = np.zeros(ns.size, dtype=np.int64)

    # n = q**e records (q, 2), or (2, its least partner) if q = 2 (README)
    stage[pp_mask] = np.where(lppd_p[pp_mask] == base[pp_mask], _PRIME_POWER, _DIRECT)
    wp[pp_mask], wr[pp_mask] = lppd_p[pp_mask], 2
    for i in np.flatnonzero(pp_mask & (lppd_p == 2)).tolist():
        wr[i] = direct_search(int(ns[i]), 2)
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
        stage[res], wp[res], wr[res] = _classify_residual(ns[res], base[res], pinned)
        for i in res[stage[res] >= _OTHER]:
            code = int(stage[i])
            witness = (int(wp[i]), int(wr[i])) if code == _OTHER else None
            exceptions.append(ScanRecord(int(ns[i]), STAGES[code], witness, None))

    counts = np.bincount(stage, minlength=len(STAGES)).astype(np.int64)
    rows = None
    if keep == "arrays":
        rows = (stage, wp, wr, pa, rb)
    elif keep == "csv":
        rows = list(_csv_slices(a, stage, wp, wr, pa, rb))
    return _ChunkResult(a, counts, exceptions, rows)


def _chunk_bounds(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    """The pieces of [lo, hi]: CHUNK n each from lo, or, for a range of at
    most CHUNK n, min(workers, its length) pieces of near-equal length."""
    size = hi - lo + 1
    if size > CHUNK:
        return [(a, min(a + CHUNK - 1, hi)) for a in range(lo, hi + 1, CHUNK)]
    k = min(workers, size)
    cuts = [lo + i * size // k for i in range(k + 1)]
    return [(a, b - 1) for a, b in zip(cuts, cuts[1:])]


# this process's worker pool as (pid, worker count, pool): made by the first
# call of more than one piece on more than one worker, and kept for later ones
_pool: tuple[int, int, futures.ProcessPoolExecutor] | None = None


def _close_pool() -> None:
    """Shut down the kept pool and join its threads, so that no later fork
    runs beside them.  A pool inherited through a fork is only forgotten:
    its threads stayed in the parent, and its locks may be held there."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown(wait=True)
    _pool = None


# freed before interpreter teardown, which the pool's finalizers need
atexit.register(_close_pool)


def _worker_pool(workers: int) -> futures.ProcessPoolExecutor:
    """The kept pool of this many workers, replacing one of another count;
    they fork, though Python 3.14 makes forkserver the default."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _close_pool()
        import multiprocessing  # here, as in futures: a process that makes no pool never loads it
        _pool = (os.getpid(), workers, futures.ProcessPoolExecutor(workers, multiprocessing.get_context("fork")))
    return _pool[2]


def _run_chunks(
    lo: int,
    hi: int,
    mode: str,
    workers: int | None,
    keep: str | None,
) -> Iterator[_ChunkResult]:
    """The pieces of [lo, hi] (see _chunk_bounds) in ascending order, each
    keeping the rows that keep chooses (see _classify_chunk).

    With more than one piece and more than one worker they run on the kept
    pool, of at most os.cpu_count() workers (None: that many), at most
    workers + 2 at a time; so a range of one chunk is split across the
    workers, and only a one-n range stays in this process.  The workers see
    module state as of the fork that made them, not names patched since.
    A consumer that stops early cancels the pieces not yet started and
    keeps the pool; a worker's death raises BrokenProcessPool, and the
    next call forks anew.
    """
    _check_scan(lo, hi, mode, workers)
    # the pool forks all of its workers at the first submit
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    bounds = _chunk_bounds(lo, hi, workers)
    if workers == 1 or len(bounds) <= 1:
        for a, b in bounds:
            yield _classify_chunk(a, b, mode, keep)
        return
    pool = _worker_pool(workers)
    it = iter(bounds)
    pending: deque[futures.Future] = deque()
    try:
        for a, b in itertools.islice(it, workers + 2):
            pending.append(pool.submit(_classify_chunk, a, b, mode, keep))
        while pending:
            res = pending.popleft().result()
            nxt = next(it, None)
            if nxt is not None:
                pending.append(pool.submit(_classify_chunk, *nxt, mode, keep))
            yield res
    except futures.process.BrokenProcessPool:
        _close_pool()
        raise
    finally:
        for fut in pending:
            fut.cancel()


def _pp_of(value: int, prime: int) -> PrimePower:
    # own loop: len(digits(...)) took 85% longer, once per sieve record
    e, v = 0, value
    while v > 1:
        v, e = v // prime, e + 1
    return PrimePower(prime, e, value)


def _materialize(chunk: _ChunkResult) -> Iterator[ScanRecord]:
    for n, (code, p, r, pa, rb) in enumerate(zip(*(col.tolist() for col in chunk.rows)), chunk.lo):
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
    for chunk in _run_chunks(lo, hi, mode, workers, keep="arrays"):
        yield from _materialize(chunk)


def scan_one(n: int, mode: str = "any") -> ScanRecord:
    """Classification of a single n."""
    return next(iter_scan(n, n, mode))


def _summarize(
    lo: int,
    hi: int,
    mode: str,
    workers: int | None,
    progress: Callable[[int, int], None] | None,
    sink: TextIO | None = None,
    after: Callable[[int], None] | None = None,
) -> ScanSummary:
    """Counts and exceptions of [lo, hi], the one fold over a scan's pieces
    (see _run_chunks).

    After each piece in turn: its CSV rows, made by the process that
    classified it, go to sink when one is given, one write per slice and
    then a flush; after gets the piece's last n, so a checkpoint written
    there covers only rows already flushed; then the piece is counted, and
    progress gets the n done and the n in all.
    """
    t0 = time.monotonic()
    counts = np.zeros(len(STAGES), dtype=np.int64)
    exceptions: list[ScanRecord] = []
    done = 0
    for chunk in _run_chunks(lo, hi, mode, workers, keep=None if sink is None else "csv"):
        size = int(chunk.counts.sum())
        if sink is not None:
            for text in chunk.rows:
                sink.write(text)
            sink.flush()
        if after is not None:
            after(chunk.lo + size - 1)
        counts += chunk.counts
        exceptions.extend(chunk.exceptions)
        done += size
        if progress is not None:
            progress(done, hi - lo + 1)
    named = {name: int(c) for name, c in zip(STAGES, counts)}
    return ScanSummary(lo, hi, mode, named, exceptions, time.monotonic() - t0)


def scan_range(
    lo: int,
    hi: int,
    *,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ScanSummary:
    """Classify every n in [lo, hi] against arbitrary prime pairs."""
    return _summarize(lo, hi, "any", workers, progress)


def scan_with_two(
    lo: int,
    hi: int,
    *,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ScanSummary:
    """Classify [lo, hi] with the pair search restricted to pairs containing 2."""
    return _summarize(lo, hi, "with-two", workers, progress)


def failure_histogram(hi: int, bucket_width: int) -> Histogram:
    """Histogram of the failures of scan_with_two(9, hi)."""
    if hi < 9:
        raise ValueError(f"need hi >= 9, got {hi}")
    if bucket_width < 1:
        raise ValueError(f"need bucket_width >= 1, got {bucket_width}")
    fails = np.array([rec.n for rec in scan_with_two(9, hi).exceptions if rec.stage == "fail"], dtype=np.int64)
    counts = np.bincount(fails // bucket_width, minlength=hi // bucket_width + 1)
    buckets = tuple((int(i * bucket_width), int(c)) for i, c in enumerate(counts))
    return Histogram(bucket_width, buckets)


# ---------------------------------------------------------------------------
# CSV stream, checkpointed emission

CSV_HEADER = "n,stage,p,r,pa,rb"
# rows formatted and written at a time: 2,048 rows took 24-34 ms per 2**16
# chunk, the whole chunk at once 41-45 ms, as its buffers left the cache
_SLICE = 2048

# _csv_slices lays each field of a row out in a 16-byte slot: a number's
# decimal digits right-aligned in the first _DIGITS bytes, four to a
# uint32 word, or a stage name from the slot's start; then the field's
# separator.  A keep mask per slot drops the leading zeros (all the digits
# of a 0, an empty field) and the padding.
_DIGITS = 12
_SLOT = 16
if len(str(MAX_N)) > _DIGITS:
    raise ValueError(f"MAX_N = {MAX_N} has more digits than the {_DIGITS} a CSV field holds")
# the ASCII digits of 0..9999, zero-padded to four, as one uint32 each;
# in uint16 its temporaries raised peak RSS by 0.1 MB, in int64 by 0.8-1.1 MB
_QUADS = (
    (np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
# a number's digit count (0 for 0) is its searchsorted place in _POW10
_POW10 = 10 ** np.arange(_DIGITS, dtype=np.int64)
# keep masks of a slot: rows 0.._DIGITS by digit count, then one per stage
# (set by slices: broadcast comparisons raised peak RSS by 0.4 MB at import)
_KEEP = np.zeros((_DIGITS + 1 + len(STAGES), _SLOT), dtype=bool)
for _d in range(_DIGITS + 1):
    _KEEP[_d, _DIGITS - _d : _DIGITS + 1] = True
for _d, _name in enumerate(STAGES, _DIGITS + 1):
    _KEEP[_d, : len(_name) + 1] = True
_STAGE_WORDS = np.array([name.encode("ascii") + b"," for name in STAGES], dtype=f"S{_SLOT}").view(np.uint32).reshape(len(STAGES), -1)
# the separator word of each slot of a row: n, stage, p, r, pa, rb
_SEP_WORDS = np.array([b","] * 5 + [b"\n"], dtype="S4").view(np.uint32)


def format_record(rec: ScanRecord) -> str:
    p = r = pa = rb = ""
    if rec.witness is not None:
        p, r = rec.witness
    if rec.sieve_pair is not None:
        pa = rec.sieve_pair[0].value
        rb = rec.sieve_pair[1].value
    return f"{rec.n},{rec.stage},{p},{r},{pa},{rb}"


def _record_fields(line: str) -> list[str]:
    """The fields n, stage, p, r, pa, rb of a CSV row, each number in decimal
    digits with no leading zero (no number is 0; an empty field means none).
    They fit the stage: a witness p, r exactly when the stage is not fail,
    and a sieve pair pa, rb exactly when it is sieve."""
    parts = line.rstrip("\n").split(",")
    if len(parts) != 6:
        raise ValueError(f"bad record line: {line!r}")
    n, stage, p, r, pa, rb = parts
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    witness, pair = stage != "fail", stage == "sieve"
    if (bool(p), bool(r), bool(pa), bool(rb)) != (witness, witness, pair, pair) or not (n + p + r + pa + rb).isdecimal():
        raise ValueError(f"fields do not fit stage {stage!r} in line {line!r}")
    if "0" in (n[:1], p[:1], r[:1], pa[:1], rb[:1]):
        raise ValueError(f"leading zero in line {line!r}")
    return parts


def parse_record(line: str) -> ScanRecord:
    parts = _record_fields(line)
    n, stage = int(parts[0]), parts[1]
    witness = (int(parts[2]), int(parts[3])) if parts[2] else None
    pair = None
    if parts[4]:
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


def _csv_slices(lo: int, stages: np.ndarray, *cols: np.ndarray) -> Iterator[str]:
    """The CSV lines of the rows n = lo, lo + 1, ... as format_record writes
    them, one string per _SLICE rows, built from the columns stage, wp, wr,
    pa and rb with no Python step per row.  A 0 in wp, wr, pa or rb means
    no witness or no sieve pair, so it becomes an empty field."""
    for a in range(0, stages.size, _SLICE):
        sl = slice(a, a + _SLICE)
        stage = stages[sl]
        # a row's numbers by slot, the stage's slot holding 0
        nums = np.zeros((stage.size, 6), dtype=np.int64)
        nums[:, 0] = np.arange(lo + a, lo + a + stage.size)
        for j, col in enumerate(cols, 2):
            nums[:, j] = col[sl]
        # the digit groups of each number, most significant first; division
        # by a scalar, as numpy divides by an array several times slower
        groups = np.empty((stage.size, 6, _DIGITS // 4), dtype=np.int64)
        rest = nums
        for w in range(_DIGITS // 4 - 1, -1, -1):
            high = rest // 10**4
            groups[:, :, w] = rest - high * 10**4
            rest = high
        words = np.empty((stage.size, 6, _SLOT // 4), dtype=np.uint32)
        words[:, :, :-1] = np.take(_QUADS, groups)
        words[:, :, -1] = _SEP_WORDS
        words[:, 1] = np.take(_STAGE_WORDS, stage, axis=0)
        which = np.searchsorted(_POW10, nums, side="right")
        which[:, 1] = stage + (_DIGITS + 1)
        keep = np.take(_KEEP, which, axis=0)
        yield words.view(np.uint8)[keep].tobytes().decode("ascii")


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
                text = line.decode("ascii")
                n_txt, stage = _record_fields(text)[:2]
                n = int(n_txt)
                if n != last + 1 or n > last_n:
                    break
                if stage in ("other_divisor", "fail"):
                    exceptions.append(parse_record(text))
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
    progress: Callable[[int, int], None] | None = None,
) -> ScanSummary:
    """Stream scan records to CSV, with an atomic checkpoint after each piece
    (see _run_chunks).

    The checkpoint is JSON holding mode, lo and hi of the call and the last
    n of the last fully written piece.  When it names an earlier stopping
    point of the same call and the CSV starts with the header, the scan
    resumes after the last intact row up to that point and appends, so an
    interrupted and resumed run writes the bytes of an uninterrupted one.
    Rows above the checkpoint, left by an interrupt or a crash inside a
    piece, are dropped on resume and written again.  A checkpoint of another
    mode or range, or one without them, raises ValueError before the CSV is
    opened.  progress gets the count of n written so far in this call and
    the count of n this call writes.  The summary covers all of [lo, hi],
    rows kept from earlier runs included; its elapsed_seconds is this
    call's scanning time.
    """
    _check_scan(lo, hi, mode, workers)
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
    if start > hi:
        return ScanSummary(lo, hi, mode, counts, exceptions, 0.0)
    after = None if checkpoint_path is None else lambda n: _write_checkpoint(checkpoint_path, run, n)
    with open(out_path, open_mode, encoding="ascii") as fh:
        if open_mode == "w":
            fh.write(CSV_HEADER + "\n")
        new = _summarize(start, hi, mode, workers, progress, fh, after)
    merged = {name: counts[name] + new.counts[name] for name in STAGES}
    return ScanSummary(lo, hi, mode, merged, exceptions + new.exceptions, new.elapsed_seconds)
