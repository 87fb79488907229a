"""Benchmark workloads; each phase runs in a fresh interpreter started by run.py.

    python3 perfbench/workloads.py --phase PHASE --workload NAME --seed N \
        --workers W --seconds S --tmp DIR [--spans FILE]

PYTHONPATH must put the checkout's src directory first.  Phases:

  setup   import binodiv and make the warm-up calls; report their time
  bare    set up, then time one pass over the workload's units
  run     set up, then repeat passes over the units until --seconds of timed
          work (at least MIN_PASSES); read the peak RSS after the first pass,
          check every pass's output, and from the second pass on also time
          the two-route re-check of the certificates the first pass gave
  traced  like bare, with spans around the calls into every module, then
          check the output and report per-layer metrics

A workload is a list of units, each one call into the program: a scan of
one window of n, one CLI scan writing one window to CSV, or one exact
computation or point query.  A unit's time is the median over the passes.

Times are scaled to a fixed machine speed.  The cores of a shared host can
run 1.4 times slower for a minute or more (seen on a 2-vCPU KVM guest), so
between units the timer runs a fixed calibration computation (benchmark
code, never the program's) every CAL_EVERY seconds, and reports each
measured time t as t * CAL_S / c, where c is the median calibration time
within CAL_WINDOW seconds of the call.  A change to the program moves its
time and leaves c alone; a slow spell of the host moves both.  The unscaled
times go to the results file too.

The last line of standard output is one JSON object.  The seed draws the
small-exact point queries and every verification sample; the windows are
fixed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Stat, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# (mode, lo, hi, windows, width): `windows` evenly spaced windows of `width`
# n each, the first starting at lo and the last ending at hi.
SCANS = {
    "any-1e7": ("any", 9, 10**7, 6, 1 << 19),
    "with-two-tail": ("with-two", 983_617, 1_000_000, 8, 512),
    "csv-1e6": ("any", 9, 1_000_000, 5, 1 << 16),
}
WORKLOADS = (*SCANS, "small-exact")
STAGES = ("prime_power", "sieve", "direct", "other_divisor", "fail")
CHUNK = 1 << 16  # the scanner's chunk length, the unit a pool worker takes
SAMPLE = 2000  # point queries, re-derived n, or CSV rows per run
MIN_PASSES = 3
# About the calibration's median time on the 2-vCPU Xeon (Sapphire Rapids)
# KVM guest the benchmark was written on; any fixed value would do, since
# runs are compared on one machine.
CAL_S = 0.005
CAL_EVERY = 0.2
CAL_WINDOW = 1.0
QUERY_N_MAX = 5 * 10**4
QUERY_PRIME_MAX = 200
PSI_U = (1.5, 2.0, 2.5, 3.0)
# criterion 8: generating pairs of prime-power order, one row per degree.
# The degree-8 row is one call of about 4 s, longer than the timer's
# calibration can follow, so it is checked once per run and not timed.
GENERATING_ROWS = (
    (5, (3, 1, 1), (5,)),
    (6, (4, 2), (5, 1)),
    (7, (5, 1, 1), (7,)),
)
UNTIMED_ROWS = ((8, (4, 4), (5, 1, 1, 1)),)
CONDITION5_EXPECTED = {5: True, 6: False, 7: True, 8: False}
RHO20 = 2.462e-29

# per-layer metrics of the traced run, with units, in report order
LAYER_METRICS = (
    ("scan.direct_search.calls", "count"),
    ("scan.direct_search.total_s", "s"),
    ("scan.direct_search.self_s", "s"),
    ("scan.direct_search.p50_ms", "ms"),
    ("scan.direct_search.p99_ms", "ms"),
    ("scan.direct_search.hit_frac", "ratio"),
    *((f"scan.stage.{stage}.count", "count") for stage in STAGES),
    ("scan.chunk.residual_imbalance", "ratio"),
    ("scan.staging.self_s", "s"),
    ("scan.iter_scan.total_s", "s"),
    ("scan.format_record.calls", "count"),
    ("scan.format_record.total_s", "s"),
    ("scan.scan_to_csv.self_s", "s"),
    ("scan.io.fsync_calls", "count"),
    ("scan.io.fsync_s", "s"),
    ("scan.io.csv_bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("conditions.condition2_direct.calls", "count"),
    ("conditions.condition2_direct.total_s", "s"),
    ("conditions.condition2_direct.self_s", "s"),
    ("conditions.condition2_direct.true_frac", "ratio"),
    ("conditions.condition1_holds.calls", "count"),
    ("conditions.condition1_holds.total_s", "s"),
    ("kummer.prime_divides_equipartition.calls", "count"),
    ("kummer.prime_divides_equipartition.total_s", "s"),
    ("arith.digit_sum.calls", "count"),
    ("arith.factorize.calls", "count"),
    ("arith.factorize.total_s", "s"),
    ("arith.is_prime_power.calls", "count"),
    ("arith.is_prime_power.total_s", "s"),
    ("arith.primes_upto.calls", "count"),
    ("arith.primes_upto.total_s", "s"),
    ("density.dickman_rho.first_s", "s"),
    ("density.psi_count.first_s", "s"),
    ("density.psi_count.calls", "count"),
    ("permgroup.check_condition4_pair.total_s", "s"),
    ("permgroup.check_condition5.total_s", "s"),
    ("permgroup.find_condition5_failure_witness.total_s", "s"),
    ("permgroup.group_order.calls", "count"),
    ("permgroup.group_order.total_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

clock = time.perf_counter


# ---------------------------------------------------------------------------
# timing at a fixed machine speed


def calibration() -> float:
    """Seconds a fixed computation takes now: Python integer loops like the
    Kummer carry checks, a NumPy sieve like the scanner's tables, and NumPy
    calls on short arrays like the carry masks of condition1_holds."""
    a = clock()
    s = 0
    for n in range(1_000_003, 1_003_003):
        m = n
        while m:
            s += m % 7
            m //= 7
    is_p = np.ones(600_000, dtype=bool)
    for q in range(2, 775):
        if is_p[q]:
            is_p[q * q :: q] = False
    k = np.arange(1, 200, dtype=np.int64)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) * 20:
        s += int(((k // p) % p <= 987_654 % p).sum())
    return clock() - a


class Timer:
    """Times calls, with a calibration between them every CAL_EVERY seconds."""

    def __init__(self) -> None:
        self.cal_at: list[float] = []
        self.cal_s: list[float] = []
        self._due = 0.0

    def calibrate(self) -> None:
        if clock() >= self._due:
            c = calibration()
            self.cal_at.append(clock() - c / 2)
            self.cal_s.append(c)
            self._due = clock() + CAL_EVERY

    def time(self, call, samples: list):
        """call(), appending (start, seconds) to samples; returns its result."""
        self.calibrate()
        a = clock()
        out = call()
        samples.append((a, clock() - a))
        return out

    def scaled(self, samples: list) -> list[float]:
        """Each sample's seconds at the speed where the calibration takes CAL_S."""
        self.calibrate()
        at = np.array(self.cal_at)
        cal = np.array(self.cal_s)
        out = []
        for start, sec in samples:
            i = int(np.searchsorted(at, start - CAL_WINDOW))
            j = int(np.searchsorted(at, start + sec + CAL_WINDOW))
            # time() calibrated less than CAL_EVERY before each start, so
            # the window always holds a calibration
            out.append(sec * CAL_S / float(np.median(cal[i:j])))
        return out


# ---------------------------------------------------------------------------
# inputs


def windows(workload: str) -> list[tuple[int, int]]:
    """The scan windows of a scan workload, ascending and disjoint."""
    _, lo, hi, k, width = SCANS[workload]
    step = (hi - lo + 1 - width) // (k - 1)
    return [(lo + i * step, lo + i * step + width - 1) for i in range(k - 1)] + [(hi - width + 1, hi)]


def stratified(rng: random.Random, size: int, k: int, keep=None) -> list[int]:
    """One index drawn from each of k equal strata of range(size), ascending.

    Strata keep the sample spread over the range, so the mix of cheap and
    costly n, and with it the latency quantiles, varies little by seed.
    """
    out = []
    for i in range(k):
        a = size * i // k
        b = size * (i + 1) // k - 1
        j = rng.randint(a, b)
        while keep is not None and not keep(j):
            j = rng.randint(a, b)
        out.append(j)
    return out


def window_sample(rng: random.Random, wins: list[tuple[int, int]]) -> list[int]:
    """SAMPLE n drawn evenly over the union of the windows."""
    widths = [b - a + 1 for a, b in wins]
    out = []
    for j in stratified(rng, sum(widths), SAMPLE):
        for (a, _), width in zip(wins, widths):
            if j < width:
                out.append(a + j)
                break
            j -= width
    return out


def prime_power_mask(limit: int) -> np.ndarray:
    """mask[n] is True when n <= limit is a prime power; the checker's own sieve."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if is_p[q]:
            is_p[q * q :: q] = False
    mask = is_p.copy()
    for q in np.flatnonzero(is_p[: math.isqrt(limit) + 1]):
        v = int(q) * int(q)
        while v <= limit:
            mask[v] = True
            v *= int(q)
    return mask


def point_queries(rng: random.Random) -> list[tuple[int, int, int]]:
    """SAMPLE (n, p, r): n not a prime power, p != r primes, each ordered pair once."""
    pp = prime_power_mask(QUERY_N_MAX)
    primes = [q for q in range(2, QUERY_PRIME_MAX + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    pairs = rng.sample([(p, r) for p in primes for r in primes if p != r], SAMPLE)
    ns = [9 + j for j in stratified(rng, QUERY_N_MAX - 8, SAMPLE, keep=lambda j: not pp[9 + j])]
    rng.shuffle(ns)
    return [(n, p, r) for n, (p, r) in zip(ns, pairs)]


# ---------------------------------------------------------------------------
# set-up and the timed units


def import_program(workload: str):
    import binodiv

    if workload == "csv-1e6":
        import binodiv.cli  # noqa: F401  (not imported by the package itself)
    return binodiv


def warm_up(bd, workload: str) -> None:
    """Build the lazy tables the timed units would otherwise build."""
    if workload in SCANS:
        mode = SCANS[workload][0]
        for _, b in windows(workload):
            bd.scan.scan_one(b, mode)  # the prime tables for this window's cap
    else:
        bd.density.dickman_rho(20.0)
        bd.density.psi_count(10**6, 10 ** (6 / PSI_U[0]))


def units(bd, workload: str, workers: int, queries, tmp: Path) -> list:
    """The workload's timed calls, as (label, zero-argument callable)."""
    if workload in SCANS:
        mode = SCANS[workload][0]
        if workload == "csv-1e6":
            return [(f"cli {a}..{b}", lambda a=a, b=b: run_cli_scan(bd, a, b, workers, tmp)) for a, b in windows(workload)]
        run = bd.scan.scan_with_two if mode == "with-two" else bd.scan.scan_range
        return [(f"scan {a}..{b}", lambda a=a, b=b: run(a, b, workers=workers)) for a, b in windows(workload)]
    # each small-exact output is a tuple tagged with what it answers
    pg, dens, cond = bd.permgroup, bd.density, bd.conditions
    out = [(f"check_condition4_pair {n}", lambda n=n, c=c, d=d: ("pair", n, generates(pg, n, c, d))) for n, c, d in GENERATING_ROWS]
    out += [(f"check_condition5 {n}", lambda n=n: ("condition5", n, pg.check_condition5(n) is not None)) for n in CONDITION5_EXPECTED]

    def witness_order():
        w = pg.find_condition5_failure_witness(8, pg.CycleType(8, (2, 2, 2, 2)), pg.CycleType(8, (7, 1)))
        return ("witness", None if w is None else pg.group_order(list(w)))

    out.append(("condition5 witness 8", witness_order))
    out.append(("dickman_rho 20", lambda: ("rho20", dens.dickman_rho(20.0))))
    out += [(f"psi_count {u}", lambda u=u: ("psi", u, dens.psi_count(10**6, 10 ** (6 / u)).count, dens.dickman_rho(u))) for u in PSI_U]
    out += [
        (f"query {n} {p} {r}", lambda n=n, p=p, r=r: ("query", n, p, r, cond.condition1_holds(n, p, r), cond.condition2_direct(n, p, r)))
        for n, p, r in queries
    ]
    return out


def generates(pg, n: int, c: tuple, d: tuple) -> bool:
    return pg.check_condition4_pair(n, pg.CycleType(n, c), pg.CycleType(n, d))


def run_cli_scan(bd, a: int, b: int, workers: int, tmp: Path) -> dict:
    # fresh paths for every call, or the CLI would resume a finished scan
    out = tmp / f"rows-{a}.csv"
    ckpt = tmp / f"rows-{a}.ckpt"
    remove([out, ckpt, Path(f"{out}.summary.json")])
    argv = ["scan", str(a), str(b), "--out", str(out), "--checkpoint", str(ckpt), "--workers", str(workers)]
    # the CLI's progress lines and JSON summary stay off the terminal
    with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()):
        code = bd.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"binodiv {' '.join(argv)} exited {code}: {err.getvalue()[-2000:]}")
    return {"lo": a, "csv": out, "files": [out, ckpt, Path(f"{out}.summary.json")]}


# ---------------------------------------------------------------------------
# correctness gate


class Checks:
    """The correctness gate: checks attempted and failed."""

    def __init__(self, bd, workload: str, queries, rng: random.Random) -> None:
        self.bd = bd
        self.workload = workload
        self.queries = queries
        self.rng = rng
        self.reference = json.loads(REFERENCE.read_text())[workload]
        self.attempted = 0
        self.failed = 0
        self.unverified = 0  # prime-power certificates, neither passed nor failed
        self.notes: list[str] = []
        self.got: dict = {}
        self.first_digests: list[str] = []

    def check_pass(self, outputs: list, first: bool) -> list[tuple[int, int, int]]:
        """Check one pass's outputs; after the first, return the certificates to re-check."""
        if self.workload not in SCANS:
            check_small_exact(self.bd, outputs, first, self, self.reference)
            return []
        if self.workload == "csv-1e6":
            digests = [file_sha256(out["csv"]) for out in outputs]
            if not first:
                self.expect(digests == self.first_digests, "a later pass wrote other CSV bytes than the first")
                return []
            self.first_digests = digests
        elif not first:
            self.expect(summary_facts(outputs)["facts"] == self.got["facts"], "a later pass gave other answers than the first")
            return []
        self.got, certs = check_scan(self.bd, self.workload, outputs, self.rng, self, self.reference)
        return certs

    def recheck(self, certs: list[tuple[int, int, int]], timer: Timer, samples: list[list]) -> None:
        """Decide each certificate by the binomial and the subgroup-family
        route, appending each one's (start, seconds) to its samples."""
        cond = self.bd.conditions
        for (n, p, r), t in zip(certs, samples):
            c1, c2 = timer.time(lambda: (cond.condition1_holds(n, p, r), cond.condition2_direct(n, p, r)), t)
            self.expect(c1 and c2, f"certificate ({n}, {p}, {r}): condition1 {c1}, condition2 {c2}")

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unverified": self.unverified,
            "notes": self.notes,
        }

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def file_sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def scan_facts(counts: dict, failing: list[int]) -> dict:
    """What the reference pins for a scan: satisfied count and failing set."""
    body = ",".join(str(n) for n in sorted(failing)).encode("ascii")
    return {
        "satisfied": sum(counts.values()) - counts.get("fail", 0),
        "failing_count": len(failing),
        "failing_sha256": hashlib.sha256(body).hexdigest(),
    }


def summary_facts(outputs: list) -> dict:
    """Stage counts, exceptions and reference facts of a pass of window summaries."""
    counts = dict.fromkeys(STAGES, 0)
    exceptions = []
    for summary in outputs:
        for stage, c in summary.counts.items():
            counts[stage] += c
        exceptions += summary.exceptions
    failing = [rec.n for rec in exceptions if rec.stage == "fail"]
    return {"counts": counts, "exceptions": exceptions, "failing": failing, "facts": scan_facts(counts, failing)}


def csv_facts(outputs: list, pp: np.ndarray, sample=()) -> dict:
    """Stream each window's CSV once: stage counts, failing n, digest and sampled rows.

    The digest covers every byte except the certificate fields of
    prime-power rows, whose known-wrong witnesses it must not pin.
    """
    digest = hashlib.sha256()
    counts = dict.fromkeys(STAGES, 0)
    failing = []
    rows = {}
    in_order = True
    sample = set(sample)
    for out in outputs:
        expected = out["lo"]
        with open(out["csv"], "rb") as fh:
            digest.update(fh.readline())
            for line in fh:
                n_txt, stage, rest = line.split(b",", 2)
                n = int(n_txt)
                in_order = in_order and n == expected
                expected += 1
                name = stage.decode("ascii")
                counts[name] += 1
                if name == "fail":
                    failing.append(n)
                digest.update(n_txt + b"\n" if pp[n] else line)
                if n in sample:
                    rows[n] = (name, rest.decode("ascii").split(","))
        in_order = in_order and expected > out["lo"]
    facts = scan_facts(counts, failing)
    facts["csv_sha256_masked"] = digest.hexdigest()
    return {"counts": counts, "failing": failing, "in_order": in_order, "rows": rows, "facts": facts}


def check_scan(bd, workload: str, outputs: list, rng: random.Random, chk: Checks, reference: dict):
    """Check a scan pass's answers; return its facts and the certificates to re-check."""
    mode = SCANS[workload][0]
    wins = windows(workload)
    size = sum(b - a + 1 for a, b in wins)
    pp = prime_power_mask(wins[-1][1])
    sample = window_sample(rng, wins)
    got = csv_facts(outputs, pp, sample) if workload == "csv-1e6" else summary_facts(outputs)
    chk.expect(sum(got["counts"].values()) == size, f"stage counts {got['counts']} do not sum to {size}")
    for key, want in reference.items():
        chk.expect(got["facts"].get(key) == want, f"{key}: {got['facts'].get(key)!r}, reference {want!r}")
    certs = []
    if workload == "csv-1e6":
        chk.expect(got["in_order"], "CSV rows are not n = lo, lo + 1, ... in order in each window")
        witnesses = {}
        for n in sample:
            stage, (p, r, _pa, _rb) = got["rows"].get(n, ("missing", ("", "", "", "")))
            if stage != "fail":
                witnesses[n] = (int(p), int(r)) if p and r else None
    else:
        failing = set(got["failing"])
        certs += [(rec.n, *rec.witness) for rec in got["exceptions"] if rec.stage == "other_divisor"]
        witnesses = {}
        for n in sample:
            rec = bd.scan.scan_one(n, mode)
            chk.expect((rec.stage == "fail") == (n in failing), f"scan_one({n}) gives {rec.stage}, the scan disagrees")
            if rec.stage != "fail":
                witnesses[n] = rec.witness
    for n, witness in witnesses.items():
        if witness is None:
            chk.expect(False, f"n = {n} is satisfied without a certificate")
        elif pp[n]:
            chk.unverified += 1
        else:
            certs.append((n, *witness))
    return got, certs


def check_small_exact(bd, outputs: list, first: bool, chk: Checks, reference: dict) -> None:
    psi = []
    for tag, *got in outputs:
        if tag == "query":
            n, p, r, c1, c2 = got
            chk.expect(c1 == c2, f"routes disagree on ({n}, {p}, {r}): {c1} vs {c2}")
        elif tag == "pair":
            chk.expect(got[1], f"degree {got[0]}: generating classes do not generate")
        elif tag == "condition5":
            n, verdict = got
            chk.expect(verdict == CONDITION5_EXPECTED[n], f"check_condition5({n}) verdict not {CONDITION5_EXPECTED[n]}")
        elif tag == "witness":
            chk.expect(got[0] == 168, f"degree-8 witness group order {got[0]}")
        elif tag == "rho20":
            chk.expect(abs(got[0] / RHO20 - 1.0) <= 0.05, f"rho(20) = {got[0]!r}")
        else:
            u, count, rho_u = got
            chk.expect(abs(count / 10**6 - rho_u) <= 0.05, f"Psi ratio {count / 10**6} far from rho({u}) = {rho_u}")
            psi.append(count)
    chk.expect(psi == reference["psi"], f"Psi counts {psi}, reference {reference['psi']}")
    if first:
        for n, c, d in UNTIMED_ROWS:
            chk.expect(generates(bd.permgroup, n, c, d), f"degree {n}: generating classes do not generate")


# ---------------------------------------------------------------------------
# tracing


def install_tracing(tr, bd, direct_calls: list, verdicts: list) -> None:
    """Span every public call into each module, through the names its callers use."""
    arith, kummer, cond, scan, dens, pg = (
        bd.arith, bd.kummer, bd.conditions, bd.scan, bd.density, bd.permgroup
    )

    def span(module, attr, name, on_exit=None):
        tr.install(module, attr, tr.wrap(getattr(module, attr), name, on_exit))

    for module in (arith, scan, cond):
        span(module, "factorize", "arith.factorize")
        span(module, "is_prime_power", "arith.is_prime_power")
    for module in (arith, scan, dens):
        span(module, "primes_upto", "arith.primes_upto")
    for module in (scan, kummer):
        tr.install(module, "digit_sum", tr.counter(module.digit_sum, "arith.digit_sum"))
    span(cond, "prime_divides_equipartition", "kummer.prime_divides_equipartition")
    span(cond, "condition1_holds", "conditions.condition1_holds")
    for module in (cond, scan):
        span(module, "condition2_direct", "conditions.condition2_direct",
             lambda args, result, dur: verdicts.append(result))
    span(scan, "direct_search", "scan.direct_search",
         lambda args, result, dur: direct_calls.append((args[0], dur, result is not None)))
    for attr in ("scan_range", "scan_with_two", "scan_one", "format_record"):
        span(scan, attr, f"scan.{attr}")
    tr.install(scan, "iter_scan", tr.wrap_generator(scan.iter_scan, "scan.iter_scan"))
    span(os, "fsync", "scan.io.fsync")
    for attr in ("dickman_rho", "psi_count"):
        span(dens, attr, f"density.{attr}")
    for attr in ("check_condition4_pair", "check_condition5", "find_condition5_failure_witness", "group_order"):
        span(pg, attr, f"permgroup.{attr}")
    if hasattr(bd, "cli"):
        span(bd.cli, "scan_to_csv", "scan.scan_to_csv")
        span(bd.cli, "main", "cli.main")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100, method="inclusive") gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr, workload: str, direct_calls: list, verdicts: list, got: dict, csv_bytes: int) -> dict:
    def stat(name):
        return tr.stats.get(name) or Stat()

    m = {}
    ds = stat("scan.direct_search")
    durations = [d for _, d, _ in direct_calls]
    names = np.array(tr.names)
    name_id = np.frombuffer(tr.name_id, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int64)
    c2_spans = np.flatnonzero(names[name_id] == "conditions.condition2_direct")
    c2_parents = parent[c2_spans]
    c2_parents = c2_parents[c2_parents >= 0]
    verifications = int(np.count_nonzero(names[name_id[c2_parents]] == "scan.direct_search"))
    hits = sum(1 for _, _, hit in direct_calls if hit)
    m["scan.direct_search.calls"] = ds.calls
    m["scan.direct_search.total_s"] = ds.total
    m["scan.direct_search.self_s"] = ds.self_time
    m["scan.direct_search.p50_ms"] = percentile(durations, 50) * 1e3
    m["scan.direct_search.p99_ms"] = percentile(durations, 99) * 1e3
    m["scan.direct_search.hit_frac"] = hits / verifications if verifications else 0.0
    counts = got.get("counts", {})
    for stage in STAGES:
        m[f"scan.stage.{stage}.count"] = counts.get(stage, 0)
    imbalance = 0.0
    if workload in SCANS and direct_calls:
        # the chunks the pool hands out: CHUNK-long from each window's start
        starts = []
        for a, b in windows(workload):
            starts += range(a, b + 1, CHUNK)
        starts = np.array(starts, dtype=np.int64)
        ns = np.array([n for n, _, _ in direct_calls], dtype=np.int64)
        chunk = np.searchsorted(starts, ns, side="right") - 1
        per_chunk = np.bincount(chunk, weights=durations, minlength=starts.size)
        imbalance = float(per_chunk.max() / per_chunk.mean())
    m["scan.chunk.residual_imbalance"] = imbalance
    m["scan.staging.self_s"] = sum(
        stat(name).self_time for name in ("scan.scan_range", "scan.scan_with_two", "scan.iter_scan")
    )
    m["scan.iter_scan.total_s"] = stat("scan.iter_scan").total
    m["scan.format_record.calls"] = stat("scan.format_record").calls
    m["scan.format_record.total_s"] = stat("scan.format_record").total
    m["scan.scan_to_csv.self_s"] = stat("scan.scan_to_csv").self_time
    m["scan.io.fsync_calls"] = stat("scan.io.fsync").calls
    m["scan.io.fsync_s"] = stat("scan.io.fsync").total
    m["scan.io.csv_bytes"] = csv_bytes
    m["cli.main.self_s"] = stat("cli.main").self_time
    c2 = stat("conditions.condition2_direct")
    m["conditions.condition2_direct.calls"] = c2.calls
    m["conditions.condition2_direct.total_s"] = c2.total
    m["conditions.condition2_direct.self_s"] = c2.self_time
    m["conditions.condition2_direct.true_frac"] = sum(verdicts) / len(verdicts) if verdicts else 0.0
    for name in ("conditions.condition1_holds", "kummer.prime_divides_equipartition",
                 "arith.factorize", "arith.is_prime_power", "arith.primes_upto"):
        m[f"{name}.calls"] = stat(name).calls
        m[f"{name}.total_s"] = stat(name).total
    m["arith.digit_sum.calls"] = tr.count("arith.digit_sum")
    m["density.dickman_rho.first_s"] = stat("density.dickman_rho").first or 0.0
    m["density.psi_count.first_s"] = stat("density.psi_count").first or 0.0
    m["density.psi_count.calls"] = stat("density.psi_count").calls
    for name in ("check_condition4_pair", "check_condition5", "find_condition5_failure_witness", "group_order"):
        m[f"permgroup.{name}.total_s"] = stat(f"permgroup.{name}").total
    m["permgroup.group_order.calls"] = stat("permgroup.group_order").calls
    return m


# ---------------------------------------------------------------------------
# phases


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped pool workers."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def remove(paths) -> None:
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def timed_pass(todo: list, timer: Timer, samples: list[list]) -> list:
    """Call every unit once, appending each call's (start, seconds); return the outputs."""
    return [timer.time(call, t) for (_, call), t in zip(todo, samples)]


def remove_outputs(outputs: list) -> None:
    for out in outputs:
        if isinstance(out, dict):
            remove(out.get("files", ()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--phase", choices=("setup", "bare", "run", "traced"), required=True)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    w = args.workload
    rng = random.Random(args.seed)
    queries = point_queries(rng) if w == "small-exact" else None

    t0 = clock()
    bd = import_program(w)
    if args.phase == "traced":
        return traced(bd, args, rng, queries)
    warm_up(bd, w)
    setup_raw = clock() - t0
    timer = Timer()
    if args.phase == "setup":
        cals = [calibration() for _ in range(8)][1:]
        setup_s = setup_raw * CAL_S / statistics.median(cals)
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw, "binodiv": bd.__file__}))
        return 0

    todo = units(bd, w, args.workers, queries, args.tmp)
    samples: list[list] = [[] for _ in todo]
    if args.phase == "bare":
        remove_outputs(timed_pass(todo, timer, samples))
        print(json.dumps({"wall_s": sum(timer.scaled(t)[0] for t in samples)}))
        return 0

    chk = Checks(bd, w, queries, rng)
    certs: list[tuple[int, int, int]] = []
    cert_samples: list[list] = []
    pass_s: list[float] = []
    while True:
        outputs = timed_pass(todo, timer, samples)
        if not pass_s:
            rss = peak_rss_mb()
        else:
            chk.recheck(certs, timer, cert_samples)
        pass_s.append(sum(t[-1][1] for t in samples + cert_samples))
        fresh = chk.check_pass(outputs, len(pass_s) == 1)
        if len(pass_s) == 1:
            # verify the certificates once untimed, which also warms the
            # interpreter up for the timed re-checks of the later passes
            certs = fresh
            chk.recheck(certs, timer, [[] for _ in certs])
            cert_samples = [[] for _ in certs]
        remove_outputs(outputs)
        if len(pass_s) >= MIN_PASSES and sum(pass_s) + statistics.median(pass_s) > args.seconds:
            break
    unit_s = [statistics.median(timer.scaled(t)) for t in samples]
    unit_raw_s = [statistics.median(sec for _, sec in t) for t in samples]
    if w in SCANS:
        latency_ms = [statistics.median(timer.scaled(t)) * 1e3 for t in cert_samples]
    else:
        latency_ms = [u * 1e3 for (label, _), u in zip(todo, unit_s) if label.startswith("query ")]
    result = {
        "wall_s": sum(unit_s),
        "wall_raw_s": sum(unit_raw_s),
        "unit_s": unit_s,
        "unit_raw_s": unit_raw_s,
        "unit_labels": [label for label, _ in todo] if w in SCANS else None,
        "pass_s": pass_s,
        "calibration_s": timer.cal_s,
        "peak_rss_mb": rss,
        "latency_ms": latency_ms,
    }
    result.update(chk.report())
    print(json.dumps(result))
    return 0


def traced(bd, args, rng: random.Random, queries) -> int:
    w = args.workload
    tr = Tracer()
    direct_calls: list = []
    verdicts: list = []
    install_tracing(tr, bd, direct_calls, verdicts)
    tr.wrap(warm_up, "bench.setup")(bd, w)
    del direct_calls[:], verdicts[:]
    todo = units(bd, w, args.workers, queries, args.tmp)
    samples: list[list] = [[] for _ in todo]
    timer = Timer()
    outputs = tr.wrap(timed_pass, "bench.run")(todo, timer, samples)
    wall = sum(timer.scaled(t)[0] for t in samples)
    tr.uninstall()
    if args.spans is not None:
        tr.save(args.spans)
    csv_bytes = sum(os.path.getsize(out["csv"]) for out in outputs if isinstance(out, dict))
    chk = Checks(bd, w, queries, rng)
    certs = chk.check_pass(outputs, True)
    chk.recheck(certs, timer, [[] for _ in certs])
    remove_outputs(outputs)
    layers = layer_metrics(tr, w, direct_calls, verdicts, chk.got, csv_bytes)
    result = {"wall_s": wall, "layers": layers}
    result.update(chk.report())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
