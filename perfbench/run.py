"""binodiv benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload any-1e7 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/
directory, so nothing needs installing.  Workloads (see BENCHMARK.json for
why each exists): any-1e7, with-two-tail, csv-1e6, small-exact.

--trace 0 measures the end-to-end metrics with tracing off: set-up time as
the median of several fresh interpreters that import the package and make
the warm-up calls, then one fresh interpreter that repeats passes over the
workload's units (scan windows, CLI scans, exact computations, queries)
until --seconds of timed work.  wall_s is the sum over units of each unit's
median time; check_p50_ms and check_p99_ms are quantiles, over the two-route
re-checks of the first pass's certificates (for small-exact, over the point
queries), of each one's median time.  Every time is scaled to a fixed
machine speed by a calibration run between the units (see workloads.py);
the unscaled wall time is printed and kept in the results file.  Every
pass's output is checked against perfbench/reference.json.

--trace 1 gives the per-layer metrics: one fresh interpreter times a pass
untraced and a second one times it with spans around every call into each
module, both on one worker so that every span stays in one process.  The
spans are written to perfbench/results/.

A table goes to standard output first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  A results file with
the environment (core count, Python, numpy and mpmath versions, commit,
workers) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LAYER_METRICS, SCANS, WORKLOADS, percentile, windows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKERS = 2
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("n_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_p50_ms", "ms"),
    ("check_p99_ms", "ms"),
)


class BenchError(Exception):
    pass


def child(phase: str, args, workers: int, tmp: Path, deadline: float, *extra: str) -> dict:
    """Run one workloads.py phase in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed), "--workers", str(workers),
        "--seconds", str(args.seconds), "--tmp", str(tmp), *extra,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{phase} phase of {args.workload} ran past the time limit")
    finally:
        # pool workers share the child's process group; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase of {args.workload} exited {proc.returncode}:\n{err[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if phase == "setup" and not result["binodiv"].startswith(src + os.sep):
        raise BenchError(f"binodiv was imported from {result['binodiv']}, not from {src}")
    return result


def end_to_end(args, tmp: Path, deadline: float) -> tuple[dict, dict]:
    probes = [child("setup", args, WORKERS, tmp, deadline) for _ in range(SETUP_PROBES)]
    setups = [probe["setup_s"] for probe in probes]
    res = child("run", args, WORKERS, tmp, deadline)
    wall = res["wall_s"]
    if args.workload in SCANS:
        n_per_s = sum(b - a + 1 for a, b in windows(args.workload)) / wall
    else:
        # point queries settled per second, from check_*_ms
        n_per_s = 1e3 * len(res["latency_ms"]) / sum(res["latency_ms"])
    metrics = {
        "wall_s": wall,
        "n_per_s": n_per_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "check_p50_ms": percentile(res["latency_ms"], 50),
        "check_p99_ms": percentile(res["latency_ms"], 99),
    }
    detail = {
        "wall_raw_s": res["wall_raw_s"],
        "setup_s_each": setups,
        "setup_raw_s_each": [probe["setup_raw_s"] for probe in probes],
        "pass_s": res["pass_s"],
        "unit_labels": res["unit_labels"],
        "unit_s": res["unit_s"],
        "unit_raw_s": res["unit_raw_s"],
        "calibration_s": res["calibration_s"],
        "checks_timed": len(res["latency_ms"]),
    }
    return res, {"metrics": metrics, "units": dict(END_TO_END), "detail": detail}


def per_layer(args, tmp: Path, deadline: float) -> tuple[dict, dict]:
    bare = child("bare", args, 1, tmp, deadline)
    spans = RESULTS / f"spans-{args.workload}.npz"
    res = child("traced", args, 1, tmp, deadline, "--spans", str(spans))
    layers = dict(res["layers"])
    layers["trace.overhead_frac"] = (res["wall_s"] - bare["wall_s"]) / bare["wall_s"]
    detail = {"untraced_wall_s": bare["wall_s"], "traced_wall_s": res["wall_s"], "spans": str(spans)}
    return res, {"metrics": layers, "units": dict(LAYER_METRICS), "detail": detail}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workers: int) -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "commit": git_commit(),
        "workers": workers,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "binodiv" / "__init__.py").is_file():
        print(f"error: no binodiv sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tmp = HERE / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res, report = per_layer(args, tmp, deadline)
        else:
            res, report = end_to_end(args, tmp, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics, units = report["metrics"], report["units"]
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {units[name]}")
    if "wall_raw_s" in report["detail"]:
        print(f"  {'wall_s unscaled':<52} {report['detail']['wall_raw_s']:>16.6g} s")
    print(f"  {'failed_frac':<52} {failed / attempted:>16.6g} ratio ({failed} of {attempted} checks)")
    print(f"  {'unverified_prime_power':<52} {res['unverified']:>16d} count (prime-power certificates, not checked)")
    for note in res["notes"]:
        print(f"  FAILED: {note}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(1 if args.trace else WORKERS),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "unverified_prime_power": res["unverified"],
        "failures": res["notes"],
        **report["detail"],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
