"""Command-line front end: scans, point checks, density queries, reports.

Data goes to standard output or to files named by --out; progress lines go
to standard error.  Exit codes: 0 for success (and for "condition holds"),
1 when a checked condition fails or an unrestricted scan finds a failing n,
2 for usage or I/O errors, 130 on interrupt.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from typing import Callable, TextIO

from .conditions import witness_for
from .density import U_MAX, density_bound_report, dickman_rho, psi_count
from .permgroup import (
    CycleType,
    _reaches_order,
    check_condition4_pair,
    check_condition5,
    find_condition5_failure_witness,
    format_cycles,
    group_order,
    parse_cycles,
)
from .scan import (
    CSV_HEADER,
    MODES,
    _check_scan,
    _summarize,
    failure_histogram,
    prime_gap_stats,
    scan_to_csv,
)

# generating pairs of prime-power order, one row per degree
_TABLE_ROWS = (
    (5, "(1 2 3)", "(1 2 3 4 5)"),
    (6, "(1 2 3 4)(5 6)", "(1 2 3 4 5)"),
    (7, "(1 2 3 4 5)", "(1 2 3 4 5 6 7)"),
    (8, "(1 2 3 4)(5 6 7 8)", "(1 2 3 4 5)"),
)


def _progress(label: str) -> Callable[[int, int], None]:
    """One JSON line on stderr per chunk: the n done and the n in all in this
    call, the rate since the call began, and the seconds left at that rate."""
    t0 = time.monotonic()

    def report(done: int, total: int) -> None:
        rate = done / max(time.monotonic() - t0, 1e-9)
        line = {"label": label, "done": done, "total": total, "n_per_s": round(rate, 1), "eta_s": round((total - done) / rate, 3)}
        print(json.dumps(line), file=sys.stderr, flush=True)

    return report


def _dump_json(body: dict, fh: TextIO) -> None:
    """Write json.dumps(body, indent=2) and a newline to fh, a few thousand
    tokens at a time: the whole text of a with-two summary more than doubled
    the scan's peak memory, and json.dump makes one write per token, a
    system call each on an unbuffered stdout (python -u)."""
    tokens = json.JSONEncoder(indent=2).iterencode(body)
    while text := "".join(itertools.islice(tokens, 4096)):
        fh.write(text)
    fh.write("\n")


def _cmd_check(args: argparse.Namespace) -> int:
    w = witness_for(args.n, args.p, args.r)
    verdict = {
        "n": w.n,
        "p": w.p,
        "r": w.r,
        "condition1": w.condition1,
        "condition2": w.holds,
        "route": w.stage,
    }
    print(json.dumps(verdict, indent=2))
    return 0 if w.holds else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    mode = args.mode
    if args.checkpoint and not args.out:
        print("error: --checkpoint requires --out", file=sys.stderr)
        return 2
    progress = _progress(f"scan[{args.lo},{args.hi}] {mode}")
    if args.out:
        summary = scan_to_csv(
            args.lo,
            args.hi,
            args.out,
            mode=mode,
            checkpoint_path=args.checkpoint,
            workers=args.workers,
            progress=progress,
        )
        print(f"records written to {args.out}", file=sys.stderr)
    else:
        # _summarize checks only once it runs, after the header
        _check_scan(args.lo, args.hi, mode, args.workers)
        sink = sys.stdout if args.format == "csv" else None
        if sink is not None:
            print(CSV_HEADER)
        summary = _summarize(args.lo, args.hi, mode, args.workers, progress, sink)
    body = summary.to_dict() if args.out or args.format == "json" else None
    if args.out:
        summary_path = args.out + ".summary.json"
        with open(summary_path, "w", encoding="ascii") as fh:
            _dump_json(body, fh)
        print(f"summary written to {summary_path}", file=sys.stderr)
    if args.format == "json":
        _dump_json(body, sys.stdout)
    return 0 if mode == "with-two" or summary.counts["fail"] == 0 else 1


def _cmd_hist(args: argparse.Namespace) -> int:
    print(f"scanning [9, {args.hi}] in restricted mode", file=sys.stderr)
    hist = failure_histogram(args.hi, args.width)
    lines = ["bucket_start,failures"]
    lines += [f"{start},{count}" for start, count in hist.buckets]
    body = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(body)
        print(f"histogram written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(body)
    print(f"total failures: {hist.total()}", file=sys.stderr)
    return 0


def _cmd_rho(args: argparse.Namespace) -> int:
    print(json.dumps(density_bound_report(args.u), indent=2))
    return 0


def _cmd_psi(args: argparse.Namespace) -> int:
    count = psi_count(args.x, args.y)
    out = {"x": args.x, "y": args.y, "count": count.count, "ratio": count.count / args.x}
    if args.y >= 2:
        u = math.log(args.x) / math.log(args.y)
        if u <= U_MAX:
            out["u"] = round(u, 6)
            out["rho_u"] = dickman_rho(u)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_smallgroups(args: argparse.Namespace) -> int:
    rows = []
    all_ok = True
    for n, text_c, text_d in _TABLE_ROWS:
        c = parse_cycles(text_c, n)
        d = parse_cycles(text_d, n)
        pair_generates = _reaches_order([c, d], math.factorial(n) // 2)
        classes_generate = check_condition4_pair(n, c.cycle_type(), d.cycle_type())
        all_ok = all_ok and pair_generates and classes_generate
        rows.append(
            {
                "n": n,
                "c": format_cycles(c),
                "d": format_cycles(d),
                "orders": [c.cycle_type().element_order(), d.cycle_type().element_order()],
                "pair_generates": pair_generates,
                "classes_generate": classes_generate,
            }
        )
    verdicts = {}
    for n in range(5, 9):
        found = check_condition5(n)
        if found is None:
            verdicts[str(n)] = None
        else:
            ct_c, ct_d = found
            verdicts[str(n)] = {
                "orders": [ct_c.element_order(), ct_d.element_order()],
                "cycle_types": [list(ct_c.parts), list(ct_d.parts)],
            }
    expected = {"5": True, "6": False, "7": True, "8": False}
    matches = {k: (verdicts[k] is not None) == v for k, v in expected.items()}
    witness = find_condition5_failure_witness(
        8, CycleType(8, (2, 2, 2, 2)), CycleType(8, (7, 1))
    )
    witness_out = None
    if witness is not None:
        witness_out = {
            "c": format_cycles(witness[0]),
            "d": format_cycles(witness[1]),
            "group_order": group_order(list(witness)),
        }
    all_ok = all_ok and all(matches.values()) and witness_out is not None
    print(
        json.dumps(
            {
                "generating_pairs": rows,
                "prime_order_class_pairs": verdicts,
                "verdicts_as_expected": matches,
                "degree8_failure_witness": witness_out,
            },
            indent=2,
        )
    )
    return 0 if all_ok else 1


def _cmd_gaps(args: argparse.Namespace) -> int:
    report = prime_gap_stats(args.hi)
    print(
        json.dumps(
            {
                "limit": report.limit,
                "max_gap": report.max_gap,
                "histogram": [[g, c] for g, c in report.histogram],
            },
            indent=2,
        )
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binodiv",
        description="prime pairs dividing binomial coefficients and subgroup indices",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_check = sub.add_parser("check", help="condition verdicts for one (n, p, r)")
    p_check.add_argument("n", type=int)
    p_check.add_argument("p", type=int)
    p_check.add_argument("r", type=int)
    p_check.set_defaults(func=_cmd_check)

    p_scan = sub.add_parser("scan", help="classify a range of n")
    p_scan.add_argument("lo", type=int)
    p_scan.add_argument("hi", type=int)
    p_scan.add_argument("--mode", choices=MODES, default="any")
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.add_argument("--out", help="CSV output path (summary lands beside it)")
    p_scan.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p_scan.add_argument("--workers", type=int, default=None)
    p_scan.set_defaults(func=_cmd_scan)

    p_hist = sub.add_parser("hist", help="failure histogram for the restricted mode")
    p_hist.add_argument("hi", type=int)
    p_hist.add_argument("width", type=int, nargs="?", default=16384)
    p_hist.add_argument("--out")
    p_hist.set_defaults(func=_cmd_hist)

    p_rho = sub.add_parser("rho", help="Dickman rho at u")
    p_rho.add_argument("u", type=float)
    p_rho.set_defaults(func=_cmd_rho)

    p_psi = sub.add_parser("psi", help="count of y-smooth integers up to x")
    p_psi.add_argument("x", type=int)
    p_psi.add_argument("y", type=int)
    p_psi.set_defaults(func=_cmd_psi)

    p_small = sub.add_parser("smallgroups", help="exhaustive degree 5..8 verifications")
    p_small.set_defaults(func=_cmd_smallgroups)

    p_gaps = sub.add_parser("gaps", help="prime gap statistics up to a limit")
    p_gaps.add_argument("hi", type=int)
    p_gaps.set_defaults(func=_cmd_gaps)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
