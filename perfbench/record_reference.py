"""Record perfbench/reference.json from the program at the current commit.

    python3 perfbench/record_reference.py

Makes one pass over each workload's units and keeps what the correctness
gate pins: the satisfied count and failing set over every scan's windows,
the digest of the CSV windows (prime-power rows reduced to their n), and the
Psi counts of small-exact.  Re-record only
when a change is meant to alter these answers, and say why.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in wl.WORKLOADS:
            bd = wl.import_program(name)
            queries = wl.point_queries(random.Random(0)) if name == "small-exact" else None
            todo = wl.units(bd, name, 2, queries, Path(tmp))
            outputs = wl.timed_pass(todo, wl.Timer(), [[] for _ in todo])
            if name == "csv-1e6":
                pp = wl.prime_power_mask(wl.windows(name)[-1][1])
                reference[name] = wl.csv_facts(outputs, pp)["facts"]
            elif name in wl.SCANS:
                reference[name] = wl.summary_facts(outputs)["facts"]
            else:
                reference[name] = {"psi": [out[2] for out in outputs if out[0] == "psi"]}
            wl.remove_outputs(outputs)
            print(name, reference[name], file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
