import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import binodiv
from binodiv import conditions, scan
from binodiv.cli import main
from binodiv.density import dickman_rho
from binodiv.scan import MAX_N, scan_to_csv
from resume import checkpoint_last, last_row_n, stop_at_slice

REPO = Path(__file__).resolve().parents[1]


def test_check_holding_pair(capsys):
    code = main(["check", "6", "2", "5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out == {
        "n": 6,
        "p": 2,
        "r": 5,
        "condition1": True,
        "condition2": True,
        "route": "small_table",
    }


def test_check_failing_pair(capsys):
    code = main(["check", "15", "2", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["condition1"] is False and out["condition2"] is False
    assert out["route"] == "direct_search"


def test_check_exceptional_witness(capsys):
    code = main(["check", "46800", "2", "149"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["condition2"] is True and out["route"] == "direct_search"


def test_check_decides_each_condition_once(capsys, monkeypatch):
    calls = dict.fromkeys(("_condition1", "is_prime_power"), 0)
    for name in calls:

        def counted(*args, name=name, real=getattr(conditions, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(conditions, name, counted)
    code = main(["check", "46800", "2", "149"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out == {
        "n": 46800,
        "p": 2,
        "r": 149,
        "condition1": True,
        "condition2": True,
        "route": "direct_search",
    }
    assert calls == {"_condition1": 1, "is_prime_power": 1}


def test_check_rejects_composite_prime_argument(capsys):
    code = main(["check", "9", "4", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: 4 is not prime" in captured.err


def test_scan_json_summary(capsys):
    code = main(["scan", "9", "9"])
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert code == 0
    assert body["lo"] == 9 and body["hi"] == 9
    assert body["counts"]["prime_power"] == 1
    assert body["exceptions"] == []


def test_scan_csv_listing(capsys):
    code = main(["scan", "9", "12", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines == [
        "n,stage,p,r,pa,rb",
        "9,prime_power,3,3,,",
        "10,sieve,5,3,5,9",
        "11,prime_power,11,11,,",
        "12,sieve,2,11,4,11",
    ]


def test_scan_with_two_reports_failures_without_failing(capsys):
    code = main(["scan", "9", "60", "--mode", "with-two"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0  # failures are data in this mode, not an error
    assert body["counts"]["fail"] == 4
    assert [exc["n"] for exc in body["exceptions"]] == [15, 45, 51, 55]


def test_scan_out_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["scan", "9", "200", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    body = json.loads(captured.out)
    assert body["counts"]["fail"] == 0
    rows = out.read_text(encoding="ascii").splitlines()
    assert rows[0] == "n,stage,p,r,pa,rb"
    assert len(rows) == 1 + (200 - 9 + 1)
    sidecar = json.loads((tmp_path / "rows.csv.summary.json").read_text())
    assert sidecar == body
    assert str(out) in captured.err


def test_resumed_scan_summary_covers_whole_range(tmp_path, capsys, monkeypatch):
    # chunks of 2048 n, so that [9, 8000] has four and a checkpoint below hi
    # without a with-two scan of a whole 2**16 chunk
    monkeypatch.setattr(scan, "CHUNK", 2048)
    lo, hi = 9, 8000
    clean = tmp_path / "clean.csv"
    assert main(["scan", str(lo), str(hi), "--mode", "with-two", "--out", str(clean)]) == 0
    want = json.loads((tmp_path / "clean.csv.summary.json").read_text())
    capsys.readouterr()

    out = tmp_path / "rows.csv"
    ckpt = tmp_path / "rows.ckpt"
    with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
        m.setattr(scan, "_csv_slices", stop_at_slice(2))  # as the third chunk starts
        scan_to_csv(lo, hi, str(out), mode="with-two", checkpoint_path=str(ckpt))
    assert lo < checkpoint_last(ckpt) < hi
    assert last_row_n(out) == checkpoint_last(ckpt)
    argv = ["scan", str(lo), str(hi), "--mode", "with-two", "--out", str(out), "--checkpoint", str(ckpt)]
    assert main(argv) == 0
    stdout = json.loads(capsys.readouterr().out)
    got = json.loads((tmp_path / "rows.csv.summary.json").read_text())
    assert got == stdout
    del got["elapsed_seconds"], want["elapsed_seconds"]
    assert got == want
    assert got["mode"] == "with-two" and got["counts"]["fail"] > 0
    assert out.read_bytes() == clean.read_bytes()


def test_scan_refuses_a_checkpoint_of_another_run(tmp_path, capsys):
    out = tmp_path / "r.csv"
    ckpt = tmp_path / "r.ckpt"
    assert main(["scan", "9", "3000", "--out", str(out), "--checkpoint", str(ckpt)]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    argv = ["scan", "9", "1000", "--mode", "with-two", "--out", str(out), "--checkpoint", str(ckpt)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint") and "with-two on [9, 1000]" in err
    assert out.read_bytes() == before


@pytest.mark.parametrize("mode", ["any", "with-two"])
def test_scan_csv_stdout_equals_out_file(tmp_path, capsys, mode):
    out = tmp_path / "rows.csv"
    assert main(["scan", "9", "2000", "--mode", mode, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["scan", "9", "2000", "--mode", mode, "--format", "csv"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="ascii")


def test_scan_refuses_range_above_limit(capsys):
    assert main(["scan", "9", str(MAX_N + 1)]) == 2
    assert str(MAX_N) in capsys.readouterr().err


def test_scan_checkpoint_requires_out(capsys):
    code = main(["scan", "9", "50", "--checkpoint", "x.ckpt"])
    assert code == 2
    assert "requires --out" in capsys.readouterr().err


def test_scan_reversed_range_is_a_usage_error(capsys):
    code = main(["scan", "50", "9"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("lo, hi", [(30, 9), (9, 2 * 10**8)])
def test_scan_csv_refusal_prints_nothing(capsys, lo, hi):
    # the header once reached stdout before the range was checked
    assert main(["scan", str(lo), str(hi), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_check_refuses_n_beyond_int64(capsys):
    # this n once died in an OverflowError, exit 1 ("condition fails")
    assert main(["check", "9223372036854775837", "2", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "int64" in captured.err


def test_hist_stdout(capsys):
    code = main(["hist", "1000", "128"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "bucket_start,failures"
    starts = [int(line.split(",")[0]) for line in lines[1:]]
    assert starts == list(range(0, 1000, 128))
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert f"total failures: {total}" in captured.err


def test_hist_bucket_width_flag_and_out(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code = main(["hist", "300", "64", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "bucket_start,failures"
    assert len(lines) == 1 + len(range(0, 300, 64))


def test_rho_report(capsys):
    code = main(["rho", "20"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(body) == {"u", "rho", "one_minus_rho"}
    assert body["u"] == 20.0
    assert body["rho"] == dickman_rho(20.0)
    assert body["one_minus_rho"] == 1.0 - body["rho"]


def test_rho_rejects_out_of_range(capsys):
    code = main(["rho", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_psi_with_rho_comparison(capsys):
    code = main(["psi", "1000000", "100"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["x"] == 1000000 and body["y"] == 100
    assert body["ratio"] == body["count"] / 1000000
    assert body["u"] == 3.0
    # rho is evaluated at the unrounded u, one ulp inside the previous panel
    assert body["rho_u"] == pytest.approx(dickman_rho(3.0), rel=1e-12)
    assert abs(body["ratio"] - body["rho_u"]) < 0.05


def test_psi_without_comparison_keys(capsys):
    code = main(["psi", "100", "1"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["count"] == 1
    assert "u" not in body and "rho_u" not in body


def test_gaps(capsys):
    code = main(["gaps", "100"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["limit"] == 100 and body["max_gap"] == 8
    assert [1, 1] in body["histogram"]
    assert sum(c for _, c in body["histogram"]) == 24


def test_smallgroups_full_verification(capsys):
    code = main(["smallgroups"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["verdicts_as_expected"] == {"5": True, "6": True, "7": True, "8": True}
    degrees = [row["n"] for row in body["generating_pairs"]]
    assert degrees == [5, 6, 7, 8]
    for row in body["generating_pairs"]:
        assert row["pair_generates"] and row["classes_generate"]
    pairs = body["prime_order_class_pairs"]
    assert pairs["5"]["orders"] == [3, 5]
    assert pairs["6"] is None
    assert pairs["7"]["orders"] == [3, 7]
    assert pairs["8"] is None
    witness = body["degree8_failure_witness"]
    assert witness["group_order"] == 168


def _entry_point_spec():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["binodiv"]


def _run_entry_point(spec, *args):
    """Run the body of the console-script wrapper that pip writes for spec."""
    module, _, attr = spec.partition(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    pkg_root = str(Path(binodiv.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def _in_process_rho_2(capsys):
    code = main(["rho", "2"])
    return code, capsys.readouterr().out.encode()


def test_installed_entry_point_runs(capsys):
    spec = _entry_point_spec()
    proc = _run_entry_point(spec, "rho", "2")
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["rho"] == 1 - math.log(2)
    assert (proc.returncode, proc.stdout) == _in_process_rho_2(capsys)
    # the exit-code contract of the README holds through the script
    assert _run_entry_point(spec, "check", "15", "2", "7").returncode == 1
    assert _run_entry_point(spec, "rho", "-1").returncode == 2


@pytest.mark.skipif(shutil.which("binodiv") is None, reason="binodiv console script not on PATH")
def test_console_script_on_path_runs(capsys):
    proc = subprocess.run(
        [shutil.which("binodiv"), "rho", "2"], capture_output=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == _in_process_rho_2(capsys)
