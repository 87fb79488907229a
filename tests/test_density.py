import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import binodiv
from binodiv.arith import primes_upto
from binodiv.density import (
    PSI_X_CAP,
    U_MAX,
    density_bound_report,
    dickman_rho,
    psi_count,
)
from oracles import MESH_STEP, build_rho_table


def test_rho_flat_segment():
    assert dickman_rho(0) == 1.0
    assert dickman_rho(0.5) == 1.0
    assert dickman_rho(1.0) == 1.0


def test_rho_log_segment():
    # closed form 1 - log(u) on [1, 2]
    for u in (1.25, 1.5, 1.75, 2.0):
        assert dickman_rho(u) == pytest.approx(1 - math.log(u), rel=1e-13)


def test_rho_quadrature_oracle():
    # on [2, 3]: rho(u) = rho(2) - int_2^u (1 - log(t-1)) / t dt
    for u in (2.25, 2.5, 3.0):
        want = 1 - math.log(2) - mpmath.quad(lambda t: (1 - mpmath.log(t - 1)) / t, [2, u])
        assert dickman_rho(u) == pytest.approx(float(want), rel=1e-10)


def test_rho_positive_and_decreasing():
    table = build_rho_table(25.0)
    rho = table.values[:, 1]
    assert (rho > 0).all()
    past_one = table.values[:, 0] > 1.0
    assert (np.diff(rho[past_one]) < 0).all()
    assert (np.diff(rho) <= 0).all()


def test_rho_continuous_at_panel_joins():
    for k in range(2, 26):
        left = dickman_rho(k - 1e-9)
        right = dickman_rho(float(k))
        assert abs(left / right - 1) < 1e-6, k


def test_rho_satisfies_delay_ode():
    # five point stencil for rho'(u) = -rho(u-1)/u, skipping stencils that
    # straddle a panel join where higher derivatives jump
    h = MESH_STEP
    rng = random.Random(31)
    us = [1 + (3 + rng.randrange(1020)) / 1024 + k for k in range(24) for _ in range(8)]
    checked = 0
    for u in us:
        if math.floor(u - 2 * h) != math.floor(u + 2 * h):
            continue
        d = (
            dickman_rho(u - 2 * h)
            - 8 * dickman_rho(u - h)
            + 8 * dickman_rho(u + h)
            - dickman_rho(u + 2 * h)
        ) / (12 * h)
        delayed = dickman_rho(u - 1)
        assert abs(d + delayed / u) <= 1e-6 * delayed, u
        checked += 1
    assert checked > 150


def test_rho_integral_identity():
    # u * rho(u) = int_{u-1}^{u} rho(t) dt, Simpson on the uniform mesh;
    # integer and half integer u keep panel joins on subinterval boundaries
    m = 1024
    h = 1.0 / m
    for u in [1.5, 2.0, 2.5, 3.0, 4.0, 5.5, 7.0, 10.0, 15.5, 20.0, 24.5]:
        xs = [u - 1 + i * h for i in range(m + 1)]
        ys = [dickman_rho(x) for x in xs]
        simpson = ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-2:2])
        simpson *= h / 3
        want = u * dickman_rho(u)
        assert abs(simpson - want) <= 1e-8 * want, u


def test_rho_bounds():
    with pytest.raises(ValueError):
        dickman_rho(-0.01)
    with pytest.raises(ValueError):
        dickman_rho(U_MAX + 0.01)
    assert dickman_rho(U_MAX) > 0


def test_rho_matches_reference_panels():
    # the positive float64 series against the 100-digit midpoint panels,
    # with a tolerance fixed before the comparison was first run
    table = build_rho_table(float(U_MAX), 2.0**-12)
    us, want = table.values[:, 0], table.values[:, 1]
    got = np.array([dickman_rho(float(u)) for u in us])
    assert us[-1] == U_MAX
    assert np.max(np.abs(got / want - 1)) <= 1e-13
    assert (got > 0).all()
    assert (np.diff(got[us > 1.0]) < 0).all()


def test_rho_and_psi_load_no_mpmath():
    # a fresh interpreter, so no test module has imported mpmath yet
    code = """
import sys
import binodiv, binodiv.cli
binodiv.dickman_rho(20.0)
binodiv.psi_count(1000, 10)
binodiv.cli.main(["psi", "1000", "10"])
assert "mpmath" not in sys.modules, "mpmath was imported"
"""
    pkg_root = str(Path(binodiv.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": pythonpath}
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_rho_table_matches_pointwise():
    table = build_rho_table(8.0, 1.0 / 256)
    for u, rho in table.values[:: 37]:
        assert rho == pytest.approx(dickman_rho(float(u)), rel=1e-12, abs=0)
    assert table.u_max == 8.0
    assert table.values.shape == (8 * 256 + 1, 2)
    with pytest.raises(ValueError):
        build_rho_table(31.0)
    with pytest.raises(ValueError):
        build_rho_table(5.0, -0.1)


def _brute_psi(x, y):
    ps = [int(p) for p in primes_upto(x)]
    count = 1  # n = 1 is y-smooth for any y
    for n in range(2, x + 1):
        m = n
        big = 1
        for p in ps:
            if p * p > m:
                break
            while m % p == 0:
                big = p
                m //= p
        if m > 1:
            big = m
        if big <= y:
            count += 1
    return count


def test_psi_exact_points():
    assert psi_count(100, 100).count == 100
    assert psi_count(10, 2).count == 4  # 1, 2, 4, 8
    assert psi_count(1, 1).count == 1
    assert psi_count(100, 1).count == 1
    # 1 has no prime factor, so it is y-smooth for every y
    for y in (-1, -0.5, 0):
        assert psi_count(100, y).count == 1
        assert psi_count(1, y).count == 1
    assert psi_count(49, 7).count == _brute_psi(49, 7)


def test_psi_matches_brute():
    for y in (2, 3, 10, 30.5, 97, 1999):
        assert psi_count(2000, y).count == _brute_psi(2000, y), y


def test_psi_monotone_in_y():
    prev = 0
    for y in (1, 2, 4, 8, 16, 64, 512, 4096):
        got = psi_count(5000, y).count
        assert got >= prev
        prev = got
    assert psi_count(5000, 5000).count == 5000


def test_psi_bounds():
    with pytest.raises(ValueError):
        psi_count(0, 10)
    with pytest.raises(ValueError):
        psi_count(PSI_X_CAP + 1, 10)
    for y in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="outside the float64 range"):
            psi_count(100, y)
    with pytest.raises(ValueError, match="NaN"):
        psi_count(100, float("nan"))


def test_psi_ratio_tracks_rho():
    # the secondary term is about (1 - gamma) * rho(u - 1) / log x, so the
    # 0.05 margin needs x at least 10**6 for small u
    x = 10**6
    for u in (1.5, 2.0, 2.5, 3.0):
        y = x ** (1 / u)
        ratio = psi_count(x, y).count / x
        assert abs(ratio - dickman_rho(u)) <= 0.05, u


def test_density_bound_report():
    out = density_bound_report(20.0)
    assert set(out) == {"u", "rho", "one_minus_rho"}
    assert out["rho"] < 1e-28
    assert out["one_minus_rho"] == 1.0 - out["rho"]
    assert density_bound_report(2.0)["rho"] == pytest.approx(1 - math.log(2), rel=1e-12)
