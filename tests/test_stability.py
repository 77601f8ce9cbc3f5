"""Reproduction of the closed-form stability measurement.

The shipped limit ``sdpoisson.pmf._STABLE_LIMIT`` (index 48 at every
a, on the box lam*t <= 6, mu*s <= 6) and the cancellation-guard
threshold ``CANCEL_MAG_LIMIT`` were measured against the quadrature
oracle.  This module re-verifies a subsample of that measurement so the
limit cannot silently rot, and demonstrates the failure mode the guard
exists for: far outside the box the closed forms lose digits and auto
mode must reroute.
"""

import pytest

from sdpoisson.exponential import ModelParams
from sdpoisson.pmf import (
    CANCEL_MAG_LIMIT,
    Region,
    _closed_raw,
    _quadrature_raw,
    closed_form_stable_limit,
    joint_pmf,
    reduced_coords,
)


def _gap_and_mag(params, s, t, m, n):
    coords = reduced_coords(params, s, t)
    side = coords.region
    assert side != Region.BOUNDARY
    closed, mag = _closed_raw(m, n, coords, params.a, side)
    quadr = _quadrature_raw(m, n, coords, params.a, 1e-11, side)
    return abs(closed - quadr), mag


@pytest.mark.parametrize("a", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_shipped_limit_holds_on_measured_box(a):
    params = ModelParams(1.0, 1.0, a)
    limit = closed_form_stable_limit(a)
    # corner points of the measured box that stress each branch family
    points = [(6.0, 0.9 * a * 6.0), (6.0, min(6.0, a * 6.0 + 1.0)), (1.0, 1.0 - 1e-3)]
    for s, t in points:
        for m in (0, limit // 2, limit - 1):
            for n in (0, limit // 2, limit - 1):
                coords = reduced_coords(params, s, t)
                if coords.region == Region.NEG_Z and m < n:
                    continue
                gap, _ = _gap_and_mag(params, s, t, m, n)
                assert gap <= 1e-8


def test_guard_trips_outside_the_box():
    # lam*t = 28 with a = 0.5: the a^(-j) alternation genuinely explodes
    params = ModelParams(1.0, 1.0, 0.5)
    gap, mag = _gap_and_mag(params, 30.0, 28.0, 25, 22)
    assert mag > CANCEL_MAG_LIMIT  # the guard sees the blowup ...
    report = joint_pmf(params, 25, 22, 30.0, 28.0, method="auto")
    assert report.method_used == "quadrature"  # ... and auto reroutes

    # the rerouted value is trustworthy while the raw closed form is not
    quadr = joint_pmf(params, 25, 22, 30.0, 28.0, method="quadrature").raw
    assert abs(report.raw - quadr) <= 1e-10


def test_guard_stays_quiet_at_desk_scale():
    params = ModelParams(1.0, 1.0, 0.5)
    for s, t in [(1.0, 0.4), (1.0, 0.8), (3.0, 2.0)]:
        for m in range(0, 20, 4):
            for n in range(0, 20, 4):
                report = joint_pmf(params, m, n, s, t, method="auto")
                if report.method_used not in ("lemma-exact",):
                    assert report.method_used == "closed"
