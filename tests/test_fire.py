import math
import struct

import pytest
from hypothesis import assume, example, given, strategies as st
from scipy import optimize

from oracles import (inverse_sweep_angle, partition_sectors, quad_sector_area,
                     sector_area, sweep_angle)
from swarmfire.fire import (EXTINGUISH_AREA, FireFront, FireState, apply_quench,
                            area, boundary_distance, distance_to_front,
                            fireline_intensity, grow, nearest_front_point,
                            point_on_front, spread_rate)

TWO_PI = 2.0 * math.pi

# geometries used by the built-in scenario
GEOMETRIES = [(300.0, 250.0), (150.0, 100.0), (200.0, 200.0),
              (100.0, 100.0), (50.0, 50.0)]


def make_fire(a, b, center=(0.0, 0.0), spread=0.0):
    return FireFront(0, center, a, b, spread=spread)


# -- intensity / spread -------------------------------------------------------

def test_intensity_pine_constants():
    assert fireline_intensity(4.0, 259.833, 2.174) == pytest.approx(
        259.833 * 4.0 ** 2.174)


def test_spread_rate_pine_constants():
    i = fireline_intensity(4.0, 259.833, 2.174)
    r = spread_rate(i, 18600.0, 4.0)
    assert abs(r - 0.0711) < 0.0005


def test_spread_rate_units():
    assert spread_rate(0.0, 18600.0, 4.0) == 0.0
    assert spread_rate(100.0, 100.0, 1.0) == 1.0


# -- growth / area ------------------------------------------------------------

def test_grow_adds_rate_to_both_axes():
    f = make_fire(300.0, 250.0, spread=0.0711)
    grow(f, 10.0)
    assert f.a == pytest.approx(300.711)
    assert f.b == pytest.approx(250.711)


def test_grow_noop_when_extinguished():
    f = make_fire(100.0, 100.0, spread=1.0)
    f.state = FireState.EXTINGUISHED
    grow(f, 10.0)
    assert (f.a, f.b) == (100.0, 100.0)


def test_area_values():
    assert area(make_fire(300.0, 250.0)) == pytest.approx(235619.449, abs=0.01)
    assert area(make_fire(50.0, 50.0)) == pytest.approx(7853.98, abs=0.01)


# -- sweep angle map ----------------------------------------------------------

def test_sweep_angle_endpoints():
    for a, b in GEOMETRIES:
        assert sweep_angle(a, b, 0.0) == 0.0
        assert sweep_angle(a, b, TWO_PI) == pytest.approx(TWO_PI)
        assert sweep_angle(a, b, math.pi) == pytest.approx(math.pi)


def test_sweep_angle_monotone_continuous():
    a, b = 300.0, 250.0
    vals = [sweep_angle(a, b, TWO_PI * i / 2000) for i in range(2001)]
    diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
    assert all(d > 0 for d in diffs)
    assert max(diffs) < 0.02   # no branch jumps


@given(st.floats(0.0, TWO_PI),
       st.floats(1.0, 500.0), st.floats(1.0, 500.0))
def test_sweep_angle_inverse_round_trip(g, a, b):
    if b > a:
        a, b = b, a
    t = sweep_angle(a, b, g)
    assert inverse_sweep_angle(a, b, t) == pytest.approx(g, abs=1e-9)


# -- sector areas -------------------------------------------------------------

def test_sector_area_quarters():
    f = make_fire(200.0, 200.0)
    assert sector_area(f, 0.0, math.pi / 2) == pytest.approx(
        math.pi * 200.0 ** 2 / 4)
    f = make_fire(300.0, 250.0)
    assert sector_area(f, 0.0, math.pi / 2) == pytest.approx(area(f) / 4)
    assert sector_area(f, 0.0, TWO_PI) == pytest.approx(area(f))


def test_sector_area_against_quadrature():
    for a, b in GEOMETRIES:
        f = make_fire(a, b)
        for lo, hi in [(0.0, 0.7), (0.3, 2.0), (1.5, 4.0), (4.0, TWO_PI)]:
            assert sector_area(f, lo, hi) == pytest.approx(
                quad_sector_area(a, b, lo, hi), rel=1e-8)


def test_sector_area_rejects_bad_range():
    f = make_fire(100.0, 100.0)
    with pytest.raises(ValueError):
        sector_area(f, 1.0, 0.5)
    with pytest.raises(ValueError):
        sector_area(f, -0.1, 1.0)


def test_partition_circle_is_uniform():
    f = make_fire(200.0, 200.0)
    bounds = partition_sectors(f, 4)
    expect = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, TWO_PI]
    for got, want in zip(bounds, expect):
        assert got == pytest.approx(want)


def test_partition_single_sector():
    assert partition_sectors(make_fire(300.0, 250.0), 1) == [0.0, TWO_PI]


def test_partition_rejects_zero():
    with pytest.raises(ValueError):
        partition_sectors(make_fire(100.0, 100.0), 0)


def test_partition_equal_areas_all_geometries():
    """Every sector equals total/N against the quadrature oracle."""
    for a, b in GEOMETRIES:
        f = make_fire(a, b)
        total = area(f)
        for n in range(1, 9):
            bounds = partition_sectors(f, n)
            assert bounds[0] == 0.0
            assert bounds[-1] == pytest.approx(TWO_PI)
            assert all(x < y for x, y in zip(bounds, bounds[1:]))
            for lo, hi in zip(bounds, bounds[1:]):
                assert quad_sector_area(a, b, lo, hi) == pytest.approx(
                    total / n, rel=1e-6)


# -- boundary points / distances ---------------------------------------------

def test_point_on_front():
    f = make_fire(300.0, 250.0)
    assert point_on_front(f, 0.0) == pytest.approx((300.0, 0.0))
    assert point_on_front(f, math.pi / 2) == pytest.approx((0.0, 250.0))
    f = make_fire(200.0, 200.0)
    x, y = point_on_front(f, math.pi / 4)
    assert (x, y) == pytest.approx((141.421, 141.421), abs=0.01)


def test_distance_circle():
    f = make_fire(100.0, 100.0)
    assert distance_to_front(f, (250.0, 0.0))[0] == pytest.approx(150.0)
    assert distance_to_front(f, (50.0, 0.0)) == (0.0, None)


def test_distance_ellipse_axes():
    f = make_fire(300.0, 250.0)
    assert distance_to_front(f, (400.0, 0.0))[0] == pytest.approx(100.0)
    assert distance_to_front(f, (0.0, 400.0))[0] == pytest.approx(150.0)
    assert distance_to_front(f, (0.0, 0.0)) == (0.0, None)


def exact_boundary_distance(a, b, px, py):
    """Independent oracle for a point outside the ellipse: the least distance
    over the stationary parameters of the squared distance, each bracketed
    on a fine grid and solved to machine precision by brentq.  Near the front
    the distance is very sharply curved in the parameter, so a minimiser with
    a relative parameter tolerance (bounded Brent) is off by about a*tol."""
    def stationarity(t):   # half the derivative of the squared distance
        s, c = math.sin(t), math.cos(t)
        return (b * b - a * a) * s * c + a * px * s - b * py * c

    grid = [TWO_PI * i / 2000 for i in range(2001)]
    # The grid points stay candidates: a root closer to one of them than
    # rounding can resolve (e.g. t = 1e-57) shows no sign change.
    candidates = list(grid)
    for lo, hi in zip(grid, grid[1:]):
        if stationarity(lo) * stationarity(hi) < 0.0:
            candidates.append(
                optimize.brentq(stationarity, lo, hi, xtol=1e-30))
    return min(math.hypot(px - a * math.cos(t), py - b * math.sin(t))
               for t in candidates)


@given(st.floats(10.0, 400.0), st.floats(10.0, 400.0),
       st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0))
# just outside a circle: the exact distance is hypot - a = 2.043e-6
@example(239.0, 239.0, 0.03125, 239.0)
def test_distance_matches_parametric_minimum(a, b, px, py):
    if b > a:
        a, b = b, a
    d, _ = boundary_distance(a, b, px, py)
    inside = (px / a) ** 2 + (py / b) ** 2 <= 1.0
    if inside:
        assert d == 0.0
        return
    assert d == pytest.approx(exact_boundary_distance(a, b, px, py),
                              rel=1e-6, abs=1e-6)


def one_ulp_outward(v: float) -> float:
    return math.nextafter(v, math.copysign(math.inf, v))


@given(st.floats(10.0, 1000.0), st.floats(10.0, 1000.0),
       st.floats(0.0, TWO_PI))
def test_distance_one_ulp_outside_front(a, b, t):
    """A point one ulp outside the front is within rounding of it; a
    solver that leaves a converged root for bisection misses by ~1e-7."""
    assume(a != b)
    if b > a:
        a, b = b, a
    x = one_ulp_outward(a * math.cos(t))
    y = one_ulp_outward(b * math.sin(t))
    assert boundary_distance(a, b, x, y)[0] < 1e-9


def test_distance_one_ulp_outside_front_example():
    # the solver once bisected away from the converged root here: 4.4e-8
    assert boundary_distance(674.4709784223395, 620.6211392977884,
                             284.28511564146186, 562.7987583676666)[0] < 1e-9


def test_nearest_front_point_on_boundary():
    f = make_fire(300.0, 250.0, center=(1000.0, 2000.0))
    for p in [(2000.0, 2000.0), (1000.0, 3000.0), (500.0, 1500.0),
              (1800.0, 2600.0)]:
        bx, by = nearest_front_point(f, p)
        dx, dy = bx - 1000.0, by - 2000.0
        assert (dx / 300.0) ** 2 + (dy / 250.0) ** 2 == pytest.approx(
            1.0, abs=1e-6)
        assert math.hypot(p[0] - bx, p[1] - by) == pytest.approx(
            distance_to_front(f, p)[0], abs=1e-6)


def bits(point):
    return struct.pack("<2d", *point)


@given(st.floats(10.0, 400.0), st.floats(10.0, 400.0),
       st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0),
       st.floats(-5000.0, 5000.0), st.floats(-5000.0, 5000.0))
@example(239.0, 239.0, 0.03125, 239.0, 0.0, 0.0)
def test_nearest_point_with_distance_parameter(a, b, px, py, cx, cy):
    """The parameter the distance solve returns gives the same nearest point,
    bit for bit, as the path that solves for itself."""
    f = make_fire(a, b, center=(cx, cy))
    p = (cx + px, cy + py)
    _, t = distance_to_front(f, p)
    assert bits(nearest_front_point(f, p, t)) == bits(
        nearest_front_point(f, p))


@given(st.floats(10.0, 1000.0), st.floats(10.0, 1000.0),
       st.floats(0.0, TWO_PI))
@example(674.4709784223395, 620.6211392977884, 0.0)
@example(300.0, 300.0, 1.0)
@example(300.0, 250.0, 0.5 * math.pi)
def test_nearest_point_with_distance_parameter_one_ulp_outside(a, b, t):
    f = make_fire(a, b)
    p = (one_ulp_outward(a * math.cos(t)), one_ulp_outward(b * math.sin(t)))
    d, t_solved = distance_to_front(f, p)
    assert bits(nearest_front_point(f, p, t_solved)) == bits(
        nearest_front_point(f, p))
    if d > 0.0 and a != b:
        assert t_solved is not None


# -- quenching ----------------------------------------------------------------

def test_quench_removes_full_circle():
    f = make_fire(100.0, 100.0)
    f.state = FireState.UNDER_MITIGATION
    rate = math.pi * 100.0 ** 2 / 10.0
    apply_quench(f, 1, rate, 10.0)
    assert f.state is FireState.EXTINGUISHED


def test_quench_preserves_axis_difference():
    f = make_fire(300.0, 250.0)
    f.state = FireState.UNDER_MITIGATION
    apply_quench(f, 5, 2.0, 1.0)
    assert f.a - f.b == pytest.approx(50.0, abs=1e-9)
    assert area(f) == pytest.approx(math.pi * 300 * 250 - 10.0, abs=1e-6)


def test_quench_with_growth_nets_out():
    f = make_fire(200.0, 150.0, spread=0.1)
    f.state = FireState.UNDER_MITIGATION
    a0 = area(f)
    dt = 1.0
    grown = math.pi * (200.0 + 0.1 * dt) * (150.0 + 0.1 * dt)
    apply_quench(f, 3, 50.0, dt)
    assert area(f) == pytest.approx(grown - 150.0, abs=1e-6)
    assert grown - area(f) == pytest.approx(150.0)   # the area quenched
    assert area(f) < a0 + math.pi * 0.1 * dt * 400


def test_quench_area_conservation_over_interval():
    """(removed) + (remaining) - (grown) == initial, to dt tolerance."""
    f = make_fire(120.0, 100.0, spread=0.05)
    f.state = FireState.UNDER_MITIGATION
    a0 = area(f)
    grown_total = removed_total = 0.0
    dt = 0.5
    for _ in range(200):
        pre = area(f)
        a1, b1 = f.a + f.spread * dt, f.b + f.spread * dt
        grown_total += math.pi * a1 * b1 - pre
        removed_total += 2 * 10.0 * dt   # n_active * area_rate * dt
        apply_quench(f, 2, 10.0, dt)
        if f.state is FireState.EXTINGUISHED:
            break
    assert (removed_total + area(f) - grown_total
            ) == pytest.approx(a0, rel=1e-3)


def test_extinguish_threshold():
    f = make_fire(1.0, 1.0)
    f.state = FireState.UNDER_MITIGATION
    apply_quench(f, 1, math.pi - EXTINGUISH_AREA, 1.0)
    assert f.state is FireState.EXTINGUISHED
