import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import max_info_member
from swarmfire.config import SearchParams
from swarmfire.search import (baseline_waypoint, clamp_to_area, next_waypoint,
                              sample_brown_length, sample_heading,
                              sample_levy_length, sample_step_length,
                              search_cone_halfwidth, select_explore,
                              wrap_angle)

AREA = (10000.0, 10000.0)
PARAMS = SearchParams()
L_MAX = math.hypot(*AREA) / PARAMS.levy_step


def rng(seed=1):
    return np.random.Generator(np.random.Philox(seed))


def test_wrap_angle_range():
    for k in range(-20, 21):
        a = wrap_angle(0.3 + k * 2 * math.pi)
        assert -math.pi < a <= math.pi
        assert a == pytest.approx(0.3)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)


def readings(rates, temps=None):
    temps = temps or [300.0] * len(rates)
    return {uid: SimpleNamespace(temp_rate=r, temperature=t)
            for (uid, r), t in zip(rates.items(), temps)}


def test_max_info_member_argmax():
    r = readings({0: 0.1, 1: 0.5, 2: 0.2}, [310.0, 305.0, 320.0])
    assert max_info_member([0, 1, 2], r) == (1, 320.0)


def test_max_info_member_tie_lowest_id():
    r = readings({4: 0.0, 2: 0.0, 7: 0.0})
    assert max_info_member([2, 4, 7], r) == (2, 300.0)


def test_max_info_member_single():
    assert max_info_member([9], readings({9: -3.0})) == (9, 300.0)


def test_max_info_member_empty_raises():
    with pytest.raises(ValueError):
        max_info_member([], {})


def test_cone_halfwidth_logistic():
    k_phi = math.pi
    assert search_cone_halfwidth(0.0, k_phi, 0.05) == pytest.approx(k_phi / 2)
    assert search_cone_halfwidth(1e6, k_phi, 0.05) == pytest.approx(k_phi)
    assert search_cone_halfwidth(300.0, k_phi, 0.05) == pytest.approx(
        k_phi / (1.0 + math.exp(-15.0)))
    # exp(0.05 * 1e5) overflows; the logistic's limit is 0
    assert search_cone_halfwidth(-1e5, k_phi, 0.05) == 0.0


def test_heading_degenerate_cone():
    assert sample_heading(0.7, 0.0, rng()) == pytest.approx(0.7)


def test_heading_bounded_and_centered():
    g = rng(7)
    phi, phi0 = 0.4, math.pi / 4
    draws = [sample_heading(phi, phi0, g) for _ in range(100_000)]
    assert min(draws) >= phi - phi0 - 1e-12
    assert max(draws) <= phi + phi0 + 1e-12
    assert np.mean(draws) == pytest.approx(phi, abs=0.01)


def test_brown_length_folded_normal_mean():
    g = rng(11)
    draws = np.abs(g.standard_normal(1_000_000))
    # sampler draws one at a time; check it against the same distribution
    sample_mean = np.mean([sample_brown_length(g) for _ in range(20000)])
    assert np.mean(draws) == pytest.approx(math.sqrt(2 / math.pi), rel=0.01)
    assert sample_mean == pytest.approx(math.sqrt(2 / math.pi), rel=0.05)


def test_levy_tail_exponent_fit():
    g = rng(13)
    mu = 1.5
    draws = np.array([sample_levy_length(g, mu, 1e9) for _ in range(200_000)])
    assert draws.min() >= 1.0
    # log-log CCDF slope over the mid-tail
    xs = np.logspace(0.2, 2.0, 30)
    ccdf = [(draws > x).mean() for x in xs]
    slope = np.polyfit(np.log(xs), np.log(ccdf), 1)[0]
    assert slope == pytest.approx(-mu, abs=0.1)


def test_levy_truncation():
    g = rng(17)
    draws = [sample_levy_length(g, 1.5, L_MAX) for _ in range(100_000)]
    assert max(draws) <= L_MAX
    assert min(draws) >= 1.0


def test_step_length_dispatch():
    g = rng(19)
    long = [sample_step_length(True, g, 1.5, L_MAX) for _ in range(5000)]
    short = [sample_step_length(False, g, 1.5, L_MAX) for _ in range(5000)]
    assert np.mean(long) > np.mean(short)


def test_select_explore_threshold():
    assert select_explore(329.0, 330.0)
    assert not select_explore(330.0, 330.0)
    assert not select_explore(430.0, 330.0)


def test_next_waypoint_arithmetic():
    wp = next_waypoint((5000.0, 5000.0), 0.0, 500.0, 1.0, AREA,
                       (5200.0, 5000.0), 10000.0)
    assert wp == pytest.approx((5500.0, 5000.0))


def test_next_waypoint_zero_length():
    wp = next_waypoint((5000.0, 5000.0), 1.0, 500.0, 0.0, AREA,
                       (5000.0, 5000.0), 250.0)
    assert wp == (5000.0, 5000.0)


def test_next_waypoint_clamped_to_area():
    wp = next_waypoint((9900.0, 5000.0), 0.0, 500.0, 5.0, AREA,
                       (9900.0, 5000.0), 1e9)
    assert wp[0] == 10000.0


def test_next_waypoint_disk_projection():
    center = (5000.0, 5000.0)
    wp = next_waypoint((5000.0, 5000.0), 0.0, 500.0, 4.0, AREA, center, 250.0)
    assert math.hypot(wp[0] - center[0], wp[1] - center[1]) <= 250.0 + 1e-9


def test_clamp_to_area():
    assert clamp_to_area((-5.0, 10500.0), AREA) == (0.0, 10000.0)


@given(st.floats(), st.floats())
def test_clamp_to_area_matches_min_max(x, y):
    """Bit for bit the builtin form, -0.0, infinities and NaN included."""
    def bits(p):
        return struct.pack("dd", *p)
    expected = (min(max(x, 0.0), AREA[0]), min(max(y, 0.0), AREA[1]))
    assert bits(clamp_to_area((x, y), AREA)) == bits(expected)


# -- baselines ----------------------------------------------------------------

def test_uniform_fills_area():
    g = rng(23)
    pts = [baseline_waypoint("UNIFORM", (0.0, 0.0), (0.0, 0.0), 300.0, 0.0,
                             g, AREA, PARAMS, L_MAX, 330.0)
           for _ in range(20000)]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    # chi-square on a 10x10 occupancy grid
    h, _, _ = np.histogram2d(xs, ys, bins=10, range=[[0, 10000], [0, 10000]])
    expect = len(pts) / 100.0
    chi2 = ((h - expect) ** 2 / expect).sum()
    # 99 dof, 0.001 upper quantile ~ 148.2
    assert chi2 < 149.0


def test_normal_step_lengths():
    g = rng(29)
    pos = (5000.0, 5000.0)
    steps = []
    for _ in range(20000):
        wp = baseline_waypoint("NORMAL", pos, (0.0, 0.0), 300.0, 0.0,
                               g, AREA, PARAMS, L_MAX, 330.0)
        steps.append(math.hypot(wp[0] - pos[0], wp[1] - pos[1]))
    assert np.mean(steps) == pytest.approx(
        PARAMS.brown_step * math.sqrt(2 / math.pi), rel=0.03)


def test_levy_steps_heavy_tailed():
    g = rng(31)
    pos = (5000.0, 5000.0)
    steps = []
    for _ in range(20000):
        wp = baseline_waypoint("LEVY", pos, (0.0, 0.0), 300.0, 0.0,
                               g, AREA, PARAMS, L_MAX, 330.0)
        steps.append(math.hypot(wp[0] - pos[0], wp[1] - pos[1]))
    assert max(steps) > 2000.0
    assert np.median(steps) < 1500.0


def test_oms_switches_on_temperature():
    g = rng(37)
    pos = (5000.0, 5000.0)
    cool = [baseline_waypoint("OMS", pos, (0.0, 0.0), 300.0, 0.0,
                              g, AREA, PARAMS, L_MAX, 330.0)
            for _ in range(2000)]
    hot = [baseline_waypoint("OMS", pos, (0.0, 0.0), 500.0, 0.0,
                             g, AREA, PARAMS, L_MAX, 330.0)
           for _ in range(2000)]
    mean_cool = np.mean([math.hypot(p[0] - pos[0], p[1] - pos[1]) for p in cool])
    mean_hot = np.mean([math.hypot(p[0] - pos[0], p[1] - pos[1]) for p in hot])
    assert mean_cool > 3 * mean_hot


def test_oms_heading_bias_when_rising():
    g = rng(41)
    pos = (5000.0, 5000.0)
    vel = (10.0, 0.0)
    for _ in range(500):
        wp = baseline_waypoint("OMS", pos, vel, 300.0, 1.0,
                               g, AREA, PARAMS, L_MAX, 330.0)
        ang = math.atan2(wp[1] - pos[1], wp[0] - pos[0])
        assert abs(ang) <= math.pi / 4 + 1e-9


def test_unknown_strategy_raises():
    g = rng()
    with pytest.raises(ValueError):
        baseline_waypoint("WALK", (0.0, 0.0), (0.0, 0.0), 300.0, 0.0,
                          g, AREA, PARAMS, L_MAX, 330.0)
    assert g.random() == rng().random()   # raised before any draw


def test_all_baseline_waypoints_inside_area():
    g = rng(43)
    for strat in ("UNIFORM", "NORMAL", "LEVY", "OMS"):
        for _ in range(2000):
            wp = baseline_waypoint(strat, (50.0, 9950.0), (5.0, 5.0), 300.0,
                                   0.5, g, AREA, PARAMS, L_MAX, 330.0)
            assert 0.0 <= wp[0] <= AREA[0]
            assert 0.0 <= wp[1] <= AREA[1]
