import math

import pytest
from hypothesis import given, strategies as st

from swarmfire.vehicle import (UavState, arrival_radius, reached,
                               reference_velocity, step)


def make_uav(pos=(0.0, 0.0), vel=(0.0, 0.0)):
    return UavState(id=0, swarm_id=0, pos=pos, vel=vel)


def test_reference_velocity_zero_error():
    assert reference_velocity((5.0, 5.0), (5.0, 5.0), (0.0, 0.0),
                              20.0, 1.0) == (0.0, 0.0)


def test_reference_velocity_value():
    vx, vy = reference_velocity((0.0, 0.0), (100.0, 0.0), (0.0, 0.0),
                                20.0, 1.0)
    assert vx == pytest.approx(20.0 * 100.0 / 101.0)
    assert vy == 0.0


def test_reference_velocity_feed_forward():
    vx, vy = reference_velocity((0.0, 0.0), (0.0, 0.0), (3.0, -4.0),
                                20.0, 1.0)
    assert (vx, vy) == (3.0, -4.0)


@given(st.floats(-5000, 5000), st.floats(-5000, 5000),
       st.floats(-5000, 5000), st.floats(-5000, 5000))
def test_reference_speed_bounded(px, py, tx, ty):
    v = reference_velocity((px, py), (tx, ty), (0.0, 0.0), 20.0, 1.0)
    assert math.hypot(*v) <= 20.0


def test_step_equilibrium():
    uav = make_uav(vel=(10.0, 0.0))
    step(uav, (10.0, 0.0), 1.0, 1.0)
    assert uav.vel == pytest.approx((10.0, 0.0))
    assert uav.pos == pytest.approx((10.0, 0.0))


def test_step_exponential_rise():
    uav = make_uav()
    step(uav, (10.0, 0.0), 1.0, 1.0)
    assert uav.vel[0] == pytest.approx(10.0 * (1.0 - math.exp(-1.0)))


def test_step_matches_fine_euler():
    """Exact discretization vs 10x-finer explicit Euler over 60 s."""
    pole, dt = 1.0, 0.5
    uav = make_uav()
    ex, ey = 0.0, 0.0          # Euler twin state
    vx = vy = 0.0
    path = 0.0
    for k in range(120):
        # time-varying reference to exercise the transient repeatedly
        v_ref = (10.0 * math.cos(0.05 * k), 6.0 * math.sin(0.03 * k))
        step(uav, v_ref, pole, dt)
        n_sub = 10
        h = dt / n_sub
        for _ in range(n_sub):
            ex += h * vx
            ey += h * vy
            vx += h * (-pole * (vx - v_ref[0]))
            vy += h * (-pole * (vy - v_ref[1]))
            path += h * math.hypot(vx, vy)
    # positions agree to 0.1% of the distance actually flown
    tol = 1e-3 * path
    assert abs(uav.pos[0] - ex) < tol
    assert abs(uav.pos[1] - ey) < tol
    assert uav.vel[0] == pytest.approx(vx, rel=1e-2, abs=0.02)
    assert uav.vel[1] == pytest.approx(vy, rel=1e-2, abs=0.02)


def test_waypoint_convergence_time():
    """Fixed waypoint is reached within ||e0||/V0 + 5/pole seconds."""
    target = (800.0, -600.0)
    v0, pole, tau, dt = 20.0, 1.0, 1.0, 0.5
    uav = make_uav()
    budget = math.hypot(*target) / v0 + 5.0 / pole
    t = 0.0
    while t < budget:
        v_ref = reference_velocity(uav.pos, target, (0.0, 0.0), v0, tau)
        step(uav, v_ref, pole, dt)
        t += dt
        if reached(uav.pos, target, arrival_radius(v0, dt)):
            break
    assert reached(uav.pos, target, arrival_radius(v0, dt))


def test_reached_radius_scales_with_step():
    assert arrival_radius(20.0, 0.5) == 20.0
    assert reached((0.0, 0.0), (15.0, 0.0), arrival_radius(20.0, 0.5))
    assert not reached((0.0, 0.0), (25.0, 0.0), arrival_radius(20.0, 0.5))
    # small dt: 5 m floor
    assert arrival_radius(20.0, 0.01) == 5.0
    assert reached((0.0, 0.0), (4.0, 0.0), arrival_radius(20.0, 0.01))
    assert not reached((0.0, 0.0), (6.0, 0.0), arrival_radius(20.0, 0.01))
