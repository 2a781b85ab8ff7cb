import math
import struct

import pytest
from hypothesis import given, strategies as st

from swarmfire.config import KinematicsParams
from swarmfire.rng import RngStreams, uniform
from swarmfire.search import clamp_to_area
from swarmfire.vehicle import (UavState, arrival_radius, heading, reached,
                               step)

KIN = KinematicsParams(cruise_speed=20.0, pole=1.0, tracking_tau=1.0)
# A pole so fast that the velocity equals its reference after one step
# (exp(-1e3) is 0.0), so a stage step reads out the reference velocity.
INSTANT = KinematicsParams(cruise_speed=20.0, pole=1.0e3, tracking_tau=1.0)
AREA = (10000.0, 10000.0)


def make_uav(pos=(0.0, 0.0), vel=(0.0, 0.0)):
    return UavState(id=0, swarm_id=0, pos=pos, vel=vel)


def fly(uav, target, target_vel=(0.0, 0.0), kin=KIN, dt=1.0):
    """One vehicle-stage step of a single UAV toward ``target``."""
    uav.waypoint = (*target, *target_vel)
    step([uav], kin, dt, AREA)
    return uav


# -- oracle: the per-UAV composition the stage replaced -------------------------

def oracle_reference_velocity(pos, target, target_vel, cruise_speed, tau):
    ex = target[0] - pos[0]
    ey = target[1] - pos[1]
    gain = cruise_speed / (tau + math.hypot(ex, ey))
    return (gain * ex + target_vel[0], gain * ey + target_vel[1])


def oracle_step_one(uav, v_ref, pole, dt):
    decay = math.exp(-pole * dt)
    vx0, vy0 = uav.vel
    vx = v_ref[0] + (vx0 - v_ref[0]) * decay
    vy = v_ref[1] + (vy0 - v_ref[1]) * decay
    px, py = uav.pos
    uav.pos = (px + 0.5 * dt * (vx0 + vx), py + 0.5 * dt * (vy0 + vy))
    uav.vel = (vx, vy)


def oracle_stage(uavs, kin, dt, area, last_heading):
    for uav in uavs:
        if uav.waypoint is not None:
            v_ref = oracle_reference_velocity(
                uav.pos, uav.waypoint[:2], uav.waypoint[2:], kin.cruise_speed,
                kin.tracking_tau)
        else:
            v_ref = (0.0, 0.0)
        oracle_step_one(uav, v_ref, kin.pole, dt)
        uav.pos = clamp_to_area(uav.pos, area)
        vx, vy = uav.vel
        if math.hypot(vx, vy) > 0.1:
            last_heading[uav.id] = math.atan2(vy, vx)


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


def snapshot(uavs, last_heading):
    """Positions, velocities and the recorded heading (or None) of every
    UAV at or below 0.1 m/s, the only UAVs whose entry is ever read."""
    slow = [u.id for u in uavs if not math.hypot(*u.vel) > 0.1]
    return ([(bits(*u.pos), bits(*u.vel)) for u in uavs],
            {k: None if k not in last_heading else bits(last_heading[k])
             for k in slow})


def twin_runs(specs, kin, dt, area, ticks=1):
    """Stage and oracle on identical copies; returns both snapshots.  The
    headings start as a previous tick of the oracle would have left them:
    UAV 0's entry is 1.25 unless it starts above 0.1 m/s.  The stage keeps
    them on the UavStates, the oracle in a dict by id."""
    out = []
    for staged in (True, False):
        uavs = [UavState(id=i, swarm_id=0, pos=pos, vel=vel,
                         waypoint=None if wp is None else (*wp, *wv))
                for i, (pos, vel, wp, wv) in enumerate(specs)]
        last_heading = {0: 1.25}
        for u in uavs:
            if math.hypot(*u.vel) > 0.1:
                last_heading[u.id] = math.atan2(u.vel[1], u.vel[0])
        if staged:
            for u in uavs:
                u.last_heading = last_heading.get(u.id)
            for _ in range(ticks):
                step(uavs, kin, dt, area)
            last_heading = {u.id: u.last_heading for u in uavs
                            if u.last_heading is not None}
        else:
            for _ in range(ticks):
                oracle_stage(uavs, kin, dt, area, last_heading)
        out.append(snapshot(uavs, last_heading))
    return out


AREA_W, AREA_H = 1000.0, 800.0
coord_x = st.one_of(st.floats(-20.0, 20.0), st.floats(-20.0, AREA_W + 20.0),
                    st.floats(AREA_W - 20.0, AREA_W + 20.0))
coord_y = st.one_of(st.floats(-20.0, 20.0), st.floats(-20.0, AREA_H + 20.0),
                    st.floats(AREA_H - 20.0, AREA_H + 20.0))
# speeds near the 0.1 m/s heading threshold, and ordinary ones
speed = st.one_of(st.floats(-0.2, 0.2), st.floats(-40.0, 40.0))
uav_spec = st.tuples(
    st.tuples(coord_x, coord_y), st.tuples(speed, speed),
    st.one_of(st.none(), st.tuples(coord_x, coord_y)),
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
kinematics = st.builds(KinematicsParams, cruise_speed=st.floats(1.0, 40.0),
                       pole=st.floats(0.1, 5.0),
                       tracking_tau=st.floats(0.1, 5.0))


@given(st.lists(uav_spec, min_size=1, max_size=6), kinematics,
       st.floats(0.05, 2.0), st.integers(1, 3))
def test_stage_matches_per_uav_oracle(specs, kin, dt, ticks):
    """Bit for bit: positions, velocities and the recorded headings of
    the UAVs at or below 0.1 m/s."""
    stage, oracle = twin_runs(specs, kin, dt, (AREA_W, AREA_H), ticks)
    assert stage == oracle


def test_stage_clamps_each_edge_and_heading_threshold():
    specs = [
        ((1.0, 400.0), (-30.0, 0.0), None, (0.0, 0.0)),           # west
        ((999.0, 400.0), (30.0, 0.0), None, (0.0, 0.0)),          # east
        ((500.0, 1.0), (0.0, -30.0), None, (0.0, 0.0)),           # south
        ((500.0, 799.0), (0.0, 30.0), None, (0.0, 0.0)),          # north
        ((500.0, 400.0), (0.0, 0.0), (1500.0, -300.0), (0.0, 0.0)),
        ((500.0, 400.0), (0.164, 0.0), None, (0.0, 0.0)),         # slows below
        ((500.0, 400.0), (0.166, 0.0), None, (0.0, 0.0)),         # stays above
    ]
    stage, oracle = twin_runs(specs, KIN, 0.5, (AREA_W, AREA_H))
    assert stage == oracle
    uavs = [UavState(id=i, swarm_id=0, pos=p, vel=v) for i, (p, v, _, _)
            in enumerate(specs[:4])]
    step(uavs, KIN, 0.5, (AREA_W, AREA_H))
    assert [u.pos for u in uavs] == [(0.0, 400.0), (AREA_W, 400.0),
                                     (500.0, 0.0), (500.0, AREA_H)]
    decay = math.exp(-0.5)
    assert 0.099 < 0.164 * decay < 0.1 < 0.166 * decay < 0.101
    slow = UavState(id=5, swarm_id=0, pos=(500.0, 400.0), vel=(0.164, 0.0))
    fast = UavState(id=6, swarm_id=0, pos=(500.0, 400.0), vel=(0.166, 0.0))
    step([slow, fast], KIN, 0.5, (AREA_W, AREA_H))
    assert (slow.last_heading, fast.last_heading) == (0.0, None)


def test_heading_velocity_then_last_fast_tick_then_draw():
    """Above 0.1 m/s the velocity's heading, at or below it the recorded
    one; only a UAV with neither draws, once, from its own agent stream."""
    streams, twin = RngStreams(7, 0, 2), RngStreams(7, 0, 2)
    fast = UavState(id=0, swarm_id=0, pos=(0.0, 0.0), vel=(0.0, 0.11),
                    last_heading=2.0)
    slow = UavState(id=1, swarm_id=0, pos=(0.0, 0.0), vel=(0.1, 0.0),
                    last_heading=-0.5)
    assert heading(fast, streams) == math.atan2(0.11, 0.0)
    assert heading(slow, streams) == -0.5
    slow.last_heading = None
    assert heading(slow, streams) == uniform(twin.agent(1), -math.pi,
                                              math.pi)
    assert [streams.agent(i).random() for i in (0, 1)] == \
        [twin.agent(i).random() for i in (0, 1)]


# -- reference velocity, read out through an instant-lag stage step ------------

def test_reference_velocity_zero_error():
    uav = fly(make_uav(pos=(5.0, 5.0)), (5.0, 5.0), kin=INSTANT)
    assert uav.vel == (0.0, 0.0)


def test_reference_velocity_value():
    vx, vy = fly(make_uav(), (100.0, 0.0), kin=INSTANT).vel
    assert vx == pytest.approx(20.0 * 100.0 / 101.0)
    assert vy == 0.0


def test_reference_velocity_feed_forward():
    uav = fly(make_uav(), (0.0, 0.0), (3.0, -4.0), kin=INSTANT)
    assert uav.vel == (3.0, -4.0)


@given(st.floats(-5000, 5000), st.floats(-5000, 5000),
       st.floats(-5000, 5000), st.floats(-5000, 5000))
def test_reference_speed_bounded(px, py, tx, ty):
    uav = fly(make_uav(pos=(px, py)), (tx, ty), kin=INSTANT)
    assert math.hypot(*uav.vel) <= 20.0


# -- velocity lag and position integration -------------------------------------

def test_step_equilibrium():
    uav = fly(make_uav(vel=(10.0, 0.0)), (0.0, 0.0), (10.0, 0.0))
    assert uav.vel == pytest.approx((10.0, 0.0))
    assert uav.pos == pytest.approx((10.0, 0.0))


def test_step_exponential_rise():
    uav = fly(make_uav(), (0.0, 0.0), (10.0, 0.0))
    assert uav.vel[0] == pytest.approx(10.0 * (1.0 - math.exp(-1.0)))


def test_step_matches_fine_euler():
    """Exact discretization vs 10x-finer explicit Euler over 60 s."""
    pole, dt = 1.0, 0.5
    start = (5000.0, 5000.0)   # mid-area, so the clamp never acts
    uav = make_uav(pos=start)
    ex, ey = 0.0, 0.0          # Euler twin state, relative to start
    vx = vy = 0.0
    path = 0.0
    for k in range(120):
        # time-varying reference to exercise the transient repeatedly;
        # a waypoint on the UAV itself makes its velocity the reference
        v_ref = (10.0 * math.cos(0.05 * k), 6.0 * math.sin(0.03 * k))
        fly(uav, uav.pos, v_ref, dt=dt)
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
    assert abs(uav.pos[0] - start[0] - ex) < tol
    assert abs(uav.pos[1] - start[1] - ey) < tol
    assert uav.vel[0] == pytest.approx(vx, rel=1e-2, abs=0.02)
    assert uav.vel[1] == pytest.approx(vy, rel=1e-2, abs=0.02)


def test_waypoint_convergence_time():
    """Fixed waypoint is reached within ||e0||/V0 + 5/pole seconds."""
    start = (1000.0, 1000.0)
    target = (start[0] + 800.0, start[1] - 600.0)
    v0, pole, dt = 20.0, 1.0, 0.5
    uav = make_uav(pos=start)
    budget = math.hypot(800.0, -600.0) / v0 + 5.0 / pole
    t = 0.0
    while t < budget:
        fly(uav, target, dt=dt)
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
