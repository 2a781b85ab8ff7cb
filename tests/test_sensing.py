import copy
import dataclasses
import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from swarmfire import sensing as sensing_module
from swarmfire.config import SensingParams
from swarmfire.fire import (FireFront, FireState, apply_quench,
                            distance_to_front, grow)
from swarmfire.rng import RngStreams
from swarmfire.sensing import (DEFERRED, SensorReading, active_fires,
                               cull_distance, detection_probability, sample)
from swarmfire.vehicle import MITIGATING_MODES, UavMode, UavState

SENSING = SensingParams()


def temperature_at(fires: list[FireFront], p: tuple[float, float],
                   ambient: float, fire_temp: float, temp_sigma: float) -> float:
    """Oracle for the field temperature at p: ambient + (fire - ambient) *
    max Gaussian over the active fires, without culling."""
    best = 0.0
    inv = 1.0 / (2.0 * temp_sigma * temp_sigma)
    for f in active_fires(fires):
        d, _ = distance_to_front(f, p)
        g = math.exp(-d * d * inv)
        if g > best:
            best = g
    return ambient + (fire_temp - ambient) * best


def sample_one(pos, fires, prev=None, dt=1.0, sensing=SENSING, cutoff=None):
    """One UAV's reading, read out through a one-UAV stage call."""
    uav = UavState(id=0, swarm_id=0, pos=pos, reading=prev)
    if cutoff is None:
        cutoff = cull_distance(sensing, thermal=True)
    sample([uav], fires, 0.0, dt, sensing, None, cutoff, {})
    return uav.reading


def make_fire(a=100.0, b=100.0, center=(0.0, 0.0), fid=0):
    return FireFront(fid, center, a, b)


def test_temperature_inside_fire():
    f = make_fire()
    assert temperature_at([f], (10.0, 0.0), 300.0, 1200.0, 250.0) == 1200.0


def test_temperature_no_fires():
    assert temperature_at([], (0.0, 0.0), 300.0, 1200.0, 250.0) == 300.0


def test_temperature_one_sigma_out():
    f = make_fire()
    t = temperature_at([f], (100.0 + 250.0, 0.0), 300.0, 1200.0, 250.0)
    assert t == pytest.approx(300.0 + 900.0 * math.exp(-0.5))


def test_temperature_max_combination():
    near = make_fire(center=(0.0, 0.0), fid=0)
    far = make_fire(center=(5000.0, 0.0), fid=1)
    t_both = temperature_at([near, far], (150.0, 0.0), 300.0, 1200.0, 250.0)
    t_near = temperature_at([near], (150.0, 0.0), 300.0, 1200.0, 250.0)
    assert t_both == t_near
    assert t_both <= 1200.0


def test_temperature_ignores_extinguished():
    f = make_fire()
    f.state = FireState.EXTINGUISHED
    assert temperature_at([f], (0.0, 0.0), 300.0, 1200.0, 250.0) == 300.0


def test_detection_probability_values():
    assert detection_probability(0.0, 100.0) == 1.0
    assert detection_probability(100.0, 100.0) == pytest.approx(
        math.exp(-0.5))


def test_no_detection_beyond_sensing_radius():
    """The hard zero beyond the sensing radius: a front 400 m away is in
    the temperature's reach but names no fire."""
    r = sample_one((500.0, 0.0), [make_fire()])
    assert r.temperature > SENSING.ambient_temp
    assert r.fire_id is None
    assert r.probability == 0.0
    assert r.detected is False


def test_detection_probability_monotone():
    last = 1.1
    for d in range(0, 301, 10):
        p = detection_probability(float(d), 100.0)
        assert p <= last
        last = p


def test_cull_distance_covers_both_mechanisms():
    cut = cull_distance(SENSING, thermal=True)
    assert cut >= SENSING.sensing_radius
    # temperature excess at the cull distance is below 0.01 K
    excess = (SENSING.fire_temp - SENSING.ambient_temp) * math.exp(
        -cut * cut / (2 * SENSING.temp_sigma ** 2))
    assert excess <= 0.0100001
    # detection alone needs only the sensing radius
    assert cull_distance(SENSING, thermal=False) == SENSING.sensing_radius


@pytest.mark.parametrize("span", [0.01, 1e-3, 1e-12])
def test_cull_distance_of_a_barely_warm_fire_is_the_radius(span):
    """A fire at most 0.01 K above ambient adds no more than that
    anywhere, so a thermal search culls it at the sensing radius."""
    warm = dataclasses.replace(SENSING, fire_temp=SENSING.ambient_temp + span)
    assert cull_distance(warm, thermal=True) == SENSING.sensing_radius


def test_sample_first_reading_zero_rate():
    f = make_fire()
    r = sample_one((500.0, 0.0), [f])
    assert r.temp_rate == 0.0


def test_sample_static_field_zero_rate():
    f = make_fire()
    r1 = sample_one((500.0, 0.0), [f])
    r2 = sample_one((500.0, 0.0), [f], r1)
    assert r2.temp_rate == 0.0


def test_sample_rate_positive_when_approaching():
    f = make_fire()
    r1 = sample_one((600.0, 0.0), [f])
    r2 = sample_one((580.0, 0.0), [f], r1)
    assert r2.temp_rate > 0.0


def test_sample_detection_descriptor_threshold():
    f = make_fire(a=300.0, b=250.0, center=(1000.0, 1000.0))
    # just outside on the major axis, inside the gamma=0.9 shell
    d_detect = 100.0 * math.sqrt(-2.0 * math.log(0.9))
    p_in = (1000.0 + 300.0 + 0.5 * d_detect, 1000.0)
    r = sample_one(p_in, [f])
    assert r.detected is True
    assert r.fire_id == 0
    # between detect shell and sensing radius: candidate but no detection
    p_out = (1000.0 + 300.0 + 200.0, 1000.0)
    r = sample_one(p_out, [f])
    assert r.detected is False
    assert r.fire_id == 0
    assert 0.0 < r.probability < 0.9


def test_sample_heading_points_at_front():
    f = make_fire(center=(0.0, 0.0))
    r = sample_one((250.0, 0.0), [f])
    assert r.heading_to_fire == pytest.approx(math.pi, abs=1e-6) or \
        r.heading_to_fire == pytest.approx(-math.pi, abs=1e-6)


def test_sample_identical_for_equidistant_uavs():
    f = make_fire(center=(0.0, 0.0))
    ra = sample_one((200.0, 0.0), [f])
    rb = sample_one((0.0, -200.0), [f])
    assert ra.temperature == pytest.approx(rb.temperature)
    assert ra.probability == pytest.approx(rb.probability)


def test_sample_culling_matches_full_evaluation():
    fires = [make_fire(center=(0.0, 0.0), fid=0),
             make_fire(center=(9000.0, 9000.0), fid=1)]
    pos = (200.0, 100.0)
    full = sample_one(pos, fires, cutoff=1e9)
    culled = sample_one(pos, fires)
    assert full.temperature == pytest.approx(culled.temperature, abs=1e-9)
    assert full.fire_id == culled.fire_id
    assert full.probability == culled.probability


def test_sample_temperature_matches_field_oracle():
    fires = [make_fire(a=300.0, b=250.0, center=(1000.0, 1000.0), fid=0),
             make_fire(center=(1600.0, 1200.0), fid=1)]
    for pos in [(1000.0, 1000.0), (1350.0, 1050.0), (1450.0, 1100.0),
                (2000.0, 2000.0), (9000.0, 9000.0)]:
        r = sample_one(pos, fires, cutoff=1e9)
        assert r.temperature == temperature_at(
            fires, pos, SENSING.ambient_temp, SENSING.fire_temp,
            SENSING.temp_sigma)


# -- stage against the per-UAV oracle -------------------------------------------

def reading_bits(r):
    if r is None:
        return None
    heading = (None if r.heading_to_fire is None
               else struct.pack("<d", r.heading_to_fire))
    return (struct.pack("<3d", r.temperature, r.temp_rate, r.probability),
            r.fire_id, heading, r.detected)


def one_ulp_away(v: float, origin: float) -> float:
    return math.nextafter(v, math.inf if v >= origin else -math.inf)


def twin_stage(fires, positions, prevs, dt, sensing, cutoff, seed=7, ticks=1):
    """Stage and per-UAV oracle on the same input, each with its own copy of
    the run's Philox streams; returns both readings, detections and the next
    draw of every agent stream."""
    n = len(positions)
    out = []
    for stage in (True, False):
        streams = RngStreams(seed, 0, n)
        uavs = [UavState(id=i, swarm_id=0, pos=p, reading=prev)
                for i, (p, prev) in enumerate(zip(positions, prevs))]
        readings = list(prevs)
        detections = []
        for k in range(ticks):
            if stage:
                detections.append(sample(
                    uavs, fires, (k + 1) * dt, dt, sensing,
                    streams if sensing.noise_std > 0.0 else None, cutoff,
                    {}))
                readings = [u.reading for u in uavs]
            else:
                for uav in uavs:
                    readings[uav.id] = oracles.sample(
                        uav.pos, fires, readings[uav.id], dt, sensing,
                        streams.agent(uav.id), cutoff)
                detections.append([u.id for u in uavs
                                   if readings[u.id].detected])
        draws = [streams.agent(i).random() for i in range(n)]
        out.append(([reading_bits(r) for r in readings], detections, draws))
    return out


@st.composite
def scene(draw):
    """Fires (circles among them), UAVs anywhere, inside, on, one ulp
    outside a front and on a fire's axes, and previous readings or None."""
    fires = []
    for fid in range(draw(st.integers(1, 4))):
        a = draw(st.floats(10.0, 400.0))
        b = a if draw(st.booleans()) else draw(st.floats(10.0, 400.0))
        center = (draw(st.floats(0.0, 3000.0)), draw(st.floats(0.0, 3000.0)))
        fires.append(FireFront(fid, center, a, b))
    positions = []
    for _ in range(draw(st.integers(1, 6))):
        f = draw(st.sampled_from(fires))
        (cx, cy), a, b = f.center, f.a, f.b
        kind = draw(st.sampled_from(
            ["free", "inside", "on", "outside", "x-axis", "y-axis", "center"]))
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        if kind == "free":
            p = (draw(st.floats(-500.0, 3500.0)),
                 draw(st.floats(-500.0, 3500.0)))
        elif kind in ("inside", "on", "outside"):
            k = draw(st.floats(0.0, 0.999)) if kind == "inside" else 1.0
            p = (cx + k * a * math.cos(theta), cy + k * b * math.sin(theta))
            if kind == "outside":
                p = (one_ulp_away(p[0], cx), one_ulp_away(p[1], cy))
        elif kind == "x-axis":
            p = (cx + draw(st.floats(-800.0, 800.0)), cy)
        elif kind == "y-axis":
            p = (cx, cy + draw(st.floats(-800.0, 800.0)))
        else:
            p = (cx, cy)
        positions.append(p)
    prevs = [draw(st.one_of(st.none(), st.builds(
        SensorReading, st.floats(250.0, 1300.0), st.just(0.0),
        st.just(None), st.just(0.0), st.just(None), st.just(False))))
        for _ in positions]
    noise = draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0)))
    sensing = dataclasses.replace(SENSING, noise_std=noise)
    cutoff = draw(st.one_of(st.just(cull_distance(sensing, thermal=True)),
                            st.floats(0.0, 2000.0)))
    return fires, positions, prevs, sensing, cutoff


@given(scene(), st.floats(0.1, 2.0), st.integers(1, 2))
def test_stage_matches_per_uav_oracle(sc, dt, ticks):
    """Bit for bit: every reading field, the detections in UAV order and
    the state of every agent stream afterwards."""
    fires, positions, prevs, sensing, cutoff = sc
    stage, oracle = twin_stage(fires, positions, prevs, dt, sensing, cutoff,
                               ticks=ticks)
    assert stage == oracle


@pytest.mark.parametrize("noise", [0.0, 2.5])
def test_stage_best_fire_not_last(noise):
    """The UAV nearest the middle fire names it, with the heading the
    oracle's own solve gives; UAVs near the front detect it."""
    fires = [FireFront(0, (0.0, 0.0), 300.0, 250.0),
             FireFront(1, (1500.0, 0.0), 200.0, 120.0),
             FireFront(2, (2400.0, 900.0), 150.0, 150.0)]
    positions = [(1500.0, 150.0), (1720.0, 10.0), (1800.0, 0.0),
                 (1500.0, 0.0), (300.0, 0.0), (5000.0, 5000.0)]
    sensing = dataclasses.replace(SENSING, noise_std=noise)
    stage, oracle = twin_stage(fires, positions, [None] * 6, 0.5, sensing,
                               cull_distance(sensing, thermal=True), ticks=2)
    assert stage == oracle
    ids = [r[1] for r in stage[0]]
    assert ids == [1, 1, 1, 1, 0, None]
    assert stage[1][0][:2] == [0, 1]


# -- far-field skip over many ticks ---------------------------------------------

# Offsets (m) past the cull boundary a UAV is moved to: inside and outside
# by less than the skip's rounding allowance, and by a few steps of growth.
BOUNDARY_OFFSETS = st.one_of(
    st.sampled_from([-1.0e-3, -5.0e-4, -1.0e-6, 0.0, 1.0e-6, 5.0e-4, 1.0e-3]),
    st.floats(-2.0e-3, 2.0e-3), st.floats(-5.0, 5.0), st.floats(-80.0, 80.0))


def to_boundary(pos, f, cutoff, offset):
    """pos moved along the ray from f's center to where
    hypot(p - c) - a = cutoff + offset."""
    (cx, cy), r = f.center, f.a + cutoff + offset
    dx, dy = pos[0] - cx, pos[1] - cy
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        dx, dy, norm = 1.0, 0.0, 1.0
    return (cx + r * dx / norm, cy + r * dy / norm)


@st.composite
def moving_scene(draw):
    """Fires with different spreads that grow, are quenched or go out, one
    of those per fire and tick; UAVs that start near a cull boundary and
    each tick stay, take a small step or move to just inside or outside a
    boundary; noise-free or noisy sensors."""
    fires = []
    for fid in range(draw(st.integers(1, 3))):
        a = draw(st.floats(10.0, 400.0))
        b = a if draw(st.booleans()) else draw(st.floats(10.0, a))
        center = (draw(st.floats(0.0, 3000.0)), draw(st.floats(0.0, 3000.0)))
        spread = draw(st.one_of(st.sampled_from([0.0, 0.05, 1.0, 3.0]),
                                st.floats(0.0, 3.0)))
        fires.append(FireFront(fid, center, a, b, spread=spread))
    noise = draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0)))
    sensing = dataclasses.replace(SENSING, noise_std=noise)
    cutoff = draw(st.one_of(st.just(cull_distance(sensing, thermal=True)),
                            st.floats(0.0, 2000.0)))
    n_uavs = draw(st.integers(1, 5))
    starts = [to_boundary((draw(st.floats(-1.0, 1.0)),
                           draw(st.floats(-1.0, 1.0))),
                          draw(st.sampled_from(fires)), cutoff,
                          draw(BOUNDARY_OFFSETS)) for _ in range(n_uavs)]
    fire_acts = st.sampled_from(["grow", "grow", "grow", "quench", "none",
                                 "out"])
    uav_moves = st.one_of(
        st.just(("stay",)),
        st.tuples(st.just("step"), st.floats(-10.0, 10.0),
                  st.floats(-10.0, 10.0)),
        st.tuples(st.just("boundary"), st.integers(0, len(fires) - 1),
                  BOUNDARY_OFFSETS))
    ticks = [([draw(fire_acts) for _ in fires],
              [draw(uav_moves) for _ in range(n_uavs)])
             for _ in range(draw(st.integers(5, 40)))]
    return fires, starts, ticks, sensing, cutoff


def one_fire_scene(noise, spread, offset, acts, moves):
    """One circular fire at the origin and one UAV starting ``offset`` m
    beyond its cull boundary on the x axis."""
    sensing = dataclasses.replace(SENSING, noise_std=noise)
    cutoff = cull_distance(sensing, thermal=True)
    fire = FireFront(0, (0.0, 0.0), 100.0, 100.0, spread=spread)
    return ([fire], [(100.0 + cutoff + offset, 0.0)],
            [([act], [move]) for act, move in zip(acts, moves)], sensing,
            cutoff)


STAY = ("stay",)


@settings(max_examples=100, deadline=None)
@given(moving_scene(), st.floats(0.1, 2.0))
# moves 5 m in, to 0.5 mm inside the cull boundary, after a pass 5 m out
@example(one_fire_scene(0.0, 0.0, 5.0, ["none"] * 5,
                        [STAY, ("boundary", 0, -5.0e-4), STAY, STAY, STAY]),
         1.0)
# stays 2 m out while the front grows 1 m per tick
@example(one_fire_scene(0.0, 1.0, 2.0, ["grow"] * 5, [STAY] * 5), 1.0)
# noisy, far from the fire throughout
@example(one_fire_scene(2.0, 0.05, 500.0, ["grow"] * 5, [STAY] * 5), 0.5)
def test_far_skip_matches_oracle_over_ticks(sc, dt):
    """The stage, its skip state carried from tick to tick, against the
    unskipped oracle while UAVs cross cull boundaries both ways and fronts
    grow, shrink and go out: every reading field and the detections on
    every tick, and each agent stream's next draw at the end."""
    fires, starts, ticks, sensing, cutoff = copy.deepcopy(sc)
    n = len(starts)
    uavs = [UavState(id=i, swarm_id=0, pos=p) for i, p in enumerate(starts)]
    streams = [RngStreams(7, 0, n), RngStreams(7, 0, n)]
    oracle_readings = [None] * n
    now = 0.0
    for fire_acts, moves in ticks:
        for f, act in zip(fires, fire_acts):
            if f.state is FireState.EXTINGUISHED:
                continue
            if act == "grow":
                grow(f, dt)
            elif act == "quench":
                f.state = FireState.UNDER_MITIGATION
                apply_quench(f, 2, 40.0, dt)
            elif act == "out":
                f.state = FireState.EXTINGUISHED
        for uav, move in zip(uavs, moves):
            if move[0] == "step":
                uav.pos = (uav.pos[0] + move[1], uav.pos[1] + move[2])
            elif move[0] == "boundary":
                uav.pos = to_boundary(uav.pos, fires[move[1]], cutoff,
                                      move[2])
        now += dt
        active = active_fires(fires)
        detections = sample(uavs, active, now, dt, sensing, streams[0],
                            cutoff, {})
        for uav in uavs:
            oracle_readings[uav.id] = oracles.sample(
                uav.pos, active, oracle_readings[uav.id], dt, sensing,
                streams[1].agent(uav.id), cutoff)
        assert [reading_bits(u.reading) for u in uavs] == \
            [reading_bits(r) for r in oracle_readings]
        assert detections == [u.id for u in uavs
                              if oracle_readings[u.id].detected]
    assert [streams[0].agent(i).random() for i in range(n)] == \
        [streams[1].agent(i).random() for i in range(n)]


@pytest.mark.parametrize("noise", [0.0, 2.5])
def test_far_uav_skips_and_keeps_settled_reading(noise):
    """A UAV that stays far from every fire records its clearance, then
    skips; noise-free, its settled ambient reading is kept as it is."""
    fire = FireFront(0, (0.0, 0.0), 100.0, 100.0, spread=1.0)
    sensing = dataclasses.replace(SENSING, noise_std=noise)
    cutoff = cull_distance(sensing, thermal=True)
    uavs = [UavState(id=0, swarm_id=0, pos=(100.0 + cutoff + 50.0, 0.0))]
    streams = RngStreams(7, 0, 1)
    kept = []
    for k in range(1, 5):
        sample(uavs, [fire], 0.5 * k, 0.5, sensing, streams, cutoff, {})
        kept.append(uavs[0].reading)
    far = uavs[0].far
    assert far[:2] == uavs[0].pos and far[3] == 0.5
    assert far[2] == pytest.approx(50.0 - 1.0e-3)
    assert (kept[1] is kept[2] is kept[3]) is (noise == 0.0)
    assert kept[3].temperature != SENSING.ambient_temp or noise == 0.0


# -- deferred passes of mitigating UAVs -----------------------------------------

@st.composite
def deferring_scene(draw):
    """moving_scene, with UAVs that may also move to a point near a front;
    on each tick every UAV is in a search or a mitigating mode and a random
    subset of the fires counts as detected.  A last tick puts every UAV in
    a search mode, so each deferred temperature is resolved."""
    fires, starts, ticks, sensing, cutoff = draw(moving_scene())
    # to where hypot(p - c) - a is between -50 and 400 m
    near_front = st.tuples(st.just("boundary"),
                           st.integers(0, len(fires) - 1),
                           st.floats(-50.0, 400.0).map(lambda x: x - cutoff))
    modes = st.sampled_from([UavMode.EXPLORE, UavMode.EXPLOIT,
                             *MITIGATING_MODES])
    detected = st.sets(st.integers(0, len(fires) - 1))
    out = [(acts, [draw(st.one_of(st.just(m), near_front)) for m in moves],
            [draw(modes) for _ in moves], draw(detected))
           for acts, moves in ticks]
    out.append((["none"] * len(fires), [STAY] * len(starts),
                [UavMode.EXPLORE] * len(starts), set()))
    return fires, starts, out, sensing, cutoff


def one_fire_deferrals(noise, beyond_cull=None):
    """One growing circular fire and one UAV 150 m off its front, or
    ``beyond_cull`` m beyond its cull distance: a pass while the fire is
    undetected, a deferred one, a search tick that resolves it after the
    fire grew, and the same again."""
    sensing = dataclasses.replace(SENSING, noise_std=noise)
    cutoff = cull_distance(sensing, thermal=True)
    fire = FireFront(0, (0.0, 0.0), 100.0, 100.0, spread=1.0)
    mit, search = UavMode.MITIGATE, UavMode.EXPLORE
    ticks = [(["grow"], [STAY], [mode], det)
             for mode, det in [(mit, set()), (mit, {0}), (search, {0}),
                               (mit, {0}), (search, {0})]]
    x = 250.0 if beyond_cull is None else 100.0 + cutoff + beyond_cull
    return [fire], [(x, 0.0)], ticks, sensing, cutoff


@settings(max_examples=100, deadline=None)
@given(deferring_scene(), st.floats(0.1, 2.0))
@example(one_fire_deferrals(0.0), 1.0)
@example(one_fire_deferrals(2.0), 0.5)
# resolves a deferral whose fire was culled: the resolution culls too
@example(one_fire_deferrals(0.0, beyond_cull=50.0), 1.0)
def test_deferred_passes_match_oracle_over_ticks(sc, dt):
    """A UAV in a mitigating mode whose unculled fires are all detected
    defers, unless it keeps a settled reading, and no other UAV does.
    Every full reading equals the oracle's bit for bit, its rate computed
    from the temperature a deferred pass before it stands for; a deferred
    UAV reports no detection; and each agent stream's next draw matches at
    the end."""
    fires, starts, ticks, sensing, cutoff = copy.deepcopy(sc)
    n = len(starts)
    uavs = [UavState(id=i, swarm_id=0, pos=p) for i, p in enumerate(starts)]
    streams = [RngStreams(7, 0, n), RngStreams(7, 0, n)]
    oracle_readings = [None] * n
    now = 0.0
    for fire_acts, moves, modes, detected in ticks:
        for f, act in zip(fires, fire_acts):
            if f.state is FireState.EXTINGUISHED:
                continue
            if act == "grow":
                grow(f, dt)
            elif act == "quench":
                f.state = FireState.UNDER_MITIGATION
                apply_quench(f, 2, 40.0, dt)
            elif act == "out":
                f.state = FireState.EXTINGUISHED
        for uav, move, mode in zip(uavs, moves, modes):
            uav.mode = mode
            if move[0] == "step":
                uav.pos = (uav.pos[0] + move[1], uav.pos[1] + move[2])
            elif move[0] == "boundary":
                uav.pos = to_boundary(uav.pos, fires[move[1]], cutoff,
                                      move[2])
        now += dt
        active = active_fires(fires)
        before = [u.reading for u in uavs]
        detections = sample(uavs, active, now, dt, sensing, streams[0],
                            cutoff, dict.fromkeys(detected, 0.0))
        deferred = []
        for uav in uavs:
            px, py = uav.pos
            oracle_readings[uav.id] = oracles.sample(
                uav.pos, active, oracle_readings[uav.id], dt, sensing,
                streams[1].agent(uav.id), cutoff)
            defers = uav.mode in MITIGATING_MODES and all(
                f.id in detected for f in active
                if not math.hypot(px - f.center[0], py - f.center[1])
                - f.a > cutoff)
            if uav.reading is DEFERRED:
                assert defers
                deferred.append(uav.id)
            else:
                # a far noise-free UAV keeps its settled reading instead
                assert not defers or uav.reading is before[uav.id]
                assert reading_bits(uav.reading) == \
                    reading_bits(oracle_readings[uav.id])
        assert detections == [u.id for u in uavs if u.id not in deferred
                              and oracle_readings[u.id].detected]
    assert [streams[0].agent(i).random() for i in range(n)] == \
        [streams[1].agent(i).random() for i in range(n)]


class CountingMath:
    """The math module, counting the calls of ``hypot``."""

    def __init__(self):
        self.hypot_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def hypot(self, *args):
        self.hypot_calls += 1
        return math.hypot(*args)


@pytest.mark.parametrize("noise", [0.0, 2.5])
def test_deferral_tests_only_undetected_fires(monkeypatch, noise):
    """Mitigating UAVs near the fronts of five fires.  With every fire
    detected each defers without a per-fire distance test: those with no
    far-field clearance make no hypot call at all, those with a stale one
    only the skip test's, and every ``uav.far`` is left as it was.  Each
    still draws its noise.  With one fire undetected, the UAVs within the
    cull distance of it take full passes and the others still defer."""
    fires = [FireFront(i, (1500.0 * i, 0.0), 100.0, 80.0) for i in range(5)]
    sensing = dataclasses.replace(SENSING, noise_std=noise)
    cutoff = cull_distance(sensing, thermal=True)
    stale = (9000.0, 9000.0, 10.0, 0.0)   # fails the skip test
    uavs = [UavState(id=i, swarm_id=0, pos=(1500.0 * (i % 5) + 150.0, 0.0),
                     mode=MITIGATING_MODES[i % 3], far=far)
            for i, far in enumerate([None] * 5 + [stale] * 5)]
    counting = CountingMath()
    monkeypatch.setattr(sensing_module, "math", counting)
    streams = RngStreams(7, 0, len(uavs))
    every = dict.fromkeys(range(5), 0.0)
    assert sample(uavs, fires, 1.0, 0.5, sensing, streams, cutoff,
                  every) == []
    assert counting.hypot_calls == 5
    assert all(u.reading is DEFERRED for u in uavs)
    assert [u.far for u in uavs] == [None] * 5 + [stale] * 5
    twins = RngStreams(7, 0, len(uavs))
    if noise:
        for i in range(len(uavs)):
            twins.agent(i).standard_normal()
    assert [streams.agent(i).random() for i in range(len(uavs))] == \
        [twins.agent(i).random() for i in range(len(uavs))]

    del every[2]
    sample(uavs, fires, 1.5, 0.5, sensing, streams, cutoff, every)
    near = [abs(u.pos[0] - 3000.0) - 100.0 <= cutoff for u in uavs]
    assert [u.reading is not DEFERRED for u in uavs] == near
    assert any(near) and not all(near)
