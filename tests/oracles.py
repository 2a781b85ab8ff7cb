"""Independent oracles the tests check the engine against.

None of this runs in a mission.  The engine spaces sectors evenly in the
ellipse's parametric angle (``mitigation.assign_sectors``); the polar-angle
sector geometry here derives the same equal-area partition another way, and
the closed-form quench time is the no-growth, simultaneous-join limit of
the quench model.  The per-UAV sensor sample and the per-swarm member
scans are the compositions the engine's one-call stages replaced.
``mitigate``, ``quench`` and ``bookkeep`` are ``World._mitigate``,
``World._quench`` and ``World._bookkeep`` as first written: one step per
record, a sin/cos for the waypoint and another for the feed-forward, and
generator sums.  Each is called as ``stage(world, t_now)``, like an entry
of ``World.stages``; ``mitigate`` sweeps with ``angular_control`` as first
written, which decays every tracking error, a zero one included.
"""

import math

from scipy import integrate

from swarmfire import fire as fi
from swarmfire import mitigation as mi
from swarmfire import vehicle as ve
from swarmfire.fire import distance_to_front, nearest_front_point
from swarmfire.sensing import SensorReading, detection_probability

TWO_PI = 2.0 * math.pi


def sweep_angle(a: float, b: float, gamma: float) -> float:
    """Continuous, strictly increasing extension of atan((a/b)*tan(gamma)).

    Maps the polar angle gamma of an ellipse point to its parametric angle;
    the principal-branch arctan is wrong past pi/2, so the quadrant-aware
    form with unwrapping is used.  sweep_angle(0) = 0, sweep_angle(2pi) = 2pi.
    """
    t = math.atan2(a * math.sin(gamma), b * math.cos(gamma))
    # t and gamma always lie in the same quadrant, so |gamma - t| < pi/2 and
    # rounding recovers the correct 2pi multiple.
    return t + TWO_PI * round((gamma - t) / TWO_PI)


def inverse_sweep_angle(a: float, b: float, t: float) -> float:
    """Polar angle whose sweep_angle equals the parametric angle t."""
    g = math.atan2(b * math.sin(t), a * math.cos(t))
    return g + TWO_PI * round((t - g) / TWO_PI)


def sector_area(fire, gamma_lo: float, gamma_hi: float) -> float:
    """Area (m^2) of the angular sector between two polar angles."""
    if not (0.0 <= gamma_lo < gamma_hi <= TWO_PI):
        raise ValueError(
            f"sector bounds out of range: [{gamma_lo}, {gamma_hi}]")
    return 0.5 * fire.a * fire.b * (sweep_angle(fire.a, fire.b, gamma_hi)
                                    - sweep_angle(fire.a, fire.b, gamma_lo))


def partition_sectors(fire, n: int) -> list[float]:
    """Polar-angle boundaries of n equal-area sectors, starting at 0.

    Equal areas correspond to equally spaced parametric angles, so each
    boundary is the exact inverse of the sweep-angle map; no iteration
    tolerance is involved.
    """
    if n < 1:
        raise ValueError("sector count must be >= 1")
    bounds = [0.0]
    for m in range(1, n):
        bounds.append(inverse_sweep_angle(fire.a, fire.b, TWO_PI * m / n))
    bounds.append(TWO_PI)
    return bounds


def quad_sector_area(a, b, g_lo, g_hi):
    """Integrate r(gamma)^2/2 over the polar angle."""
    def r2(g):
        c, s = math.cos(g), math.sin(g)
        return (a * b) ** 2 / (b * b * c * c + a * a * s * s)
    val, _ = integrate.quad(lambda g: 0.5 * r2(g), g_lo, g_hi, limit=200)
    return val


def closed_form_quench_time(fire_area: float, n_uavs: int,
                            area_rate: float) -> float:
    """Quench time assuming simultaneous joins and no growth: A/(N*r_q)."""
    return fire_area / (n_uavs * area_rate)


def sample(pos, active, prev, dt, sensing, rng=None, cutoff=math.inf):
    """One UAV's sensor sample, each fire's front solved for afresh."""
    px, py = pos
    best_fire = None
    best_d = math.inf
    temp_g = 0.0
    inv_t = 1.0 / (2.0 * sensing.temp_sigma * sensing.temp_sigma)
    for f in active:
        cx, cy = f.center
        if math.hypot(px - cx, py - cy) - f.a > cutoff:
            continue
        d, _ = distance_to_front(f, pos)
        g = math.exp(-d * d * inv_t)
        if g > temp_g:
            temp_g = g
        if d < best_d:
            best_d = d
            best_fire = f
    temp = sensing.ambient_temp + (sensing.fire_temp - sensing.ambient_temp) * temp_g
    if rng is not None and sensing.noise_std > 0.0:
        temp += sensing.noise_std * rng.standard_normal()
    rate = 0.0 if prev is None else (temp - prev.temperature) / dt

    if best_fire is None or best_d > sensing.sensing_radius:
        return SensorReading(temp, rate, None, 0.0, None, False)
    prob = detection_probability(best_d, sensing.sigma)
    fx, fy = nearest_front_point(best_fire, pos)
    return SensorReading(temp, rate, best_fire.id, prob,
                         math.atan2(fy - py, fx - px),
                         prob >= sensing.detect_threshold)


def max_info_member(members, readings):
    """Member with the highest temperature gradient (ties to the lowest id;
    ``members`` ascend by id) and the hottest temperature any member senses.
    ``readings[uid]`` is the member's SensorReading."""
    if not members:
        raise ValueError("no members with readings")
    best_id = None
    best = -math.inf
    temp_max = -math.inf
    for uid in members:
        r = readings[uid]
        if r.temp_rate > best:
            best = r.temp_rate
            best_id = uid
        if r.temperature > temp_max:
            temp_max = r.temperature
    return best_id, temp_max


def swarm_center(members, uavs):
    """Mean member position."""
    xs = ys = 0.0
    for uid in members:
        px, py = uavs[uid].pos
        xs += px
        ys += py
    n = len(members)
    return (xs / n, ys / n)


def angular_control(theta, theta_ref, direction, lo, hi, omega, track_gain,
                    turn_margin, dt):
    """One step of the sector sweep: theta' = mu*omega + K_m*(theta -
    theta_ref), the reference ping-ponging between the sector bounds."""
    if direction == -1 and theta_ref - lo < turn_margin:
        direction = 1
    elif direction == 1 and hi - theta_ref < turn_margin:
        direction = -1

    new_ref = theta_ref + direction * omega * dt
    if new_ref >= hi:
        new_ref = hi
        direction = -1
    elif new_ref <= lo:
        new_ref = lo
        direction = 1

    new_err = (theta - theta_ref) * math.exp(track_gain * dt)
    return (new_ref + new_err, new_ref, direction)


def mitigate(world, t_now):
    """Mitigation stage: each record's step in fire id order."""
    for fid in sorted(world.records):
        _mitigation_step(world, fid, t_now)


def _mitigation_step(world, fid, t_now):
    f = world.fires[fid]
    rec = world.records[fid]
    m = world.cfg.mitigation
    dt = world.cfg.engine.dt
    uavs = world.uavs

    # An unjoined UAV flies to its sector's reference point and joins on
    # arrival; merging ones wait for the repartition below.
    merging = []
    all_arrived = True
    for track in rec.tracks:
        uav = uavs[track.uav_id]
        if not track.joined:
            point = fi.point_on_front(f, track.theta)
            uav.waypoint = (*point, 0.0, 0.0)
            arrived = ve.reached(uav.pos, point, world._arrival)
            if track.merging:
                merging.append(track.uav_id)
                all_arrived = all_arrived and arrived
            elif arrived:
                world._join(track, f, t_now)
            continue
        omega = mi.nominal_angular_velocity(f.a, f.b, m.mitigation_speed,
                                            track.theta)
        theta, _, direction = angular_control(
            track.theta, track.theta, track.direction,
            track.lo, track.hi, omega, m.track_gain, m.turn_margin, dt)
        track.theta = theta
        track.direction = direction
        sweep = direction * omega
        uav.waypoint = (*fi.point_on_front(f, theta),
                        -f.a * math.sin(theta) * sweep,
                        f.b * math.cos(theta) * sweep)

    if merging and all_arrived:
        # every track restarts at its new sector's midpoint; keep drops
        # the merging flag
        rec.tracks = mi.assign_sectors(
            f, [(t.uav_id, uavs[t.uav_id].pos) for t in rec.tracks],
            keep={t.uav_id: t for t in rec.tracks})
        for track in rec.tracks:
            if track.uav_id in merging:
                world._join(track, f, t_now)


def quench(world, t_now):
    """Quench stage: every record with a joined track quenches its fire."""
    dt = world.cfg.engine.dt
    for fid in sorted(world.records):
        f = world.fires[fid]
        n_active = sum(1 for t in world.records[fid].tracks if t.joined)
        if n_active >= 1:
            fi.apply_quench(f, n_active, world.area_rate, dt)
            if f.state is fi.EXTINGUISHED:
                world._extinguish(fid, t_now)


def bookkeep(world, t_now):
    """Bookkeeping stage: peak burning area, clock and the series row."""
    spent = fi.EXTINGUISHED
    total_area = sum(fi.area(f) for f in world.fires
                     if f.state is not spent)
    if total_area > world.peak_total_area:
        world.peak_total_area = total_area
    world.time = t_now
    world.tick_index += 1
    if (world.tick_index % world.cfg.engine.trace_stride == 0
            or world.done()):
        world._log_state(total_area)
