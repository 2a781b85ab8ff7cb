"""Synthetic temperature field and Gaussian fire-detection model.

The world temperature is ambient plus a Gaussian shoulder around every
active fire, combined by maximum so the field never exceeds the fire
temperature and per-fire gradients survive.  Sensors are noiseless by
default; optional additive Gaussian noise is config-driven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fire import (EXTINGUISH_AREA, EXTINGUISHED, FireFront,
                   boundary_distance, distance_to_front, nearest_front_point)
from .vehicle import MITIGATING_MODES, speed_bound


@dataclass(slots=True)
class SensorReading:
    """One UAV's reading of one tick.  Its temperature covers only the fires
    within the world's cull distance (cull_distance).  For the strategies
    whose search reads only detections (all but search.THERMAL_STRATEGIES)
    that is the sensing radius, so their temperatures and rates are not the
    field's; a full pass finds the same detection fields under either
    cull."""
    temperature: float            # K
    temp_rate: float              # K/s, backward difference of own samples
    fire_id: int | None           # nearest active fire within sensing radius
    probability: float            # detection probability of that fire
    heading_to_fire: float | None  # rad, bearing to nearest front point
    detected: bool                # probability >= gamma


def active_fires(fires: list[FireFront]) -> list[FireFront]:
    """The fires that burn: growing or under mitigation."""
    return [f for f in fires if f.state is not EXTINGUISHED]


def detection_probability(d: float, sigma: float) -> float:
    """Gaussian detection probability at distance d from a front.  The hard
    zero beyond the sensing radius is ``sample``'s: it reads no fire there."""
    return math.exp(-d * d / (2.0 * sigma * sigma))


def cull_distance(sensing, thermal: bool) -> float:
    """Distance from a front beyond which ``sample`` culls a fire, skipping
    its exact boundary distance.

    Detection needs the sensing radius.  With ``thermal`` (the strategy's
    search reads temperatures, see ``search.THERMAL_STRATEGIES``) it is
    also the temperature reach, beyond which a fire adds at most 0.01 K;
    a fire at most 0.01 K above ambient has no reach.  Otherwise it is the
    sensing radius alone, and a reading's temperature is not the field's:
    it covers only the fires within the radius."""
    span = sensing.fire_temp - sensing.ambient_temp
    if not thermal or span <= 0.01:
        return sensing.sensing_radius
    reach = sensing.temp_sigma * math.sqrt(2.0 * math.log(span / 0.01))
    return max(sensing.sensing_radius, reach)


# Slack (m) kept below each clearance a deadline rests on: twice in
# sample's, once for the clearance it measures and once for the time it
# lasts, and once per bound in engine.World._quiet_until.  It absorbs the
# rounding in what those bounds add up (positions, front axes grown tick by
# tick, elapsed time), which stays far below a millimetre.
ROUNDING_ALLOWANCE = 1.0e-3

# The reading of a UAV whose pass was deferred (see sample).
DEFERRED = SensorReading(math.nan, math.nan, None, 0.0, None, False)


def _deferred_temperature(snapshot, ambient: float, span: float,
                          inv_t: float, cutoff: float) -> float:
    """The temperature a full pass would have read at a deferred one, by
    the same arithmetic: the same cull of the tick's geometry, then
    ``boundary_distance`` on each kept front's axes, as distance_to_front."""
    px, py, geometry, noise = snapshot
    temp_g = 0.0
    for _, cx, cy, a, b in geometry:
        dx, dy = px - cx, py - cy
        if math.hypot(dx, dy) - a > cutoff:
            continue
        d = boundary_distance(a, b, dx, dy)[0]
        g = math.exp(-d * d * inv_t)
        if g > temp_g:
            temp_g = g
    return ambient + span * temp_g + noise


def sample(uavs, active: list[FireFront], now: float, dt: float,
           spread: float, area_rate: float, cruise: float, sensing, streams,
           cutoff: float, detected) -> list[int]:
    """The sensing stage of one tick: sample every UAV in list order.

    The per-UAV state lives on each UavState.  ``uav.reading`` holds the
    previous reading (None before the first) and is replaced by the new
    one: temperature, rate and the nearest active fire within the sensing
    radius.  ``active`` is ``active_fires`` of the world; ``sensing`` is a
    SensingParams; ``streams`` is the run's RngStreams, drawn from only
    when noise_std > 0.  Fires whose center is farther than cutoff +
    semi-major axis are culled: their boundary distance exceeds cutoff.
    ``cutoff`` is ``cull_distance`` of the world's strategy: at least the
    sensing radius, so a full pass finds the same fire, probability and
    detection under any cutoff, and for the detection-only strategies no
    more, so their temperatures cover only the fires within it (under it a
    mitigating UAV may defer where the reach would have kept an undetected
    fire; nothing reads that reading, see below).  Culling on ``a`` assumes
    a >= b, which every fire of a run keeps: ``config.validate`` rejects
    b > a, growth adds the same to both axes and quenching keeps a - b.
    Returns the ids of the UAVs whose reading detects a fire, in list
    order.

    A full pass of a noise-free UAV that culls every fire and reads the
    settled ambient reading (rate 0.0) sets a deadline, ``uav.far_until``,
    before which the loop skips the UAV with one comparison and its reading
    stays.  ``now`` is the time of this tick and ``cruise`` the cruise
    speed.  With clear the smallest hypot(p - c) - a over the active fires,
    every fire stays culled while (B + spread) times the time elapsed stays
    below clear - cutoff: centers are fixed, fires only leave ``active``,
    every front grows by at most spread*dt per tick (``spread`` is the
    world's one rate), and while a UAV's command has no feed-forward (every
    command but a joined sweep's) it flies no faster than B =
    ``vehicle.speed_bound(uav, cruise)``.  The deadline is when that time
    runs out, less two ROUNDING_ALLOWANCE; after it the UAV takes a full
    pass, which renews it.  A lock or merge gives the UAV a mitigating
    mode, whose sweep has feed-forward, so ``engine.World._lock_or_merge``
    and ``engine.preposition_mitigation`` reset the deadline to -inf; a
    mitigating UAV's passes defer, and one of them may set the deadline to
    a release bound instead (below).  A noisy UAV draws every tick and gets
    none.

    A reading is read only by the engine's detection bookkeeping, for a
    fire not yet in ``detected`` (the world's detected fire ids), and by
    the search stage, for the members of a searching swarm.  So the pass
    of a UAV in one of ``vehicle.MITIGATING_MODES`` (its swarm mitigates,
    and searches again no earlier than the next tick) with no fire outside
    ``detected`` within the cull distance is deferred.  That is decided
    before the cull, by testing only the undetected fires, so once every
    active fire is detected the pass makes no per-fire test.  It builds no
    kept list and draws its noise, then stores ``uav.deferred = (x, y,
    geometry, noise)``, where ``geometry`` is the tick's shared list of
    ``(fire, cx, cy, a, b)`` of every active fire, and sets ``uav.reading``
    to DEFERRED.
    The UAV's next full pass, on the first tick after its swarm is released
    or once an undetected fire is within its cull distance, culls
    ``geometry`` as the deferred pass would have, computes the deferred
    temperature from the kept fires for its rate and drops the snapshot.

    A deferred pass of a noise-free UAV on a tick with every active fire
    detected also sets ``uav.far_until``, to the release bound now + (A -
    EXTINGUISH_AREA) / (len(uavs) * area_rate) - 2*dt, with A the least
    pi*a*b of the active fires and ``area_rate`` the area one UAV quenches
    per second, which ``config.from_dict`` requires above 0.  Only
    ``engine.World._extinguish`` releases a swarm, and no fire goes out on
    a tick before the bound plus dt: a quench step removes at most
    len(uavs) * area_rate * dt of a fire's area and growth only adds to it.
    The other dt is slack for the rounding of the areas and tick times.
    Nor can an undetected fire come within reach: ``detected`` only grows
    and fires only leave ``active``.  So until the bound the UAV would
    defer on every tick; its pass on the release tick still takes the
    snapshot, and the bound it sets then has passed.  The bound is computed
    on the tick's first such deferral.
    """
    inv_t = 1.0 / (2.0 * sensing.temp_sigma * sensing.temp_sigma)
    ambient = sensing.ambient_temp
    span = sensing.fire_temp - sensing.ambient_temp
    noise_std = sensing.noise_std
    noisy = noise_std > 0.0
    radius = sensing.sensing_radius
    sigma = sensing.sigma
    threshold = sensing.detect_threshold
    geometry = [(f, f.center[0], f.center[1], f.a, f.b) for f in active]
    undetected = [g for g in geometry if g[0].id not in detected]
    # the release bound of the tick's deferrals (see above), None until the
    # first one computes it
    release = -math.inf if noisy or undetected else None
    mitigating = MITIGATING_MODES
    distance = distance_to_front
    hypot, exp, inf = math.hypot, math.exp, math.inf
    detections = []
    for uav in uavs:
        if now < uav.far_until:
            continue
        px, py = pos = uav.pos
        # noise-free, adding 0.0 changes no bit: no temperature is -0.0
        noise = (noise_std * streams.agent(uav.id).standard_normal()
                 if noisy else 0.0)
        if uav.mode in mitigating:
            for _, cx, cy, a, _ in undetected:
                if not hypot(px - cx, py - cy) - a > cutoff:
                    break
            else:
                uav.deferred = (px, py, geometry, noise)
                uav.reading = DEFERRED
                if release is None:
                    least = min([math.pi * a * b
                                 for _, _, _, a, b in geometry], default=inf)
                    release = (now + (least - EXTINGUISH_AREA)
                               / (len(uavs) * area_rate) - 2.0 * dt)
                uav.far_until = release
                continue
        kept = [g for g in geometry
                if not hypot(px - g[1], py - g[2]) - g[3] > cutoff]
        best_fire = best_t = None
        best_d = inf
        temp_g = 0.0
        for f, _, _, _, _ in kept:
            d, t = distance(f, pos)
            g = exp(-d * d * inv_t)
            if g > temp_g:
                temp_g = g
            if d < best_d:
                best_d = d
                best_fire = f
                best_t = t
        temp = ambient + span * temp_g + noise
        prev = uav.reading
        if prev is None:
            rate = 0.0
        elif prev is DEFERRED:
            rate = (temp - _deferred_temperature(uav.deferred, ambient, span,
                                                 inv_t, cutoff)) / dt
            uav.deferred = None
        else:
            rate = (temp - prev.temperature) / dt

        if best_fire is None or best_d > radius:
            uav.reading = SensorReading(temp, rate, None, 0.0, None, False)
            if not kept and rate == 0.0 and not noisy:
                clear = min([hypot(px - cx, py - cy) - a
                             for _, cx, cy, a, _ in geometry], default=inf)
                uav.far_until = now + (
                    (clear - cutoff - 2.0 * ROUNDING_ALLOWANCE)
                    / (speed_bound(uav, cruise) + spread))
            continue
        prob = detection_probability(best_d, sigma)
        fx, fy = nearest_front_point(best_fire, pos, best_t)
        detected_now = prob >= threshold
        uav.reading = SensorReading(temp, rate, best_fire.id, prob,
                                    math.atan2(fy - py, fx - px),
                                    detected_now)
        if detected_now:
            detections.append(uav.id)
    return detections
