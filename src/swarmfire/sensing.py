"""Synthetic temperature field and Gaussian fire-detection model.

The world temperature is ambient plus a Gaussian shoulder around every
active fire, combined by maximum so the field never exceeds the fire
temperature and per-fire gradients survive.  Sensors are noiseless by
default; optional additive Gaussian noise is config-driven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fire import (EXTINGUISHED, FireFront, boundary_distance,
                   distance_to_front, nearest_front_point)
from .vehicle import MITIGATING_MODES


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


# Slack (m) kept below a far UAV's clearance margin.  It absorbs the
# rounding in what the skip test adds up (positions, front axes grown tick
# by tick, elapsed time), which stays far below a millimetre.
ROUNDING_ALLOWANCE = 1.0e-3

# The reading of a UAV whose pass was deferred (see sample).  Its NaN
# temperature fails the settled-ambient test, so it is never kept.
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


def sample(uavs, active: list[FireFront], now: float, dt: float, sensing,
           streams, cutoff: float, detected) -> list[int]:
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

    ``uav.far`` is None, or ``(x, y, margin, t0)``: at time t0 the UAV
    stood at (x, y) and every active fire was culled, the nearest with
    hypot(p - c) - a = cutoff + margin + ROUNDING_ALLOWANCE.  Centers are
    fixed, a front grows by at most spread*dt per tick and fires only
    leave ``active``, so while the UAV has moved less than
    margin - max(spread) * (now - t0) every fire is still culled and the
    per-fire loop is skipped.  ``now`` is the time of this tick.  The
    stage keeps ``uav.far`` valid; only a full pass (neither skipped nor
    deferred) sets it.  A skipped noise-free UAV whose previous
    reading is the settled ambient one keeps it.

    A reading is read only by the engine's detection bookkeeping, for a
    fire not yet in ``detected`` (the world's detected fire ids), and by
    the search stage, for the members of a searching swarm.  So the pass
    of a UAV in one of ``vehicle.MITIGATING_MODES`` (its swarm mitigates,
    and searches again no earlier than the next tick) with no fire outside
    ``detected`` within the cull distance is deferred.  That is decided
    before the cull, by testing only the undetected fires, so once every
    active fire is detected the pass makes no per-fire test.  It builds no
    kept list, leaves ``uav.far`` as it was (a stale clearance stays valid:
    the skip test adds the distance moved and the growth since t0) and
    draws its noise, then stores ``uav.deferred = (x, y, geometry,
    noise)``, where ``geometry`` is the tick's shared list of ``(fire, cx,
    cy, a, b)`` of every active fire, and sets ``uav.reading`` to DEFERRED.
    The UAV's next full pass, on the first tick after its swarm is released
    or once an undetected fire is within its cull distance, culls
    ``geometry`` as the deferred pass would have, computes the deferred
    temperature from the kept fires for its rate and drops the snapshot.
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
    growth = max([f.spread for f in active]) if active else 0.0
    mitigating = MITIGATING_MODES
    distance = distance_to_front
    hypot, exp, inf = math.hypot, math.exp, math.inf
    detections = []
    for uav in uavs:
        px, py = pos = uav.pos
        last = uav.far
        far = last is not None and (hypot(px - last[0], py - last[1])
                                    + growth * (now - last[3]) < last[2])
        if far and not noisy:
            # every fire is still culled
            prev = uav.reading
            if (prev.temp_rate == 0.0 and prev.temperature == ambient
                    and prev.fire_id is None):
                continue
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
                continue
        if far:
            kept = ()
        else:
            kept = [g for g in geometry
                    if not hypot(px - g[1], py - g[2]) - g[3] > cutoff]
            if not kept:
                # rare: most UAVs clear of every fire took the skip above
                clear = min([hypot(px - cx, py - cy) - a
                             for _, cx, cy, a, _ in geometry], default=inf)
                uav.far = (px, py, clear - cutoff - ROUNDING_ALLOWANCE, now)
            elif last is not None:
                uav.far = None
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
