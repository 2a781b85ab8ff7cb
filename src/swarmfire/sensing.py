"""Synthetic temperature field and Gaussian fire-detection model.

The world temperature is ambient plus a Gaussian shoulder around every
active fire, combined by maximum so the field never exceeds the fire
temperature and per-fire gradients survive.  Sensors are noiseless by
default; optional additive Gaussian noise is config-driven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fire import FireFront, FireState, distance_to_front, nearest_front_point


@dataclass(slots=True)
class SensorReading:
    temperature: float            # K
    temp_rate: float              # K/s, backward difference of own samples
    fire_id: int | None           # nearest active fire within sensing radius
    probability: float            # detection probability of that fire
    heading_to_fire: float | None  # rad, bearing to nearest front point
    detected: bool                # probability >= gamma


def active_fires(fires: list[FireFront]) -> list[FireFront]:
    """The fires that burn: growing or under mitigation."""
    return [f for f in fires
            if f.state in (FireState.BURNING, FireState.UNDER_MITIGATION)]


def detection_probability(d: float, sigma: float, sensing_radius: float) -> float:
    """Gaussian detection probability, hard zero beyond the sensing radius."""
    if d > sensing_radius:
        return 0.0
    return math.exp(-d * d / (2.0 * sigma * sigma))


def cull_distance(sensing) -> float:
    """Distance beyond which a fire contributes neither detection nor more
    than 0.01 K of temperature; used to skip exact boundary distances."""
    span = sensing.fire_temp - sensing.ambient_temp
    reach = sensing.temp_sigma * math.sqrt(2.0 * math.log(span / 0.01))
    return max(sensing.sensing_radius, reach)


def sample(pos: tuple[float, float], active: list[FireFront],
           prev: SensorReading | None, dt: float, sensing, rng=None,
           cutoff: float | None = None) -> SensorReading:
    """One sensor sample for a UAV: temperature, rate, best fire candidate.

    ``active`` is ``active_fires`` of the world, computed once per tick;
    ``sensing`` is a SensingParams; ``rng`` is used only when noise_std > 0.
    Fires whose center is farther than cutoff + semi-major axis are culled
    (their temperature contribution is below 0.01 K and detection is
    impossible there).
    """
    if cutoff is None:
        cutoff = cull_distance(sensing)
    px, py = pos
    best_fire = None
    best_d = math.inf
    temp_g = 0.0
    inv_t = 1.0 / (2.0 * sensing.temp_sigma * sensing.temp_sigma)
    for f in active:
        cx, cy = f.center
        if math.hypot(px - cx, py - cy) - f.a > cutoff:
            continue
        d = distance_to_front(f, pos)
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
    prob = detection_probability(best_d, sensing.sigma, sensing.sensing_radius)
    fx, fy = nearest_front_point(best_fire, pos)
    return SensorReading(temp, rate, best_fire.id, prob,
                         math.atan2(fy - py, fx - px),
                         prob >= sensing.detect_threshold)
