"""Waypoint generation for the cooperative information-driven search and
for the baseline strategies (uniform, normal, levy, multi-level switching).

Exploration takes long heavy-tailed steps; exploitation takes short
folded-normal steps; both are aimed inside a heading cone centered on the
direction of the swarm member with the highest temperature gradient.  The
cone half-width widens with the hottest temperature sensed by the swarm.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import uniform


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(angle + math.pi, math.tau)
    if a <= 0.0:
        a += math.tau
    return a - math.pi


def scan_members(members: list[int], uavs, records):
    """One pass over a searching swarm's members (ascending ids).

    Returns the first member reading that detects a fire (or None); the
    member with the highest temperature gradient, ties and a swarm whose
    rates are all NaN or -inf to the lowest id, and the hottest
    temperature any member senses; ``(reading, record)`` for each member
    whose reading names a fire that has a record in ``records``; and the
    mean member position.  ``uavs[uid]`` is the member's UavState, which
    holds its latest SensorReading.
    """
    detector = None
    k_star = members[0]
    best = temp_max = -math.inf
    near = []
    xs = ys = 0.0
    for uid in members:
        uav = uavs[uid]
        r = uav.reading
        if r.detected and detector is None:
            detector = r
        if r.temp_rate > best:
            best = r.temp_rate
            k_star = uid
        if r.temperature > temp_max:
            temp_max = r.temperature
        if r.fire_id is not None:
            rec = records.get(r.fire_id)
            if rec is not None:
                near.append((r, rec))
        px, py = uav.pos
        xs += px
        ys += py
    n = len(members)
    return detector, k_star, temp_max, near, (xs / n, ys / n)


def search_cone_halfwidth(temp_max: float, cone_gain: float,
                          cone_rate: float) -> float:
    """Logistic half-width of the heading cone (rad)."""
    try:
        return cone_gain / (1.0 + math.exp(-cone_rate * temp_max))
    except OverflowError:
        # a reading far below 0 K (large noise or a cold ambient_temp):
        # the logistic's limit
        return 0.0


def sample_heading(phi_center: float, phi0: float,
                   rng: np.random.Generator) -> float:
    """Uniform draw on [phi_center - phi0, phi_center + phi0], wrapped."""
    return wrap_angle(phi_center + uniform(rng, -phi0, phi0))


def sample_levy_length(rng: np.random.Generator, tail_exponent: float,
                       l_max: float) -> float:
    """Heavy-tailed step factor: inverse-CDF draw from a Pareto with
    P(l > x) ~ x**-tail_exponent, truncated at l_max (l >= 1)."""
    u = rng.random()
    tail = l_max ** (-tail_exponent)
    return (1.0 - u * (1.0 - tail)) ** (-1.0 / tail_exponent)


def sample_brown_length(rng: np.random.Generator) -> float:
    """Short-step factor |N(0, 1)|."""
    return abs(rng.standard_normal())


def sample_step_length(explore: bool, rng: np.random.Generator,
                       tail_exponent: float, l_max: float) -> float:
    """Dimensionless step factor for the active search stage."""
    if explore:
        return sample_levy_length(rng, tail_exponent, l_max)
    return sample_brown_length(rng)


def select_explore(temp_max: float, temp_threshold: float) -> bool:
    """Stage switch: explore strictly below the temperature threshold,
    exploit at or above it.  Re-evaluated every tick, no hysteresis."""
    return temp_max < temp_threshold


def clamp_to_area(p: tuple[float, float],
                  area: tuple[float, float]) -> tuple[float, float]:
    """min(max(v, 0), extent) per axis, written as the comparisons those
    builtins make (same result for -0.0 and NaN) at a fraction of their
    call cost; this runs for every UAV on every tick."""
    x, y = p
    w, h = area
    x = 0.0 if 0.0 > x else x
    y = 0.0 if 0.0 > y else y
    return (w if w < x else x, h if h < y else y)


def next_waypoint(p_info: tuple[float, float], heading: float,
                  step_scale: float, length: float,
                  area: tuple[float, float],
                  center_pred: tuple[float, float],
                  swarm_radius: float) -> tuple[float, float]:
    """Stochastic waypoint around the max-information member's position,
    clamped into the search area, then projected onto the swarm disk about
    the predicted swarm center to preserve swarm extent."""
    step = step_scale * length
    raw = (p_info[0] + step * math.cos(heading),
           p_info[1] + step * math.sin(heading))
    raw = clamp_to_area(raw, area)
    dx = raw[0] - center_pred[0]
    dy = raw[1] - center_pred[1]
    dist = math.hypot(dx, dy)
    if dist > swarm_radius:
        scale = swarm_radius / dist
        raw = (center_pred[0] + dx * scale, center_pred[1] + dy * scale)
    return clamp_to_area(raw, area)


# The strategies whose search reads a reading's temperature and rate:
# MSCIDC steers by them (scan_members) and OMS switches on them below.
# UNIFORM, NORMAL and LEVY read only the detection, so their worlds cull
# fires at the sensing radius (sensing.cull_distance).
THERMAL_STRATEGIES = ("MSCIDC", "OMS")


def baseline_waypoint(strategy: str, pos: tuple[float, float],
                      vel: tuple[float, float], temperature: float,
                      temp_rate: float, rng: np.random.Generator,
                      area: tuple[float, float], search_params,
                      l_max: float, temp_threshold: float
                      ) -> tuple[float, float, float, float]:
    """Independent per-UAV waypoint for the comparison strategies, as the
    flight command ``(x, y, 0.0, 0.0)`` the engine stores.

    UNIFORM resamples anywhere in the area; NORMAL and LEVY step from the
    current position at a uniform heading; OMS approximates a multi-level
    switching search (levy legs while cool, short legs while hot, heading
    biased along the current velocity when the temperature is rising).
    ``l_max`` truncates the levy step factor (area diagonal / levy_step).

    This runs for every leg a baseline UAV flies, so NORMAL's part of it
    is written inline: the uniform heading (``uniform(rng, -pi, pi)``, as
    pi - -pi is exactly tau), the ``|N(0, 1)|`` step factor and the clamp
    of ``clamp_to_area``, with the same bits.  An unknown strategy raises
    before any draw.
    """
    if strategy in ("NORMAL", "LEVY"):
        levy = strategy == "LEVY"
        heading = -math.pi + math.tau * rng.random()
    elif strategy == "OMS":
        levy = temperature < temp_threshold
        if temp_rate > 0.0 and (vel[0] != 0.0 or vel[1] != 0.0):
            phi = math.atan2(vel[1], vel[0])
            heading = sample_heading(phi, 0.25 * math.pi, rng)
        else:
            heading = uniform(rng, -math.pi, math.pi)
    elif strategy == "UNIFORM":
        return (uniform(rng, 0.0, area[0]), uniform(rng, 0.0, area[1]),
                0.0, 0.0)
    else:
        raise ValueError(f"unknown baseline strategy: {strategy}")
    if levy:
        step = search_params.levy_step * sample_levy_length(
            rng, search_params.levy_tail_exponent, l_max)
    else:
        step = search_params.brown_step * abs(rng.standard_normal())
    w, h = area
    px, py = pos
    x = px + step * math.cos(heading)
    y = py + step * math.sin(heading)
    x = 0.0 if 0.0 > x else x
    y = 0.0 if 0.0 > y else y
    return (w if w < x else x, h if h < y else y, 0.0, 0.0)
