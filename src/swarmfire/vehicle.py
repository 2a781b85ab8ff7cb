"""First-order UAV kinematics with position-to-velocity reference feedback.

The velocity lag v' = -lambda*(v - v_r) is discretised exactly
(exponential update), which is unconditionally stable for any step size;
position integrates the velocity trapezoidally over the step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .rng import uniform

if TYPE_CHECKING:   # sensing imports MITIGATING_MODES from here
    from .sensing import SensorReading

Vec = tuple[float, float]

# m/s; at or below it a UAV's velocity gives it no heading
HEADING_MIN_SPEED = 0.1


class UavMode(enum.Enum):
    EXPLORE = "explore"
    EXPLOIT = "exploit"
    ATTRACTED = "attracted"   # pulled toward a swarm-mate's detected fire
    ALIGN = "align"           # detector moving to its own alignment point
    MITIGATE = "mitigate"
    REPELLED = "repelled"


# The members as module globals, read instead of UavMode.X (see the note
# on fire.BURNING).
EXPLORE = UavMode.EXPLORE
EXPLOIT = UavMode.EXPLOIT
ATTRACTED = UavMode.ATTRACTED
ALIGN = UavMode.ALIGN
MITIGATE = UavMode.MITIGATE
REPELLED = UavMode.REPELLED

# The modes of the members of a mitigating swarm.  A tuple: ``in`` tests
# identity first, where a set would call Enum's hash written in Python.
MITIGATING_MODES = (ALIGN, ATTRACTED, MITIGATE)


@dataclass
class UavState:
    id: int
    swarm_id: int
    pos: Vec
    vel: Vec = (0.0, 0.0)
    mode: UavMode = EXPLORE
    waypoint: tuple | None = None          # (x, y, vx, vy); None: hold
    reading: SensorReading | None = None   # latest; None before the first
    # where a full sensing pass culled every fire (see sensing.sample)
    far: tuple[float, float, float, float] | None = None
    last_heading: float | None = None      # of its last fast tick
    returning: bool = False                # headed back to the swarm center
    # (x, y, tick geometry, noise) of a deferred pass (see sensing.sample)
    deferred: tuple | None = None


def step(uavs: list[UavState], kin, dt: float, area: Vec) -> None:
    """The vehicle stage of one tick: advance every UAV in list order.

    A UAV whose ``waypoint`` is (x, y, vx, vy) flies toward (x, y) at a
    reference velocity whose speed saturates below the cruise speed as the
    tracking error grows, plus (vx, vy) as feed-forward; one whose
    ``waypoint`` is None holds a zero reference.  The velocity follows the
    reference through the exact first-order lag and the position
    integrates it trapezoidally, then is clamped into the area.  When a
    UAV slows from above HEADING_MIN_SPEED to at most that,
    ``uav.last_heading`` records the heading it had: that of its last fast
    tick (see ``heading``).  ``kin`` is a KinematicsParams.
    """
    cruise, tau = kin.cruise_speed, kin.tracking_tau
    decay = math.exp(-kin.pole * dt)
    half_dt = 0.5 * dt
    w, h = area
    hypot = math.hypot
    slow = HEADING_MIN_SPEED
    for uav in uavs:
        px, py = uav.pos
        vx0, vy0 = uav.vel
        wp = uav.waypoint
        if wp is not None:
            tx, ty, fx, fy = wp
            ex = tx - px
            ey = ty - py
            gain = cruise / (tau + hypot(ex, ey))
            rx = gain * ex + fx
            ry = gain * ey + fy
        else:
            rx = ry = 0.0
        vx = rx + (vx0 - rx) * decay
        vy = ry + (vy0 - ry) * decay
        x = px + half_dt * (vx0 + vx)
        y = py + half_dt * (vy0 + vy)
        # min(max(v, 0), extent), as search.clamp_to_area writes it
        x = 0.0 if 0.0 > x else x
        y = 0.0 if 0.0 > y else y
        uav.pos = (w if w < x else x, h if h < y else y)
        uav.vel = (vx, vy)
        if not hypot(vx, vy) > slow and hypot(vx0, vy0) > slow:
            uav.last_heading = math.atan2(vy0, vx0)


def heading(uav: UavState, streams) -> float:
    """The UAV's heading: that of its velocity above HEADING_MIN_SPEED,
    else that of its last fast tick, else a uniform draw from its agent
    stream of ``streams`` (the run's RngStreams)."""
    vx, vy = uav.vel
    if math.hypot(vx, vy) > HEADING_MIN_SPEED:
        return math.atan2(vy, vx)
    if uav.last_heading is not None:
        return uav.last_heading
    return uniform(streams.agent(uav.id), -math.pi, math.pi)


def arrival_radius(cruise_speed: float, dt: float) -> float:
    """Waypoint-arrival radius: max(2*V0*dt, 5 m)."""
    return max(2.0 * cruise_speed * dt, 5.0)


def reached(pos: Vec, target: tuple, radius: float) -> bool:
    """Arrival: within ``radius`` of target's (x, y), a point or waypoint."""
    return math.hypot(target[0] - pos[0], target[1] - pos[1]) < radius
