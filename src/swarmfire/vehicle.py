"""First-order UAV kinematics with position-to-velocity reference feedback.

The velocity lag v' = -lambda*(v - v_r) is discretised exactly
(exponential update), which is unconditionally stable for any step size;
position integrates the velocity trapezoidally over the step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

Vec = tuple[float, float]


class UavMode(enum.Enum):
    EXPLORE = "explore"
    EXPLOIT = "exploit"
    ATTRACTED = "attracted"   # pulled toward a swarm-mate's detected fire
    ALIGN = "align"           # detector moving to its own alignment point
    MITIGATE = "mitigate"
    REPELLED = "repelled"


@dataclass
class UavState:
    id: int
    swarm_id: int
    pos: Vec
    vel: Vec = (0.0, 0.0)
    mode: UavMode = UavMode.EXPLORE
    waypoint: Vec = (0.0, 0.0)
    waypoint_vel: Vec = (0.0, 0.0)
    has_waypoint: bool = False


def reference_velocity(pos: Vec, target: Vec, target_vel: Vec,
                       cruise_speed: float, tau: float) -> Vec:
    """Velocity command toward the target; speed saturates below cruise_speed
    as tracking error grows, plus the target's own velocity feed-forward."""
    ex = target[0] - pos[0]
    ey = target[1] - pos[1]
    gain = cruise_speed / (tau + math.hypot(ex, ey))
    return (gain * ex + target_vel[0], gain * ey + target_vel[1])


def step(uav: UavState, v_ref: Vec, pole: float, dt: float) -> UavState:
    """Advance one step: exact first-order lag for velocity, trapezoidal
    integral for position."""
    decay = math.exp(-pole * dt)
    vx0, vy0 = uav.vel
    vx = v_ref[0] + (vx0 - v_ref[0]) * decay
    vy = v_ref[1] + (vy0 - v_ref[1]) * decay
    px, py = uav.pos
    uav.pos = (px + 0.5 * dt * (vx0 + vx), py + 0.5 * dt * (vy0 + vy))
    uav.vel = (vx, vy)
    return uav


def arrival_radius(cruise_speed: float, dt: float) -> float:
    """Waypoint-arrival radius: max(2*V0*dt, 5 m)."""
    return max(2.0 * cruise_speed * dt, 5.0)


def reached(pos: Vec, target: Vec, radius: float) -> bool:
    """Waypoint-arrival predicate: within ``arrival_radius`` of the target."""
    return math.hypot(target[0] - pos[0], target[1] - pos[1]) < radius
