"""Elliptical fire fronts: spread dynamics, front distances and quench
bookkeeping.

A fire is an axis-aligned ellipse with fixed center whose semi-axes grow at
a constant rate; quenching removes area while holding a - b constant, so a
circle stays circular and an ellipse keeps its elongation while shrinking.
All operations are deterministic value manipulations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# Below this residual area (m^2) a fire is declared extinguished; avoids
# chasing an asymptotic tail of vanishing ellipses.
EXTINGUISH_AREA = 1.0

_DIST_TOL = 1.0e-10  # parameter tolerance for nearest-boundary search


class FireState(enum.Enum):
    BURNING = "burning"
    UNDER_MITIGATION = "under-mitigation"
    EXTINGUISHED = "extinguished"


# The members as module globals, which every function reads instead of
# FireState.X: on CPython 3.11 reading a member off its class takes more
# than ten times as long as reading a global, and the tick reads them for
# every fire.  The same holds for UavMode in vehicle.
BURNING = FireState.BURNING
UNDER_MITIGATION = FireState.UNDER_MITIGATION
EXTINGUISHED = FireState.EXTINGUISHED


@dataclass
class FireFront:
    """One fire: geometry and lifecycle; the spread rate is the World's."""
    id: int
    center: tuple[float, float]
    a: float
    b: float
    state: FireState = BURNING


def fireline_intensity(flame_length: float, alpha: float, beta: float) -> float:
    """Heat release rate per unit length of front (kW/m)."""
    return alpha * flame_length ** beta


def spread_rate(intensity: float, heat_of_combustion: float,
                fuel_mass: float) -> float:
    """Constant axis growth rate (m/s) from fireline intensity."""
    return intensity / (heat_of_combustion * fuel_mass)


def area(fire: FireFront) -> float:
    """Current burning area pi*a*b (m^2)."""
    return math.pi * fire.a * fire.b


def grow(fire: FireFront, spread: float, dt: float) -> None:
    """Advance both semi-axes by spread*dt (only burning fires grow)."""
    fire.a += spread * dt
    fire.b += spread * dt


def point_on_front(fire: FireFront, theta: float) -> tuple[float, float]:
    """Boundary point at parametric angle theta."""
    cx, cy = fire.center
    return (cx + fire.a * math.cos(theta), cy + fire.b * math.sin(theta))


def _quadrant_param(a: float, b: float, x: float, y: float) -> float:
    """Parametric angle of the boundary point nearest to (x, y), both >= 0,
    point strictly outside the ellipse.

    Safeguarded Newton on the nearest-point stationarity condition with a
    guaranteed bisection bracket: g(0) = b*y >= 0, g(pi/2) = -a*x <= 0.
    """
    if a == b:
        return math.atan2(y, x)
    if y == 0.0:
        return 0.0
    if x == 0.0:
        return 0.5 * math.pi
    c = a * a - b * b
    lo, hi = 0.0, 0.5 * math.pi
    t = math.atan2(a * y, b * x)
    for _ in range(100):
        st, ct = math.sin(t), math.cos(t)
        g = c * st * ct - x * a * st + y * b * ct
        if g > 0.0:
            lo = t
        else:
            hi = t
        dg = c * (ct * ct - st * st) - x * a * ct - y * b * st
        if dg != 0.0:
            t_new = t - g / dg
            # A step that rounds to zero means t is a root to working
            # precision.  The bracket end was just set to t, so the test
            # below would reject the step and bisect away from the root.
            if t_new == t:
                return t
        else:
            t_new = 0.5 * (lo + hi)
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) < _DIST_TOL:
            return t_new
        t = t_new
    return t


def boundary_distance(a: float, b: float, dx: float,
                      dy: float) -> tuple[float, float | None]:
    """Distance from a point (offset dx, dy from center) to the ellipse
    boundary, 0 if the point is inside or on it, and the first-quadrant
    parametric angle of the nearest boundary point when it was solved for
    (None inside the front and on a circle)."""
    x, y = abs(dx), abs(dy)
    if (x / a) ** 2 + (y / b) ** 2 <= 1.0:
        return 0.0, None
    if a == b:
        return math.hypot(x, y) - a, None
    t = _quadrant_param(a, b, x, y)
    return math.hypot(x - a * math.cos(t), y - b * math.sin(t)), t


def distance_to_front(fire: FireFront,
                      p: tuple[float, float]) -> tuple[float, float | None]:
    """Euclidean distance from p to the nearest front point, 0 inside, and
    the solved parameter that ``nearest_front_point`` accepts."""
    cx, cy = fire.center
    return boundary_distance(fire.a, fire.b, p[0] - cx, p[1] - cy)


def nearest_front_point(fire: FireFront, p: tuple[float, float],
                        t: float | None = None) -> tuple[float, float]:
    """Closest boundary point to p.  For interior points the boundary point
    in p's polar direction is returned (any front point is equally 'nearest'
    for bearing purposes once inside).  ``t`` is the parameter
    ``distance_to_front`` solved for the same fire and point; without it
    the point is solved for again."""
    cx, cy = fire.center
    dx, dy = p[0] - cx, p[1] - cy
    if t is None:
        x, y = abs(dx), abs(dy)
        if (x / fire.a) ** 2 + (y / fire.b) ** 2 <= 1.0:
            return point_on_front(fire, math.atan2(dy, dx))
        t = _quadrant_param(fire.a, fire.b, x, y)
    bx = fire.a * math.cos(t) * (1.0 if dx >= 0 else -1.0)
    by = fire.b * math.sin(t) * (1.0 if dy >= 0 else -1.0)
    return (cx + bx, cy + by)


def apply_quench(fire: FireFront, n_active: int, area_rate: float,
                 spread: float, dt: float) -> None:
    """One quench step: net area = current + growth - n_active*rate*dt.

    The axes are resized to enclose the net area with a - b held constant
    (positive root of the area quadratic).  Dropping to EXTINGUISH_AREA or
    below ends the fire's life.  Only called on a fire under mitigation.
    """
    grown_a = fire.a + spread * dt
    grown_b = fire.b + spread * dt
    removed = n_active * area_rate * dt
    net = max(0.0, math.pi * grown_a * grown_b - removed)
    d = fire.a - fire.b
    new_b = 0.5 * (-d + math.sqrt(d * d + 4.0 * net / math.pi))
    fire.a = new_b + d
    fire.b = new_b
    if net <= EXTINGUISH_AREA:
        fire.state = EXTINGUISHED
