"""Divide-and-conquer mitigation: quench-rate model, non-overlapping
sector assignment, the to-and-fro sweep control along the front, and the
merging/repulsion decisions coordinating swarms across fires.

Sweep angles here are the ellipse's parametric angle (the angle fed to
(a*cos, b*sin)); sectors are uniform intervals of width 2*pi/N in it, so
they also have equal areas, and stay equal as the fire shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fire import FireFront


def quench_area_rate(water_rate: float, c: float, nu: float,
                     flame_length: float) -> float:
    """Area one UAV quenches per second (m^2/s): water rate over the
    critical flow rate c * L_f**nu."""
    return water_rate / (c * flame_length ** nu)


@dataclass
class SectorTrack:
    """One UAV a fire's record owns: its sector of the front and the one
    angle in it that its UAV flies to, joins at and sweeps.  A merging
    track's sector is provisional until every merging UAV has arrived."""
    uav_id: int
    lo: float
    hi: float
    theta: float
    direction: int = 1            # mu in {-1, +1}
    joined: bool = False
    merging: bool = False


@dataclass
class FireMitigationRecord:
    """Coordinator state for one fire under mitigation, keyed by its fire
    id in World.records: the swarms on the fire and one track per UAV they
    own, merging tracks after the others."""
    swarm_ids: list[int] = field(default_factory=list)
    tracks: list[SectorTrack] = field(default_factory=list)

    @property
    def n_swarms(self) -> int:
        return len(self.swarm_ids)

    def joined_count(self) -> int:
        n = 0
        for t in self.tracks:
            if t.joined:
                n += 1
        return n


def assign_sectors(fire: FireFront,
                   members: list[tuple[int, tuple[float, float]]],
                   keep: dict[int, SectorTrack] | None = None
                   ) -> list[SectorTrack]:
    """Assign each member one of N equal sectors of the parametric angle.

    Members are sorted by their current angular position around the fire
    center (ties by uav id) and mapped to sectors in the same cyclic order,
    which keeps the initial travel short and preserves relative order on
    repartition.  Every track starts at its sector midpoint; ``keep``
    carries over the joined flag and sweep direction by uav id.
    """
    if not members:
        raise ValueError("cannot assign sectors to an empty member list")
    n = len(members)
    cx, cy = fire.center

    def angle_of(item):
        uid, (px, py) = item
        ang = math.atan2(py - cy, px - cx) % math.tau
        return (ang, uid)

    ordered = sorted(members, key=angle_of)
    tracks = []
    for idx, (uid, _pos) in enumerate(ordered):
        lo = math.tau * idx / n
        hi = math.tau * (idx + 1) / n
        track = SectorTrack(uav_id=uid, lo=lo, hi=hi, theta=0.5 * (lo + hi))
        if keep and uid in keep:
            old = keep[uid]
            track.joined = old.joined
            track.direction = old.direction
        tracks.append(track)
    return tracks


def nominal_angular_velocity(a: float, b: float, speed: float,
                             theta: float) -> float:
    """Angular rate capping the tangential ground speed at ``speed``."""
    r_local = math.hypot(a * math.sin(theta), b * math.cos(theta))
    return speed / r_local


def angular_control(theta: float, theta_ref: float, direction: int,
                    lo: float, hi: float, omega: float, track_gain: float,
                    turn_margin: float, dt: float
                    ) -> tuple[float, float, int]:
    """One step of the sector sweep: the reference angle ping-pongs between
    the sector bounds and the angle tracks it with first-order decay.

    The law is theta' = mu*omega + K_m*(theta - theta_ref), whose tracking
    error decays as exp(K_m*t) regardless of sweep direction.
    """
    # Direction flip when the reference nears a bound while moving into it.
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

    err = theta - theta_ref
    if err:   # a zero error stays zero: no decay factor to compute
        err *= math.exp(track_gain * dt)
    return (new_ref + err, new_ref, direction)


def merging_decision(fire_area: float, fires_remaining: int,
                     n_swarms_on_fire: int, merge_area: float,
                     merge_fires: int, merge_swarms: int) -> bool:
    """Whether another swarm may merge onto an already-serviced fire."""
    return ((fire_area > merge_area or fires_remaining < merge_fires)
            and n_swarms_on_fire < merge_swarms)


def repulsion_decision(probability: float, repel_threshold: float,
                       detect_threshold: float, under_mitigation: bool,
                       merge_allowed: bool) -> bool:
    """Whether a searching swarm is deflected off a busy fire.  Mutually
    exclusive with merging for the same (swarm, fire, tick)."""
    return (under_mitigation and not merge_allowed
            and repel_threshold < probability < detect_threshold)


def repulsion_heading(max_info_heading: float) -> float:
    """Exploration heading opposite the maximum information direction."""
    a = math.fmod(max_info_heading + math.tau, math.tau)
    out = a - math.pi
    if out <= -math.pi:
        out += math.tau
    return out
