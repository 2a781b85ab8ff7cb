"""Discrete-time mission engine: sensing, search, mitigation coordination,
vehicle motion, fire dynamics and metrics.

Each tick runs ``World.stages`` in order: growth, sensing and detection,
the strategy's search, mitigation, vehicle, quench, bookkeeping.  They are
plain functions, as bound methods would make every World refer to itself.
They look ``fire.grow`` and ``apply_quench``, ``sensing.sample``,
``search.next_waypoint`` and ``baseline_waypoint``, ``vehicle.step`` and
``mitigation.assign_sectors`` and ``angular_control`` up on their modules
each time they run, never at import: ``perfbench``'s tracer swaps them.
Swarms and members go by id, so identical (config, run_index) pairs replay
bit-identically regardless of how many runs execute in parallel.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import fire as fi
from . import mitigation as mi
from . import search as se
from . import sensing as sn
from . import vehicle as ve
from .config import ScenarioConfig
from .rng import RngStreams, uniform


@dataclass
class SwarmState:
    id: int
    member_ids: list[int]
    mitigating: bool = False      # exactly while some record lists the swarm
    repel_until: float = -math.inf
    repel_heading: float = 0.0    # set with repel_until, read only before it
    explore: bool | None = None   # last search stage; None forces a switch
    # the search stage skips the swarm before this time (_swarm_search)
    quiet_until: float = -math.inf


@dataclass
class RunResult:
    """Per-run mission metrics and optional step traces."""
    run_index: int
    strategy: str
    n_swarms: int
    detection_time: float
    mission_time: float
    fer: float
    objective: float
    complete: bool
    all_detected: bool
    quench_times: dict[int, float]
    quench_violations: list[int]
    detected_area_sum: float
    undetected_area_sum: float
    series: list[tuple]          # (t, F_d, F_f, F_r, S_s, S_q, total_area)
    events: list[dict]
    trace: list[dict] | None = None


class World:
    """Mutable state of one simulation run."""

    def __init__(self, cfg: ScenarioConfig, run_index: int,
                 collect_trace: bool = False):
        self.cfg = cfg
        self.time = 0.0
        self.tick_index = 0

        self.area_rate = cfg.area_rate
        self.spread = cfg.spread
        self.fires = [fi.FireFront(i, s.center, s.a, s.b)
                      for i, s in enumerate(cfg.fires)]
        self.rng = RngStreams(cfg.engine.base_seed, run_index, cfg.n_uavs)
        self.uavs: list[ve.UavState] = []
        self.swarms: list[SwarmState] = []
        mscidc = cfg.engine.strategy == "MSCIDC"
        self._spawn(mscidc)

        self.records: dict[int, mi.FireMitigationRecord] = {}
        self.detected: dict[int, float] = {}
        self.detected_area: dict[int, float] = {}
        self.extinguished: dict[int, float] = {}
        self.events: list[dict] = []
        self.series: list[tuple] = []
        self.trace: list[dict] | None = [] if collect_trace else None
        self.total_area0 = sum(fi.area(f) for f in self.fires)
        self.peak_total_area = self.total_area0
        self._cutoff = sn.cull_distance(
            cfg.sensing, cfg.engine.strategy in se.THERMAL_STRATEGIES)
        self._arrival = ve.arrival_radius(cfg.kinematics.cruise_speed,
                                          cfg.engine.dt)
        diag = math.hypot(*cfg.area)
        self._l_max = diag / cfg.search.levy_step
        search = World._mscidc_search if mscidc else World._baseline_search
        self.stages = (World._grow, World._sense, search, World._mitigate,
                       World._move, World._quench, World._bookkeep)
        self._log_state(self.total_area0)

    # -- initialisation ----------------------------------------------------

    def _spawn(self, swarms: bool) -> None:
        """Lay out cfg.swarm_sizes as swarms scattered around their drawn
        centers, or every UAV as a swarm of one at its drawn center."""
        cfg = self.cfg
        w, h = cfg.area
        rng = self.rng.world
        for sid, size in enumerate(cfg.swarm_sizes if swarms
                                   else (1,) * cfg.n_uavs):
            cx, cy = uniform(rng, 0.0, w), uniform(rng, 0.0, h)
            first = len(self.uavs)
            for uid in range(first, first + size):
                pos = (cx, cy)
                if swarms:
                    r = cfg.swarm_radius * math.sqrt(uniform(rng, 0.0, 1.0))
                    ang = uniform(rng, -math.pi, math.pi)
                    pos = se.clamp_to_area((cx + r * math.cos(ang),
                                            cy + r * math.sin(ang)), cfg.area)
                self.uavs.append(ve.UavState(id=uid, pos=pos))
            # member_ids ascend and never change; the tick relies on it
            self.swarms.append(SwarmState(sid, list(range(first, first + size))))

    # -- helpers -----------------------------------------------------------

    def _event(self, kind: str, t: float, **payload) -> None:
        self.events.append({"type": kind, "t": t, **payload})

    def _merge_allowed(self, f: fi.FireFront,
                       rec: mi.FireMitigationRecord) -> bool:
        m = self.cfg.mitigation
        return mi.merging_decision(
            fi.area(f), len(self.fires) - len(self.extinguished),
            rec.n_swarms, m.merge_area, m.merge_fires, m.merge_swarms)

    def _swarm_mean_vel(self, swarm: SwarmState) -> tuple[float, float]:
        xs = ys = 0.0
        for uid in swarm.member_ids:
            vx, vy = self.uavs[uid].vel
            xs += vx
            ys += vy
        n = len(swarm.member_ids)
        return (xs / n, ys / n)

    # -- tick pipeline -----------------------------------------------------

    def tick(self) -> None:
        t_now = self.time + self.cfg.engine.dt
        for stage in self.stages:
            stage(self, t_now)

    def _grow(self, t_now: float) -> None:
        dt, spread = self.cfg.engine.dt, self.spread
        for f in self.fires:
            if f.state is fi.BURNING:
                fi.grow(f, spread, dt)

    def _sense(self, t_now: float) -> None:
        """Sensing and detection bookkeeping, fixed uav order.  No fire
        changes state while the UAVs sample, so every fire a reading names
        is active for the rest of this tick's search stage."""
        detected = self.detected
        cfg = self.cfg
        for uid in sn.sample(self.uavs, sn.active_fires(self.fires), t_now,
                             cfg.engine.dt, self.spread,
                             cfg.kinematics.cruise_speed, cfg.sensing,
                             self.rng, self._cutoff, detected):
            fid = self.uavs[uid].reading.fire_id
            if fid not in detected:
                detected[fid] = t_now
                self.detected_area[fid] = fi.area(self.fires[fid])
                self._event("detection", t_now, fire=fid, uav=uid)

    def _move(self, t_now: float) -> None:
        cfg = self.cfg
        ve.step(self.uavs, cfg.kinematics, cfg.engine.dt, cfg.area)

    def _quench(self, t_now: float) -> None:
        """A record with a joined track belongs to a fire under mitigation:
        every join moves its fire out of BURNING, and an extinguished
        fire's record is gone."""
        records, fires, dt = self.records, self.fires, self.cfg.engine.dt
        quench, rate, spent = fi.apply_quench, self.area_rate, fi.EXTINGUISHED
        for fid in sorted(records):
            n_active = records[fid].joined_count()
            if n_active >= 1:
                f = fires[fid]
                quench(f, n_active, rate, self.spread, dt)
                if f.state is spent:
                    self._extinguish(fid, t_now)

    def _bookkeep(self, t_now: float) -> None:
        spent = fi.EXTINGUISHED
        total_area = 0   # sum()'s start: no fire burning logs int 0
        for f in self.fires:
            if f.state is not spent:
                total_area += math.pi * f.a * f.b   # fi.area
        if total_area > self.peak_total_area:
            self.peak_total_area = total_area
        self.time = t_now
        self.tick_index += 1
        if (self.tick_index % self.cfg.engine.trace_stride == 0
                or self.done()):
            self._log_state(total_area)

    # -- search phase ------------------------------------------------------

    def _mscidc_search(self, t_now: float) -> None:
        for swarm in self.swarms:
            if not (swarm.mitigating or t_now < swarm.quiet_until):
                self._swarm_search(swarm, t_now)

    def _swarm_search(self, swarm: SwarmState, t_now: float) -> None:
        cfg = self.cfg
        members = swarm.member_ids
        uavs = self.uavs
        detector, k_star, temp_max, near, (cx, cy) = se.scan_members(
            members, uavs, self.records)
        if k_star is None:
            # no rate beats -inf: every member's is NaN or -inf (noise
            # that overflowed), so the lowest id steers
            k_star = members[0]

        # Detection by any member locks the swarm onto the fire (or merges).
        if detector is not None and self._lock_or_merge(
                swarm, detector.fire_id, t_now, "merge"):
            return

        # Repulsion off a busy fire seen at intermediate probability; the
        # max-information member steers both repulsion and the search.
        if near and t_now >= swarm.repel_until:
            sensing = cfg.sensing
            for r, rec in near:
                f = self.fires[r.fire_id]
                if mi.repulsion_decision(
                        r.probability, sensing.repel_threshold,
                        sensing.detect_threshold,
                        f.state is fi.UNDER_MITIGATION,
                        self._merge_allowed(f, rec)):
                    swarm.repel_until = t_now + cfg.mitigation.repel_cooldown
                    swarm.repel_heading = mi.repulsion_heading(
                        ve.heading(uavs[k_star], self.rng))
                    self._event("repulsion", t_now, swarm=swarm.id,
                                fire=r.fire_id)
                    swarm.explore = None   # the switch below drops every leg
                    break

        # Stage selection and waypoint generation.
        repelled = t_now < swarm.repel_until
        explore = True if repelled else se.select_explore(
            temp_max, cfg.sensing.temp_threshold)
        if explore is not swarm.explore:
            # stage switch: drop in-flight legs so the new stage takes over
            # immediately instead of after the current (possibly long) leg
            swarm.explore = explore
            for mid in members:
                uavs[mid].waypoint = None

        swarm_radius = cfg.swarm_radius
        arrival = self._arrival
        hypot = math.hypot
        due = []   # members that draw a new waypoint this tick
        for uid in members:
            uav = uavs[uid]
            px, py = uav.pos
            if hypot(px - cx, py - cy) > swarm_radius:
                # local attraction: pull strays back to the swarm center
                uav.waypoint = (cx, cy, 0.0, 0.0)
                uav.returning = True
                continue
            if uav.returning:   # back in the disk: draws a leg below
                uav.returning = False
            elif uav.waypoint is not None:
                # not ve.reached: NaN distances count as not arrived
                wx, wy, _, _ = uav.waypoint
                if not hypot(wx - px, wy - py) < arrival:
                    continue
            due.append(uav)
        if not due:
            swarm.quiet_until = self._quiet_until(swarm, t_now, cx, cy,
                                                  repelled)
            return

        if repelled:
            phi_center = swarm.repel_heading
        else:
            phi_center = ve.heading(uavs[k_star], self.rng)
        search = cfg.search
        phi0 = se.search_cone_halfwidth(temp_max, search.cone_gain,
                                        search.cone_rate)
        mvx, mvy = self._swarm_mean_vel(swarm)
        p_info = uavs[k_star].pos
        step_scale = search.levy_step if explore else search.brown_step
        mode = (ve.REPELLED if repelled
                else ve.EXPLORE if explore else ve.EXPLOIT)
        for uav in due:
            rng = self.rng.agent(uav.id)
            psi = se.sample_heading(phi_center, phi0, rng)
            length = se.sample_step_length(explore, rng,
                                           search.levy_tail_exponent,
                                           self._l_max)
            travel = min(step_scale * length / cfg.kinematics.cruise_speed,
                         120.0)
            center_pred = (cx + mvx * travel, cy + mvy * travel)
            x, y = se.next_waypoint(p_info, psi, step_scale, length,
                                    cfg.area, center_pred, swarm_radius)
            uav.waypoint = (x, y, 0.0, 0.0)
            uav.mode = mode

    def _quiet_until(self, swarm: SwarmState, t_now: float, cx: float,
                     cy: float, repelled: bool) -> float:
        """The time before which a searching swarm that did nothing this
        tick does nothing.  Each member holds its settled reading before
        its far_until (see sensing.sample), so before the earliest no
        member detects, sees a fire to repel off or changes the stage;
        only an arrival, a stray or the end of a repulsion can act.
        Member i flies no faster than B_i (vehicle.speed_bound: a leg has
        no feed-forward), and the centre (cx, cy), the members' mean, moves
        too, so member i's offset from it grows by at most
        (n-1)/n * (B_i + max B) per second."""
        uavs = self.uavs
        members = swarm.member_ids
        until = swarm.repel_until if repelled else math.inf
        for uid in members:
            far_until = uavs[uid].far_until
            if far_until < until:
                until = far_until
        if not until > t_now:
            return until
        cruise = self.cfg.kinematics.cruise_speed
        speeds = [ve.speed_bound(uavs[uid], cruise) for uid in members]
        share = (len(members) - 1) / len(members)
        centre = share * max(speeds)
        arrival = self._arrival + sn.ROUNDING_ALLOWANCE
        radius = self.cfg.swarm_radius - sn.ROUNDING_ALLOWANCE
        hypot = math.hypot
        for uid, b in zip(members, speeds):
            uav = uavs[uid]
            px, py = uav.pos
            wx, wy, _, _ = uav.waypoint
            t = t_now + (hypot(wx - px, wy - py) - arrival) / b
            if t < until:
                until = t
            if share:   # a lone member is its own centre
                t = t_now + ((radius - hypot(px - cx, py - cy))
                             / (share * b + centre))
                if t < until:
                    until = t
        return until

    def _baseline_search(self, t_now: float) -> None:
        """Search stage of the baseline strategies: every searching swarm
        (one UAV each), by id, locks on a detection or draws a new
        independent waypoint once it reaches its current one."""
        cfg = self.cfg
        strategy = cfg.engine.strategy
        uavs = self.uavs
        arrival = self._arrival
        hypot = math.hypot
        waypoint = se.baseline_waypoint
        for swarm in self.swarms:
            if swarm.mitigating:
                continue
            uid = swarm.member_ids[0]
            uav = uavs[uid]
            r = uav.reading
            if r.detected:
                self._lock_or_merge(swarm, r.fire_id, t_now, "join-request")
                continue
            if uav.waypoint is not None:
                # not ve.reached: NaN distances count as not arrived
                px, py = uav.pos
                wx, wy, _, _ = uav.waypoint
                if not hypot(wx - px, wy - py) < arrival:
                    continue
            x, y = waypoint(
                strategy, uav.pos, uav.vel, r.temperature, r.temp_rate,
                self.rng.agent(uid), cfg.area, cfg.search, self._l_max,
                cfg.sensing.temp_threshold)
            uav.waypoint = (x, y, 0.0, 0.0)
            uav.mode = ve.EXPLORE

    # -- mitigation coordination ------------------------------------------

    def _lock_or_merge(self, swarm: SwarmState, fid: int, t_now: float,
                       join: str) -> bool:
        """Returns True if the swarm transitioned into mitigation.  On a
        locked fire it ``join``s: an MSCIDC swarm's "merge" is capped by
        merging_decision, and a lone baseline UAV's "join-request" is
        uncapped and aligns like a detector.  The alignment waypoints are
        set by _mitigate later in the tick.  Only searching swarms
        call this, and a searching swarm is in no record's swarm_ids."""
        f = self.fires[fid]
        rec = self.records.get(fid)
        if rec is None:
            rec = self.records[fid] = mi.FireMitigationRecord()
            merging, kind = False, "lock"
        elif join == "merge" and not self._merge_allowed(f, rec):
            return False
        else:
            merging, kind = True, join
        rec.swarm_ids.append(swarm.id)
        # One partition over every UAV on the fire.  A lock keeps it; a merge
        # takes provisional sectors from it for its arrivals and for earlier
        # merging ones, and _mitigate repartitions once all of them
        # have reached the front.
        uavs = self.uavs
        settled = [t for t in rec.tracks if not t.merging]
        kept = {t.uav_id for t in settled}
        fresh = [t for t in mi.assign_sectors(
            f, [(t.uav_id, uavs[t.uav_id].pos) for t in rec.tracks]
            + [(uid, uavs[uid].pos) for uid in swarm.member_ids])
            if t.uav_id not in kept]
        for track in fresh:
            track.merging = merging
        rec.tracks = settled + fresh
        swarm.mitigating = True
        uav_mode = ve.ATTRACTED if kind == "merge" else ve.ALIGN
        for uid in swarm.member_ids:
            uav = uavs[uid]
            uav.mode = uav_mode
            uav.far_until = -math.inf   # a sweep has feed-forward
        self._event(kind, t_now, swarm=swarm.id, fire=fid)
        return True

    def _mitigate(self, t_now: float) -> None:
        m, dt, uavs = self.cfg.mitigation, self.cfg.engine.dt, self.uavs
        speed, gain, margin = m.mitigation_speed, m.track_gain, m.turn_margin
        sin, cos, omega_at = math.sin, math.cos, mi.nominal_angular_velocity
        control = mi.angular_control
        for fid in sorted(self.records):
            f = self.fires[fid]
            rec = self.records[fid]
            # a join changes only the fire's state, so its geometry holds
            a, b, (cx, cy) = f.a, f.b, f.center

            # An unjoined UAV flies to its sector's reference point and joins
            # on arrival; merging ones wait for the repartition below.
            merging = []
            all_arrived = True
            for track in rec.tracks:
                uav = uavs[track.uav_id]
                if not track.joined:
                    x, y = fi.point_on_front(f, track.theta)
                    uav.waypoint = (x, y, 0.0, 0.0)
                    arrived = ve.reached(uav.pos, uav.waypoint, self._arrival)
                    if track.merging:
                        merging.append(track.uav_id)
                        all_arrived = all_arrived and arrived
                    elif arrived:
                        self._join(track, f, t_now)
                    continue
                theta = track.theta   # also the law's reference angle
                omega = omega_at(a, b, speed, theta)
                theta, _, direction = control(
                    theta, theta, track.direction, track.lo, track.hi, omega,
                    gain, margin, dt)
                track.theta, track.direction = theta, direction
                s, c = sin(theta), cos(theta)   # point and feed-forward
                sweep = direction * omega
                uav.waypoint = (cx + a * c, cy + b * s,
                                -a * s * sweep, b * c * sweep)

            if merging and all_arrived:
                # every track restarts at its new sector's midpoint; keep
                # drops the merging flag
                rec.tracks = mi.assign_sectors(
                    f, [(t.uav_id, uavs[t.uav_id].pos) for t in rec.tracks],
                    keep={t.uav_id: t for t in rec.tracks})
                for track in rec.tracks:
                    if track.uav_id in merging:
                        self._join(track, f, t_now)

    def _join(self, track: mi.SectorTrack, f: fi.FireFront,
              t_now: float) -> None:
        """A UAV reaches its track's angle on the front and starts sweeping
        its sector from there; its fire stops growing."""
        track.joined = True
        self.uavs[track.uav_id].mode = ve.MITIGATE
        if f.state is fi.BURNING:
            f.state = fi.UNDER_MITIGATION
        self._event("join", t_now, uav=track.uav_id, fire=f.id)

    def _extinguish(self, fid: int, t_now: float) -> None:
        rec = self.records.pop(fid)
        self.extinguished[fid] = t_now
        self._event("extinguish", t_now, fire=fid)
        for sid in rec.swarm_ids:
            swarm = self.swarms[sid]
            swarm.mitigating = False
            swarm.repel_until = -math.inf
            for uid in swarm.member_ids:
                uav = self.uavs[uid]
                uav.mode = ve.EXPLORE
                uav.waypoint = None

    # -- logging and termination ------------------------------------------

    def counters(self) -> tuple[int, int, int, int, int]:
        f_d = len(self.detected)
        ext = len(self.extinguished)
        f_f = f_d - ext
        f_r = len(self.fires) - ext
        s_q = sum(1 for s in self.swarms if s.mitigating)
        s_s = len(self.swarms) - s_q
        return f_d, f_f, f_r, s_s, s_q

    def _log_state(self, total_area: float) -> None:
        """Append a series row; total_area is the burning area now."""
        f_d, f_f, f_r, s_s, s_q = self.counters()
        self.series.append((self.time, f_d, f_f, f_r, s_s, s_q, total_area))
        if self.trace is not None:
            self.trace.append({
                "t": round(self.time, 6),
                "uavs": [{"id": u.id, "x": round(u.pos[0], 3),
                          "y": round(u.pos[1], 3), "mode": u.mode.value}
                         for u in self.uavs],
                "fires": [{"id": f.id, "a": round(f.a, 3),
                           "b": round(f.b, 3), "state": f.state.value}
                          for f in self.fires],
                "F_d": f_d, "F_f": f_f, "F_r": f_r,
                "S_s": s_s, "S_q": s_q,
            })

    def done(self) -> bool:
        return (len(self.extinguished) == len(self.fires)
                or self.time >= self.cfg.engine.t_max)


def preposition_mitigation(world: World, fid: int,
                           uav_ids: list[int]) -> None:
    """Place the given UAVs exactly on their sector alignment points of one
    fire and mark them joined at t=0 (simultaneous-join oracle setups).
    A placed UAV has moved, so its sensing deadline and its swarm's search
    one are reset."""
    f = world.fires[fid]
    members = [(uid, world.uavs[uid].pos) for uid in uav_ids]
    swarm_of = {uid: s for s in world.swarms for uid in s.member_ids}
    rec = mi.FireMitigationRecord(swarm_ids=[])
    rec.tracks = mi.assign_sectors(f, members)
    for track in rec.tracks:
        uav = world.uavs[track.uav_id]
        uav.pos = fi.point_on_front(f, track.theta)
        uav.mode = ve.MITIGATE
        uav.far_until = -math.inf
        track.joined = True
        swarm = swarm_of[track.uav_id]
        swarm.mitigating = True
        swarm.quiet_until = -math.inf
        if swarm.id not in rec.swarm_ids:
            rec.swarm_ids.append(swarm.id)
    world.records[fid] = rec
    f.state = fi.UNDER_MITIGATION
    world.detected.setdefault(fid, 0.0)
    world.detected_area.setdefault(fid, fi.area(f))


def weighted_objective(detected_area_sum: float, undetected_area_sum: float,
                       quench_time_sum: float, w1: float, w2: float,
                       w3: float) -> float:
    """Weighted-sum mission objective; the quench-time budget is reported as
    violation flags elsewhere, never enforced here."""
    return (w1 * detected_area_sum + w2 * undetected_area_sum
            + w3 * quench_time_sum)


def run(cfg: ScenarioConfig, run_index: int,
        collect_trace: bool = False) -> RunResult:
    """Execute one seeded mission and compute its metrics."""
    world = World(cfg, run_index, collect_trace=collect_trace)
    n_f = len(world.fires)
    while not world.done():
        world.tick()

    t_max = cfg.engine.t_max
    all_detected = len(world.detected) == n_f
    complete = len(world.extinguished) == n_f
    detection_time = (max(world.detected.values(), default=0.0)
                      if all_detected else t_max)
    mission_time = (max(world.extinguished.values(), default=0.0)
                    if complete else t_max)

    quench_times = {}
    for fid, t_ext in sorted(world.extinguished.items()):
        quench_times[fid] = t_ext - world.detected.get(fid, 0.0)
    violations = [fid for fid, q in quench_times.items()
                  if q >= cfg.objective.quench_time_max]

    detected_area_sum = sum(world.detected_area.values())
    undetected_area_sum = sum(
        fi.area(f) for f in world.fires if f.id not in world.detected)
    if world.total_area0 > 0.0:
        fer = max(0.0, (world.peak_total_area - world.total_area0)
                  / world.total_area0)
    else:
        fer = 0.0
    objective = weighted_objective(
        detected_area_sum, undetected_area_sum, sum(quench_times.values()),
        cfg.objective.w1, cfg.objective.w2, cfg.objective.w3)

    return RunResult(
        run_index=run_index, strategy=cfg.engine.strategy,
        n_swarms=len(world.swarms), detection_time=detection_time,
        mission_time=mission_time, fer=fer, objective=objective,
        complete=complete, all_detected=all_detected,
        quench_times=quench_times, quench_violations=violations,
        detected_area_sum=detected_area_sum,
        undetected_area_sum=undetected_area_sum,
        series=world.series, events=world.events,
        trace=world.trace)


def monte_carlo(cfg: ScenarioConfig, n_runs: int,
                jobs: int = 1) -> list[RunResult]:
    """Independent seeded runs; results ordered by run index regardless of
    the parallelism degree.  They run in a process pool whose size is the
    least of jobs, n_runs and the CPUs this process may use, or in this
    process when that is 1."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if jobs > 1:
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        jobs = min(jobs, n_runs, cpus)
    if jobs <= 1:
        return [run(cfg, i) for i in range(n_runs)]
    # imported here, so that a serial batch and the CLI's start-up never
    # load the pool machinery and multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # map yields results in the order of its inputs
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, [cfg] * n_runs, range(n_runs)))


def summarize(results: list[RunResult]) -> dict:
    """Mean/std/quartiles of the headline metrics (stable aggregation)."""
    out = {"n_runs": len(results),
           "n_complete": sum(1 for r in results if r.complete)}
    for name in ("detection_time", "mission_time", "fer", "objective"):
        vals = np.array([getattr(r, name) for r in results], dtype=float)
        out[name] = {
            "mean": float(np.mean(vals)),
            "std": float(np.std(vals)),
            "q25": float(np.percentile(vals, 25)),
            "median": float(np.percentile(vals, 50)),
            "q75": float(np.percentile(vals, 75)),
        }
    return out
