import ast
import concurrent.futures
import dataclasses
import gc
import inspect
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import lockstep
import oracles
from oracles import (closed_form_quench_time, max_info_member, swarm_center,
                     swarm_mean_velocity)
from test_golden import preposition_setup
from swarmfire import engine
from swarmfire import fire as fi
from swarmfire import mitigation as mi
from swarmfire import search as se
from swarmfire import sensing as sn
from swarmfire import vehicle as ve
from swarmfire.config import (STRATEGIES, FireSpec, ScenarioConfig,
                              from_dict, load_config, validate)
from swarmfire.engine import (RunResult, World, monte_carlo,
                              preposition_mitigation, run, summarize,
                              weighted_objective)
from swarmfire.rng import RngStreams


SRC = Path(__file__).resolve().parents[1] / "src"


def small_cfg(**engine_kw):
    """One modest fire, two swarms, short horizon; fast to simulate."""
    base = ScenarioConfig(
        area=(4000.0, 4000.0),
        fires=(FireSpec((2000.0, 2000.0), 120.0, 100.0),),
        swarm_sizes=(3, 2))
    kw = {"dt": 1.0, "t_max": 3600.0, **engine_kw}
    eng = dataclasses.replace(base.engine, **kw)
    return validate(dataclasses.replace(base, engine=eng))


def static_cfg(n_uavs, a=100.0, b=100.0, **kw):
    """Zero-spread single fire for closed-form quench comparisons."""
    fuel_kw = {"alpha": 1e-12}   # kills intensity, hence spread
    base = ScenarioConfig(
        area=(4000.0, 4000.0),
        fires=(FireSpec((2000.0, 2000.0), a, b),),
        swarm_sizes=(n_uavs,))
    base = dataclasses.replace(
        base, fuel=dataclasses.replace(base.fuel, **fuel_kw))
    ekw = {"dt": 1.0, "t_max": 14400.0, **kw}
    eng = dataclasses.replace(base.engine, **ekw)
    return validate(dataclasses.replace(base, engine=eng))


# -- quench-time oracle -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_static_quench_matches_closed_form(n):
    cfg = static_cfg(n)
    world = World(cfg, 0)
    assert world.spread == pytest.approx(0.0, abs=1e-9)
    preposition_mitigation(world, 0, list(range(n)))
    expected = closed_form_quench_time(fi.area(world.fires[0]), n,
                                       world.area_rate)
    while not world.done():
        world.tick()
    got = world.extinguished[0]
    assert got == pytest.approx(expected, rel=0.02)


def test_static_quench_halving_uavs_doubles_time():
    times = {}
    for n in (2, 4):
        cfg = static_cfg(n)
        world = World(cfg, 0)
        preposition_mitigation(world, 0, list(range(n)))
        while not world.done():
            world.tick()
        times[n] = world.extinguished[0]
    assert times[2] / times[4] == pytest.approx(2.0, rel=0.02)


def test_static_run_fer_zero():
    cfg = static_cfg(4)
    world = World(cfg, 0)
    preposition_mitigation(world, 0, [0, 1, 2, 3])
    while not world.done():
        world.tick()
    assert world.peak_total_area == pytest.approx(world.total_area0)


# -- determinism --------------------------------------------------------------

def test_run_bit_identical():
    cfg = small_cfg()
    r1 = run(cfg, 0)
    r2 = run(cfg, 0)
    assert r1 == r2


def test_monte_carlo_order_independent_of_jobs():
    cfg = small_cfg()
    seq = monte_carlo(cfg, 4, jobs=1)
    par = monte_carlo(cfg, 4, jobs=4)
    assert seq == par


def test_different_run_indices_differ():
    cfg = small_cfg()
    r0 = run(cfg, 0)
    r1 = run(cfg, 1)
    assert r0.detection_time != r1.detection_time or r0.fer != r1.fer


def test_paired_seeds_share_world_layout():
    cfg = small_cfg()
    worlds = {}
    for strat in ("UNIFORM", "LEVY", "NORMAL", "OMS"):
        c = dataclasses.replace(
            cfg, engine=dataclasses.replace(cfg.engine, strategy=strat))
        worlds[strat] = [u.pos for u in World(c, 5).uavs]
    assert (worlds["UNIFORM"] == worlds["LEVY"] == worlds["NORMAL"]
            == worlds["OMS"])


# -- bookkeeping invariants ---------------------------------------------------

def check_invariants(world: World) -> None:
    f_d, f_f, f_r, s_s, s_q = world.counters()
    ext = len(world.extinguished)
    assert f_d == f_f + ext
    assert f_r == len(world.fires) - ext
    assert s_s + s_q == len(world.swarms)
    for fid, rec in world.records.items():
        if world.cfg.engine.strategy == "MSCIDC":
            assert rec.n_swarms <= world.cfg.mitigation.merge_swarms
        for t in rec.tracks:
            assert t.lo <= t.theta <= t.hi
            assert t.direction in (-1, 1)
    for uav in world.uavs:
        assert 0.0 <= uav.pos[0] <= world.cfg.area[0]
        assert 0.0 <= uav.pos[1] <= world.cfg.area[1]
    check_deadlines(world)


def check_deadlines(world: World) -> None:
    """The deadlines are sound.  A UAV before its far_until has a
    noise-free sensor.  In a mitigating mode it holds DEFERRED, every
    active fire is detected, and no active fire quenched by every UAV can
    reach EXTINGUISH_AREA on a tick before the deadline, so none releases
    it.  In a search mode, whose command has no feed-forward, it holds the
    settled ambient reading; if the next sensing pass skips it, it is
    beyond the cull distance of every active fire, as the next growth
    leaves it.  A swarm before its quiet_until searches, and each member's
    far_until is live."""
    t, t_next = world.time, world.time + world.cfg.engine.dt
    ambient = world.cfg.sensing.ambient_temp
    noisy = world.cfg.sensing.noise_std > 0.0
    reach = world._cutoff + world.spread * world.cfg.engine.dt
    active = sn.active_fires(world.fires)
    quench = len(world.uavs) * world.area_rate
    for uav in world.uavs:
        if not t < uav.far_until:
            continue
        assert not noisy
        if uav.mode in ve.MITIGATING_MODES:
            assert uav.reading is sn.DEFERRED
            assert all(f.id in world.detected for f in active)
            # k ticks on, its quench leaves at least area - k*dt*quench,
            # so no tick before far_until puts f out
            for f in active:
                assert (fi.area(f) - (uav.far_until - t) * quench
                        > fi.EXTINGUISH_AREA)
            continue
        r = uav.reading
        assert (r.temperature, r.temp_rate, r.fire_id, r.detected) == (
            ambient, 0.0, None, False)
        if t_next < uav.far_until:
            px, py = uav.pos
            for f in active:
                assert math.hypot(px - f.center[0], py - f.center[1]) \
                    - f.a > reach
    for swarm in world.swarms:
        if t < swarm.quiet_until:
            assert not swarm.mitigating
            assert all(t < world.uavs[uid].far_until
                       for uid in swarm.member_ids)


def test_invariants_every_tick_small_run():
    world = World(small_cfg(), 1)
    while not world.done():
        world.tick()
        check_invariants(world)


def check_coordination(world: World) -> bool:
    """Each fire's record is the one owner of its UAVs: a UAV has a track in
    at most one record, exactly when its swarm mitigates, and its swarm is
    in that record's swarm_ids.  The non-merging tracks tile [0, 2*pi).
    Every merging track is unjoined, and its provisional sector is 2*pi over
    the record's track count wide: each merge refreshes every merging track.
    A searching swarm is in no record, and a record with a joined track is
    on a fire under mitigation.  Returns whether any track is merging."""
    swarm_of = {uid: s.id for s in world.swarms for uid in s.member_ids}
    owner = {}
    any_merging = False
    for fid, rec in world.records.items():
        for sid in rec.swarm_ids:
            assert world.swarms[sid].mitigating
        if any(t.joined for t in rec.tracks):
            assert world.fires[fid].state is fi.FireState.UNDER_MITIGATION
        width = 2 * math.pi / len(rec.tracks)
        for t in rec.tracks:
            assert t.uav_id not in owner
            owner[t.uav_id] = fid
            assert swarm_of[t.uav_id] in rec.swarm_ids
            if t.merging:
                any_merging = True
                assert not t.joined
                assert abs(t.hi - t.lo - width) <= 1e-9
        settled = [t for t in rec.tracks if not t.merging]
        assert settled[0].lo == 0.0
        for prev, t in zip(settled, settled[1:]):
            assert prev.hi == t.lo
        assert abs(settled[-1].hi - 2 * math.pi) <= math.ulp(2 * math.pi)
    for uav in world.uavs:
        assert ((uav.id in owner)
                == world.swarms[swarm_of[uav.id]].mitigating)
    return any_merging


def test_coordination_bookkeeping_every_tick():
    base = load_config("pine-table1")
    ticks_merging = ticks_two_merging = 0
    for strategy, dt in (("MSCIDC", 0.5), ("MSCIDC", 1.0), ("LEVY", 1.0),
                         ("UNIFORM", 1.0)):
        cfg = dataclasses.replace(base, engine=dataclasses.replace(
            base.engine, strategy=strategy, dt=dt, t_max=1800.0))
        for idx in (0, 1):
            world = World(cfg, idx)
            swarm_of = {uid: s.id for s in world.swarms
                        for uid in s.member_ids}
            while not world.done():
                world.tick()
                ticks_merging += check_coordination(world)
                ticks_two_merging += any(
                    len({swarm_of[t.uav_id]
                         for t in rec.tracks if t.merging}) >= 2
                    for rec in world.records.values())
    # the grid reaches the merge path, not only locks, and a merge onto a
    # fire that already has merging arrivals, whose sectors it refreshes
    assert ticks_merging > 0
    assert ticks_two_merging > 0


@pytest.mark.xfail(strict=True, reason="preposition_mitigation replaces "
                   "the record already on a fire, so the swarms it held are "
                   "in no record")
def test_prepositioned_uavs_all_have_tracks():
    """Every prepositioned UAV is owned by its fire's record."""
    world = preposition_setup()
    owned = {t.uav_id for rec in world.records.values() for t in rec.tracks}
    assert owned == {u.id for u in world.uavs}


def test_member_scan_matches_oracles_every_tick():
    """The search stage's one pass over a swarm's members finds what the
    per-purpose scans find: the max-information member and temp_max, the
    centre, the first detector and the members near a fire with a record;
    and the engine's mean member velocity is the oracle's.  Mitigating
    swarms are scanned too: their DEFERRED readings have NaN rates, so no
    rate beats -inf and the lowest id steers."""
    base = load_config("pine-table1")
    scans = near_ticks = no_rate = 0
    for dt in (0.5, 1.0):
        cfg = dataclasses.replace(base, engine=dataclasses.replace(
            base.engine, dt=dt, t_max=1800.0))
        for idx in (0, 1):
            world = World(cfg, idx)
            while not world.done():
                world.tick()
                all_readings = [u.reading for u in world.uavs]
                for swarm in world.swarms:
                    members = swarm.member_ids
                    detector, k_star, temp_max, near, center = \
                        se.scan_members(members, world.uavs, world.records)
                    assert (k_star, temp_max) == max_info_member(
                        members, all_readings)
                    assert center == swarm_center(members, world.uavs)
                    assert world._swarm_mean_vel(swarm) == \
                        swarm_mean_velocity(members, world.uavs)
                    readings = [all_readings[uid] for uid in members]
                    assert detector is next(
                        (r for r in readings if r.detected), None)
                    assert near == [(r, world.records[r.fire_id])
                                    for r in readings
                                    if r.fire_id in world.records]
                    scans += 1
                    near_ticks += bool(near)
                    no_rate += not any(all_readings[uid].temp_rate
                                       > -math.inf for uid in members)
    assert scans > 0 and near_ticks > 0 and no_rate > 0


def test_returning_member_on_lock_repulsion_and_stage_switch():
    """A member outside the swarm disk heads back to the swarm centre.  A
    lock turns every member, the stray too, to aligning on the fire; after a
    repulsion the stray, back inside the disk, draws a new leg; an
    explore/exploit switch leaves it its centre waypoint while the other
    members' in-flight legs are dropped and redrawn."""
    base = small_cfg()
    cfg = dataclasses.replace(base, mitigation=dataclasses.replace(
        base.mitigation, merge_swarms=1))   # a busy fire repels

    def stray_world(prepositioned):
        """Swarm 0 far from the fire: members 0 and 1 together, member 2
        333 m from their mean, outside the 250 m disk, so one tick leaves
        it headed to the centre.  Swarm 1 mitigates the fire, or waits far
        from it."""
        world = World(cfg, 0)
        for uid, pos in enumerate([(600.0, 600.0), (600.0, 600.0),
                                   (1100.0, 600.0), (3400.0, 600.0),
                                   (3400.0, 600.0)]):
            world.uavs[uid].pos = pos
            world.uavs[uid].far_until = -math.inf
        if prepositioned:
            preposition_mitigation(world, 0, [3, 4])
        center = swarm_center([0, 1, 2], world.uavs)
        world.tick()
        stray = world.uavs[2]
        assert stray.returning and stray.waypoint == (*center, 0.0, 0.0)
        return world

    def place(world, offsets):
        """Members 0-2 on the fire's x axis, offset m beyond its front."""
        f = world.fires[0]
        front = f.center[0] + f.a
        for uid, off in enumerate(offsets):
            world.uavs[uid].pos = (front + off, f.center[1])
            world.uavs[uid].far_until = -math.inf   # it did not fly there

    # lock: member 0 on the front detects the fire
    world = stray_world(prepositioned=False)
    place(world, [0.0])
    world.tick()
    assert world.events[-1]["type"] == "lock"
    assert all(world.uavs[uid].mode is ve.UavMode.ALIGN for uid in (0, 1, 2))

    # repulsion: member 0 sees the busy fire at 0.5 < P < 0.9; the stray is
    # back inside the disk, member 1 far from its waypoint
    world = stray_world(prepositioned=True)
    old = [world.uavs[1].waypoint, world.uavs[2].waypoint]
    place(world, [80.0, 130.0, 100.0])
    world.tick()
    assert any(e["type"] == "repulsion" for e in world.events)
    stray, other = world.uavs[2], world.uavs[1]
    assert not stray.returning
    assert other.waypoint != old[0] and stray.waypoint != old[1]
    assert stray.mode is other.mode is ve.UavMode.REPELLED

    # switch to exploit: member 0 is hot (no record, so no repulsion) while
    # the stray stays outside the disk about the new centre
    world = stray_world(prepositioned=False)
    old = world.uavs[1].waypoint
    place(world, [80.0, 130.0, 580.0])
    center = swarm_center([0, 1, 2], world.uavs)
    world.tick()
    assert world.swarms[0].explore is False
    stray, other = world.uavs[2], world.uavs[1]
    assert stray.returning and stray.waypoint == (*center, 0.0, 0.0)
    assert other.waypoint != old and other.mode is ve.UavMode.EXPLOIT


# -- deferred sensing passes ---------------------------------------------------

def neighbour_fire_world(noise_std=0.0):
    """Swarm 0 prepositioned on fire 0; fire 1, undetected, 10 m beyond fire
    0's front on its minor axis, where a sweeping member passes; swarm 1
    waits far from both."""
    base = ScenarioConfig(
        area=(4000.0, 4000.0),
        fires=(FireSpec((2000.0, 2000.0), 400.0, 300.0),
               FireSpec((2000.0, 2340.0), 30.0, 30.0)),
        swarm_sizes=(3, 2))
    cfg = validate(dataclasses.replace(
        base, engine=dataclasses.replace(base.engine, dt=1.0, t_max=3600.0),
        sensing=dataclasses.replace(base.sensing, noise_std=noise_std)))
    world = World(cfg, 0)
    for uid in (3, 4):
        world.uavs[uid].pos = (3600.0, 3600.0)
    preposition_mitigation(world, 0, [0, 1, 2])
    return world


def tick_readings(world):
    """Tick the world until done; each tick's UAV readings."""
    ticks = []
    while not world.done():
        world.tick()
        ticks.append([u.reading for u in world.uavs])
    return ticks


def full_pass_reference(monkeypatch, noise_std=0.0):
    """The same mission with no mitigating mode, so that no pass defers."""
    with monkeypatch.context() as m:
        m.setattr(sn, "MITIGATING_MODES", ())
        world = neighbour_fire_world(noise_std)
        return world, tick_readings(world)


def test_mitigating_uav_detects_neighbouring_fire(monkeypatch):
    """A member of a mitigating swarm is the first to detect an undetected
    neighbouring fire, on the tick and as the UAV an all-full-pass run
    gives; only after that detection do its swarm's passes defer."""
    ref, ref_ticks = full_pass_reference(monkeypatch)
    world = neighbour_fire_world()
    ticks = tick_readings(world)
    assert world.events == ref.events
    first = next(e for e in world.events if e["type"] == "detection")
    t_ext = next(e["t"] for e in world.events if e["type"] == "extinguish")
    assert first["fire"] == 1 and first["uav"] in (0, 1, 2)
    assert first["t"] < t_ext
    deferred = [k for k, readings in enumerate(ticks)
                if any(r is sn.DEFERRED for r in readings)]
    # ticks[k] ends at (k + 1) * dt: deferral starts on the next tick
    assert deferred and deferred[0] == round(first["t"] / world.cfg.engine.dt)
    assert not any(r is sn.DEFERRED for rs in ref_ticks for r in rs)


@pytest.mark.parametrize("noise", [0.0, 2.0])
def test_released_members_first_readings_match_full_passes(monkeypatch,
                                                            noise):
    """Every reading that is not deferred equals the all-full-pass run's.
    On the first tick after _extinguish releases swarm 0, its members'
    readings, temp_rate included, resolve their deferred passes into the
    same values."""
    ref, ref_ticks = full_pass_reference(monkeypatch, noise)
    world = neighbour_fire_world(noise)
    ticks = tick_readings(world)
    assert world.events == ref.events
    for readings, ref_readings in zip(ticks, ref_ticks):
        for r, ref_r in zip(readings, ref_readings):
            if r is not sn.DEFERRED:
                assert repr(r) == repr(ref_r)
    t_ext = next(e["t"] for e in world.events if e["type"] == "extinguish")
    k = round(t_ext / world.cfg.engine.dt)   # the tick after the release
    assert all(ticks[k - 1][uid] is sn.DEFERRED for uid in (0, 1, 2))
    assert [repr(r) for r in ticks[k][:3]] == \
        [repr(r) for r in ref_ticks[k][:3]]
    assert all(r.temp_rate != 0.0 for r in ticks[k][:3])


# -- speed-bounded deadlines ---------------------------------------------------

def deadline_free(world: World) -> None:
    """Expire every deadline, so that the next tick re-checks all."""
    for uav in world.uavs:
        uav.far_until = -math.inf
    for swarm in world.swarms:
        swarm.quiet_until = -math.inf


def tick_beside_twin(world: World, twin: World) -> None:
    """One lockstep step of ``world`` and of ``twin``, whose deadlines are
    expired first; the invariants and the deadlines' soundness hold."""
    deadline_free(twin)
    lockstep.step(world, twin)
    check_invariants(world)


def step_beside_twin(world: World,
                     twin: World) -> tuple[int, int, int, int]:
    """tick_beside_twin until done; every UAV an extinguish releases has
    let its far_until pass.  Returns how many UAV passes the deadlines
    skipped, how many of those were mitigating UAVs', how many swarm
    searches they skipped, and how many UAVs turned to mitigating while
    they held a live far_until."""
    skipped = mitigating = quiet = locked_far = 0
    while not world.done():
        t_now = world.time + world.cfg.engine.dt
        held = [t_now < u.far_until for u in world.uavs]
        modes = [u.mode in ve.MITIGATING_MODES for u in world.uavs]
        skipped += sum(held)
        mitigating += sum(h and m for h, m in zip(held, modes))
        quiet += sum(not s.mitigating and t_now < s.quiet_until
                     for s in world.swarms)
        tick_beside_twin(world, twin)
        for h, m, u in zip(held, modes, world.uavs):
            locked_far += h and not m and u.mode in ve.MITIGATING_MODES
            if m and u.mode not in ve.MITIGATING_MODES:
                assert u.far_until <= world.time
    assert twin.done()
    return skipped, mitigating, quiet, locked_far


def pine_cfg(strategy="MSCIDC", dt=0.5, t_max=14400.0, noise_std=0.0,
             **scenario):
    cfg = load_config("pine-table1")
    return dataclasses.replace(
        cfg, engine=dataclasses.replace(cfg.engine, strategy=strategy, dt=dt,
                                        t_max=t_max),
        sensing=dataclasses.replace(cfg.sensing, noise_std=noise_std),
        **scenario)


def wide_swarms_cfg():
    """pine-table1 with swarm disks wider than a fire's short thermal
    reach, so that members far from every fire see their swarm lock; with
    no merging, so that swarms are repelled; and exploiting at ambient
    temperature, so that a repulsion's end switches the stage."""
    cfg = pine_cfg(t_max=3600.0, swarm_radius=1500.0)
    return dataclasses.replace(
        cfg, sensing=dataclasses.replace(cfg.sensing, temp_sigma=30.0,
                                         temp_threshold=290.0),
        mitigation=dataclasses.replace(cfg.mitigation, merge_swarms=1))


def thin_fire_cfg():
    """A thin fire (b = a/40), swept out first, and a rounder one."""
    base = ScenarioConfig(
        area=(4000.0, 4000.0),
        fires=(FireSpec((2000.0, 2000.0), 200.0, 5.0),
               FireSpec((2600.0, 2900.0), 150.0, 120.0)),
        swarm_sizes=(3, 2))
    return validate(dataclasses.replace(base, engine=dataclasses.replace(
        base.engine, dt=0.5, t_max=3600.0)))


def big_fires_cfg():
    """pine-table1 with every fire's axes four times as long, as the
    mitigation-sweep benchmark flies it, for the 400 s in which the least
    fire goes out under the swarm prepositioned on it."""
    cfg = pine_cfg(t_max=400.0)
    return dataclasses.replace(cfg, fires=tuple(
        dataclasses.replace(f, a=4.0 * f.a, b=4.0 * f.b) for f in cfg.fires))


def preposition_every_swarm(world: World) -> None:
    """Swarm s prepositioned on fire s mod the fire count."""
    for swarm in world.swarms:
        preposition_mitigation(world, swarm.id % len(world.fires),
                               swarm.member_ids)


@pytest.mark.parametrize("cfg, index, kinds, prepositioned", [
    (pine_cfg(), 5, {"merge", "extinguish"}, False),
    (pine_cfg(dt=1.0), 5, {"lock", "extinguish"}, False),
    (pine_cfg("NORMAL", dt=1.0, t_max=3600.0), 0, {"detection"}, False),
    (pine_cfg("OMS", dt=1.0, t_max=3600.0), 0, {"join-request"}, False),
    (pine_cfg(noise_std=2.0, t_max=3600.0), 0, {"lock"}, False),
    (wide_swarms_cfg(), 1, {"lock", "repulsion"}, False),
    (big_fires_cfg(), 0, {"extinguish"}, True),
    (static_cfg(4, t_max=120.0), 0, {"extinguish"}, True)],
    ids=["MSCIDC-dt0.5", "MSCIDC-dt1.0", "NORMAL", "OMS", "noisy",
         "wide-swarms", "prepositioned", "every-uav-quenches"])
def test_deadlines_match_a_deadline_free_twin(cfg, index, kinds,
                                              prepositioned):
    """Every tick of a mission with its deadlines is, bit for bit, that of
    a twin that re-checks every UAV and swarm.  Noise-free, the deadlines
    skip passes, and MSCIDC swarm searches; noisy, nothing is skipped.
    Wide swarms lock with members far from every fire.  Prepositioned,
    on fires four times as long or with every UAV quenching the one fire
    (where the release bound is tightest), mitigating UAVs hold release
    deadlines for many ticks and skip their deferred passes until a fire
    goes out."""
    world, twin = World(cfg, index), World(cfg, index)
    if prepositioned:
        preposition_every_swarm(world)
        preposition_every_swarm(twin)
    skipped, mitigating, quiet, locked_far = step_beside_twin(world, twin)
    assert kinds <= {e["type"] for e in world.events}
    if cfg.sensing.noise_std > 0.0:
        assert skipped == quiet == 0
        return
    if prepositioned:
        # the deadlines skip more than ten passes of mitigating UAVs for
        # each pass taken
        passes = len(world.uavs) * world.tick_index
        assert mitigating > 10 * (passes - skipped)
        return
    assert skipped > 0
    assert (quiet > 0) is (cfg.engine.strategy == "MSCIDC")
    assert (locked_far > 0) is (cfg.swarm_radius > 1000.0)


def test_deadlines_after_a_fast_release():
    """A thin fire's sweep releases a UAV faster than the cruise speed;
    its deadlines, bounded by its own speed, still match the twin's."""
    cfg = thin_fire_cfg()
    world, twin = World(cfg, 0), World(cfg, 0)
    cruise = cfg.kinematics.cruise_speed
    fastest = 0.0
    while not world.done():
        modes = [u.mode for u in world.uavs]
        tick_beside_twin(world, twin)
        for uav, mode in zip(world.uavs, modes):
            if mode is ve.MITIGATE and uav.mode is ve.EXPLORE:
                fastest = max(fastest, math.hypot(*uav.vel))
    assert fastest > cruise
    assert [e["type"] for e in world.events].count("extinguish") == 2


@pytest.mark.xfail(strict=True, reason="the sweep feed-forward is "
                   "mitigation_speed * r(theta_new) / r(theta_old), so a "
                   "thin front's sweep is commanded faster than "
                   "mitigation_speed")
def test_sweep_feed_forward_within_mitigation_speed():
    """Every feed-forward the mitigation stage commands is at most
    mitigation_speed, on a thin fire's front as on a rounder one's."""
    cfg = thin_fire_cfg()
    world = World(cfg, 0)
    cap = cfg.mitigation.mitigation_speed * (1.0 + 1e-9)
    index = world.stages.index(World._mitigate)
    commanded = []

    def mitigate(w, t_now):
        World._mitigate(w, t_now)
        commanded.extend(math.hypot(u.waypoint[2], u.waypoint[3])
                         for u in w.uavs if u.waypoint is not None)

    world.stages = (world.stages[:index] + (mitigate,)
                    + world.stages[index + 1:])
    while not world.done():
        world.tick()
    assert [e["type"] for e in world.events].count("extinguish") == 2
    assert max(commanded) <= cap


def test_quiet_swarm_flying_apart_matches_twin():
    """Two members of a quiet swarm, far from the fire, fly apart at three
    times the cruise speed (as a fast release leaves them), with a lag so
    slow that they keep that speed, so each leaves the disk about their
    moving mean on the twin's tick: the swarm's deadline bounds each member
    by its own speed and counts the centre's motion."""
    base = ScenarioConfig(area=(4000.0, 4000.0),
                          fires=(FireSpec((3500.0, 3500.0), 20.0, 20.0),),
                          swarm_sizes=(2,))
    cfg = validate(dataclasses.replace(
        base, kinematics=dataclasses.replace(base.kinematics, pole=0.01),
        engine=dataclasses.replace(base.engine, dt=0.5, t_max=60.0)))
    world, twin = World(cfg, 0), World(cfg, 0)
    speed = 3.0 * cfg.kinematics.cruise_speed
    for w in (world, twin):
        for uav in w.uavs:
            uav.pos = (1000.0, 1000.0)
        for _ in range(3):
            w.tick()
        assert world.time < min(u.far_until for u in w.uavs)
        for uav, sign in zip(w.uavs, (-1.0, 1.0)):
            uav.waypoint = (1000.0 + sign * 900.0, 1000.0, 0.0, 0.0)
            uav.vel = (sign * speed, 0.0)
            uav.far_until = -math.inf   # it did not fly at this speed
        w.swarms[0].quiet_until = -math.inf
    quiet = strayed = 0
    while not world.done():
        quiet += world.time + cfg.engine.dt < world.swarms[0].quiet_until
        tick_beside_twin(world, twin)
        strayed += any(u.returning for u in world.uavs)
    assert quiet > 0 and strayed > 0


def test_preposition_mid_mission_matches_twin():
    """preposition_mitigation on a World 300 ticks into its mission resets
    the deadlines of what it moves: the mission then matches the twin's."""
    cfg = pine_cfg()
    world, twin = World(cfg, 0), World(cfg, 0)
    for _ in range(300):
        tick_beside_twin(world, twin)
    assert any(world.time < u.far_until for u in world.uavs)
    assert any(world.time < s.quiet_until for s in world.swarms)
    preposition_every_swarm(world)
    preposition_every_swarm(twin)
    step_beside_twin(world, twin)
    assert "extinguish" in {e["type"] for e in world.events}


def test_detected_count_non_decreasing():
    world = World(small_cfg(), 2)
    last = 0
    while not world.done():
        world.tick()
        assert len(world.detected) >= last
        last = len(world.detected)


def test_event_causality():
    cfg = small_cfg()
    res = run(cfg, 0)
    detect = {e["fire"]: e["t"] for e in res.events if e["type"] == "detection"}
    joins = [(e["fire"], e["t"]) for e in res.events if e["type"] == "join"]
    ext = {e["fire"]: e["t"] for e in res.events if e["type"] == "extinguish"}
    for fid, t in joins:
        assert detect[fid] <= t
        if fid in ext:
            assert t <= ext[fid]
    for fid, t in ext.items():
        assert detect[fid] <= t


def test_tick_noop_after_all_extinguished():
    cfg = static_cfg(4, t_max=100.0)
    world = World(cfg, 0)
    world.fires[0].state = fi.FireState.EXTINGUISHED
    world.extinguished[0] = 0.0
    geo = (world.fires[0].a, world.fires[0].b)
    counters = world.counters()
    t0 = world.time
    world.tick()
    # time advances; all fire state is frozen (UAVs may still fly)
    assert world.time == t0 + cfg.engine.dt
    assert (world.fires[0].a, world.fires[0].b) == geo
    assert world.fires[0].state is fi.FireState.EXTINGUISHED
    assert world.counters() == counters


# -- the stage table ----------------------------------------------------------

def test_stages_are_the_tick_in_order():
    """World.stages is the tick: seven plain functions in the pipeline's
    order, and only the search entry depends on the strategy."""
    fixed = (World._grow, World._sense, World._mitigate, World._move,
             World._quench, World._bookkeep)
    for strategy in STRATEGIES:
        stages = World(small_cfg(strategy=strategy), 0).stages
        assert len(stages) == 7
        assert all(inspect.isfunction(stage) for stage in stages)
        assert stages[:2] + stages[3:] == fixed
        assert stages[2] is (World._mscidc_search if strategy == "MSCIDC"
                             else World._baseline_search)


def test_only_world_init_compares_the_strategy():
    """engine.py tells MSCIDC from the baselines once, in World.__init__,
    which picks the swarm layout and the search entry; the join rule
    comes with the search entry."""
    tree = ast.parse((SRC / "swarmfire" / "engine.py").read_text())
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            # cfg.engine.strategy == ... as well as strategy in ...
            if isinstance(node, ast.Compare) and any(
                    getattr(side, "attr", getattr(side, "id", None))
                    == "strategy" for side in (node.left, *node.comparators)):
                found.add(f"{fn.name}:{node.lineno}")
    # World is the only class in engine.py that defines __init__
    assert {where.split(":")[0] for where in found} == {"__init__"}, \
        sorted(found)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_reports_the_swarms_it_flew(strategy):
    """MSCIDC flies pine-table1's 7 swarms; a baseline flies each of its
    15 UAVs as a swarm of one."""
    cfg = load_config("pine-table1")
    cfg = dataclasses.replace(cfg, engine=dataclasses.replace(
        cfg.engine, strategy=strategy, t_max=60.0))
    assert run(cfg, 0).n_swarms == (7 if strategy == "MSCIDC" else 15)


@pytest.mark.parametrize("index, nudged", [
    *(pytest.param(index, None, id=str(index)) for index in range(7)),
    pytest.param(4, 3, id="nudged")])   # after the vehicle stage
def test_wrapped_stage_leaves_the_mission_unchanged(index, nudged):
    """A pass-through wrapper in place of one stage, as a stage timer
    would be, runs once per tick and leaves every tick as the twin's.  One
    that moves UAV ``nudged`` by one ulp after its stage on tick 13 fails
    the lockstep, which names that tick and that UAV."""
    cfg = load_config("pine-table1")
    cfg = dataclasses.replace(
        cfg, engine=dataclasses.replace(cfg.engine, t_max=1800.0))
    world, twin = World(cfg, 0), World(cfg, 0)
    stage, calls = world.stages[index], []

    def wrapped(w, t_now):
        calls.append(t_now)
        stage(w, t_now)
        if len(calls) == 13 and nudged is not None:
            uav = w.uavs[nudged]
            uav.pos = (math.nextafter(uav.pos[0], math.inf), uav.pos[1])

    world.stages = (world.stages[:index] + (wrapped,)
                    + world.stages[index + 1:])
    if nudged is not None:
        with pytest.raises(AssertionError, match=f"^tick 13: uav {nudged}\n"):
            while not world.done():
                lockstep.step(world, twin)
        return
    while not world.done():
        lockstep.step(world, twin)
    assert twin.done()
    assert len(calls) == world.tick_index
    assert {"detection", "lock", "join"} <= {e["type"] for e in world.events}


@pytest.mark.parametrize("setup", ["preposition", "merge"])
def test_stages_match_their_oracles_every_tick(setup):
    """The mitigation, quench and bookkeeping stages write, on every tick,
    exactly what their first written forms in tests/oracles.py write: on
    the golden preposition World, and on a pine-table1 MSCIDC mission in
    which a swarm merges onto a locked fire and the repartition joins it."""
    if setup == "preposition":
        world, twin = preposition_setup(), preposition_setup()
    else:
        cfg = load_config("pine-table1")
        world, twin = World(cfg, 5), World(cfg, 5)
    oracle = {World._mitigate: oracles.mitigate,
              World._quench: oracles.quench,
              World._bookkeep: oracles.bookkeep}
    twin.stages = tuple(oracle.get(stage, stage) for stage in twin.stages)
    assert set(oracle.values()) <= set(twin.stages)
    while not world.done():
        lockstep.step(world, twin)
    assert twin.done()
    kinds = {e["type"] for e in world.events}
    assert "extinguish" in kinds
    assert setup != "merge" or {"merge", "join"} <= kinds


# Every entry point perfbench/tracing.py wraps in a module a stage reaches,
# on the module where the caller looks the name up.
TRACED = ((mi, "angular_control"), (mi, "assign_sectors"),
          (fi, "apply_quench"), (fi, "grow"), (sn, "sample"),
          (sn, "distance_to_front"), (ve, "step"), (se, "next_waypoint"))


@pytest.mark.parametrize("strategy, entries", [
    ("MSCIDC", TRACED),
    ("NORMAL", ((se, "baseline_waypoint"), (RngStreams, "agent")))])
def test_entry_points_are_looked_up_where_the_tracer_wraps_them(
        monkeypatch, strategy, entries):
    """A counting pass-through set on each entry point's module before the
    World is built, as the benchmark's tracer installs its wrappers, sees
    calls, and the mission is the unwrapped one.  A stage that bound an
    entry point at import would bypass it and leave its count at 0.  With
    noise-free sensing, a NORMAL mission takes each leg's stream from
    ``RngStreams.agent`` once per ``baseline_waypoint`` call."""
    cfg = small_cfg(strategy=strategy,
                    t_max=3600.0 if strategy == "MSCIDC" else 60.0)
    twin = World(cfg, 0)
    while not twin.done():
        twin.tick()
    counts = {}
    for module, name in entries:
        key = f"{module.__name__}.{name}"
        counts[key] = 0

        def counted(*args, _key=key, _fn=getattr(module, name), **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    world = World(cfg, 0)
    while not world.done():
        world.tick()
    assert all(counts.values()), counts
    assert world.events == twin.events
    if strategy == "NORMAL":
        assert cfg.sensing.noise_std == 0.0
        assert counts["RngStreams.agent"] == counts[
            "swarmfire.search.baseline_waypoint"] > 0
    if strategy == "MSCIDC":
        # locks, sweeps and quenches its fire out
        assert {"lock", "join", "extinguish"} <= {
            e["type"] for e in world.events}


def test_finished_world_is_freed_without_the_cycle_collector():
    """A World does not refer to itself (World.stages holds plain
    functions, not bound methods), so dropping it frees it at once."""
    world = World(small_cfg(), 0)
    while not world.done():
        world.tick()
    ref = weakref.ref(world)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del world
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# -- metrics ------------------------------------------------------------------

def test_detection_le_mission_time():
    res = run(small_cfg(), 0)
    assert res.detection_time <= res.mission_time
    assert res.fer >= 0.0


def test_incomplete_run_flagged():
    cfg = small_cfg(t_max=30.0)
    res = run(cfg, 0)
    assert not res.complete
    assert res.mission_time == 30.0


def test_weighted_objective_values():
    assert weighted_objective(10.0, 20.0, 5.0, 0, 0, 0) == 0.0
    assert weighted_objective(10.0, 20.0, 5.0, 0, 0, 1) == 5.0
    assert weighted_objective(10.0, 20.0, 5.0, 1, 1, 1) == 35.0


def test_objective_counts_undetected_fires():
    cfg = small_cfg(t_max=10.0)   # too short to detect anything
    res = run(cfg, 0)
    assert not res.all_detected
    assert res.undetected_area_sum > 0.0
    assert res.detected_area_sum == 0.0


def test_quench_time_budget_flag():
    cfg = static_cfg(1, a=200.0, b=200.0)
    cfg = dataclasses.replace(
        cfg, objective=dataclasses.replace(cfg.objective,
                                           quench_time_max=100.0))
    world = World(cfg, 0)
    preposition_mitigation(world, 0, [0])
    # closed form: pi*200^2 / 800 = 157 s > 100 s budget
    res_world = world
    while not res_world.done():
        res_world.tick()
    q = res_world.extinguished[0] - res_world.detected[0]
    assert q >= 100.0


def test_summarize_single_run():
    cfg = small_cfg()
    res = run(cfg, 0)
    agg = summarize([res])
    assert agg["n_runs"] == 1
    assert agg["detection_time"]["mean"] == res.detection_time
    assert agg["detection_time"]["std"] == 0.0
    assert agg["fer"]["median"] == res.fer


def test_monte_carlo_rejects_zero_runs():
    with pytest.raises(ValueError):
        monte_carlo(small_cfg(), 0)


def test_monte_carlo_caps_workers_at_runs(monkeypatch):
    """A pool gets no more workers than runs, --jobs or the CPUs this
    process may run on (three here): its affinity mask, or the CPU count
    where the OS has no mask.  Its results are those of jobs=1."""
    workers = []

    class FakePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfg = small_cfg(t_max=60.0)
    results = monte_carlo(cfg, 2, jobs=64)
    assert workers == [2]
    assert [r.run_index for r in results] == [0, 1]
    monte_carlo(cfg, 3, jobs=2)
    assert workers == [2, 2]
    results = monte_carlo(cfg, 5, jobs=5000)
    assert workers == [2, 2, 3]
    serial = [(r.events, r.series) for r in monte_carlo(cfg, 5)]
    assert [(r.events, r.series) for r in results] == serial
    # one usable CPU: the runs stay in this process, and no pool is built
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
    results = monte_carlo(cfg, 5, jobs=4)
    assert workers == [2, 2, 3]
    assert [(r.events, r.series) for r in results] == serial
    # no affinity mask (macOS, Windows): the CPU count, or 1 when unknown
    monkeypatch.delattr(engine.os, "sched_getaffinity")
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
    monte_carlo(cfg, 5, jobs=4)
    assert workers == [2, 2, 3, 3]
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    results = monte_carlo(cfg, 5, jobs=4)
    assert workers == [2, 2, 3, 3]
    assert [(r.events, r.series) for r in results] == serial


def test_import_loads_no_process_pool():
    """Importing the package or its CLI loads neither multiprocessing nor
    the process pool; monte_carlo imports them when it builds a pool."""
    code = ("import sys, swarmfire, swarmfire.cli; "
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_no_function_reads_enum_members_off_their_class():
    """Functions read the module-level bindings (fi.BURNING, ve.EXPLORE
    ...), not FireState.BURNING: on CPython 3.11 the class attribute read
    costs several times a global's, on every tick."""
    enums = {"FireState", "UavMode"}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = set()
    for path in sorted(SRC.glob("swarmfire/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, functions):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Attribute):
                    continue
                # FireState.X as well as fi.FireState.X
                owner = getattr(node.value, "id", None) or getattr(
                    node.value, "attr", None)
                if owner in enums:
                    found.add(f"{path.name}:{node.lineno} "
                              f"{owner}.{node.attr}")
    assert not found, sorted(found)


# -- strategy coverage --------------------------------------------------------

@pytest.mark.parametrize("strategy", ["UNIFORM", "NORMAL", "LEVY", "OMS"])
def test_baseline_strategies_run_and_hold_invariants(strategy):
    cfg = small_cfg(strategy=strategy, t_max=900.0)
    world = World(cfg, 0)
    assert len(world.swarms) == cfg.n_uavs    # singleton swarms
    k = 0
    while not world.done():
        world.tick()
        k += 1
        if k % 25 == 0:
            check_invariants(world)


@pytest.mark.parametrize("strategy, noise_std", [
    ("UNIFORM", 0.0), ("NORMAL", 0.0), ("LEVY", 0.0), ("NORMAL", 2.0)])
def test_detection_only_cull_changes_only_temperatures(strategy, noise_std):
    """A detection-only strategy culls at the sensing radius.  Stepped
    beside a twin that culls at the thermal cull distance, every tick has
    the same events, the same vehicle states and the same detection fields
    of every reading; only temperatures differ, on some tick."""
    cfg = load_config("pine-table1")
    cfg = dataclasses.replace(
        cfg, engine=dataclasses.replace(cfg.engine, strategy=strategy,
                                        dt=1.0, t_max=3600.0),
        sensing=dataclasses.replace(cfg.sensing, noise_std=noise_std))
    world, twin = World(cfg, 0), World(cfg, 0)
    assert world._cutoff == cfg.sensing.sensing_radius
    twin._cutoff = sn.cull_distance(cfg.sensing, thermal=True)
    temperatures_differ = False
    while not world.done():
        lockstep.step(world, twin, reading=lambda r: (
            r.fire_id, r.probability, r.detected))
        temperatures_differ |= any(
            u.reading is not sn.DEFERRED and v.reading is not sn.DEFERRED
            and u.reading.temperature != v.reading.temperature
            for u, v in zip(world.uavs, twin.uavs))
    assert twin.done()
    assert temperatures_differ
    assert any(e["type"] == "join" for e in world.events)


@pytest.mark.parametrize("strategy", ["MSCIDC", "OMS"])
def test_thermal_search_over_a_barely_warm_fire(strategy):
    """A fire 0.001 K above ambient passes the config checks, and a
    thermal strategy's World builds and ticks over it."""
    cfg = from_dict({"fires": [{"center": [2000, 6000], "a": 300, "b": 250}],
                     "sensing": {"fire_temp": 300.001},
                     "engine": {"strategy": strategy}})
    world = World(cfg, 0)
    assert world._cutoff == cfg.sensing.sensing_radius
    for _ in range(20):
        world.tick()
        check_invariants(world)


def test_mscidc_swarm_structure():
    world = World(small_cfg(), 0)
    assert len(world.swarms) == 2
    assert [len(s.member_ids) for s in world.swarms] == [3, 2]
    # members spawn within the swarm disk of the seeded center
    for s in world.swarms:
        cx = sum(world.uavs[i].pos[0] for i in s.member_ids) / len(s.member_ids)
        cy = sum(world.uavs[i].pos[1] for i in s.member_ids) / len(s.member_ids)
        for i in s.member_ids:
            px, py = world.uavs[i].pos
            assert math.hypot(px - cx, py - cy) <= 2 * world.cfg.swarm_radius


def test_swarm_releases_after_extinction():
    cfg = small_cfg()
    res = run(cfg, 0)
    assert res.complete
    world = World(cfg, 0)
    while not world.done():
        world.tick()
    assert not any(s.mitigating for s in world.swarms)
    assert world.records == {}


def test_zero_fires_degenerate():
    cfg = validate(ScenarioConfig(area=(1000.0, 1000.0), fires=(),
                                  swarm_sizes=(2,)))
    cfg = dataclasses.replace(
        cfg, engine=dataclasses.replace(cfg.engine, t_max=5.0, dt=1.0))
    res = run(cfg, 0)
    assert res.complete
    assert res.mission_time == 0.0
    assert res.fer == 0.0
