"""Golden per-run digests: the definition of "same behaviour" for any
refactor of the engine.

A fixed grid of missions on ``pine-table1`` (every strategy, dt 0.5 and
1.0, run indices 0 and 1, horizon cut to 1800 s), MSCIDC and NORMAL
missions with noisy sensors (``noise_std`` 2.0, dt 0.5, run indices 0 and
1) and one ``preposition_mitigation`` World is hashed and compared with
``tests/golden/digests.json``.  A run digest is a sha256 over the
RunResult's event stream, its final metrics and its logged series; the
World digest covers its event stream and its final UAV and fire state.

Regenerate the file, only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

import collections
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from swarmfire.config import STRATEGIES, load_config
from swarmfire.engine import World, preposition_mitigation, run

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
DTS = (0.5, 1.0)
RUN_INDICES = (0, 1)
T_MAX = 1800.0
NOISY_STRATEGIES = ("MSCIDC", "NORMAL")
NOISE_STD = 2.0
# Every coordination path the engine has; the grid must exercise each one.
REQUIRED_EVENTS = ("lock", "merge", "join-request", "repulsion", "join",
                   "extinguish")


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _cfg(strategy: str, dt: float, noise_std: float = 0.0):
    cfg = load_config("pine-table1")
    return dataclasses.replace(
        cfg, engine=dataclasses.replace(cfg.engine, strategy=strategy, dt=dt,
                                        t_max=T_MAX),
        sensing=dataclasses.replace(cfg.sensing, noise_std=noise_std))


def run_digest(r) -> str:
    final = (r.detection_time, r.mission_time, r.fer, r.objective,
             r.complete, r.all_detected, sorted(r.quench_times.items()),
             r.quench_violations, r.detected_area_sum,
             r.undetected_area_sum)
    return _sha((r.events, final, r.series))


def world_digest(world) -> str:
    final = (world.time, world.tick_index,
             sorted(world.extinguished.items()),
             [(f.id, f.a, f.b, f.state.value) for f in world.fires],
             [(u.id, u.pos, u.vel, u.mode.value, u.waypoint)
              for u in world.uavs])
    return _sha((world.events, final))


def preposition_setup():
    """Swarm s prepositioned on fire s mod 5 at t=0."""
    world = World(_cfg("MSCIDC", 0.5), 0)
    for swarm in world.swarms:
        preposition_mitigation(world, swarm.id % len(world.fires),
                               swarm.member_ids)
    return world


def preposition_world():
    """preposition_setup ticked until done."""
    world = preposition_setup()
    while not world.done():
        world.tick()
    return world


def compute() -> tuple[dict[str, str], collections.Counter]:
    digests = {}
    events = collections.Counter()
    for strategy in STRATEGIES:
        for dt in DTS:
            for idx in RUN_INDICES:
                r = run(_cfg(strategy, dt), idx)
                digests[f"{strategy}/dt{dt}/run{idx}"] = run_digest(r)
                events.update(e["type"] for e in r.events)
    for strategy in NOISY_STRATEGIES:
        for idx in RUN_INDICES:
            r = run(_cfg(strategy, 0.5, NOISE_STD), idx)
            digests[f"{strategy}/dt0.5/noise{NOISE_STD}/run{idx}"] = \
                run_digest(r)
            events.update(e["type"] for e in r.events)
    world = preposition_world()
    digests["preposition/MSCIDC/dt0.5/run0"] = world_digest(world)
    events.update(e["type"] for e in world.events)
    return digests, events


@pytest.fixture(scope="module")
def grid():
    return compute()


def test_golden_digests(grid):
    digests, _ = grid
    expected = json.loads(DIGESTS.read_text())
    assert sorted(digests) == sorted(expected)
    changed = [k for k in expected if digests[k] != expected[k]]
    assert not changed, f"digests changed: {changed}"


def test_grid_covers_every_coordination_event(grid):
    _, events = grid
    missing = [kind for kind in REQUIRED_EVENTS if events[kind] < 1]
    assert not missing, f"grid never produced: {missing}"


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(compute()[0], indent=2, sort_keys=True)
                       + "\n")
