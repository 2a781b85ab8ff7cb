"""Workload definitions shared by the benchmark and the reference generator.

A workload is a pool of *units*.  A unit is one mission, or for mc-pool one
Monte-Carlo batch, identified by the base seed of its config.  The pool is
split into strata by the reference tick count, so that every pass of a run
takes one unit from each stratum and sees the same mix of short and long
missions whatever the seed.  Every mission's output is checked against the
digest committed in ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"


def import_swarmfire():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "swarmfire" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no swarmfire sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swarmfire
    if Path(swarmfire.__file__).resolve().parent != SRC / "swarmfire":
        raise SystemExit(f"perfbench: imported swarmfire from {swarmfire.__file__}")
    return swarmfire


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    dt: float
    axis_scale: float     # multiplies both semi-axes of every fire
    batch: int            # missions per unit (run indices 0..batch-1)
    jobs: int             # monte_carlo parallelism; 0 = step World directly
    strata: int
    per_stratum: int      # units per stratum in the reference pool

    @property
    def pool_size(self) -> int:
        return self.strata * self.per_stratum


WORKLOADS = {w.name: w for w in (
    Workload("mscidc-pine", "MSCIDC", 0.5, 1.0, 1, 1, strata=16, per_stratum=3),
    Workload("normal-search", "NORMAL", 1.0, 1.0, 1, 1, strata=6, per_stratum=4),
    Workload("mitigation-sweep", "MSCIDC", 0.5, 4.0, 1, 0, strata=4, per_stratum=3),
    # Batches of 30 runs, the size of the acceptance tests' Monte-Carlo
    # batches.
    Workload("mc-pool", "MSCIDC", 0.5, 1.0, 30, 2, strata=2, per_stratum=4),
)}


def mission_config(config, w: Workload, base_seed: int):
    """pine-table1 with the workload's strategy, step and fire size."""
    cfg = config.load_config("pine-table1")
    fires = tuple(dataclasses.replace(f, a=f.a * w.axis_scale,
                                      b=f.b * w.axis_scale)
                  for f in cfg.fires)
    return dataclasses.replace(
        cfg, fires=fires,
        engine=dataclasses.replace(cfg.engine, strategy=w.strategy, dt=w.dt,
                                   base_seed=base_seed))


def _digest(events, final) -> str:
    return hashlib.sha256(repr((events, final)).encode()).hexdigest()


def result_digest(r) -> str:
    """sha256 over a RunResult's event stream, its final metrics and its
    logged series."""
    final = (r.detection_time, r.mission_time, r.fer, r.objective,
             r.complete, r.all_detected, sorted(r.quench_times.items()),
             r.quench_violations, r.detected_area_sum,
             r.undetected_area_sum, r.series)
    return _digest(r.events, final)


def world_digest(world) -> str:
    """sha256 over a World's event stream and its final UAV and fire state."""
    final = (world.time, world.tick_index,
             sorted(world.extinguished.items()),
             [(f.id, f.a, f.b, f.state.value) for f in world.fires],
             [(u.id, u.pos, u.vel, u.mode.value) for u in world.uavs])
    return _digest(world.events, final)


@dataclasses.dataclass
class Mission:
    """What the benchmark checks and counts for one finished mission."""
    ticks: int
    digest: str
    events: list
    result: object = None  # the RunResult, when the workload produces one


def run_unit(sf, w: Workload, base_seed: int) -> list[Mission]:
    """Run one unit through the public API and return its missions."""
    cfg = mission_config(sf.config, w, base_seed)
    if w.jobs == 0:
        world = sf.engine.World(cfg, 0)
        for swarm in world.swarms:
            sf.engine.preposition_mitigation(
                world, swarm.id % len(world.fires), swarm.member_ids)
        ticks = 0
        while not world.done():
            world.tick()
            ticks += 1
        return [Mission(ticks, world_digest(world), world.events)]
    results = sf.engine.monte_carlo(cfg, w.batch, jobs=w.jobs)
    # engine.run stops exactly when World.done() holds, and the last series
    # row is logged at that tick.
    return [Mission(round(r.series[-1][0] / w.dt), result_digest(r),
                    r.events, r)
            for r in results]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _even_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so that every prefix takes strata from
    across the whole range (for n=4: 0, 2, 1, 3)."""
    bits = max(1, (n - 1).bit_length())
    return [r for r in (int(f"{i:0{bits}b}"[::-1], 2) for i in range(1 << bits))
            if r < n]


def passes(w: Workload, ref_units: list[dict], seed: int):
    """Endless sequence of passes; each pass is one unit from every stratum.
    Strata are consecutive slices of the pool sorted by reference ticks.
    The seed fixes which unit of each stratum each pass uses; strata come
    in an order whose every prefix spans short and long missions alike, so
    a run that stops inside a pass still sees the workload's mix."""
    ranked = sorted(ref_units, key=lambda u: (sum(u["ticks"]), u["base_seed"]))
    strata = [ranked[s * w.per_stratum:(s + 1) * w.per_stratum]
              for s in _even_order(w.strata)]
    rnd = random.Random(f"{w.name}:{seed}")
    for stratum in strata:
        rnd.shuffle(stratum)
    for j in itertools.count():
        yield [stratum[j % w.per_stratum] for stratum in strata]
