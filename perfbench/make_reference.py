"""Regenerate perfbench/reference.json: the pool of units of every workload,
with each mission's tick count and digest.

Every unit is run serially (monte_carlo with jobs=1), so the mc-pool
digests the benchmark checks are the jobs-1 digests of the same missions.
Run from the repository root:

    python3 perfbench/make_reference.py

Units run in parallel, one worker process per CPU this process may use.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import platform
import time

import workloads as wl


def _reference_unit(args):
    name, base_seed = args
    sf = wl.import_swarmfire()
    w = dataclasses.replace(wl.WORKLOADS[name], jobs=min(wl.WORKLOADS[name].jobs, 1))
    t0 = time.perf_counter()
    missions = wl.run_unit(sf, w, base_seed)
    return name, {"base_seed": base_seed,
                  "ticks": [m.ticks for m in missions],
                  "digests": [m.digest for m in missions],
                  "seconds": round(time.perf_counter() - t0, 3)}


def main() -> None:
    sf = wl.import_swarmfire()
    import numpy

    todo = [(name, b) for name, w in wl.WORKLOADS.items()
            for b in range(w.pool_size)]
    units = {name: [] for name in wl.WORKLOADS}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for name, unit in pool.imap_unordered(_reference_unit, todo):
            units[name].append(unit)
            print(f"{name} base_seed={unit['base_seed']} ticks={unit['ticks']} "
                  f"{unit['seconds']} s", flush=True)
    for unit_list in units.values():
        unit_list.sort(key=lambda u: u["base_seed"])
    ref = {"python": platform.python_version(),
           "numpy": numpy.__version__,
           "swarmfire": sf.__version__,
           "machine": platform.machine(),
           "nproc": os.cpu_count(),
           "workloads": units}
    wl.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
