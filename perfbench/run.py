"""swarmfire benchmark: mission throughput per workload, per-layer timings
from a separate traced run, every mission checked against its reference
digest.

    python3 perfbench/run.py --workload mscidc-pine --seed 1 --seconds 15 --trace 0

Runs the first pass of the workload (see workloads.py), then unit after
unit until ``--seconds`` have elapsed.  Prints each metric as
``name: value unit`` and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl
from tracing import TraceError, Tracer

SETUP_REPEATS = 7
# A shared host runs the same code up to about 1.4x slower in some phases
# than in others, for tens of seconds to minutes at a time.  Every timed
# span is therefore bracketed by a calibration of the same kind of work,
# and the gated times are rescaled to a machine on which the calibration
# takes its reference time: a fixed pure-Python loop for the missions,
# a fresh interpreter importing fixed standard-library modules for set-up.
CALIBRATION_REF_S = 0.005
IMPORT_CALIBRATION_REF_S = 0.075
EVENT_TYPES = ("detection", "lock", "merge", "repulsion", "join",
               "join-request", "extinguish")

# Runs in a fresh interpreter; times what a user waits for before the
# first tick: the package import, the preset and the first World.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import swarmfire
from swarmfire import config, engine
engine.World(config.load_config("pine-table1"), 0)
print(time.perf_counter() - t0)
"""
_IMPORT_CALIBRATION_CHILD = """
import time
t0 = time.perf_counter()
import asyncio, decimal, email.parser, http.client, json, sqlite3, ssl
import unittest, xml.etree.ElementTree
print(time.perf_counter() - t0)
"""


def calibration_s() -> float:
    """How long the fixed loop takes on this machine right now: the median
    of five timings."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0
        for i in range(60_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _calibration_task(_):
    return calibration_s()


@contextlib.contextmanager
def calibrator(jobs: int):
    """Yields the calibration for a workload: the loop in this process, or
    for a pooled workload the mean over ``jobs`` processes running it at
    once, since the pool's speed depends on every CPU it uses."""
    if jobs <= 1:
        yield calibration_s
        return
    pool = multiprocessing.get_context("fork").Pool(jobs)
    try:
        yield lambda: statistics.fmean(
            pool.map(_calibration_task, range(jobs), chunksize=1))
    finally:
        pool.close()
        pool.join()


def slowdown_around(span, calibrate=calibration_s):
    """Runs span() between two calibrations.  Returns its result and how
    much slower than the reference the machine ran meanwhile."""
    before = calibrate()
    result = span()
    return result, (before + calibrate()) / 2 / CALIBRATION_REF_S


def _child_s(code: str, *args: str) -> float:
    """Runs code in a fresh interpreter; returns the seconds it prints.
    OpenBLAS starts no thread pool there: starting one added from almost
    nothing to about 0.08 s to the NumPy import, depending on how busy the
    host's other CPU was, and swarmfire makes no BLAS call."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return float(subprocess.run(
        [sys.executable, "-c", code, *args], env=env,
        check=True, capture_output=True, text=True, timeout=60).stdout)


def measure_setup() -> tuple[float, float]:
    """Median set-up time over fresh interpreters, after one warm-up that
    may still be compiling bytecode: wall seconds and rescaled seconds.
    Each set-up is rescaled by the import calibrations on either side."""
    wall, scaled = [], []
    after = _child_s(_IMPORT_CALIBRATION_CHILD)
    for i in range(SETUP_REPEATS + 1):
        seconds = _child_s(_SETUP_CHILD, str(wl.SRC))
        before, after = after, _child_s(_IMPORT_CALIBRATION_CHILD)
        if i:
            wall.append(seconds)
            scaled.append(seconds * IMPORT_CALIBRATION_REF_S * 2
                          / (before + after))
    return statistics.median(wall), statistics.median(scaled)


@dataclasses.dataclass
class Tally:
    """Outcome of the missions attempted in one run."""
    attempted: int = 0
    failed: int = 0
    ticks: int = 0
    wall_s: float = 0.0
    scaled_s: float = 0.0   # wall_s rescaled to CALIBRATION_REF_S
    mission_s: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)

    def add_unit(self, w, unit, missions, seconds, slowdown) -> None:
        """Checks a finished unit against its reference."""
        ok = 0
        self.attempted += w.batch
        if missions is None:
            self.failed += w.batch
            return
        for i, (m, ticks, digest) in enumerate(
                zip(missions, unit["ticks"], unit["digests"])):
            if (m.ticks, m.digest) == (ticks, digest):
                ok += 1
            else:
                self.problems.append(
                    f"base_seed {unit['base_seed']} run {i}: ticks {m.ticks} "
                    f"digest {m.digest[:12]}, reference ticks {ticks} "
                    f"digest {digest[:12]}")
        self.failed += w.batch - ok
        self.ticks += sum(m.ticks for m in missions)
        self.wall_s += seconds
        self.scaled_s += seconds / slowdown
        self.mission_s += [seconds / w.batch] * w.batch


def timed_unit(sf, w, unit, tally, calibrate=calibration_s):
    """Runs one unit; a unit that raises counts all its missions failed."""
    def span():
        t0 = time.perf_counter()
        try:
            missions = wl.run_unit(sf, w, unit["base_seed"])
        except Exception as exc:   # the benchmark must report, not stop
            tally.problems.append(f"base_seed {unit['base_seed']}: "
                                  f"{type(exc).__name__}: {exc}")
            missions = None
        return missions, time.perf_counter() - t0

    (missions, seconds), slowdown = slowdown_around(span, calibrate)
    tally.add_unit(w, unit, missions, seconds, slowdown)
    return missions, seconds


def run_passes(w, ref_units, seed, seconds, smoke, body,
               after_pass=lambda: None) -> None:
    """Calls body(unit) for unit after unit: the whole first pass, then on
    until ``seconds`` have elapsed.  after_pass() follows each full pass.
    A smoke run is the shortest unit alone."""
    if smoke:
        body(min(ref_units, key=lambda u: sum(u["ticks"])))
        after_pass()
        return
    start = time.perf_counter()
    for n, unit_pass in enumerate(wl.passes(w, ref_units, seed)):
        for unit in unit_pass:
            body(unit)
            if n and time.perf_counter() - start >= seconds:
                return
        after_pass()
        if time.perf_counter() - start >= seconds:
            return


def end_to_end(sf, w, ref_units, args):
    """Set-up time, then the workload untraced."""
    setup_wall, setup_s = measure_setup()
    tally = Tally()
    with calibrator(w.jobs) as calibrate:
        run_passes(w, ref_units, args.seed, args.seconds, args.smoke,
                   lambda unit: timed_unit(sf, w, unit, tally, calibrate))
    done = tally.attempted - tally.failed
    ms = sorted(tally.mission_s)
    if not ms:   # every unit raised: nothing to time
        return tally, {}, {}
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # Gated times are rescaled to the reference machine speed; the wall
    # times they come from are printed as *.wall.
    metrics = {
        "setup_s": (setup_s, "s"),
        "missions_per_s": (done / tally.scaled_s, "1/s"),
        "us_per_tick": (tally.scaled_s / tally.ticks * 1e6, "us"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    # Printed, not gated: the wall times vary with the host's phases,
    # failed_frac is 0 on correct code, and the mission time percentiles
    # depend on which missions the seed drew.
    extra = {"setup_s.wall": (setup_wall, "s"),
             "missions_per_s.wall": (done / tally.wall_s, "1/s"),
             "us_per_tick.wall": (tally.wall_s / tally.ticks * 1e6, "us"),
             "failed_frac": (tally.failed / tally.attempted, "ratio"),
             "mission_s.p50": (statistics.median(ms), "s"),
             "mission_s.n": (len(ms), "count")}
    # The highest percentile with at least ten missions beyond it.
    q = math.floor(100 * (1 - 10 / len(ms)))
    if q > 50:
        extra[f"mission_s.p{q}"] = (
            statistics.quantiles(ms, n=100, method="inclusive")[q - 1], "s")
    return tally, metrics, extra


def traced(sf, w, ref_units, args):
    """Each unit runs untraced, pooled (mc-pool only) and traced in this
    process.  Counts cover the first pass, so they repeat exactly for a
    seed whatever the speed; timings cover every pass."""
    serial = dataclasses.replace(w, jobs=min(w.jobs, 1))
    if w.jobs > 1:
        # A batch runs three times here, so a traced pass of a pooled
        # workload is a single batch, not one from every stratum.
        w = dataclasses.replace(w, strata=1, per_stratum=w.pool_size)
    tracer = Tracer(sf)
    tally = Tally()
    walls = {"plain": 0.0, "pooled": 0.0, "traced": 0.0}
    turn = itertools.count()
    result_bytes = []
    events = dict.fromkeys(EVENT_TYPES, 0)
    first_pass = {}

    def run_traced(unit):
        tracer.install()
        try:
            missions, seconds = timed_unit(sf, serial, unit, tally)
        finally:
            tracer.uninstall()
        walls["traced"] += seconds
        return missions

    def body(unit):
        # Alternate which of the untraced and traced runs goes first, so
        # neither always pays for a cold start.
        traced_first = next(turn) % 2 == 1
        if traced_first:
            missions = run_traced(unit)
        walls["plain"] += timed_unit(sf, serial, unit, tally)[1]
        if w.jobs > 1:
            walls["pooled"] += timed_unit(sf, w, unit, tally)[1]
        if not traced_first:
            missions = run_traced(unit)
        for m in missions or ():
            if m.result is not None:
                result_bytes.append(len(pickle.dumps(m.result)))
            for e in m.events:
                events[e["type"]] += 1

    def after_pass():
        if not first_pass:
            first_pass.update(calls=dict(tracer.calls), events=dict(events),
                              fire_pairs=tracer.fire_pairs)

    run_passes(w, ref_units, args.seed, args.seconds, args.smoke, body,
               after_pass)
    tracer.check_coverage(w.name)

    calls = first_pass["calls"]
    tick_total = tracer.total["engine.tick"]
    tick_us = sorted(t * 1e6 for t in tracer.tick_s)

    def us_per_call(key):
        return tracer.total[key] / tracer.calls[key] * 1e6 if tracer.calls[key] else 0.0

    def share(layer):
        return tracer.layer_own(layer) / tick_total

    draws = calls["search.next_waypoint"] + calls["search.baseline_waypoint"]
    draw_s = (tracer.total["search.next_waypoint"]
              + tracer.total["search.baseline_waypoint"])
    draws_all = (tracer.calls["search.next_waypoint"]
                 + tracer.calls["search.baseline_waypoint"])
    metrics = {
        "sensing.sample.calls": (calls["sensing.sample"], "count"),
        "sensing.sample.us_per_call": (us_per_call("sensing.sample"), "us"),
        "sensing.share": (share("sensing"), "ratio"),
        "sensing.cull_ratio": (calls["fire.distance"] / first_pass["fire_pairs"],
                               "ratio"),
        "sensing.nearest_point.calls": (calls["fire.nearest_point"], "count"),
        "fire.distance.calls": (calls["fire.distance"], "count"),
        "fire.distance.us_per_call": (us_per_call("fire.distance"), "us"),
        "fire.nearest_point.us_per_call": (us_per_call("fire.nearest_point"), "us"),
        "fire.quench.calls": (calls["fire.quench"], "count"),
        "fire.grow.calls": (calls["fire.grow"], "count"),
        "fire.share": (share("fire"), "ratio"),
        "search.waypoint_draws": (draws, "count"),
        "search.us_per_draw": (draw_s / draws_all * 1e6 if draws_all else 0.0, "us"),
        "search.share": (share("search"), "ratio"),
        "mitigation.angular_control.calls": (calls["mitigation.angular_control"], "count"),
        "mitigation.assign_sectors.calls": (calls["mitigation.assign_sectors"], "count"),
        "mitigation.share": (share("mitigation"), "ratio"),
        "vehicle.step.calls": (calls["vehicle.step"], "count"),
        "vehicle.share": (share("vehicle"), "ratio"),
        "engine.ticks": (calls["engine.tick"], "count"),
        "engine.tick.us_p50": (statistics.median(tick_us), "us"),
        "engine.tick.us_p99": (tick_us[int(0.99 * (len(tick_us) - 1))], "us"),
        "engine.tick.self_share": (share("engine"), "ratio"),
    }
    for kind in EVENT_TYPES:
        metrics[f"engine.events.{kind}"] = (first_pass["events"][kind], "count")
    metrics.update({
        "engine.pool.result_bytes": (statistics.fmean(result_bytes)
                                     if result_bytes else 0.0, "bytes"),
        # serial mission time / (jobs x pooled wall); 1 when nothing is pooled
        "engine.pool.efficiency": (walls["plain"] / (w.jobs * walls["pooled"])
                                   if w.jobs > 1 else 1.0, "ratio"),
        "rng.streams_init_us": (us_per_call("rng.streams_init"), "us"),
        "rng.agent.calls": (calls["rng.agent"], "count"),
        "config.load_s": (tracer.total["config.load_config"]
                          / tracer.calls["config.load_config"], "s"),
        "trace.overhead": (walls["traced"] / walls["plain"] - 1.0, "ratio"),
    })
    return tally, metrics, {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="orders the reference pool into passes")
    ap.add_argument("--seconds", type=int, required=True,
                    help="measure at least this long; the first pass "
                         "always completes")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="run the shortest unit only, at most two missions "
                         "of it")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    sf = wl.import_swarmfire()
    import numpy
    w = wl.WORKLOADS[args.workload]
    if args.smoke:
        # The first two missions of a batch: enough to use both pool workers.
        w = dataclasses.replace(w, batch=min(w.batch, 2))
    ref = wl.load_reference()
    ref_units = ref["workloads"][w.name]
    if len(ref_units) != w.pool_size:
        raise SystemExit(f"perfbench: reference.json has {len(ref_units)} "
                         f"units for {w.name}, expected {w.pool_size}")
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"python {sys.version.split()[0]}  numpy {numpy.__version__}  "
          f"nproc {os.cpu_count()}  (reference: python {ref['python']}, "
          f"numpy {ref['numpy']})")
    try:
        tally, metrics, extra = (traced if args.trace else end_to_end)(
            sf, w, ref_units, args)
    except TraceError as exc:
        print(f"perfbench: trace coverage: {exc}", file=sys.stderr)
        return 1
    for problem in tally.problems:
        print(f"MISMATCH {problem}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
