"""Per-layer timing: wrappers installed from outside on each module's entry
points, where the calling module looks the name up.

Only entry points are wrapped.  Helpers that take about a microsecond
(``clamp_to_area``, ``reached``, ``point_on_front`` ...) are left alone,
because a wrapper costs about as much as they do and would inflate the
traced wall time far beyond what it measures.
"""

from __future__ import annotations

import operator
from time import perf_counter

# key -> (owner looked up from the swarmfire package, attribute, layer).
# The owner is where the caller resolves the name: sensing imports
# distance_to_front and nearest_front_point by name, and the engine imports
# RngStreams by name, so those are wrapped in the importing module.
ENTRY_POINTS = {
    "config.load_config": ("config", "load_config", "config"),
    "rng.streams_init": ("engine", "RngStreams", "rng"),
    "rng.agent": ("rng.RngStreams", "agent", "rng"),
    "fire.grow": ("fire", "grow", "fire"),
    "fire.quench": ("fire", "apply_quench", "fire"),
    "fire.distance": ("sensing", "distance_to_front", "fire"),
    "fire.nearest_point": ("sensing", "nearest_front_point", "fire"),
    "sensing.sample": ("sensing", "sample", "sensing"),
    "search.next_waypoint": ("search", "next_waypoint", "search"),
    "search.baseline_waypoint": ("search", "baseline_waypoint", "search"),
    "mitigation.angular_control": ("mitigation", "angular_control", "mitigation"),
    "mitigation.assign_sectors": ("mitigation", "assign_sectors", "mitigation"),
    "vehicle.step": ("vehicle", "step", "vehicle"),
    "engine.tick": ("engine.World", "tick", "engine"),
}

# Entry points every traced run of a workload must call.  The union covers
# all of ENTRY_POINTS, so a renamed function, or a wrapper installed where
# the caller does not look the name up, fails the traced run of some
# workload instead of reporting zero.
_EVERY = frozenset(ENTRY_POINTS)
REQUIRED = {
    "mscidc-pine": _EVERY - {"search.baseline_waypoint"},
    "mc-pool": _EVERY - {"search.baseline_waypoint"},
    # Fires are all prepositioned under mitigation, so none grows.
    "mitigation-sweep": _EVERY - {"search.baseline_waypoint", "fire.grow"},
    # Baseline UAVs need not meet a fire, so nothing past sampling is sure.
    "normal-search": frozenset({
        "config.load_config", "rng.streams_init", "rng.agent", "fire.grow",
        "sensing.sample", "search.baseline_waypoint", "vehicle.step",
        "engine.tick"}),
}
assert frozenset().union(*REQUIRED.values()) == _EVERY


class TraceError(RuntimeError):
    pass


class Tracer:
    """Call counts, inclusive and self time per entry point, and the
    duration of every tick, while installed."""

    def __init__(self, sf):
        self.sf = sf
        self.calls = dict.fromkeys(ENTRY_POINTS, 0)
        self.total = dict.fromkeys(ENTRY_POINTS, 0.0)
        self.own = dict.fromkeys(ENTRY_POINTS, 0.0)
        self.tick_s: list[float] = []
        self.fire_pairs = 0   # sum over ticks of UAVs x active fires
        self._stack = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self, path: str):
        try:
            return operator.attrgetter(path)(self.sf)
        except AttributeError:
            raise TraceError(f"swarmfire.{path} not found") from None

    def install(self) -> None:
        for key, (path, attr, _) in ENTRY_POINTS.items():
            owner = self._owner(path)
            if not callable(getattr(owner, attr, None)):
                raise TraceError(f"entry point swarmfire.{path}.{attr} "
                                 f"not found")
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(key, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, key: str, fn):
        calls, total, own, stack = self.calls, self.total, self.own, self._stack
        durations = self.tick_s if key == "engine.tick" else None

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                calls[key] += 1
                total[key] += dt
                own[key] += dt - inner
                if durations is not None:
                    durations.append(dt)

        if key != "engine.tick":
            return timed
        burning = self.sf.fire.FireState.BURNING
        mitigated = self.sf.fire.FireState.UNDER_MITIGATION

        def tick(world):
            # Every UAV samples once per tick against the fires active at
            # its start; counted outside the timed span.
            self.fire_pairs += len(world.uavs) * sum(
                1 for f in world.fires if f.state in (burning, mitigated))
            return timed(world)
        return tick

    def check_coverage(self, workload: str) -> None:
        missing = sorted(k for k in REQUIRED[workload] if self.calls[k] == 0)
        if missing:
            raise TraceError(f"{workload}: wrapped entry points never called: "
                             + ", ".join(missing))

    def layer_own(self, layer: str) -> float:
        return sum(self.own[k] for k, (_, _, lay) in ENTRY_POINTS.items()
                   if lay == layer)
