"""Scenario configuration: schema, defaults, validation and presets.

All physical constants live here with documented defaults.  Each field is
declared once, with its type, its default and its bounds; the bounds sit in
the field metadata under their JSON-Schema keywords.  One pass (`from_dict`)
parses and checks a document against these declarations, and `validate`
runs a code-built config through it; `schemas/config.schema.json` is
derived from them too.  A config is a single JSON document; unknown keys
are rejected so that typos surface as errors instead of silently falling
back to defaults.  Configs are immutable after validation and safe to share
between parallel runs.
"""

import json
import math
import operator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin

from .fire import fireline_intensity, spread_rate
from .mitigation import quench_area_rate

STRATEGIES = ("MSCIDC", "UNIFORM", "NORMAL", "LEVY", "OMS")


class ConfigError(ValueError):
    """Raised when a config file fails to parse or violates an invariant."""


def _f(default=MISSING, **bounds):
    """A field whose bounds (`minimum`, `exclusiveMaximum`, `enum`,
    `minItems`, `items` for per-item bounds, ...) are its metadata."""
    return field(default=default, metadata=bounds)


def _pos(default=MISSING):
    """A field that must be strictly positive."""
    return _f(default, exclusiveMinimum=0)


@dataclass(frozen=True)
class FireSpec:
    """Initial geometry of one fire: center (m), semi-major/minor axes (m)."""
    center: tuple[float, float]
    a: float = _pos()
    b: float = _pos()


@dataclass(frozen=True)
class FuelParams:
    """Fuel model constants for fireline intensity and spread rate.

    Defaults are the pine-forest values: intensity = alpha * L_f**beta,
    spread rate = intensity / (heat_of_combustion * fuel_mass).
    """
    alpha: float = _pos(259.833)              # kW / m^(1+beta)
    beta: float = _pos(2.174)                 # dimensionless
    flame_length: float = _pos(4.0)           # m
    heat_of_combustion: float = _pos(18600.0)   # kJ/kg
    fuel_mass: float = _pos(4.0)              # kg/m^2


@dataclass(frozen=True)
class QuenchParams:
    """Water-delivery constants; critical flow = c * L_f**nu (kg/m^2/s)."""
    c: float = _pos(0.1)
    nu: float = _f(1.0, minimum=0)
    water_rate: float = _pos(80.0)            # kg/s sprayed per UAV


@dataclass(frozen=True)
class KinematicsParams:
    """First-order UAV model: cruise speed, velocity-lag pole, tracking tau."""
    cruise_speed: float = _pos(20.0)          # m/s
    pole: float = _pos(1.0)                   # 1/s
    tracking_tau: float = _pos(1.0)           # m


@dataclass(frozen=True)
class SensingParams:
    """Thermal sensing and Gaussian detection-probability constants."""
    sensing_radius: float = _pos(300.0)       # m, hard detection cutoff
    sigma: float = _pos(100.0)                # m, detection-prob. std dev
    # gamma: P >= gamma confirms a fire
    detect_threshold: float = _f(0.9, exclusiveMinimum=0, maximum=1)
    # gamma0: lower bound for repulsion, below detect_threshold
    repel_threshold: float = _f(0.5, exclusiveMinimum=0, exclusiveMaximum=1)
    temp_threshold: float = 330.0             # K (xi): explore/exploit switch
    temp_sigma: float = _pos(250.0)           # m, temperature-field falloff
    ambient_temp: float = 300.0               # K
    fire_temp: float = 1200.0                 # K, above ambient_temp
    noise_std: float = _f(0.0, minimum=0)     # K, optional additive noise


@dataclass(frozen=True)
class SearchParams:
    """Cooperative information-driven search constants."""
    # K_phi (rad), max heading half-width
    cone_gain: float = _f(math.pi / 3, exclusiveMinimum=0, maximum=math.pi)
    cone_rate: float = _pos(0.05)             # K_e (1/K), logistic rate
    levy_step: float = _pos(500.0)            # m, exploration step scale
    brown_step: float = _pos(50.0)            # m, exploitation step scale
    levy_tail_exponent: float = _pos(1.5)     # Pareto tail of levy lengths


@dataclass(frozen=True)
class MitigationParams:
    """Sector-sweep control gains and merging/repulsion thresholds."""
    track_gain: float = _f(-1.0, exclusiveMaximum=0)   # K_m (1/s)
    turn_margin: float = _pos(0.05)           # delta_theta (rad)
    mitigation_speed: float = _pos(10.0)      # m/s sweep cap, <= cruise_speed
    merge_area: float = _pos(1.0e5)           # delta_A (m^2)
    merge_fires: int = _f(2, minimum=0)       # delta_f (remaining fires)
    merge_swarms: int = _f(2, minimum=1)      # delta_s (max swarms per fire)
    # s, repelled-swarm exploration hold
    repel_cooldown: float = _f(60.0, minimum=0)


@dataclass(frozen=True)
class ObjectiveParams:
    """Weighted-sum mission objective weights and quench-time budget."""
    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.0
    quench_time_max: float = _pos(3600.0)     # s


@dataclass(frozen=True)
class EngineParams:
    """Discrete-time engine settings and the seeded determinism contract."""
    dt: float = _pos(0.5)                     # s
    t_max: float = _pos(14400.0)              # s (4 h)
    base_seed: int = _f(2024, minimum=0)
    strategy: str = _f("MSCIDC", enum=STRATEGIES)
    trace_stride: int = _f(10, minimum=1)     # log every N ticks


@dataclass(frozen=True)
class ScenarioConfig:
    """Full validated scenario; immutable after load."""
    # Omega: width, height (m); origin is (0, 0)
    area: tuple[float, float] = _f((10000.0, 10000.0),
                                   items={"exclusiveMinimum": 0})
    fires: tuple[FireSpec, ...] = ()
    swarm_sizes: tuple[int, ...] = _f((3, 2, 2, 2, 2, 2, 2), minItems=1,
                                      items={"minimum": 1})
    swarm_radius: float = _pos(250.0)         # m
    fuel: FuelParams = field(default_factory=FuelParams)
    quench: QuenchParams = field(default_factory=QuenchParams)
    kinematics: KinematicsParams = field(default_factory=KinematicsParams)
    sensing: SensingParams = field(default_factory=SensingParams)
    search: SearchParams = field(default_factory=SearchParams)
    mitigation: MitigationParams = field(default_factory=MitigationParams)
    objective: ObjectiveParams = field(default_factory=ObjectiveParams)
    engine: EngineParams = field(default_factory=EngineParams)

    @property
    def n_uavs(self) -> int:
        return sum(self.swarm_sizes)

    @property
    def spread(self) -> float:
        """Rate (m/s) at which each semi-axis of a burning fire grows."""
        fuel = self.fuel
        return spread_rate(fireline_intensity(fuel.flame_length, fuel.alpha,
                                              fuel.beta),
                           fuel.heat_of_combustion, fuel.fuel_mass)

    @property
    def area_rate(self) -> float:
        """Area (m^2/s) one mitigating UAV quenches."""
        q = self.quench
        return quench_area_rate(q.water_rate, q.c, q.nu,
                                self.fuel.flame_length)


# Table-style built-in scenario: five pine-forest fires, 15 UAVs in 7 swarms.
_PINE_FIRES = (
    FireSpec((2000.0, 6000.0), 300.0, 250.0),
    FireSpec((3000.0, 9000.0), 150.0, 100.0),
    FireSpec((4000.0, 3000.0), 200.0, 200.0),
    FireSpec((8000.0, 2000.0), 100.0, 100.0),
    FireSpec((9000.0, 8000.0), 50.0, 50.0),
)

PRESETS: dict[str, ScenarioConfig] = {
    "pine-table1": ScenarioConfig(fires=_PINE_FIRES),
}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _child(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string"}
_BOUNDS = {   # JSON-Schema keyword -> (test the value must pass, wording)
    "exclusiveMinimum": (operator.gt, ">"),
    "minimum": (operator.ge, ">="),
    "exclusiveMaximum": (operator.lt, "<"),
    "maximum": (operator.le, "<="),
    "enum": (lambda value, options: value in options, "one of"),
}


def _build(tp, data, path: str, meta):
    """Shape JSON data into the declared type and check it against the
    declaration, whose bounds are ``meta``.  Objects become dataclasses
    (unknown or missing keys rejected) and lists tuples of the declared
    length.  Integers become floats where a float is declared, and
    integral floats integers where an integer is declared; each scalar
    must then have its declared type (a bool is not an int), be finite
    and pass its bounds."""
    if is_dataclass(tp):
        where = path or "top level"
        _require(isinstance(data, dict), f"{where}: expected an object")
        spec = {f.name: f for f in fields(tp)}
        unknown = set(data) - set(spec)
        _require(not unknown,
                 f"{where}: unknown keys {sorted(unknown, key=str)}")
        missing = [name for name, f in spec.items() if name not in data
                   and f.default is MISSING and f.default_factory is MISSING]
        _require(not missing, f"{where}: missing keys {missing}")
        return tp(**{name: _build(spec[name].type, value, _child(path, name),
                                  spec[name].metadata)
                     for name, value in data.items()})
    if get_origin(tp) is tuple:
        args = get_args(tp)
        _require(isinstance(data, (list, tuple)), f"{path}: expected a list")
        _require(args[-1] is Ellipsis or len(data) == len(args),
                 f"{path}: expected {len(args)} items")
        _require(len(data) >= meta.get("minItems", 0),
                 f"{path}: expected at least {meta.get('minItems')} items")
        return tuple(_build(args[0], item, f"{path}[{i}]",
                            meta.get("items", {}))
                     for i, item in enumerate(data))
    if tp is float and type(data) is int:
        try:
            data = float(data)
        except OverflowError:
            raise ConfigError(f"{path}: must be finite") from None
    elif (tp is int and type(data) is float and math.isfinite(data)
            and data.is_integer()):
        data = int(data)   # JSON Schema's "integer" admits 2.0
    _require(not isinstance(data, bool) and isinstance(data, tp),
             f"{path}: expected {_TYPE_NAMES[tp]}")
    _require(not isinstance(data, float) or math.isfinite(data),
             f"{path}: must be finite")
    for key, (holds, wording) in _BOUNDS.items():
        if key in meta:
            _require(holds(data, meta[key]),
                     f"{path} must be {wording} {meta[key]}")
    return data


def _require_finite(value, msg: str) -> None:
    """``value()``, a quantity the engine derives from several fields, must
    be finite.  Float ``**`` raises where it overflows and ``/`` where it
    divides by zero, as the engine would mid-run."""
    try:
        ok = math.isfinite(value())
    except (OverflowError, ZeroDivisionError):
        ok = False
    _require(ok, msg)


def from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain dict and check every invariant;
    raises ConfigError naming the offending field.

    Per-field types and bounds come from the declarations above, through
    ``_build``; only the rules that tie two fields together are written
    here."""
    cfg = _build(ScenarioConfig, data, "", {})
    _require(math.isfinite(math.hypot(*cfg.area)),
             "area: the diagonal hypot(width, height) must be finite")
    for i, f in enumerate(cfg.fires):
        _require(f.a >= f.b, f"fires[{i}]: requires a >= b")
        for j, (v, extent) in enumerate(zip(f.center, cfg.area)):
            _require(0 <= v <= extent,
                     f"fires[{i}].center[{j}]: outside search area")
    s = cfg.sensing
    _require(s.repel_threshold < s.detect_threshold,
             "sensing: 0 < gamma0 < gamma <= 1 violated "
             "(repel_threshold must be below detect_threshold)")
    _require(s.fire_temp > s.ambient_temp,
             "sensing.fire_temp must exceed ambient_temp")
    _require_finite(lambda: s.fire_temp - s.ambient_temp,
                    "sensing.fire_temp - sensing.ambient_temp must be finite")
    for name in ("sigma", "temp_sigma"):
        sd = getattr(s, name)
        _require_finite(lambda: 1.0 / (2.0 * sd * sd),
                        f"sensing.{name}: 1 / (2 * {name}**2) must be finite")
    _require_finite(lambda: cfg.spread,
                    "fuel: the spread rate fuel.alpha * fuel.flame_length "
                    "** fuel.beta / (fuel.heat_of_combustion * "
                    "fuel.fuel_mass) must be finite")
    _require_finite(lambda: cfg.area_rate,
                    "quench: the area rate quench.water_rate / (quench.c * "
                    "fuel.flame_length ** quench.nu) must be finite")
    _require(cfg.search.levy_step / cfg.search.brown_step >= 5.0,
             "search: levy_step must be at least 5x brown_step")
    _require_finite(lambda: (math.hypot(*cfg.area) / cfg.search.levy_step)
                    ** -cfg.search.levy_tail_exponent,
                    "search.levy_step, search.levy_tail_exponent: (diagonal "
                    "/ levy_step) ** -levy_tail_exponent must be finite")
    _require(cfg.mitigation.mitigation_speed <= cfg.kinematics.cruise_speed,
             "mitigation.mitigation_speed must not exceed "
             "kinematics.cruise_speed")
    _require(cfg.engine.t_max / cfg.engine.dt <= 1e6,
             "engine.t_max: at most 1e6 ticks of engine.dt")
    # the last tick may end up to one dt after t_max
    horizon, o = cfg.engine.t_max + cfg.engine.dt, cfg.objective
    grown = cfg.spread * horizon
    area = sum(math.pi * (f.a + grown) * (f.b + grown) for f in cfg.fires)
    _require(math.isfinite(area),
             "fuel, engine.t_max, engine.dt: the total area of the fires "
             "after engine.t_max + engine.dt of growth at the spread rate "
             "must be finite")
    _require(math.isfinite(o.w1 * area + o.w2 * area
                           + o.w3 * len(cfg.fires) * horizon),
             "objective.w1, objective.w2, objective.w3: w1 and w2 times that "
             "area plus w3 times len(fires) * (engine.t_max + engine.dt) "
             "must be finite")
    _require(cfg.n_uavs <= 1000, "swarm_sizes: at most 1000 UAVs in total")
    return cfg


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Judge a code-built config exactly as its JSON document: return the
    copy that document loads to (integers in float fields become floats,
    integral floats in integer fields integers), or raise ConfigError."""
    return from_dict(to_dict(cfg))


def to_dict(cfg: ScenarioConfig) -> dict:
    """Inverse of from_dict (dataclasses become dicts, tuples lists); the
    result round-trips exactly."""
    if is_dataclass(cfg):
        return {f.name: to_dict(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, tuple):
        return [to_dict(item) for item in cfg]
    return cfg


def _unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook: ConfigError names a repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    """Load a config from a JSON file or resolve a built-in preset name."""
    name = str(path)
    if name in PRESETS:
        return PRESETS[name]
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config not found: {p}")
    try:
        data = json.loads(p.read_text(), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:   # bad JSON or bad UTF-8
        raise ConfigError(f"{p}: JSON parse failure: {exc}") from exc
    return from_dict(data)


def write_config(cfg: ScenarioConfig, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2) + "\n")
