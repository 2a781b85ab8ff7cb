"""Config tests.  Run as a script to regenerate the committed JSON schema
from the dataclass declarations:

    PYTHONPATH=src python tests/test_config.py
"""

import copy
import dataclasses
import json
import math
import re
from dataclasses import MISSING, fields, is_dataclass
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import get_args, get_origin

import pytest
from hypothesis import given, settings, strategies as st

import swarmfire
from swarmfire.config import (ConfigError, PRESETS, ScenarioConfig,
                              from_dict, load_config, to_dict, validate,
                              write_config)

SCHEMA_PATH = (Path(swarmfire.__file__).parent / "schemas"
               / "config.schema.json")


def test_preset_exists_and_validates():
    cfg = load_config("pine-table1")
    validate(cfg)
    assert cfg.n_uavs == 15
    assert len(cfg.swarm_sizes) == 7
    assert len(cfg.fires) == 5
    assert cfg.area == (10000.0, 10000.0)


def test_preset_fire_geometry():
    cfg = PRESETS["pine-table1"]
    geo = [(f.center, f.a, f.b) for f in cfg.fires]
    assert ((2000.0, 6000.0), 300.0, 250.0) in geo
    assert ((9000.0, 8000.0), 50.0, 50.0) in geo


def test_round_trip_dict():
    cfg = load_config("pine-table1")
    again = from_dict(to_dict(cfg))
    assert again == cfg


def test_round_trip_file(tmp_path):
    cfg = load_config("pine-table1")
    p = tmp_path / "cfg.json"
    write_config(cfg, p)
    assert load_config(p) == cfg


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys.*bogus"):
        from_dict({"bogus": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="sensing.*unknown keys"):
        from_dict({"sensing": {"sigmaa": 100}})


def test_missing_file():
    with pytest.raises(ConfigError, match="config not found"):
        load_config("no-such-file.json")


def test_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON parse failure"):
        load_config(p)


@pytest.mark.parametrize("text, key", [
    ('{"engine": {"dt": 0.5, "dt": 1e-300}}', "'dt'"),
    ('{"swarm_sizes": [2], "swarm_sizes": [3, 2]}', "'swarm_sizes'"),
])
def test_duplicate_key_rejected(tmp_path, text, key):
    """json.loads alone keeps the last of two equal keys."""
    p = tmp_path / "dup.json"
    p.write_text(text)
    with pytest.raises(ConfigError, match=f"duplicate key {key}"):
        load_config(p)


@pytest.mark.parametrize("method", ["is_file", "read_text"])
def test_unreadable_config_rejected(tmp_path, monkeypatch, method):
    """A file, or a directory above it, that cannot be read is a
    ConfigError naming the path.  Root reads a mode-000 file, so the
    failure is monkeypatched in."""
    p = tmp_path / "cfg.json"
    p.write_text("{}")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, method, denied)
    with pytest.raises(ConfigError, match="cannot read: Permission denied"
                       ) as info:
        load_config(p)
    assert str(p) in str(info.value)


def _with(cfg, section, **kw):
    return dataclasses.replace(
        cfg, **{section: dataclasses.replace(getattr(cfg, section), **kw)})


def test_threshold_ordering_enforced():
    cfg = load_config("pine-table1")
    bad = _with(cfg, "sensing", repel_threshold=0.95)
    with pytest.raises(ConfigError, match="gamma0 < gamma"):
        validate(bad)


def test_step_scale_ratio_enforced():
    cfg = load_config("pine-table1")
    bad = _with(cfg, "search", levy_step=100.0, brown_step=50.0)
    with pytest.raises(ConfigError, match="5x"):
        validate(bad)


def test_track_gain_must_be_negative():
    cfg = load_config("pine-table1")
    with pytest.raises(ConfigError, match="track_gain"):
        validate(_with(cfg, "mitigation", track_gain=1.0))


def test_fire_axes_ordered():
    with pytest.raises(ConfigError, match=r"fires\[0\]"):
        from_dict({"fires": [{"center": [100, 100], "a": 50, "b": 80}]})


def test_fire_center_inside_area():
    with pytest.raises(ConfigError, match=r"fires\[0\]\.center\[0\]: outside"):
        from_dict({"area": [1000, 1000],
                   "fires": [{"center": [2000, 100], "a": 50, "b": 50}]})


def test_strategy_name_checked():
    cfg = load_config("pine-table1")
    with pytest.raises(ConfigError, match="strategy"):
        validate(_with(cfg, "engine", strategy="RANDOM"))


def test_cone_gain_range():
    cfg = load_config("pine-table1")
    with pytest.raises(ConfigError, match="cone_gain"):
        validate(_with(cfg, "search", cone_gain=2 * math.pi))


# -- malformed values --------------------------------------------------------

# Each JSON document with the field path its error must name; test_cli.py
# runs the same documents through the CLI.
MALFORMED = [
    ('{"engine": {"dt": "0.5"}}', "engine.dt"),
    ('{"fires": [{"center": [100, 100], "a": "x", "b": 50}]}', "fires[0].a"),
    ('{"fires": 5}', "fires"),
    ('{"engine": {"base_seed": -1}}', "engine.base_seed"),
    ('{"engine": {"t_max": Infinity}}', "engine.t_max"),
    ('{"engine": {"t_max": 1e300}}', "engine.t_max"),
    ('{"swarm_sizes": [1000000000]}', "swarm_sizes"),
    ('{"swarm_sizes": [2.7]}', "swarm_sizes[0]"),
    ('{"engine": {"trace_stride": 2.5}}', "engine.trace_stride"),
    ('{"engine": {"trace_stride": true}}', "engine.trace_stride"),
    ('{"engine": {"trace_stride": NaN}}', "engine.trace_stride"),
    ('{"swarm_sizes": [Infinity]}', "swarm_sizes[0]"),
    ('{"objective": {"w1": NaN}}', "objective.w1"),
    ('{"area": [Infinity, 10000]}', "area[0]"),
    ('{"quench": {"c": null}}', "quench.c"),
    ('{"swarm_radius": 1e999}', "swarm_radius"),
    ('{"swarm_radius": 1%s}' % ("0" * 400), "swarm_radius"),
    ('{"fires": [{"center": [100], "a": 50, "b": 50}]}', "fires[0].center"),
    ('{"fires": [{"a": 50, "b": 50}]}', "fires[0]: missing keys"),
    # valid one by one, but what the engine derives from them overflows
    # or divides by zero
    ('{"quench": {"nu": 1000}}', "quench.nu"),
    # an area rate that underflows to 0.0: no fire under mitigation goes out
    ('{"quench": {"water_rate": 1e-322, "c": 1e10}}', "quench.water_rate"),
    ('{"fuel": {"beta": 1000}}', "fuel.beta"),
    ('{"fuel": {"flame_length": 1e300}}', "fuel.flame_length"),
    ('{"sensing": {"temp_sigma": 1e-300}}', "sensing.temp_sigma"),
    ('{"sensing": {"sigma": 1e-300}}', "sensing.sigma"),
    ('{"sensing": {"fire_temp": 1e308, "ambient_temp": -1e308}}',
     "sensing.fire_temp - sensing.ambient_temp"),
    # finite sides whose diagonal, and so the search's step cap, overflows
    ('{"area": [1.6e308, 1.6e308], "swarm_sizes": [2], "engine": '
     '{"t_max": 300}, "fires": [{"center": [500, 500], "a": 50, "b": 40}]}',
     "area: the diagonal"),
    # a step cap whose power in the levy sampler overflows
    ('{"search": {"levy_step": 1e300}}',
     "search.levy_step, search.levy_tail_exponent"),
    ('{"search": {"levy_step": 1e5, "levy_tail_exponent": 500}}',
     "search.levy_step, search.levy_tail_exponent"),
    # a finite spread rate whose fires' area overflows within engine.t_max
    ('{"fuel": {"alpha": 1e300},'
     ' "fires": [{"center": [100, 100], "a": 50, "b": 50}]}',
     "fuel, engine.t_max"),
    # the last tick, up to one dt past engine.t_max, overflows the area
    ('{"engine": {"dt": 1e308},'
     ' "fires": [{"center": [2000, 6000], "a": 300, "b": 250}]}',
     "engine.dt"),
    # finite fire areas whose objective overflows
    ('{"objective": {"w1": 1e300, "w3": 1e308}, "engine": {"t_max": 1800},'
     ' "fires": [{"center": [100, 100], "a": 50, "b": 50}]}',
     "objective.w1, objective.w2, objective.w3"),
    ('{"objective": {"w2": 1e304},'
     ' "fires": [{"center": [100, 100], "a": 50, "b": 50}]}',
     "objective.w1, objective.w2, objective.w3"),
    # an option that no longer exists is an unknown key
    ('{"mitigation": {"use_printed_angular_law": 1}}',
     "mitigation: unknown keys ['use_printed_angular_law']"),
]


@pytest.mark.parametrize("text, path", MALFORMED)
def test_malformed_value_names_field(text, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        from_dict(json.loads(text))


def test_json_integers_become_floats():
    cfg = from_dict({"area": [4000, 4000], "swarm_radius": 250,
                     "sensing": {"sigma": 100}})
    assert cfg == from_dict({"area": [4000.0, 4000.0],
                             "swarm_radius": 250.0,
                             "sensing": {"sigma": 100.0}})
    assert type(cfg.sensing.sigma) is float


def test_integral_floats_become_integers():
    """JSON Schema's "integer" admits 2.0, so the loader does too."""
    cfg = from_dict({"swarm_sizes": [2.0, 3.0],
                     "engine": {"trace_stride": 2.0, "base_seed": 7.0},
                     "mitigation": {"merge_fires": -0.0}})
    assert cfg == from_dict({"swarm_sizes": [2, 3],
                             "engine": {"trace_stride": 2, "base_seed": 7},
                             "mitigation": {"merge_fires": 0}})
    assert type(cfg.engine.trace_stride) is int
    assert [type(n) for n in cfg.swarm_sizes] == [int, int]


def test_validate_rejects_an_int_too_large_for_a_float_field():
    """A code-built config is judged as its JSON document, which names the
    field; the engine would raise OverflowError mid-run."""
    cfg = PRESETS["pine-table1"]
    with pytest.raises(ConfigError, match="swarm_radius: must be finite"):
        validate(dataclasses.replace(cfg, swarm_radius=10**400))
    assert validate(dataclasses.replace(cfg, swarm_radius=250)) == cfg


def test_validate_returns_the_coerced_copy():
    """JSON accepts trace_stride 2.0 as 2, and so does validate."""
    cfg = validate(_with(PRESETS["pine-table1"], "engine", trace_stride=2.0))
    assert cfg.engine.trace_stride == 2
    assert type(cfg.engine.trace_stride) is int


# -- one-leaf mutations of the preset document -------------------------------

PRESET_DOC = to_dict(PRESETS["pine-table1"])


def _paths(doc, path=()):
    """Path to every value below the root of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([-1, 0, 2**63, 10**400, -10**400]),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=4), st.lists(st.integers() | st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(list(_paths(PRESET_DOC))),
       action=st.sampled_from(["replace", "delete", "extra"]),
       value=JUNK, key=st.text(max_size=6))
def test_one_leaf_mutation_gives_config_or_config_error(path, action,
                                                         value, key):
    doc = copy.deepcopy(PRESET_DOC)
    parent = reduce(getitem, path[:-1], doc)
    if action == "replace":
        parent[path[-1]] = value
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[key] = value
    else:
        parent.append(value)
    try:
        cfg = from_dict(doc)
    except ConfigError:
        return
    assert from_dict(to_dict(cfg)) == cfg
    assert validate(cfg) == cfg


# -- the JSON schema, generated from the field declarations ------------------

_JSON_TYPES = {float: "number", int: "integer", str: "string"}


def schema_of(tp, meta=None, default=MISSING) -> dict:
    """JSON schema of a declared type; bounds come from the field metadata
    under the same keywords."""
    meta = dict(meta or {})
    if is_dataclass(tp):
        out = {"description": tp.__doc__.splitlines()[0], "type": "object",
               "additionalProperties": False,
               "properties": {f.name: schema_of(f.type, f.metadata, f.default)
                              for f in fields(tp)}}
        required = [f.name for f in fields(tp) if f.default is MISSING
                    and f.default_factory is MISSING]
        if required:
            out["required"] = required
    elif get_origin(tp) is tuple:
        args = get_args(tp)
        out = {"type": "array",
               "items": schema_of(args[0], meta.pop("items", {}))}
        if args[-1] is not Ellipsis:
            out["minItems"] = out["maxItems"] = len(args)
        out.update(meta)
    else:
        out = {"type": _JSON_TYPES[tp], **meta}
    if default is not MISSING:
        out["default"] = to_dict(default)
    return out


def schema_text() -> str:
    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema",
              "title": "swarmfire scenario configuration",
              **schema_of(ScenarioConfig)}
    return json.dumps(schema, indent=2) + "\n"


def test_schema_file_is_generated_from_fields():
    assert SCHEMA_PATH.read_text() == schema_text(), (
        "regenerate with: PYTHONPATH=src python tests/test_config.py")


if __name__ == "__main__":
    SCHEMA_PATH.write_text(schema_text())
