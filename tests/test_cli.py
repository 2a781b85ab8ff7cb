import json
import statistics
from pathlib import Path

import pytest
from click.testing import CliRunner

from swarmfire.cli import CSV_COLUMNS, main
from swarmfire.config import STRATEGIES, load_config, to_dict, write_config
from swarmfire.engine import run
from test_config import MALFORMED

import dataclasses


@pytest.fixture()
def small_config_path(tmp_path):
    """A fast two-swarm scenario written to disk."""
    from swarmfire.config import FireSpec, ScenarioConfig, validate
    cfg = ScenarioConfig(
        area=(4000.0, 4000.0),
        fires=(FireSpec((2000.0, 2000.0), 120.0, 100.0),),
        swarm_sizes=(3, 2))
    cfg = validate(dataclasses.replace(
        cfg, engine=dataclasses.replace(cfg.engine, dt=1.0, t_max=3600.0)))
    p = tmp_path / "small.json"
    write_config(cfg, p)
    return str(p)


def invoke(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env or {})


def test_run_preset_smoke(tmp_path, small_config_path):
    out = tmp_path / "out"
    res = invoke("run", small_config_path, "--seed", "42",
                 "--out", str(out))
    assert res.exit_code == 0, res.output
    assert "detection time" in res.output
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(CSV_COLUMNS)
    assert len(summary) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["base_seed"] == 42
    assert manifest["tool"] == "swarmfire"


def test_run_deterministic_outputs(tmp_path, small_config_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = invoke("run", small_config_path, "--seed", "42",
                     "--out", str(out))
        assert res.exit_code == 0
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_missing_config_exit_2():
    res = invoke("run", "missing.json")
    assert res.exit_code == 2
    assert "config not found" in res.output


def test_run_trace_line_count(tmp_path, small_config_path):
    trace = tmp_path / "t.jsonl"
    res = invoke("run", small_config_path, "--trace", str(trace))
    assert res.exit_code == 0
    lines = trace.read_text().splitlines()
    recs = [json.loads(x) for x in lines]
    # logged every trace_stride ticks plus initial state and final tick
    cfg = load_config(small_config_path)
    mission_line = [x for x in res.output.splitlines() if "mission" in x][0]
    mission_min = float(mission_line.split(":")[1].split("min")[0])
    expect = mission_min * 60.0 / (cfg.engine.dt * cfg.engine.trace_stride)
    assert abs(len(recs) - expect) <= 3
    for rec in recs:
        assert set(rec) >= {"t", "uavs", "fires", "F_d", "F_f", "F_r",
                            "S_s", "S_q"}


def test_mc_jobs_byte_identical(tmp_path, small_config_path):
    csvs = []
    for jobs, name in ((1, "j1"), (8, "j8")):
        out = tmp_path / name
        res = invoke("mc", small_config_path, "--runs", "6",
                     "--jobs", str(jobs), "--out", str(out))
        assert res.exit_code == 0, res.output
        csvs.append((out / "summary.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_mc_aggregate_consistent_with_csv(tmp_path, small_config_path):
    out = tmp_path / "mc"
    res = invoke("mc", small_config_path, "--runs", "4", "--out", str(out))
    assert res.exit_code == 0
    import csv as csvmod
    with open(out / "summary.csv") as fh:
        rows = list(csvmod.DictReader(fh))
    agg = json.loads((out / "aggregate.json").read_text())
    mean = sum(float(r["fer"]) for r in rows) / len(rows)
    assert abs(agg["fer"]["mean"] - mean) < 1e-4   # CSV is 6 sig digits
    assert agg["n_runs"] == 4


def test_mc_zero_runs_usage_error(small_config_path):
    res = invoke("mc", small_config_path, "--runs", "0")
    assert res.exit_code == 2
    assert "runs" in res.output


@pytest.mark.parametrize("command", ["mc", "compare"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_usage_error(small_config_path, command, jobs):
    res = invoke(command, small_config_path, "--runs", "1", "--jobs", jobs)
    assert res.exit_code == 2
    assert "--jobs" in res.output


def test_compare_structure(tmp_path, small_config_path):
    out = tmp_path / "cmp"
    res = invoke("compare", small_config_path, "--runs", "2",
                 "--strategies", "MSCIDC,LEVY", "--out", str(out))
    assert res.exit_code == 0, res.output
    data = json.loads((out / "compare.json").read_text())
    assert set(data["aggregates"]) == {"MSCIDC", "LEVY"}
    assert "MSCIDC-LEVY" in data["mean_differences"]
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 1 + 4   # header + 2 strategies x 2 runs


def test_compare_defaults_to_every_strategy(tmp_path, small_config_path):
    res = invoke("compare", small_config_path, "--runs", "1",
                 "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    data = json.loads((tmp_path / "compare.json").read_text())
    assert sorted(data["aggregates"]) == sorted(STRATEGIES)
    lines = res.output.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == list(STRATEGIES)
    assert lines[-1].startswith("MSCIDC against the best baseline: ")


def test_compare_prints_mscidc_against_the_best_baseline(tmp_path,
                                                         small_config_path):
    """For mission time and FER: MSCIDC's relative cut in the mean of the
    baseline with the lowest mean, and the runs of equal index (the same
    world) in which MSCIDC's value is lower, recomputed from single runs."""
    doc = json.loads(Path(small_config_path).read_text())
    doc["engine"]["t_max"] = 900.0
    p = tmp_path / "short.json"
    p.write_text(json.dumps(doc))
    names, n = ["MSCIDC", "NORMAL", "OMS"], 3
    res = invoke("compare", str(p), "--runs", str(n), "--strategies",
                 ",".join(names), "--out", str(tmp_path))
    assert res.exit_code == 0, res.output

    cfg = load_config(str(p))
    values = {}
    for name in names:
        scfg = dataclasses.replace(
            cfg, engine=dataclasses.replace(cfg.engine, strategy=name))
        values[name] = [run(scfg, i) for i in range(n)]
    parts = []
    for key, label in (("mission_time", "mission time"), ("fer", "FER")):
        means = {name: statistics.fmean(getattr(r, key) for r in rs)
                 for name, rs in values.items()}
        best = sorted(names[1:], key=lambda name: (means[name],
                                                   names.index(name)))[0]
        cut = round(100 * (means[best] - means["MSCIDC"]) / means[best])
        wins = sum(getattr(ours, key) < getattr(theirs, key)
                   for ours, theirs in zip(values["MSCIDC"], values[best]))
        parts.append(f"{label} {cut:+d}% vs {best}, wins {wins}/{n}")
    assert res.output.splitlines()[-1] == (
        "MSCIDC against the best baseline: " + "; ".join(parts))

    # without MSCIDC, or without a baseline, there is nothing to compare
    for only in ("NORMAL,OMS", "MSCIDC"):
        res = invoke("compare", str(p), "--runs", "1", "--strategies", only,
                     "--out", str(tmp_path))
        assert res.exit_code == 0, res.output
        assert "best baseline" not in res.output


def test_compare_unknown_strategy(small_config_path):
    res = invoke("compare", small_config_path, "--runs", "1",
                 "--strategies", "MSCIDC,WALK")
    assert res.exit_code == 2
    assert "WALK" in res.output
    assert "MSCIDC" in res.output   # valid names listed


def test_compare_no_strategy_exit_2(small_config_path):
    res = invoke("compare", small_config_path, "--runs", "1",
                 "--strategies", ",")
    assert res.exit_code == 2
    assert "--strategies" in res.output


def test_compare_repeated_strategy_exit_2(tmp_path, small_config_path):
    res = invoke("compare", small_config_path, "--runs", "1",
                 "--strategies", "MSCIDC, UNIFORM,MSCIDC",
                 "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "repeated strategies ['MSCIDC']" in res.output
    assert not (tmp_path / "compare.csv").exists()


def test_run_far_below_zero_kelvin_completes(tmp_path, small_config_path):
    """A reading thousands of kelvin below zero narrows the search cone to
    nothing instead of overflowing its logistic."""
    doc = json.loads(Path(small_config_path).read_text())
    doc["sensing"].update(ambient_temp=-30000.0, fire_temp=300.0)
    doc["engine"]["t_max"] = 600.0
    p = tmp_path / "cold.json"
    p.write_text(json.dumps(doc))
    res = invoke("run", str(p))
    assert res.exit_code == 0, res.output


def test_run_overflowing_noise_completes(tmp_path, small_config_path):
    """Noise that overflows to +-inf leaves every member's temperature
    rate NaN or -inf, so no member has the highest; the lowest id steers
    the swarm instead of the search stage crashing."""
    doc = json.loads(Path(small_config_path).read_text())
    doc["sensing"]["noise_std"] = 1e308
    doc["engine"]["t_max"] = 60.0
    p = tmp_path / "loud.json"
    p.write_text(json.dumps(doc))
    res = invoke("run", str(p))
    assert res.exit_code == 0, res.output


def test_seed_env_override(tmp_path, small_config_path):
    out = tmp_path / "env"
    res = invoke("run", small_config_path, "--out", str(out),
                 env={"SWARMFIRE_SEED": "777"})
    assert res.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["base_seed"] == 777


def test_seed_env_not_an_integer_exit_2(small_config_path):
    res = invoke("run", small_config_path, env={"SWARMFIRE_SEED": "12abc"})
    assert res.exit_code == 2
    assert "SWARMFIRE_SEED" in res.output


@pytest.mark.parametrize("args, env", [
    (["--seed", "-5"], None),
    ([], {"SWARMFIRE_SEED": "-5"}),
])
def test_negative_seed_exit_2(args, env):
    res = invoke("run", "pine-table1", *args, env=env)
    assert res.exit_code == 2
    assert "engine.base_seed" in res.output


def test_negative_run_index_exit_2():
    res = invoke("run", "pine-table1", "--run-index", "-1")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert "--run-index" in res.output


@pytest.mark.parametrize("text, field", MALFORMED)
def test_malformed_config_value_exit_2(tmp_path, text, field):
    p = tmp_path / "bad.json"
    p.write_text(text)
    res = invoke("run", str(p))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert field in res.output


def test_duplicate_config_key_exit_2(tmp_path):
    p = tmp_path / "dup.json"
    p.write_text('{"engine": {"dt": 0.5, "dt": 1e-300}}')
    res = invoke("run", str(p))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert "duplicate key 'dt'" in res.output


def test_unwritable_output_exit_3(small_config_path, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    res = invoke("run", small_config_path, "--out", str(blocker / "sub"))
    assert res.exit_code == 3


def test_csv_floats_six_significant_digits(tmp_path, small_config_path):
    out = tmp_path / "fmt"
    res = invoke("run", small_config_path, "--out", str(out))
    assert res.exit_code == 0
    row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    fer = row[CSV_COLUMNS.index("fer")]
    digits = fer.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) <= 6


def test_run_prints_fer_with_the_csv_digits(tmp_path):
    """A FER near 1e301 (a fire 1e-300 m thick that grows) prints with the
    CSV's 6 significant digits, not as some 300 digits of fixed point."""
    doc = to_dict(load_config("pine-table1"))
    doc["fires"] = [{"center": [5000, 5000], "a": 100, "b": 1e-300}]
    doc["engine"]["t_max"] = 600
    p = tmp_path / "thin.json"
    p.write_text(json.dumps(doc))
    res = invoke("run", str(p), "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    printed = [line.split(":")[1].strip() for line in res.output.splitlines()
               if line.strip().startswith("FER")]
    row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    fer = row[CSV_COLUMNS.index("fer")]
    assert float(fer) > 1e300
    assert printed == [fer]
