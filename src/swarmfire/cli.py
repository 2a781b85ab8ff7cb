"""Command-line front end: single runs, Monte-Carlo batches and paired-seed
strategy comparisons.

Outputs are schema-stable: a summary CSV (one row per run), an optional
JSONL step trace, and a manifest JSON that suffices to reproduce any run
byte-identically.  Floats in the CSV carry 6 significant digits.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import platform
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import (ConfigError, STRATEGIES, ScenarioConfig, load_config,
                     to_dict, validate)
from .engine import RunResult, monte_carlo, run, summarize

# out-of-range values are rejected with exit code 2, naming the flag
POSITIVE = click.IntRange(min=1)
NON_NEGATIVE = click.IntRange(min=0)

CSV_COLUMNS = ["run_index", "strategy", "n_swarms", "detection_time_s",
               "mission_time_s", "fer", "objective", "complete_flag"]


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _result_row(r: RunResult) -> list:
    return [r.run_index, r.strategy, r.n_swarms, _fmt(r.detection_time),
            _fmt(r.mission_time), _fmt(r.fer), _fmt(r.objective),
            int(r.complete)]


def _write_summary(path: Path, results: list[RunResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in sorted(results, key=lambda x: (x.strategy, x.run_index)):
            writer.writerow(_result_row(r))


def _write_manifest(path: Path, cfg: ScenarioConfig) -> None:
    """The config and the versions of the tool, Python and NumPy, whose
    generators draw every random number, so that outputs that differ can
    be traced to their builds."""
    manifest = {"tool": "swarmfire", "version": __version__,
                "python": platform.python_version(), "numpy": np.__version__,
                "base_seed": cfg.engine.base_seed, "config": to_dict(cfg)}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_trace(path: Path, result: RunResult) -> None:
    with open(path, "w") as fh:
        for rec in result.trace or []:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _load(config_arg: str, seed: int | None) -> ScenarioConfig:
    """The config with the seed override applied; a config error or a bad
    seed exits with code 2."""
    env_seed = os.environ.get("SWARMFIRE_SEED")
    try:
        cfg = load_config(config_arg)
        if seed is None and env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise ConfigError(f"SWARMFIRE_SEED: expected an integer, "
                                  f"got {env_seed!r}") from None
        if seed is not None:
            cfg = validate(dataclasses.replace(
                cfg, engine=dataclasses.replace(cfg.engine, base_seed=seed)))
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    return cfg


@contextmanager
def _writing_or_exit_3():
    """Any OSError raised while writing outputs exits with code 3."""
    try:
        yield
    except OSError as exc:
        click.echo(f"error: cannot write output: {exc}", err=True)
        sys.exit(3)


def _print_metrics(r: RunResult) -> None:
    click.echo(f"run {r.run_index} [{r.strategy}] "
               f"{'complete' if r.complete else 'INCOMPLETE'}")
    click.echo(f"  detection time : {r.detection_time / 60.0:8.2f} min")
    click.echo(f"  mission time   : {r.mission_time / 60.0:8.2f} min")
    click.echo(f"  FER            : {_fmt(r.fer):>8s}")
    click.echo(f"  objective      : {r.objective:10.4g}")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Multi-swarm UAV forest-firefighting simulator."""


@main.command("run")
@click.argument("config_path")
@click.option("--seed", type=int, default=None, help="Override base seed.")
@click.option("--run-index", type=NON_NEGATIVE, default=0, show_default=True)
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write a JSONL step trace to this path.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Directory for summary.csv and manifest.json.")
def cmd_run(config_path, seed, run_index, trace_path, out_dir) -> None:
    """Execute one seeded mission run."""
    cfg = _load(config_path, seed)
    result = run(cfg, run_index, collect_trace=trace_path is not None)
    _print_metrics(result)
    with _writing_or_exit_3():
        if trace_path:
            _write_trace(Path(trace_path), result)
        if out_dir:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            _write_summary(out / "summary.csv", [result])
            _write_manifest(out / "manifest.json", cfg)


@main.command("mc")
@click.argument("config_path")
@click.option("--runs", type=POSITIVE, required=True, help="Number of runs.")
@click.option("--jobs", type=POSITIVE, default=1, show_default=True,
              help="Worker processes, at most one per usable CPU.")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default=".",
              show_default=True)
def cmd_mc(config_path, runs, jobs, seed, out_dir) -> None:
    """Monte-Carlo batch of seeded runs; summary CSV + aggregate JSON."""
    cfg = _load(config_path, seed)
    results = monte_carlo(cfg, runs, jobs=jobs)
    agg = summarize(results)
    with _writing_or_exit_3():
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_summary(out / "summary.csv", results)
        (out / "aggregate.json").write_text(
            json.dumps(agg, indent=2, sort_keys=True) + "\n")
        _write_manifest(out / "manifest.json", cfg)
    click.echo(f"{runs} runs ({agg['n_complete']} complete)")
    for name in ("detection_time", "mission_time", "fer"):
        st = agg[name]
        click.echo(f"  {name:15s} mean={st['mean']:.4g} std={st['std']:.4g} "
                   f"median={st['median']:.4g}")


def _strategy_names(ctx, param, value: str) -> list[str]:
    """The names of a comma-separated --strategies; none, an unknown one or
    a repeated one exits with code 2."""
    names = [s.strip() for s in value.split(",") if s.strip()]
    bad = [s for s in names if s not in STRATEGIES]
    if bad or not names:
        what = f"unknown strategies {bad}" if bad else "no strategy named"
        raise click.BadParameter(f"{what}; valid names: {list(STRATEGIES)}")
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise click.BadParameter(f"repeated strategies {repeated}")
    return names


@main.command("compare")
@click.argument("config_path")
@click.option("--strategies", "names", default=",".join(STRATEGIES),
              show_default=True, callback=_strategy_names,
              help="Comma-separated strategy list; every strategy by "
                   "default.")
@click.option("--runs", type=POSITIVE, required=True)
@click.option("--jobs", type=POSITIVE, default=1, show_default=True,
              help="Worker processes, at most one per usable CPU.")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default=".",
              show_default=True)
def cmd_compare(config_path, names, runs, jobs, seed, out_dir) -> None:
    """Paired-seed strategy comparison (baselines: same run -> same layout)."""
    cfg = _load(config_path, seed)
    all_results: list[RunResult] = []
    aggregates: dict[str, dict] = {}
    for name in names:
        scfg = dataclasses.replace(
            cfg, engine=dataclasses.replace(cfg.engine, strategy=name))
        results = monte_carlo(scfg, runs, jobs=jobs)
        all_results.extend(results)
        aggregates[name] = summarize(results)

    differences = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            differences[f"{a}-{b}"] = {
                m: aggregates[a][m]["mean"] - aggregates[b][m]["mean"]
                for m in ("detection_time", "mission_time", "fer")}
    with _writing_or_exit_3():
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_summary(out / "compare.csv", all_results)
        (out / "compare.json").write_text(json.dumps(
            {"aggregates": aggregates, "mean_differences": differences},
            indent=2, sort_keys=True) + "\n")
        _write_manifest(out / "manifest.json", cfg)
    for name in names:
        st = aggregates[name]
        click.echo(f"{name:8s} detection={st['detection_time']['mean']:.4g}s "
                   f"mission={st['mission_time']['mean']:.4g}s "
                   f"fer={st['fer']['mean']:.4g}")
    rivals = [n for n in names if n != "MSCIDC"]
    if "MSCIDC" in names and rivals:
        paired = {(r.strategy, r.run_index): r for r in all_results}
        parts = []
        for key, label in (("mission_time", "mission time"), ("fer", "FER")):
            mean = {n: aggregates[n][key]["mean"] for n in names}
            best = min(rivals, key=mean.get)
            cut = 1.0 - mean["MSCIDC"] / mean[best] if mean[best] else math.nan
            wins = sum(getattr(paired["MSCIDC", i], key)
                       < getattr(paired[best, i], key) for i in range(runs))
            parts.append(f"{label} {cut:+.0%} vs {best}, wins {wins}/{runs}")
        click.echo("MSCIDC against the best baseline: " + "; ".join(parts))


if __name__ == "__main__":
    main()
