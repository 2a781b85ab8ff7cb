"""Command-line front end: single runs, Monte-Carlo batches and paired-seed
strategy comparisons.

Outputs are schema-stable: a summary CSV (one row per run), an optional
JSONL step trace, and a manifest JSON that suffices to reproduce any run
byte-identically and holds each run's sha256 digest to check it by.
Floats in the CSV carry 6 significant digits.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
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


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _run_digest(r: RunResult) -> str:
    """sha256 over a run's event stream, its final metrics and its logged
    series, by the formula of ``perfbench/workloads.result_digest``."""
    final = (r.detection_time, r.mission_time, r.fer, r.objective,
             r.complete, r.all_detected, sorted(r.quench_times.items()),
             r.quench_violations, r.detected_area_sum,
             r.undetected_area_sum, r.series)
    return hashlib.sha256(repr((r.events, final)).encode()).hexdigest()


def _write_manifest(path: Path, cfg: ScenarioConfig,
                    results: list[RunResult]) -> None:
    """The config, the versions of the tool, Python and NumPy, whose
    generators draw every random number, and each run's digest under
    ``"<strategy>/<run_index>"``, so that outputs that differ can be traced
    to their builds and to the runs that differ, bit for bit."""
    _write_json(path, {
        "tool": "swarmfire", "version": __version__,
        "python": platform.python_version(), "numpy": np.__version__,
        "base_seed": cfg.engine.base_seed, "config": to_dict(cfg),
        "digests": {f"{r.strategy}/{r.run_index}": _run_digest(r)
                    for r in results}})


def _write_trace(path: Path, result: RunResult) -> None:
    with open(path, "w") as fh:
        for rec in result.trace or []:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _load(config_arg: str, seed: int | None) -> ScenarioConfig:
    """The config with the seed override applied; a config error or a bad
    seed exits with code 2."""
    try:
        cfg = load_config(config_arg)
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


# shared by subcommands; an out-of-range value exits 2, naming the flag.
# An empty SWARMFIRE_SEED counts as unset.
SEED = click.option("--seed", type=int, default=None,
                    envvar="SWARMFIRE_SEED", show_envvar=True,
                    help="Base seed; without it, SWARMFIRE_SEED if set, "
                         "else the config's.")
RUNS = click.option("--runs", type=click.IntRange(min=1), required=True,
                    help="Number of runs.")
JOBS = click.option("--jobs", type=click.IntRange(min=1), default=1,
                    show_default=True,
                    help="Worker processes, at most one per usable CPU.")
OUT = click.option("--out", "out_dir", type=click.Path(), default=".",
                   show_default=True, help="Directory for the output files.")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Multi-swarm UAV forest-firefighting simulator."""


@main.command("run")
@click.argument("config_path")
@SEED
@click.option("--run-index", type=click.IntRange(min=0), default=0,
              show_default=True)
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
            _write_manifest(out / "manifest.json", cfg, [result])


@main.command("mc")
@click.argument("config_path")
@RUNS
@JOBS
@SEED
@OUT
def cmd_mc(config_path, runs, jobs, seed, out_dir) -> None:
    """Monte-Carlo batch of seeded runs; summary CSV + aggregate JSON."""
    cfg = _load(config_path, seed)
    results = monte_carlo(cfg, runs, jobs=jobs)
    agg = summarize(results)
    with _writing_or_exit_3():
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_summary(out / "summary.csv", results)
        _write_json(out / "aggregate.json", agg)
        _write_manifest(out / "manifest.json", cfg, results)
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
@RUNS
@JOBS
@SEED
@OUT
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
        _write_json(out / "compare.json", {"aggregates": aggregates,
                                           "mean_differences": differences})
        _write_manifest(out / "manifest.json", cfg, all_results)
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
