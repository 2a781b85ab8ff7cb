"""Smoke test of the benchmark at minimal size: one pass of the shortest
unit per workload, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that no mission fails its reference digest, and that the layer
contrasts the workloads were chosen for hold as counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed(runs, trace, section):
    for w in WORKLOADS:
        text, result = runs[(w, trace)]
        assert result["correct"] and result["failed"] == 0, (w, text)
        assert result["attempted"] >= 1
        for m in BENCHMARK[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"], (w, m)
            assert any(line.startswith(f"{m['name']}: ")
                       and line.endswith(f" {m['unit']}") for line in text)
        if trace == 0:
            assert "failed_frac: 0 ratio" in text
            assert any(line.startswith("mission_s.p50: ") for line in text)


def test_layer_contrasts(runs):
    normal = runs[("normal-search", 1)][1]["metrics"]
    sweep = runs[("mitigation-sweep", 1)][1]["metrics"]

    def per_tick(m, name):
        return m[name]["value"] / m["engine.ticks"]["value"]

    assert (normal["search.waypoint_draws"]["value"]
            > 5 * sweep["search.waypoint_draws"]["value"])
    assert (sweep["mitigation.angular_control.calls"]["value"]
            > 5 * normal["mitigation.angular_control.calls"]["value"])
    assert (per_tick(sweep, "fire.distance.calls")
            > per_tick(normal, "fire.distance.calls"))
