"""Smoke test of the benchmark: one block of each workload with seed 0.

The package's own suite collects ``tests/`` only, so this file stays out of
it; run it with ``python3 -m pytest bench/tests`` (about a minute).  It
checks that every metric named in ``BENCHMARK.json`` is printed with its
unit and that the known defects show up as often as ``bench/README.md``
says they do for one block of seed 0.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# one block, seed 0; a fix of either defect lowers these counts
SEED0_DEFECTS = {
    "het-lattice": {},
    "homog-verify": {"needle error": 4, "two-box check-fail": 3},
    "cli-readme": {},
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0", "--blocks", "1"]
        + ["--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    return lines, result


def _assert_printed(lines, result, metrics):
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        pattern = re.compile(rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$")
        assert any(pattern.match(line) for line in lines), m["name"]


def _defects(lines):
    line = next(line for line in lines if line.strip().startswith("known defects:"))
    text = line.split(":", 1)[1].strip()
    if text == "none":
        return {}
    return {item.rsplit(" ", 1)[0]: int(item.rsplit(" ", 1)[1]) for item in text.split(", ")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_known_defects(workload):
    lines, result = _run(workload, 0)
    _assert_printed(lines, result, SPEC["end_to_end"])
    assert _defects(lines) == SEED0_DEFECTS[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    lines, result = _run(workload, 1)
    _assert_printed(lines, result, SPEC["per_layer"])
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    idle = {
        "het-lattice": ("core.", "verify.", "interim.", "two_box.", "cli."),
        "homog-verify": ("het.", "simulate.", "cli."),
    }.get(workload, ())
    assert all(v == 0 for k, v in counts.items() if k.startswith(idle))
    busy = {"het-lattice": "het.solve_het.calls", "homog-verify": "verify.saddle_check_corr.calls"}
    busy["cli-readme"] = "simulate.homog.episodes"
    assert counts[busy[workload]] > 0
