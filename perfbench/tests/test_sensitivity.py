"""Sensitivity self-test: the benchmark sees a 1.5x slowdown in one layer.

For each injected slowdown, all three must hold:

* the workload that exercises the slowed layer moves past its bound on
  at least one of its own metrics;
* the workload that bypasses the layer stays within bounds on its own
  metrics;
* the traced run puts the added time in that layer.

Slow (about ten benchmark runs, several minutes); run from the
repository root: ``python3 -m pytest perfbench/tests/test_sensitivity.py``.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import traced  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
DECOMPOSE = tuple(name for name in BOUNDS if name.startswith("decompose_s."))
SEED = 7
FACTOR = 1.5

CASES = {
    "ingress": dict(
        target="repro.graphs.csr:CSRGraph.from_edges",
        layer="graphs.from_edges_s",
        detail="graphs.from_edges_s",
        hit=("cold-ingress", ("cold_s",)),
        bypass=("static-warm", DECOMPOSE),
    ),
    "kernel": dict(
        target="repro.perf.native:run_task_loop",
        layer="perf.kernel_s",
        # Only ``ours`` calls run_task_loop: its kernel time is all in it.
        detail="perf.kernel_s.ours",
        hit=("static-warm", DECOMPOSE),
        bypass=("cold-ingress", ("cold_s",)),
    ),
}


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, target: str | None = None) -> dict:
    args = ["--workload", workload, "--seed", str(SEED),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    if target is None:
        command = [sys.executable, os.path.join(BENCH, "run.py"), *args]
    else:
        command = [sys.executable, os.path.join(HERE, "slow_launch.py"),
                   target, str(FACTOR), *args]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = (
        {m["name"] for m in SPEC["per_layer"]} if trace else set(BOUNDS)
    )
    assert expected <= set(result["metrics"])
    return {k: v["value"] for k, v in result["metrics"].items()}


def _worsening(base: dict, slowed: dict, metrics) -> dict[str, float]:
    return {m: slowed[m] / base[m] - 1.0 for m in metrics}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exercising_workload_moves_past_its_bound(case):
    target = CASES[case]["target"]
    workload, metrics = CASES[case]["hit"]
    change = _worsening(run(workload, 0), run(workload, 0, target), metrics)
    assert any(change[m] > BOUNDS[m] for m in metrics), change


@pytest.mark.parametrize("case", sorted(CASES))
def test_bypassing_workload_stays_within_bounds(case):
    target = CASES[case]["target"]
    workload, metrics = CASES[case]["bypass"]
    change = _worsening(run(workload, 0), run(workload, 0, target), metrics)
    assert all(change[m] <= BOUNDS[m] for m in metrics), change


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_attributes_the_slowdown_to_its_layer(case):
    target, layer = CASES[case]["target"], CASES[case]["layer"]
    workload, _ = CASES[case]["hit"]
    base, slowed = run(workload, 1), run(workload, 1, target)
    # The layer times that partition the traced wall (see traced.py).
    parts = set(traced.SELF_TIMES) | {"bench.self_s"} | {
        name for name in base if name.startswith("core.self_s.")
    }
    grown = {name: slowed[name] - base[name] for name in parts}
    assert max(grown, key=grown.get) == layer, grown
    detail = CASES[case]["detail"]
    assert slowed[detail] > 1.3 * base[detail], (base[detail], slowed[detail])
