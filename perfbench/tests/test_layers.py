"""Fast checks of the benchmark's own machinery on tiny-tier graphs.

Run from the repository root: ``python3 -m pytest perfbench/tests/test_layers.py``.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import traced  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core.verify import reference_coreness  # noqa: E402
from repro.generators.streams import generate_stream  # noqa: E402
from repro.graphs import io as gio  # noqa: E402

PASSES = {
    "warm": lambda runner: runner.warm_pass("tiny"),
    "cold": lambda runner: runner.cold_pass("tiny"),
    "serve": lambda runner: runner.serve_replay("tiny"),
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A cache of the three graphs at the tiny tier plus a short stream."""
    root = str(tmp_path_factory.mktemp("bench"))
    cache = wl.Cache(root)
    specs = wl.SPECS
    paths, refs = {}, {}
    for name, spec in specs.items():
        path = cache.path(spec, "tiny")
        gio.store_cached_graph(spec.build_size("tiny"), path)
        paths[(name, "tiny")] = path
        refs[(name, "tiny")] = reference_coreness(gio.load_cached_graph(path))
    events = {"tiny": generate_stream(
        gio.load_cached_graph(paths[(wl.SERVE_GRAPH, "tiny")]), "churn",
        batches=12, batch_size=8, queries_per_batch=4, seed=3,
    )}
    return cache, wl.Inputs(specs, paths, refs, events)


def _traced_pass(tiny, workload):
    cache, inputs = tiny
    ledger = wl.Ledger()
    with layers.LayerTrace() as trace:
        runner = wl.Runner(cache, inputs, 3, ledger, trace=trace)
        PASSES[workload](runner)
    return traced.layer_metrics(trace, runner, runner.wall), ledger


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_pass_is_checked_and_correct(tiny, workload):
    cache, inputs = tiny
    ledger = wl.Ledger()
    PASSES[workload](wl.Runner(cache, inputs, 3, ledger))
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.failures


def test_wrong_answer_counts_as_failure_and_keeps_its_sample(tiny):
    cache, inputs = tiny
    key = ("GRID", "tiny")
    bad = dict(inputs.refs)
    bad[key] = inputs.refs[key] + 1
    ledger = wl.Ledger()
    runner = wl.Runner(
        cache, wl.Inputs(inputs.specs, inputs.paths, bad, inputs.events),
        3, ledger,
    )
    times = runner.warm_pass("tiny")
    assert ledger.failed == len(wl.ENGINE_NAMES)
    assert all("GRID-tiny" in failure for failure in ledger.failures)
    assert all("GRID" in times[engine] for engine in wl.ENGINE_NAMES)


def test_approx_bound_is_two_sided():
    ref = np.array([2, 4, 6])
    assert wl.check_coreness("approx", ref, ref) is None
    assert wl.check_coreness("approx", ref - 1, ref) is not None
    assert wl.check_coreness("approx", ref * 2, ref) is not None
    assert wl.check_coreness("ours", ref + 1, ref) is not None


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_layer_times_add_up_to_traced_wall(tiny, workload):
    metrics, ledger = _traced_pass(tiny, workload)
    assert ledger.failed == 0, ledger.failures
    parts = [
        value for name, value in metrics.items()
        if name in traced.SELF_TIMES or name.startswith("core.self_s.")
    ]
    assert all(value >= 0 for value in parts)
    assert metrics["bench.self_s"] >= 0
    assert sum(parts) + metrics["bench.self_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9
    )


def test_layers_are_exercised_where_predicted(tiny):
    warm, _ = _traced_pass(tiny, "warm")
    cold, _ = _traced_pass(tiny, "cold")
    serve, _ = _traced_pass(tiny, "serve")
    assert warm["graphs.npz_load_s"] > 0 and warm["shard.round_s"] > 0
    assert warm["generators.build_s"] == 0 and warm["obs.registry_calls"] == 0
    assert cold["generators.build_s"] > 0 and cold["graphs.from_edges_s"] > 0
    assert cold["graphs.bytes_written"] > 0
    assert serve["batch_dynamic.apply_s"] > 0 and serve["obs.registry_calls"] > 0
    assert 0 < serve["batch_dynamic.applied_ratio"] <= 1
    assert serve["serve.submit_batch_s"] >= serve["batch_dynamic.apply_s"]


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_layer_counts_repeat_exactly(tiny, workload):
    counts = (
        "runtime.rounds", "runtime.subrounds", "runtime.work",
        "shard.rounds", "perf.kernel_calls", "runtime.ledger_calls",
        "obs.registry_calls", "graphs.bytes_written",
    )
    first, _ = _traced_pass(tiny, workload)
    second, _ = _traced_pass(tiny, workload)
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_wrappers_are_removed_afterwards():
    def snapshot():
        out = {}
        for _, target in layers.TARGETS:
            owner, attr = layers._resolve(target)
            out[target] = (
                inspect.getattr_static(owner, attr), attr in vars(owner)
            )
        return out

    before = snapshot()
    with layers.LayerTrace() as trace:
        assert trace.present
        assert snapshot() != before
    assert snapshot() == before


def test_renamed_target_is_a_missing_layer_not_a_crash(tiny, monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("gone", "repro.graphs.csr:CSRGraph.no_such_method"),
        ("gone", "repro.no_such_module:thing"),
    ))
    drop = [t for t in layers.TARGETS if t[0] == "structures.hbs"]
    monkeypatch.setattr(
        layers, "TARGETS", tuple(t for t in layers.TARGETS if t not in drop)
    )
    metrics, ledger = _traced_pass(tiny, "warm")
    assert ledger.failed == 0
    assert "structures.hbs_s" not in metrics
    assert "graphs.npz_load_s" in metrics
    with layers.LayerTrace() as trace:
        pass
    assert "repro.no_such_module:thing" in trace.missing
    assert "repro.graphs.csr:CSRGraph.no_such_method" in trace.missing


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(tmp_path / "BENCHMARK.json") as handle:
        command = json.load(handle)["command"]
    proc = subprocess.run(
        [*command, "--workload", "static-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_printed_units_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run._unit(metric["name"]) == metric["unit"], metric


def test_clock_scales_a_sample_by_its_cpus_calibrations_around_it():
    clock = wl.Clock()
    clock.at = [1.0, 2.0, 3.0]
    clock.cal = [{0: 0.004, 1: 0.002}, {0: 0.006}, {0: 0.003, 1: 0.001}]
    clock.cpu = [0, 0, 1]
    # Between the first two ticks the process ran on CPU 0.
    assert clock.seconds((1.2, 0.5)) == pytest.approx(
        0.5 * wl.CAL_REF_S / 0.005
    )
    # After the last tick only the calibration before it is known.
    assert clock.seconds((3.5, 0.1)) == pytest.approx(
        0.1 * wl.CAL_REF_S / 0.001
    )


def test_clock_pins_to_one_cpu_and_releases_all():
    before = os.sched_getaffinity(0)
    clock = wl.Clock()
    clock.tick(force=True)
    assert len(os.sched_getaffinity(0)) == 1
    assert clock.cpu[-1] in before
    clock.tick()  # within CAL_EVERY_S: no second calibration
    assert len(clock.at) == 1
    clock.release()
    assert os.sched_getaffinity(0) == before
