"""The traced run: per-layer split of a workload's pass.

A pass runs untraced, then the same pass (same cells) runs with
:class:`layers.LayerTrace` installed, in rounds for ``--seconds``; the
difference of the two walls is the tracing overhead.  Times are wall
seconds inside the timed regions only, per pass, scaled to the
reference speed by one factor per run (:class:`workloads.Clock`).
``*_s`` layer times are self times, except the ones named as totals
below, so on every workload::

    trace.wall_s = sum(SELF_TIMES) + sum(core.self_s.*) + bench.self_s
"""

from __future__ import annotations

import math
import time

import workloads as wl
from layers import LayerTrace

#: Layer self times that, with ``core.self_s.*`` and ``bench.self_s``,
#: partition the traced wall.
SELF_TIMES = {
    "generators.build_s": "generators",
    "graphs.from_edges_s": "graphs.from_edges",
    "graphs.npz_write_s": "graphs.npz_write",
    "graphs.npz_load_s": "graphs.npz_load",
    "perf.kernel_s": "perf",
    "runtime.ledger_s": "runtime",
    "structures.hbs_s": "structures.hbs",
    "structures.hash_bag_s": "structures.hash_bag",
    "shard.spawn_s": "shard.spawn",
    "shard.round_s": "shard.round",
    "shard.close_s": "shard.close",
    "batch_dynamic.self_s": "batch_dynamic",
    "serve.self_s": ("serve.submit_batch", "serve.submit_query"),
    "obs.registry_s": "obs",
}


def _one_round(runner: wl.Runner, workload: str) -> None:
    """The workload's own pass, then one probe pass of each other
    measurement, as a measured run interleaves them."""
    own = wl.WORKLOADS[workload]
    for kind, one_pass in runner.passes().items():
        one_pass(wl.OWN_SIZE if kind == own else wl.PROBE_SIZE)


def traced_metrics(cache, inputs, args, ledger):
    """Per-pass layer metrics over ``--seconds`` of paired passes.

    Each round runs the workload's pass untraced, then with the wrappers
    installed (and removed again).  Times and counts are per pass; every
    pass does the same work, so the counts stay exact.
    """
    plain = wl.Runner(cache, inputs, args.seed, ledger, clock=wl.Clock())
    trace = LayerTrace()
    runner = wl.Runner(cache, inputs, args.seed, ledger, trace=trace,
                       clock=wl.Clock())
    passes, start = 0, time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        _one_round(plain, args.workload)
        with trace:
            _one_round(runner, args.workload)
        passes += 1
        if passes == 1:
            first_work = list(runner.work)
    runner.clock.release()

    metrics = layer_metrics(trace, runner, plain.wall)
    # Calibrated like the end-to-end metrics, one factor per run: the
    # calibrations fall between operations, the layer times inside them.
    scale = _scale(runner)
    for name, value in metrics.items():
        if not name.endswith("_ratio"):
            metrics[name] = value * (scale if _is_time(name) else 1) / passes
    metrics["trace.overhead_s"] = (
        runner.wall * scale - plain.wall * _scale(plain)
    ) / passes
    metrics["runtime.work"] = math.fsum(first_work)
    return metrics, {
        "missing_layers": list(dict.fromkeys(trace.missing)),
        "traced_passes": passes,
    }


def _scale(runner: wl.Runner) -> float:
    """Calibrated over raw seconds of a runner's timed operations."""
    return sum(map(runner.clock.seconds, runner.stamps)) / runner.wall


def _is_time(name: str) -> bool:
    return any(part.endswith("_s") for part in name.split("."))


def layer_metrics(trace: LayerTrace, runner: wl.Runner, plain_wall: float):
    """Per-layer metrics of a traced pass; absent layers are left out."""
    present = trace.present
    out: dict[str, float] = {}

    def have(*layers: str) -> bool:
        return all(layer in present for layer in layers)

    partition = 0.0
    for name, layers in SELF_TIMES.items():
        layers = (layers,) if isinstance(layers, str) else layers
        if have(*layers):
            out[name] = sum(trace.self_s[layer] for layer in layers)
            partition += out[name]
    for engine in wl.ENGINE_NAMES:
        out[f"core.self_s.{engine}"] = trace.by_context[("core", engine)]
        partition += out[f"core.self_s.{engine}"]
        if have("perf"):
            out[f"perf.kernel_s.{engine}"] = trace.by_context[
                ("perf", engine)
            ]
    out["bench.self_s"] = runner.wall - partition
    out["trace.wall_s"] = runner.wall
    out["trace.overhead_s"] = runner.wall - plain_wall

    counts = trace.counts
    if have("graphs.npz_write"):
        out["graphs.bytes_written"] = counts["graphs.bytes_written"]
    if have("perf"):
        out["perf.kernel_calls"] = trace.calls["perf"]
    if have("runtime"):
        out["runtime.ledger_calls"] = trace.calls["runtime"]
    out["runtime.rounds"] = runner.rounds
    out["runtime.subrounds"] = runner.subrounds
    # fsum: exact, so the cell order (which the seed sets) cannot change it.
    out["runtime.work"] = math.fsum(runner.work)
    if have("shard.round"):
        out["shard.worker_s"] = counts["shard.worker_s"]
        out["shard.ipc_s"] = (
            trace.total_s["shard.round"] - counts["shard.worker_s"]
        )
        out["shard.rounds"] = counts["shard.rounds"]
        out["shard.useful_ratio"] = _ratio(
            counts["shard.changed"], counts["shard.recomputed"]
        )
    if have("batch_dynamic"):
        out["batch_dynamic.apply_s"] = trace.total_s["batch_dynamic"]
        applied = counts["batch_dynamic.applied"]
        out["batch_dynamic.applied_ratio"] = _ratio(
            applied, applied + counts["batch_dynamic.noop"]
        )
    if have("serve.submit_batch"):
        out["serve.submit_batch_s"] = trace.total_s["serve.submit_batch"]
    if have("serve.submit_query"):
        out["serve.submit_query_s"] = trace.total_s["serve.submit_query"]
    if have("obs"):
        out["obs.registry_calls"] = trace.calls["obs"]
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
