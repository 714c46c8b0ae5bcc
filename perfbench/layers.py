"""Per-layer wall-time attribution for the traced benchmark run.

The benchmark never edits the program.  For its traced run it replaces
public functions of the program's layers with timing wrappers, runs one
pass, and puts the originals back.  Every wrapped call is a span:

* its *self* time (wall minus the wrapped calls nested inside it) goes to
  its layer, so the self times of all layers, plus the benchmark's own
  residual, add up to the traced wall;
* its *total* time counts only outermost calls of its layer, so a layer
  that calls itself is not counted twice.

A target that a refactor renamed or removed is recorded in ``missing``
and its layer metrics are left out of the report; the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from typing import Callable

#: (layer, target) pairs wrapped for the traced run.  A target is
#: ``module:Name`` or ``module:Class.method``.
TARGETS: tuple[tuple[str, str], ...] = (
    ("generators", "repro.generators.suite:GraphSpec.build_size"),
    ("graphs.from_edges", "repro.graphs.csr:CSRGraph.from_edges"),
    ("graphs.npz_write", "repro.graphs.io:store_cached_graph"),
    ("graphs.npz_load", "repro.graphs.io:load_cached_graph"),
    *(
        ("runtime", f"repro.runtime.simulator:SimRuntime.{name}")
        for name in (
            "parallel_for", "parallel_update", "sequential",
            "barrier_only", "imbalanced_step", "begin_round",
            "begin_subround", "time_on",
        )
    ),
    *(
        ("structures.hbs", f"repro.structures.hbs:{owner}.{name}")
        for owner, names in (
            ("HierarchicalBuckets",
             ("build", "load", "next_round", "on_decrements")),
            ("AdaptiveHBS",
             ("build", "next_round", "on_decrements", "round_finished")),
        )
        for name in names
    ),
    *(
        ("structures.hash_bag", f"repro.structures.hash_bag:HashBag.{name}")
        for name in (
            "__init__", "insert", "insert_many", "extract_all", "peek_all",
        )
    ),
    ("shard.spawn", "repro.shard.pool:ShardPool.__init__"),
    ("shard.round", "repro.shard.pool:ShardPool.round"),
    ("shard.close", "repro.shard.pool:ShardPool.close"),
    ("batch_dynamic", "repro.core.batch_dynamic:BatchDynamicKCore.apply_batch"),
    ("serve.submit_batch", "repro.serve:CoreService.submit_batch"),
    ("serve.submit_query", "repro.serve:CoreService.submit_query"),
    *(
        ("obs", f"repro.obs.registry:MetricsRegistry.{name}")
        for name in ("inc", "observe", "set_gauge", "mark")
    ),
)

#: Module whose ``run_*`` functions are the native kernels.  Callers look
#: them up on the module at call time, so wrapping the attribute is seen.
KERNEL_MODULE = "repro.perf.native"
KERNEL_LAYER = "perf"


def _resolve(target: str):
    """``(owner, attribute)`` of a target, or raise LookupError."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(target)
    if not hasattr(owner, attr):
        raise LookupError(target)
    return owner, attr


class LayerTrace:
    """Install timing wrappers, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Self time per (layer, context); the context names the engine
        #: a span ran under (see :meth:`span`).
        self.by_context: dict[tuple[str, str], float] = defaultdict(float)
        #: Counts taken from wrapped calls' arguments and results.
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.present: set[str] = set()
        self.context = ""
        #: Spans are recorded only while this is set: the benchmark sets
        #: it around its timed regions, so set-up and checks stay out.
        self.recording = False
        self._stack: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object, bool]] = []
        self._hooks: dict[str, Callable] = {
            "graphs.npz_write": self._on_write,
            "shard.round": self._on_round,
            "batch_dynamic": self._on_batch,
        }

    # -- spans ---------------------------------------------------------
    def call(self, layer: str, fn: Callable, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` as a span of ``layer``."""
        if not self.recording:
            return fn(*args, **(kwargs or {}))
        self._stack.append(0.0)
        self._depth[layer] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            elapsed = time.perf_counter() - start
            own = elapsed - self._stack.pop()
            self._depth[layer] -= 1
            self.self_s[layer] += own
            self.by_context[(layer, self.context)] += own
            self.calls[layer] += 1
            if not self._depth[layer]:
                self.total_s[layer] += elapsed
            if self._stack:
                self._stack[-1] += elapsed
        hook = self._hooks.get(layer)
        if hook is not None:
            hook(args, result)
        return result

    def span(self, layer: str, context: str, fn: Callable, *args):
        """A span of the benchmark's own, e.g. one engine call."""
        outer, self.context = self.context, context
        try:
            return self.call(layer, fn, args)
        finally:
            self.context = outer

    # -- hooks (exact counts from arguments and results) ---------------
    def _on_write(self, args, result) -> None:
        self.counts["graphs.bytes_written"] += os.path.getsize(args[1])

    def _on_round(self, args, result) -> None:
        ids, _vals, active, walls, _shipped = result
        self.counts["shard.rounds"] += 1
        self.counts["shard.worker_s"] += max(walls, default=0.0)
        self.counts["shard.changed"] += len(ids)
        self.counts["shard.recomputed"] += len(active)

    def _on_batch(self, args, result) -> None:
        self.counts["batch_dynamic.applied"] += (
            result.applied_insertions + result.applied_deletions
        )
        self.counts["batch_dynamic.noop"] += (
            result.noop_insertions + result.noop_deletions
        )

    # -- install / remove ----------------------------------------------
    def install(self) -> "LayerTrace":
        for layer, target in TARGETS:
            try:
                owner, attr = _resolve(target)
            except LookupError:
                self.missing.append(target)
                continue
            self._wrap(layer, owner, attr)
        try:
            kernels = importlib.import_module(KERNEL_MODULE)
        except ImportError:
            kernels = None
        names = [n for n in dir(kernels) if n.startswith("run_")] if kernels else []
        if not names:
            self.missing.append(f"{KERNEL_MODULE}:run_*")
        for name in names:
            self._wrap(KERNEL_LAYER, kernels, name)
        return self

    def _wrap(self, layer: str, owner, attr: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        bound = isinstance(raw, (classmethod, staticmethod))
        func = raw.__func__ if bound else raw
        if not callable(func):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        trace = self

        def replacement(*args, **kwargs):
            return trace.call(layer, func, args, kwargs)

        setattr(owner, attr, type(raw)(replacement) if bound else replacement)
        # An inherited method is restored by deleting the shadowing copy.
        own = not inspect.isclass(owner) or attr in vars(owner)
        self._installed.append((owner, attr, raw, own))
        self.present.add(layer)

    def remove(self) -> None:
        """Put every original back (inherited methods are un-shadowed)."""
        while self._installed:
            owner, attr, raw, own = self._installed.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
