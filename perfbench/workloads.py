"""Inputs, set-up, timed passes and output checks of the three workloads.

Everything here calls the program through its public functions only:
``repro.generators``, ``repro.graphs``, ``repro.regress.matrix.ENGINES``,
``repro.shard``, ``repro.core.batch_dynamic`` (through the service) and
``repro.serve``.  Checks run outside the timed regions.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import math
import os
import shutil
import statistics
import time
import traceback

import numpy as np

from repro.core.verify import reference_coreness
from repro.generators.streams import UpdateBatch, generate_stream
from repro.generators.suite import SUITE, GraphSpec
from repro.graphs import io as gio
from repro.regress.matrix import APPROX_EPS, ENGINES
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.serve import CoreService
from repro.shard import shard_coreness

#: The paper's three stress regimes: power-law hubs, high diameter,
#: very high kmax.
GRAPHS = ("LJ-S", "GRID", "HCNS")

ENGINE_NAMES = (
    "ours", "ours-plain", "pkc", "julienne", "park", "bz", "approx", "shard",
)

#: The churn stream replayed on LJ-S: 110 batches, so that p90 has 11
#: samples beyond it in a single replay.
SERVE_GRAPH = "LJ-S"
SERVE_BATCHES = 110
SERVE_BATCH_SIZE = 64
SERVE_READS_PER_BATCH = 8
#: The stream's seed is fixed like the graphs': over five stream seeds
#: the same replay took 28 073 to 31 829 subrounds and applied 3 173 to
#: 3 373 updates, a spread of the input rather than of the program.
SERVE_SEED = 11

#: Workload -> the measurement it runs at ``OWN_SIZE`` for ``--seconds``.
#: Every run also probes the other measurements on ``PROBE_SIZE``, so
#: every metric is reported on every workload.  The serve replay runs
#: only as a probe: as a workload of its own its tiny-tier decomposition
#: probes spread 0.13-0.28 over five runs (README.md).  The own tier is
#: ``full``: a large-tier warm pass takes 5-7 s (shard on GRID alone
#: 2-3 s), too few repeats per run for a steady mean on a shared host.
WORKLOADS = {"static-warm": "warm", "cold-ingress": "cold"}
OWN_SIZE = "full"
PROBE_SIZE = "tiny"

#: Shard pool size: coordinator plus workers fit in the CPUs this
#: process may use.
SHARD_WORKERS = max(1, len(os.sched_getaffinity(0)) - 1)


#: The suite's own recipes, so every run decomposes the same graphs.  The
#: LJ-S generator's seed stays the suite's: over six seeds ``ours`` took
#: either about 0.12 s or about 0.24 s on the large LJ-S, and a seeded
#: graph would measure which half a seed falls in (README.md).
SPECS: dict[str, GraphSpec] = {name: SUITE[name] for name in GRAPHS}


class Cache:
    """The benchmark's directories, all under ``<checkout>/.perfbench_cache``."""

    def __init__(self, root: str) -> None:
        self.base = os.path.join(root, ".perfbench_cache")
        #: The input graphs; built once per checkout.
        self.graphs = os.path.join(self.base, "graphs")
        #: The empty graph cache a cold pass generates into.
        self.cold = os.path.join(self.base, "cold")

    def path(self, spec: GraphSpec, size: str) -> str:
        return gio.cached_graph_path(
            self.graphs, spec.name, size, spec.cache_key(size)
        )


def build_inputs(root: str) -> None:
    """Make the input graphs and the native kernel, before set-up."""
    from repro.perf import native_available

    native_available()
    cache = Cache(root)
    for size in (OWN_SIZE, PROBE_SIZE):
        for spec in SPECS.values():
            path = cache.path(spec, size)
            if not os.path.exists(path):
                gio.store_cached_graph(spec.build_size(size), path)


# ----------------------------------------------------------------------
# Outcome bookkeeping
# ----------------------------------------------------------------------
class Ledger:
    """Attempted and failed operations, failures listed by cell."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, cell: str, error: str | None, count: int = 1) -> None:
        self.attempted += count
        if error is not None:
            self.failed += count
            self.failures.append(f"{cell}: {error}")


def check_coreness(engine: str, coreness, reference) -> str | None:
    """``None`` when ``coreness`` is right for ``engine``, else why not."""
    coreness = np.asarray(coreness)
    if coreness.shape != reference.shape:
        return f"shape {coreness.shape} != {reference.shape}"
    if engine == "approx":
        ok = (coreness >= reference) & (
            coreness < (1.0 + APPROX_EPS) * reference + 1e-9
        )
        bad = int((~ok).sum())
        return None if not bad else f"{bad} vertices outside (1+eps)"
    bad = int((coreness != reference).sum())
    return None if not bad else f"{bad} vertices differ from reference"


def _error(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({frame.filename}:{frame.lineno})"


def run_engine(engine: str, graph):
    if engine == "shard":
        return shard_coreness(
            graph, DEFAULT_COST_MODEL, workers=SHARD_WORKERS
        )
    return ENGINES[engine](graph, DEFAULT_COST_MODEL)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Inputs:
    """Everything set-up produces: paths, references and the stream."""

    specs: dict[str, GraphSpec]
    paths: dict[tuple[str, str], str]
    refs: dict[tuple[str, str], np.ndarray]
    #: Tier -> the churn stream on that tier's LJ-S.
    events: dict[str, list]


def set_up(cache: Cache) -> Inputs:
    """Graph-cache state, references, the serve stream and a warm-up."""
    specs = SPECS
    paths, refs = {}, {}
    for size in (OWN_SIZE, PROBE_SIZE):
        for name, spec in specs.items():
            path = cache.path(spec, size)
            graph = gio.load_cached_graph(path)
            if graph is None:
                raise RuntimeError(f"graph cache lacks {path}")
            paths[(name, size)] = path
            refs[(name, size)] = reference_coreness(graph)
    events = {PROBE_SIZE: generate_stream(
        gio.load_cached_graph(paths[(SERVE_GRAPH, PROBE_SIZE)]), "churn",
        batches=SERVE_BATCHES, batch_size=SERVE_BATCH_SIZE,
        queries_per_batch=SERVE_READS_PER_BATCH, seed=SERVE_SEED,
    )}
    # Warm-up: every engine once on a tiny graph, so lazy imports and
    # the first native-kernel calls happen here, not in a timed pass.
    for engine in ENGINE_NAMES:
        run_engine(engine, gio.load_cached_graph(
            paths[(SERVE_GRAPH, PROBE_SIZE)]
        ))
    return Inputs(specs, paths, refs, events)


# ----------------------------------------------------------------------
# Timed operations
# ----------------------------------------------------------------------
#: The calibration load: a fixed interpreter loop and fixed NumPy
#: gathers and counts over 8 MB, the two kinds of work the program does
#: outside its native kernels.  About 3 ms.
_CAL_RNG = np.random.default_rng(0)
_CAL_INDEX = _CAL_RNG.integers(0, 1 << 20, size=1 << 16)
_CAL_VALUES = _CAL_RNG.random(1 << 20)

#: Seconds the calibration load takes on a quiet vCPU of the reference
#: host (README.md); a calibrated time reads in seconds at that speed.
CAL_REF_S = 0.0025
#: Least seconds between two calibrations (operations shorter than this
#: share the calibrations around them), and between two CPU choices.
CAL_EVERY_S = 0.05
CHOOSE_EVERY_S = 0.5


def calibration() -> float:
    """Wall seconds of the fixed calibration load."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(8_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    for _ in range(2):
        _CAL_VALUES[_CAL_INDEX].sum()
        np.bincount(_CAL_INDEX, minlength=1 << 20)
    return time.perf_counter() - start


class Clock:
    """Host speed, measured right beside each timed operation.

    On a shared host each vCPU runs at one of two speeds (about 1.7x
    apart) in phases of a tenth of a second to seconds, independently of
    the other vCPUs, and whole runs can be slow.  Just before each timed
    operation (at most every ``CAL_EVERY_S``) ``tick`` times a fixed
    calibration load on the CPU this process is pinned to; at most every
    ``CHOOSE_EVERY_S`` it times the load on every CPU the process may use
    and pins the process to the fastest.  A sample is scaled by
    ``CAL_REF_S`` over the mean of its CPU's calibrations just before and
    just after it, so it reads in seconds at the reference speed.  The
    calibration load is the benchmark's own code: a change of the
    program moves its samples and never the scale.  Shard workers fork
    from the pinned process and share its CPU while the coordinator
    waits on them.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        #: Per tick: when it ended, the calibrations it made by CPU, and
        #: the CPU the process runs on after it.
        self.at: list[float] = []
        self.cal: list[dict[int, float]] = []
        self.cpu: list[int] = []
        self._chosen_at = -math.inf

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.at and now - self.at[-1] < CAL_EVERY_S:
            return
        if now - self._chosen_at >= CHOOSE_EVERY_S or len(self.cpus) == 1:
            cal = {}
            for cpu in self.cpus:
                if len(self.cpus) > 1:
                    os.sched_setaffinity(0, {cpu})
                cal[cpu] = calibration()
            cpu = min(cal, key=cal.get)
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            self._chosen_at = now
        else:
            cpu = self.cpu[-1]
            cal = {cpu: calibration()}
        self.at.append(time.perf_counter())
        self.cal.append(cal)
        self.cpu.append(cpu)

    def release(self) -> None:
        """Lets this process run on all its CPUs again."""
        os.sched_setaffinity(0, set(self.cpus))

    def seconds(self, stamp: tuple[float, float]) -> float:
        """A raw ``(start, elapsed)`` sample in reference seconds."""
        start, elapsed = stamp
        after = bisect.bisect_left(self.at, start + elapsed)
        cpu = self.cpu[max(after - 1, 0)]
        near = [cal[cpu] for cal in self.cal[max(after - 1, 0):after + 1]]
        return elapsed * CAL_REF_S / (sum(near) / len(near))

    def summary(self) -> dict:
        """Calibration walls of the chosen CPUs, for the config line."""
        chosen = [cal[cpu] for cal, cpu in zip(self.cal, self.cpu)]
        return {
            "count": len(chosen), "median_s": statistics.median(chosen),
            "min_s": min(chosen), "max_s": max(chosen),
            "reference_s": CAL_REF_S,
        }


def _collect() -> None:
    """Frees the garbage of earlier passes before a pass starts, so that
    a long pass's leftovers are not collected inside the next pass's
    timed calls (a collection takes milliseconds; a tiny-tier call less)."""
    gc.collect()


class Runner:
    """Runs the timed operations; ``trace`` attributes them to layers."""

    def __init__(self, cache: Cache, inputs: Inputs, seed: int,
                 ledger: Ledger, trace=None, clock: Clock | None = None,
                 ) -> None:
        self.cache = cache
        self.inputs = inputs
        self.rng = np.random.default_rng(seed)
        self.ledger = ledger
        self.trace = trace
        self.clock = clock
        #: Sum of the timed regions (the traced wall in a traced run), and
        #: the ``(start, elapsed)`` stamp of each.
        self.wall = 0.0
        self.stamps: list[tuple[float, float]] = []
        #: Exact counts from the results: rounds, subrounds, work.
        self.rounds = 0
        self.subrounds = 0
        self.work: list[float] = []

    def _timed(self, fn, *args, calibrate: bool = True):
        """Runs ``fn``; its ``(start, elapsed)`` stamp is left in ``_last``.

        With a clock, a calibration runs just before ``fn`` unless
        ``calibrate`` is false (for calls of microseconds).
        """
        if self.clock is not None and calibrate:
            self.clock.tick()
        if self.trace is not None:
            self.trace.recording = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.wall += elapsed
            if self.trace is not None:
                self.trace.recording = False
            self._last = (start, elapsed)
            self.stamps.append(self._last)

    def passes(self) -> dict:
        """Measurement name -> the pass that runs it on a given tier."""
        return {"warm": self.warm_pass, "cold": self.cold_pass,
                "serve": self.serve_replay}

    def _note(self, metrics) -> None:
        self.rounds += metrics.rounds
        self.subrounds += metrics.subrounds
        self.work.append(metrics.work)

    def _decompose(self, engine: str, path: str):
        graph = gio.load_cached_graph(path)
        if self.trace is None:
            return run_engine(engine, graph)
        return self.trace.span("core", engine, run_engine, engine, graph)

    def warm_pass(self, size: str) -> dict[str, dict[str, float]]:
        """One warm call per (engine, graph) cell, in seeded order."""
        _collect()
        cells = [(e, g) for e in ENGINE_NAMES for g in GRAPHS]
        order = self.rng.permutation(len(cells))
        times: dict[str, dict[str, float]] = {e: {} for e in ENGINE_NAMES}
        for index in order:
            engine, name = cells[index]
            cell = f"{engine}/{name}-{size}"
            try:
                result = self._timed(
                    self._decompose, engine, self.inputs.paths[(name, size)]
                )
            except Exception as exc:  # listed by cell, never dropped
                self.ledger.record(cell, _error(exc))
                continue
            times[engine][name] = self._last
            self._note(result.metrics)
            self.ledger.record(cell, check_coreness(
                engine, result.coreness, self.inputs.refs[(name, size)]
            ))
        return times

    def _cold(self, spec: GraphSpec, size: str):
        graph = spec.build_size(size)
        path = gio.cached_graph_path(
            self.cache.cold, spec.name, size, spec.cache_key(size)
        )
        gio.store_cached_graph(graph, path)
        loaded = gio.load_cached_graph(path)
        if self.trace is None:
            return run_engine("ours", loaded)
        return self.trace.span("core", "ours", run_engine, "ours", loaded)

    def cold_pass(self, size: str) -> dict[str, float]:
        """Generate, write, load and decompose each graph from empty."""
        _collect()
        times = {}
        for name in GRAPHS:
            shutil.rmtree(self.cache.cold, ignore_errors=True)
            cell = f"cold/{name}-{size}"
            try:
                result = self._timed(
                    self._cold, self.inputs.specs[name], size
                )
            except Exception as exc:
                self.ledger.record(cell, _error(exc))
                continue
            times[name] = self._last
            self._note(result.metrics)
            self.ledger.record(cell, check_coreness(
                "ours", result.coreness, self.inputs.refs[(name, size)]
            ))
        shutil.rmtree(self.cache.cold, ignore_errors=True)
        return times

    def serve_replay(self, size: str) -> tuple[list[float], int] | None:
        """One closed-loop replay of the churn stream on a fresh service.

        Returns the stamp of every event (``submit_batch`` or
        ``submit_query``), in stream order, and the applied update count.
        """
        _collect()
        graph = gio.load_cached_graph(self.inputs.paths[(SERVE_GRAPH, size)])
        service = CoreService(graph)
        epochs = [service.engine.coreness.copy()]
        commits = [0.0]
        walls: list[float] = []
        reads = []
        events = self.inputs.events[size]
        for index, event in enumerate(events):
            try:
                if isinstance(event, UpdateBatch):
                    commits.append(self._timed(service.submit_batch, event))
                    epochs.append(service.engine.coreness.copy())
                else:
                    value, epoch = self._timed(
                        service.submit_query, event, calibrate=False
                    )
                    reads.append((event, value, epoch))
            except Exception as exc:
                self.ledger.record(
                    f"serve/event {index}-{size}", _error(exc),
                    count=len(events) - index,
                )
                return None
            walls.append(self._last)
        # Each read must see the newest epoch committed by its arrival,
        # and that epoch's value.
        for event, value, epoch in reads:
            expected = int(np.searchsorted(commits, event.time, "right")) - 1
            error = None
            if epoch != expected:
                error = f"read epoch {epoch}, committed {expected}"
            elif value != int(epochs[epoch][event.vertex]):
                error = f"read {value}, epoch holds {epochs[epoch][event.vertex]}"
            self.ledger.record(f"serve/read v{event.vertex}-{size}", error)
        final = check_coreness(
            "serve", service.engine.coreness,
            reference_coreness(service.engine.snapshot()),
        )
        self.ledger.record(f"serve/batches-{size}", final,
                           count=len(commits) - 1)
        self._note(service.engine.metrics)
        return walls, service.stats.updates_applied


# ----------------------------------------------------------------------
# Measurement loops and end-to-end metrics
# ----------------------------------------------------------------------
# Every sample is a raw ``(start, elapsed)`` stamp; ``seconds`` turns
# it into a time (``Clock.seconds`` in a measured run).  Each timing is
# the mean over a run's repeats of the same cell (engine x graph, graph,
# or stream event): the host's two speeds make the median jump between
# them when a run's samples fall about evenly into both.


def decompose_metrics(passes: list[dict[str, dict]], seconds):
    """Per engine: sum over graphs of the mean warm call."""
    out, samples = {}, {}
    for engine in ENGINE_NAMES:
        per_graph = [
            [seconds(p[engine][g]) for p in passes if g in p[engine]]
            for g in GRAPHS
        ]
        samples[engine] = min(len(s) for s in per_graph)
        if samples[engine]:
            out[f"decompose_s.{engine}"] = sum(
                statistics.fmean(s) for s in per_graph
            )
    return out, samples


def cold_metrics(passes: list[dict], seconds):
    """Sum over graphs of the mean cold pipeline."""
    per_graph = [[seconds(p[g]) for p in passes if g in p] for g in GRAPHS]
    count = min(len(s) for s in per_graph)
    if not count:
        return {}, 0
    return {
        "cold_s": sum(statistics.fmean(s) for s in per_graph)
    }, count


def serve_metrics(replays, events, seconds):
    """Batch percentiles and throughput of the mean wall per event."""
    replays = [r for r in replays if r is not None]
    if not replays:
        return {}, 0
    walls = np.mean(
        [[seconds(stamp) for stamp in stamps] for stamps, _ in replays],
        axis=0,
    )
    is_batch = np.array([isinstance(e, UpdateBatch) for e in events])
    p50, p90 = np.percentile(walls[is_batch], [50, 90])
    return {
        "updates_per_s": replays[0][1] / float(walls.sum()),
        "batch_p50_ms": float(p50) * 1e3,
        "batch_p90_ms": float(p90) * 1e3,
    }, {"batches": int(is_batch.sum()), "replays": len(replays)}
