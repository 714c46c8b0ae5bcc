"""Flat peel kernels, bit-exact with the reference loops.

The VGC subround is the wall-clock hot path of the ``ours`` engine: a
per-edge Python loop over every local-search queue.  This module batches
it while reproducing the reference execution *exactly* — same coreness
output, same ``RunMetrics`` ledger, same RNG stream — which the
regression goldens and the kernel-equivalence property tests enforce.
The same treatment extends to the baseline engines: the PKC chain drain
(:func:`pkc_chain_drain`), the fused scan/peel subround that ParK,
Julienne and the plain online peel share (:func:`scan_peel_round`), and
the full-array frontier scans (:func:`threshold_frontier`).  Each comes
in a vectorized flavor here and a compiled flavor in
:mod:`repro.perf.native`, all behind the ``REPRO_KERNELS`` switch.

Two implementations share one epilogue (:func:`_finalize`):

* :func:`vgc_peel_tasks` — the flat NumPy kernel.  One set of
  preallocated flat output buffers (decrement stream, sampled-encounter
  stream, denied crossings) spans the whole frontier; tasks write
  through advancing offsets instead of per-task Python lists, and
  neighbor expansions switch between a tuned scalar loop and NumPy
  batching at :func:`repro.perf.kernel_threshold` edges.
* :func:`vgc_peel_tasks_native` — the same task loop compiled to C
  (:mod:`repro.perf.native`), filling the same flat buffers.

The exactness argument, per mechanism:

* **Deferred RNG draws.**  Sample-mode membership cannot change
  mid-subround (absorption only touches vertices whose mode bit is
  already clear; resampling runs at subround end), and the coin-flip
  *outcome* influences nothing inside the task loop: sampled edges
  never decrement, the flip cost is charged per encounter regardless,
  and hit counters are not read until the subround epilogue.  So the
  kernels only record the encounter stream in task-major order and draw
  ``rng.random(total)`` once at the end — ``numpy.random.Generator``
  produces the identical sequence whether values are drawn one at a
  time or as arrays, in any block structure.
* **Decrement stream.**  Within one expansion the targets are distinct
  (simple graph), so a gathered ``old = dtilde[t]; dtilde[t] = old - 1``
  matches the sequential per-edge decrements, and the frontier-crossing
  observation ``old == k + 1`` is exact.
* **Absorption.**  Both exhaustion conditions — queue length at the
  ``queue_size`` budget, edges seen at the ``edge_budget`` — are
  monotone within a task, so once either holds the rest of the queue is
  absorption-free and is processed as one batched tail (the batch
  crossing test ``old > k and new <= k`` fires exactly when some unit
  decrement observed ``k + 1``).  Before that point, absorption
  decisions are replayed per crossing edge in encounter order with the
  exact ``edges_seen`` value of the reference loop.
* **Saturation.**  Hit counters advance by unit increments, so they
  cannot skip ``mu``; batching the increments per distinct vertex and
  testing ``old < mu <= new`` recovers exactly the reference's
  ``cnt == mu`` events.
* **First-seen keys.**  The reference records ``dtilde[u]`` at a
  vertex's first decrement of the subround; since nothing else mutates
  ``dtilde`` inside the task loop, that value *is* the subround-start
  snapshot, so one ``dtilde.copy()`` per subround replaces all per-edge
  bookkeeping.
* **Cost accumulation.**  Per-task costs are accumulated as
  ``count * constant`` instead of repeated addition; this is exact
  because every pinned cost model uses dyadic-rational constants (see
  docs/PERFORMANCE.md).  Aggregation orderings the kernels change
  (contention multisets, touched sets, bucket updates, frontier merges)
  are all canonicalized downstream (``unique_sorted``) or
  order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf import NATIVE, kernel_mode, kernel_threshold
from repro.runtime.atomics import (
    DecrementOutcome,
    batch_decrement,
    batch_increment_clamped,
)


class KernelScratch:
    """Per-run reusable kernel buffers, allocated lazily on first use.

    The flat kernels used to allocate their output streams per subround
    (``np.empty(indices.size)`` is tens of megabytes on the large tier);
    one arena per run amortizes that to a single allocation.  Buffer
    contents are scratch between calls — except :meth:`count_buf`, which
    is kept all-zero: every user must re-zero exactly the entries it
    dirtied before returning.
    """

    def __init__(self, graph) -> None:
        self._n = int(graph.n)
        self._cap = int(graph.indices.size)
        self._dec: np.ndarray | None = None
        self._enc: np.ndarray | None = None
        self._nf: np.ndarray | None = None
        self._queue: np.ndarray | None = None
        self._count: np.ndarray | None = None
        self._touched: np.ndarray | None = None
        self._tasks: tuple[np.ndarray, ...] | None = None
        self._ptrs: dict[int, tuple[np.ndarray, int]] = {}
        self._views: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def dec_buf(self) -> np.ndarray:
        """Decrement-stream buffer (capacity: the total degree sum)."""
        if self._dec is None:
            self._dec = np.empty(self._cap, dtype=np.int64)
        return self._dec

    def enc_buf(self) -> np.ndarray:
        """Sampled-encounter-stream buffer (same capacity bound)."""
        if self._enc is None:
            self._enc = np.empty(self._cap, dtype=np.int64)
        return self._enc

    def nf_buf(self) -> np.ndarray:
        """Denied-crossings buffer (at most one crossing per vertex)."""
        if self._nf is None:
            self._nf = np.empty(self._n, dtype=np.int64)
        return self._nf

    def queue_buf(self, size: int) -> np.ndarray:
        """Task-queue scratch of at least ``size`` slots."""
        size = max(int(size), 1)
        if self._queue is None or self._queue.size < size:
            self._queue = np.empty(size, dtype=np.int64)
        return self._queue

    def count_buf(self) -> np.ndarray:
        """All-zero per-vertex counter array (users re-zero their marks)."""
        if self._count is None:
            self._count = np.zeros(self._n, dtype=np.int64)
        return self._count

    def touched_buf(self) -> np.ndarray:
        """First-touch output buffer paired with :meth:`count_buf`."""
        if self._touched is None:
            self._touched = np.empty(self._n, dtype=np.int64)
        return self._touched

    def task_bufs(self) -> tuple[np.ndarray, ...]:
        """Per-task ``(nv, ne, ns)`` counter buffers (frontier <= n)."""
        if self._tasks is None:
            self._tasks = tuple(
                np.empty(self._n, dtype=np.int64) for _ in range(3)
            )
        return self._tasks

    def ptr(self, array: np.ndarray) -> int:
        """Raw data address of a run-stable array, cached by identity.

        ``array.ctypes.data`` costs microseconds per access (a ctypes
        helper object is built each time), which the per-subround native
        calls pay a dozen times over; the cache keeps a reference to
        every array it has seen, so an entry can never dangle (the id
        key stays pinned to the same object).  Use only for arrays that
        persist across calls — per-round temporaries would accumulate.
        """
        entry = self._ptrs.get(id(array))
        if entry is None:
            entry = (array, array.ctypes.data)
            self._ptrs[id(array)] = entry
        return entry[1]

    def u8(self, array: np.ndarray) -> np.ndarray:
        """Cached ``uint8`` reinterpretation of a run-stable bool array."""
        entry = self._views.get(id(array))
        if entry is None:
            entry = (array, array.view(np.uint8))
            self._views[id(array)] = entry
        return entry[1]


def get_scratch(state) -> KernelScratch:
    """The run's :class:`KernelScratch`, created on first use."""
    scratch = getattr(state, "scratch", None)
    if scratch is None:
        scratch = KernelScratch(state.graph)
        state.scratch = scratch
    return scratch


class FlatPeelState:
    """Minimal peel state for engines without a framework ``PeelState``.

    :func:`scan_peel_round` and :func:`threshold_frontier` only need the
    graph, the live ``dtilde`` array, and somewhere to hang the run's
    :class:`KernelScratch`; the sequential BZ level peel and the
    approximate geometric peel use this shim to ride the same flat
    kernels as the parallel engines.
    """

    __slots__ = ("graph", "dtilde", "scratch")

    def __init__(self, graph, dtilde: np.ndarray) -> None:
        self.graph = graph
        self.dtilde = dtilde
        self.scratch = None


@dataclass
class VGCTaskResult:
    """Everything a VGC task loop produces for the shared epilogue.

    Attributes:
        task_costs: Per-task simulated cost (vertex/edge/flip ops).
        next_frontier: Crossing vertices denied absorption (each crossing
            fires exactly once per vertex per subround).
        saturated: Sample counters that reached ``mu`` this subround.
        target_counts: Atomic-update multiplicities per distinct target
            (decrements and sampler hits), in no specified order — the
            subround's contention histogram.
        touched: Distinct decremented vertices; ordering is not
            specified (consumers are order-insensitive).
        touched_old: ``dtilde`` value of each touched vertex before its
            first decrement of the subround.
        local_search_hits: Number of absorptions performed.
        sample_draws: Sampled edges seen (RNG draws) across all tasks.
        sample_hits: Draws that hit (incremented a sample counter).
    """

    task_costs: np.ndarray
    next_frontier: np.ndarray
    saturated: np.ndarray
    target_counts: np.ndarray
    touched: np.ndarray
    touched_old: np.ndarray
    local_search_hits: int
    sample_draws: int = 0
    sample_hits: int = 0


_EMPTY = np.zeros(0, dtype=np.int64)


def _sampling_arrays(state):
    """The subround's sampling arrays, or all-``None`` when inactive.

    When nothing is in sample mode the whole sampling branch is dead (no
    RNG draws would occur), so the non-sampled fast path is exact.
    """
    sampling = state.sampling
    if sampling is not None and bool(sampling.mode.any()):
        return (
            sampling.mode,
            sampling.rate,
            sampling.cnt,
            sampling.rng,
            sampling.mu,
        )
    return None, None, None, None, 0


def _finalize(
    dec: np.ndarray,
    enc: np.ndarray,
    next_frontier: np.ndarray,
    task_costs: np.ndarray,
    ls_hits: int,
    dtilde: np.ndarray,
    rng,
    rate: np.ndarray | None,
    cnt: np.ndarray | None,
    mu: int,
    touched: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> VGCTaskResult:
    """Shared subround epilogue: deferred draws, counters, contention.

    ``dec`` and ``enc`` are the decrement and sampled-encounter streams
    in task-major order (``enc`` order is what aligns the deferred RNG
    draws with the reference's per-edge draws).  ``dtilde`` is the
    *post-kernel* array: each touched vertex's subround-start value is
    recovered exactly as ``dtilde[v] + count(v)`` (integer decrements,
    no clamping), which spares the former per-subround full-array copy.
    ``touched`` / ``counts`` may be supplied pre-computed (ascending,
    aligned) by a kernel that counted decrements in-flight; otherwise
    they are derived from the ``dec`` stream here.
    """
    if enc.size:
        draws = rng.random(enc.size)
        hits_all = enc[draws < rate[enc]]
    else:
        hits_all = _EMPTY
    hit_counts = _EMPTY
    if hits_all.size:
        hit_counts, saturated = batch_increment_clamped(cnt, hits_all, mu)
    else:
        saturated = _EMPTY
    if touched is None:
        touched, counts = np.unique(dec, return_counts=True)
    touched_old = dtilde[touched] + counts
    # Decrement targets (mode clear) and hit targets (mode set) are
    # disjoint — mode never changes inside a subround — so the combined
    # contention histogram is the per-stream histograms side by side
    # (the hit histogram is the one the clamped increment built).
    target_counts = counts
    if hits_all.size:
        target_counts = np.concatenate([counts, hit_counts])
    return VGCTaskResult(
        task_costs=task_costs,
        next_frontier=next_frontier,
        saturated=saturated,
        target_counts=target_counts,
        touched=touched,
        touched_old=touched_old,
        local_search_hits=ls_hits,
        sample_draws=int(enc.size),
        sample_hits=int(hits_all.size),
    )


def vgc_peel_tasks(
    state,
    frontier: np.ndarray,
    k: int,
    budget: int,
    edge_budget: int,
) -> VGCTaskResult:
    """Run every local search of a VGC subround (flat NumPy kernel)."""
    graph = state.graph
    dtilde, peeled, coreness = state.dtilde, state.peeled, state.coreness
    indptr, indices = graph.indptr, graph.indices
    model = state.runtime.model
    vertex_op = model.vertex_op
    edge_op = model.edge_op
    flip_op = model.sample_flip_op
    mode, rate, cnt, rng, mu = _sampling_arrays(state)

    threshold = kernel_threshold()

    # Flat output buffers for the whole frontier, written through
    # advancing offsets.  Capacities: queue items of distinct tasks are
    # disjoint vertex sets and each is expanded at most once, so the
    # edge stream (decrements + encounters) is bounded by the total
    # degree sum ``indices.size``; a vertex crosses at most once per
    # subround, so denied crossings are bounded by ``n``.  The buffers
    # live in the run's arena, so they are allocated once per run.
    scratch = get_scratch(state)
    dec_buf = scratch.dec_buf()
    enc_buf = scratch.enc_buf() if mode is not None else _EMPTY
    nf_buf = scratch.nf_buf()
    queue_buf = scratch.queue_buf(budget)
    dp = ep = fp = 0

    # Memoryviews give the tuned scalar loop native-Python-int element
    # access (no NumPy scalar boxing), sharing the arrays' buffers with
    # the vectorized regimes and the flat output buffers.
    dt_mv = memoryview(dtilde)
    pe_mv = memoryview(peeled)
    co_mv = memoryview(coreness)
    ip_mv = memoryview(indptr)
    ix_mv = memoryview(indices)
    dec_mv = memoryview(dec_buf)
    nf_mv = memoryview(nf_buf)
    q_mv = memoryview(queue_buf)
    mode_mv = memoryview(mode) if mode is not None else None
    enc_mv = memoryview(enc_buf) if mode is not None else None
    k1 = k + 1

    task_costs = np.empty(frontier.size, dtype=np.float64)
    ls_hits = 0

    for task_id, seed in enumerate(frontier.tolist()):
        q_mv[0] = seed
        head = 0
        qlen = 1
        nv = 0  # queue items processed (vertex_op each)
        ne = 0  # edges seen (edge_op each)
        ns = 0  # sampled edges seen (sample_flip_op each)
        while head < qlen:
            if qlen >= budget or ne >= edge_budget:
                # Absorption-free tail: both conditions are monotone, so
                # no remaining edge can absorb — batch the rest at once.
                tail = queue_buf[head:qlen]
                head = qlen
                nv += int(tail.size)
                tgt = graph.gather_neighbors(tail)
                ne += int(tgt.size)
                if tgt.size == 0:
                    break
                if mode is not None:
                    smask = mode[tgt]
                    if smask.any():
                        sampled = tgt[smask]
                        sn = int(sampled.size)
                        enc_buf[ep : ep + sn] = sampled
                        ep += sn
                        ns += sn
                        direct = tgt[~smask]
                    else:
                        direct = tgt
                else:
                    direct = tgt
                if direct.size:
                    outcome = batch_decrement(dtilde, direct, k)
                    dn = int(direct.size)
                    dec_buf[dp : dp + dn] = direct
                    dp += dn
                    crossed = outcome.crossed
                    crossed = crossed[~peeled[crossed]]
                    if crossed.size:
                        cn = int(crossed.size)
                        nf_buf[fp : fp + cn] = crossed
                        fp += cn
                break
            v = q_mv[head]
            head += 1
            nv += 1
            s = ip_mv[v]
            e = ip_mv[v + 1]
            deg = e - s
            if deg == 0:
                continue
            ne_base = ne
            ne += deg
            if deg < threshold:
                # Tuned scalar loop (memoryviews, native Python ints).
                if mode is None:
                    # Every edge is a direct decrement: collect the
                    # whole row with one slice copy, scan for crossings.
                    dec_buf[dp : dp + deg] = indices[s:e]
                    dp += deg
                    pos = 0
                    for u in ix_mv[s:e]:
                        pos += 1
                        old = dt_mv[u]
                        dt_mv[u] = old - 1
                        if old == k1 and not pe_mv[u]:
                            if (
                                qlen < budget
                                and ne_base + pos < edge_budget
                            ):
                                q_mv[qlen] = u
                                qlen += 1
                                co_mv[u] = k
                                pe_mv[u] = True
                                ls_hits += 1
                            else:
                                nf_mv[fp] = u
                                fp += 1
                    continue
                pos = 0
                for u in ix_mv[s:e]:
                    pos += 1
                    if mode_mv[u]:
                        ns += 1
                        enc_mv[ep] = u
                        ep += 1
                        continue
                    old = dt_mv[u]
                    dt_mv[u] = old - 1
                    dec_mv[dp] = u
                    dp += 1
                    if old == k1 and not pe_mv[u]:
                        if qlen < budget and ne_base + pos < edge_budget:
                            q_mv[qlen] = u
                            qlen += 1
                            co_mv[u] = k
                            pe_mv[u] = True
                            ls_hits += 1
                        else:
                            nf_mv[fp] = u
                            fp += 1
                continue
            # Vectorized expansion: targets are distinct within one row.
            nbrs = indices[s:e]
            pos_map = None
            if mode is not None:
                smask = mode[nbrs]
                if smask.any():
                    sampled = nbrs[smask]
                    sn = int(sampled.size)
                    enc_buf[ep : ep + sn] = sampled
                    ep += sn
                    ns += sn
                    pos_map = np.flatnonzero(~smask)
                    direct = nbrs[pos_map]
                else:
                    direct = nbrs
            else:
                direct = nbrs
            if direct.size == 0:
                continue
            old = dtilde[direct]
            dtilde[direct] = old - 1
            dn = int(direct.size)
            dec_buf[dp : dp + dn] = direct
            dp += dn
            cidx = np.flatnonzero((old == k1) & ~peeled[direct])
            if cidx.size:
                cpos = cidx if pos_map is None else pos_map[cidx]
                # Replay absorption decisions in encounter order with the
                # reference loop's exact edges_seen at each check.
                for u, seen in zip(
                    direct[cidx].tolist(),
                    (ne_base + cpos + 1).tolist(),
                ):
                    if qlen < budget and seen < edge_budget:
                        q_mv[qlen] = u
                        qlen += 1
                        co_mv[u] = k
                        pe_mv[u] = True
                        ls_hits += 1
                    else:
                        nf_mv[fp] = u
                        fp += 1
        task_costs[task_id] = vertex_op * nv + edge_op * ne + flip_op * ns

    return _finalize(
        dec_buf[:dp],
        enc_buf[:ep],
        nf_buf[:fp].copy(),
        task_costs,
        ls_hits,
        dtilde,
        rng,
        rate,
        cnt,
        mu,
    )


def vgc_peel_tasks_native(
    state,
    frontier: np.ndarray,
    k: int,
    budget: int,
    edge_budget: int,
) -> VGCTaskResult:
    """Run every local search of a VGC subround (compiled C kernel)."""
    from repro.perf import native

    graph = state.graph
    model = state.runtime.model
    mode, rate, cnt, rng, mu = _sampling_arrays(state)
    scratch = get_scratch(state)
    dec, enc, next_frontier, nv, ne, ns, ls_hits, marks = (
        native.run_task_loop(
            graph,
            state.dtilde,
            state.peeled,
            state.coreness,
            mode,
            frontier,
            k,
            budget,
            edge_budget,
            scratch=scratch,
        )
    )
    # Exact despite the reordering: counts stay well below 2**53 and the
    # pinned cost constants are dyadic rationals (docs/PERFORMANCE.md).
    task_costs = (
        model.vertex_op * nv + model.edge_op * ne + model.sample_flip_op * ns
    )
    # The kernel counted decrements first-touch style into the scratch
    # counters; sorting the distinct marks reproduces ``np.unique`` of
    # the full dec stream without rescanning it.
    count_arr = scratch.count_buf()
    touched = np.sort(marks)
    counts = count_arr[touched].copy()
    count_arr[marks] = 0  # restore the all-zero invariant
    return _finalize(
        dec,
        enc,
        next_frontier,
        task_costs,
        ls_hits,
        state.dtilde,
        rng,
        rate,
        cnt,
        mu,
        touched=touched,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# Baseline kernels: PKC chain drain, fused scan/peel, frontier scan
# ---------------------------------------------------------------------------


def pkc_thread_works(model, nv: np.ndarray, ne: np.ndarray) -> np.ndarray:
    """Per-thread PKC work recomputed in closed form from the counters.

    The reference drain accumulates ``vertex_op`` per queue item and
    ``edge_op + atomic_op`` per edge by repeated addition; with the
    pinned dyadic cost constants and counts far below ``2**53`` every
    partial sum is exact, so the closed form is bit-equal (R007
    cross-checks this expression against ``PKC_COST_COUNTERS`` and the
    embedded C source).
    """
    task_costs = (
        model.vertex_op * nv + model.edge_op * ne + model.atomic_op * ne
    )
    return task_costs


def pkc_chain_drain(
    graph,
    dtilde: np.ndarray,
    peeled: np.ndarray,
    coreness: np.ndarray,
    frontier: np.ndarray,
    k: int,
    p: int,
    scratch: KernelScratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One PKC round's thread-local chain drains (flat NumPy kernel).

    Reproduces the reference drain exactly by replaying the threads in
    order and decomposing each thread's FIFO into *waves*: wave 0 is the
    thread's static share ``frontier[tid::p]``, wave ``i + 1`` is the
    set of vertices wave ``i``'s batched decrements dropped from
    ``k + 1`` to ``k`` (the atomic claims).  Batching a wave is exact
    because claims only append *behind* the current wave in the FIFO —
    every wave item is expanded before any vertex it claims — and a
    vertex crosses ``k + 1 -> k`` at most once per round, so the batch
    crossing test ``old > k and new <= k`` recovers exactly the unit
    decrements that observed ``k + 1``.  Earlier threads' claims are
    visible to later threads through ``peeled``, matching the reference
    thread order.  Returns ``(nv, ne, counts, claimed)``: per-thread
    item / edge counters, the round's contention counts per distinct
    target (order unspecified; consumers take max / sum), and the number
    of chain claims.
    """
    indptr, indices = graph.indptr, graph.indices
    threshold = kernel_threshold()
    count_arr = scratch.count_buf()
    touched = scratch.touched_buf()
    nv = np.zeros(p, dtype=np.int64)
    ne = np.zeros(p, dtype=np.int64)
    tp = 0
    claimed = 0
    k1 = k + 1
    dt_mv = memoryview(dtilde)
    pe_mv = memoryview(peeled)
    co_mv = memoryview(coreness)
    ip_mv = memoryview(indptr)
    ix_mv = memoryview(indices)
    ct_mv = memoryview(count_arr)
    to_mv = memoryview(touched)

    for tid in range(min(p, int(frontier.size))):
        wave = frontier[tid::p]
        nv_t = 0
        ne_t = 0
        while wave.size:
            degs = indptr[wave + 1] - indptr[wave]
            edge_total = int(degs.sum())
            nv_t += int(wave.size)
            ne_t += edge_total
            if edge_total == 0:
                break
            if edge_total < threshold:
                # Tuned scalar wave: immediate claims, exactly the
                # reference's per-edge loop over this FIFO segment.
                nxt: list[int] = []
                for v in wave.tolist():
                    for u in ix_mv[ip_mv[v] : ip_mv[v + 1]]:
                        old = dt_mv[u]
                        dt_mv[u] = old - 1
                        c = ct_mv[u]
                        if c == 0:
                            to_mv[tp] = u
                            tp += 1
                        ct_mv[u] = c + 1
                        if old == k1 and not pe_mv[u]:
                            pe_mv[u] = True
                            co_mv[u] = k
                            claimed += 1
                            nxt.append(u)
                wave = np.asarray(nxt, dtype=np.int64)
                continue
            # Batched wave: targets deduped once, decrements applied as
            # ``count * unit`` per distinct target.
            targets = graph.gather_neighbors(wave)
            tw, cw = np.unique(targets, return_counts=True)
            old = dtilde[tw]
            new = old - cw
            dtilde[tw] = new
            prev = count_arr[tw]
            fresh = tw[prev == 0]
            fn = int(fresh.size)
            touched[tp : tp + fn] = fresh
            tp += fn
            count_arr[tw] = prev + cw
            cross = tw[(old > k) & (new <= k)]
            cross = cross[~peeled[cross]]
            if cross.size:
                peeled[cross] = True
                coreness[cross] = k
                claimed += int(cross.size)
            wave = cross
        nv[tid] = nv_t
        ne[tid] = ne_t

    marks = touched[:tp]
    counts = count_arr[marks].copy()
    count_arr[marks] = 0  # restore the all-zero invariant
    return nv, ne, counts, claimed


def pkc_chain_drain_native(
    graph,
    dtilde: np.ndarray,
    peeled: np.ndarray,
    coreness: np.ndarray,
    frontier: np.ndarray,
    k: int,
    p: int,
    scratch: KernelScratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One PKC round's thread-local chain drains (compiled C kernel).

    The C routine is a line-for-line transcription of the reference
    drain (same FIFO, same immediate claims); only the contention
    bookkeeping is batched — first-touch counting into the scratch
    arena instead of an append-and-``np.unique`` pass, which preserves
    the count multiset exactly.
    """
    from repro.perf import native

    count_arr = scratch.count_buf()
    touched = scratch.touched_buf()
    nv, ne, marks, claimed = native.run_pkc_round(
        graph,
        dtilde,
        peeled,
        coreness,
        frontier,
        k,
        p,
        scratch.queue_buf(graph.n),
        count_arr,
        touched,
        scratch=scratch,
    )
    counts = count_arr[marks].copy()
    count_arr[marks] = 0  # restore the all-zero invariant
    return nv, ne, counts, claimed


def scan_peel_round(state, frontier: np.ndarray, k: int) -> DecrementOutcome:
    """Fused gather + batch-decrement of a frontier's neighborhoods.

    The flat helper behind the non-sampled online subround (ParK, the
    plain online peel) and the offline histogram peel (Julienne).
    Semantically identical to ``batch_decrement(dtilde,
    gather_neighbors(frontier), k)`` — same mutation, same sorted
    ``touched`` / ``counts`` / ``old`` / ``new`` / ``crossed`` — but the
    native flavor counts occurrences in one pass over the adjacency
    lists (no materialized target stream, no full-stream sort; only the
    distinct touched vertices are sorted).
    """
    graph = state.graph
    if kernel_mode() == NATIVE:
        from repro.perf import native

        scratch = get_scratch(state)
        count_arr = scratch.count_buf()
        marks = native.run_scan_peel(
            graph,
            state.dtilde,
            frontier,
            count_arr,
            scratch.touched_buf(),
            scratch=scratch,
        )
        touched = np.sort(marks)
        counts = count_arr[touched].copy()
        count_arr[marks] = 0  # restore the all-zero invariant
        new = state.dtilde[touched]
        old = new + counts
        crossed = touched[(old > k) & (new <= k)]
        return DecrementOutcome(
            counts=counts, crossed=crossed, touched=touched, old=old, new=new
        )
    targets = graph.gather_neighbors(frontier)
    return batch_decrement(state.dtilde, targets, k)


def threshold_frontier(
    dtilde: np.ndarray,
    peeled: np.ndarray,
    k: int,
    scratch: KernelScratch | None = None,
) -> np.ndarray:
    """All unpeeled vertices with ``dtilde <= k``, in ascending order.

    The full-array frontier scan of the scan-based baselines (ParK,
    PKC).  The native flavor packs matches in one C pass; the fallback
    is the reference expression itself, so every mode returns the exact
    ``np.nonzero`` output.
    """
    if scratch is not None and kernel_mode() == NATIVE:
        from repro.perf import native

        return native.run_scan_frontier(
            dtilde, peeled, k, scratch.touched_buf(), scratch=scratch
        )
    return np.nonzero((~peeled) & (dtilde <= k))[0]
