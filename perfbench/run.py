"""Layered end-to-end benchmark of the k-core stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload static-warm --seed 1 --seconds 45 --trace 0

Workloads are ``static-warm`` and ``cold-ingress`` (README.md says why).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats
rounds of passes untraced and traced, and reports the per-layer split.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is the median load plus the median set-up.
SETUP_REPEATS = 5

#: The program's import and native-kernel load, run in a fresh process.
LOAD = ("import sys; sys.path[:0] = sys.argv[1:]; import workloads; "
        "from repro.perf import kernel_mode; kernel_mode()")

#: Least seconds between two tiny-tier probes of the other measurements,
#: and the share of the seconds since the last probe that a probe repeats
#: each of them for (at least once), so probes keep their share of a run
#: however long the workload's own operation is.
PROBE_INTERVAL_S = 5.0
PROBE_SHARE = 0.12

UNITS = {
    "decompose_s": "s", "cold_s": "s", "setup_s": "s",
    "updates_per_s": "1/s", "batch_p50_ms": "ms", "batch_p90_ms": "ms",
    "peak_rss_mb": "MB", "ok_share": "ratio", "runtime.work": "sim-ns",
}


def _unit(name: str) -> str:
    """Unit of a metric: by name, else by a ``*_s`` / ``*_ratio`` part."""
    family = name.split(".")[0] if name.startswith("decompose_s.") else name
    if family in UNITS:
        return UNITS[family]
    parts = name.split(".")
    if any(part.endswith("_s") for part in parts):
        return "s"
    if parts[-1].endswith("_ratio"):
        return "ratio"
    return "count"


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """sha256 over the program's Python sources (the checkout need not be git)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


#: ``personality(2)`` flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000


def _steady_process() -> None:
    """Re-executes this process once with string hashing seeded 0 and,
    where the kernel allows it, without address-space randomisation.

    Both are drawn anew by every process and moved the same measurement
    by up to 10% from run to run (README.md).  ``sys.orig_argv`` replays
    the command as it was started, wrapper scripts included.
    """
    if os.environ.get("PERFBENCH_STEADY") == "1":
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(ctypes.c_ulong(0xFFFFFFFF))
        if persona != -1:
            libc.personality(ctypes.c_ulong(persona | ADDR_NO_RANDOMIZE))
    except (OSError, AttributeError):
        pass
    env = dict(os.environ, PYTHONHASHSEED="0", PERFBENCH_STEADY="1")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("static-warm", "cold-ingress"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _steady_process()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program at src/repro; nothing to measure",
              file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".perfbench_cache")
    os.makedirs(os.path.join(base, "tmp"), exist_ok=True)
    # Keep every file the program or its workers make inside the checkout.
    os.environ["TMPDIR"] = os.path.join(base, "tmp")
    sys.path.insert(0, SRC)

    # Input graphs and the native kernel are made in a child process that
    # ends before set-up, so this process's peak RSS is the workload's.
    subprocess.run(
        [sys.executable, os.path.join(HERE, "build.py")],
        check=True, cwd=ROOT, stdout=sys.stderr,
    )

    import numpy

    import workloads as wl
    from repro.perf import kernel_mode

    mode = kernel_mode()

    # Set-up, timed SETUP_REPEATS times each: the program's import and
    # native-kernel load in a fresh process, then graph-cache state,
    # references, the serve stream and the warm-up in this one.
    clock = wl.Clock()
    loads, setups, inputs = [], [], None
    for _ in range(SETUP_REPEATS):
        clock.tick(force=True)
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", LOAD, HERE, SRC], check=True,
                       cwd=ROOT, stdout=sys.stderr)
        loads.append((t, time.perf_counter() - t))
    cache = wl.Cache(ROOT)
    for _ in range(SETUP_REPEATS):
        clock.tick(force=True)
        t = time.perf_counter()
        inputs = wl.set_up(cache)
        setups.append((t, time.perf_counter() - t))
    clock.tick(force=True)
    clock.release()
    setup_s = statistics.median(map(clock.seconds, loads)) + statistics.median(
        map(clock.seconds, setups)
    )
    config = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "kernel_mode": mode, "shard_workers": wl.SHARD_WORKERS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _commit(), "source_sha256": _source_digest(),
        "load_s_samples": [elapsed for _, elapsed in loads],
        "setup_s_samples": [elapsed for _, elapsed in setups],
    }

    ledger = wl.Ledger()
    if args.trace:
        from traced import traced_metrics

        metrics, detail = traced_metrics(cache, inputs, args, ledger)
    else:
        metrics, detail = measure(wl, cache, inputs, args, ledger, clock)
        metrics["setup_s"] = setup_s
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = peak_kb / 1024.0
        metrics["ok_share"] = (
            (ledger.attempted - ledger.failed) / max(ledger.attempted, 1)
        )
    config.update(detail)
    config["fail_share"] = ledger.failed / max(ledger.attempted, 1)
    config["failures"] = ledger.failures[:50]

    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:.6g} {_unit(name)}")
    print("config " + json.dumps(config, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


def measure(wl, cache, inputs, args, ledger, clock):
    """The end-to-end metrics, in calibrated seconds (``workloads.Clock``).

    The workload's own measurement repeats for ``--seconds`` on the full
    tier.  The other two run on the tiny tier at the start, at the end,
    and between own repeats at least ``PROBE_INTERVAL_S`` apart, so every
    metric's repeats are spread over the whole run.
    """
    runner = wl.Runner(cache, inputs, args.seed, ledger, clock=clock)
    kinds = runner.passes()
    own_kind = wl.WORKLOADS[args.workload]
    others = [kind for kind in kinds if kind != own_kind]
    results = {kind: [] for kind in kinds}

    def probe(since: float) -> float:
        for kind in others:
            start = time.perf_counter()
            results[kind].append(kinds[kind](wl.PROBE_SIZE))
            while time.perf_counter() - start < PROBE_SHARE * since:
                results[kind].append(kinds[kind](wl.PROBE_SIZE))
        return time.perf_counter()

    own = results[own_kind]
    start = time.perf_counter()
    last_probe = probe(PROBE_INTERVAL_S)
    while len(own) < 2 or time.perf_counter() - start < args.seconds:
        own.append(kinds[own_kind](wl.OWN_SIZE))
        if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            last_probe = probe(time.perf_counter() - last_probe)
    probe(time.perf_counter() - last_probe)
    clock.tick()
    clock.release()

    metrics, samples = {}, []
    for values, count in (
        wl.decompose_metrics(results["warm"], clock.seconds),
        wl.cold_metrics(results["cold"], clock.seconds),
        wl.serve_metrics(results["serve"], inputs.events[wl.PROBE_SIZE],
                         clock.seconds),
    ):
        metrics.update(values)
        samples.append(count)
    return metrics, {"samples": samples, "calibration": clock.summary()}


if __name__ == "__main__":
    sys.exit(main())
