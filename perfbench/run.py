"""Repository benchmark: the paper's pipelines end to end, and a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload fig_query --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``fig_query``,
``sample_durable``, ``prequential_knn``, ``sharded_ingest``. Each is a closed
loop in this one process, with no extra threads or processes, repeating
identical passes over a fixed input size (every pass is built from
``--seed``) until ``--seconds`` of pipeline time are measured, after one
small warm-up pass. At least three passes run.

Every end-to-end time is in *reference seconds*. On shared cores other
tenants slow this process by up to 1.7x, in stretches from milliseconds to
minutes. So between segments of each pass (a block and its query round, a
few dozen to a thousand stream points) the benchmark times a fixed
calibration kernel (``workloads.probe_ns``, about 0.2 ms), at least 10 ms
apart and outside every segment, and divides the pass's times by the
kernel's mean slowdown against ``workloads.PROBE_REF_NS``; set-ups are
scaled by probes taken just before and after them. The kernel runs none of the
program, so a change to the program moves these figures exactly as it
moves wall time. ``points_per_s`` is one pass's points over the median
scaled pass time; ``latency_p50_us`` / ``latency_p99_us`` are percentiles
over the calls' median scaled latencies across the identical passes;
``setup_s`` is the median scaled set-up time. The wall-clock rate and the
run's median slowdown are recorded in the run context
(``points_per_s_wall``, ``slowdown``). Per-layer times are wall time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first measures
the same workload untraced, then again with spans at every layer boundary,
and reports the per-layer metrics plus the tracing overhead; the spans are
written to ``perfbench/_work/traces/``. End-to-end metrics always come from
untraced passes. Every pass's outputs are checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` with
``error_rate = failed / attempted``. Nonzero exit means the program could
not be imported or a check could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"
WORKLOAD_NAMES = ("fig_query", "sample_durable", "prequential_knn", "sharded_ingest")
MIN_PASSES = 3
#: Calibration probes run just before and just after each pass set-up.
SETUP_PROBES = 10

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced run) and their units. A metric of a layer the
#: workload does not exercise reads 0.
PER_LAYER = {
    "streams.generate_us_per_pt": "us/pt",
    "streams.csv_load_us_per_pt": "us/pt",
    "streams.csv_save_ms": "ms",
    "core.alg31.offer_many_us_per_pt": "us/pt",
    "core.unbiased.offer_many_us_per_pt": "us/pt",
    "core.alg21.offer_many_us_per_pt": "us/pt",
    "core.offer_us": "us",
    "core.insert_ratio": "ratio",
    "core.resident_columns_us": "us",
    "core.columns_rebuilds": "count",
    "queries.estimate_self_us": "us",
    "queries.oracle_observe_us_per_pt": "us/pt",
    "queries.truth_us": "us",
    "persist.offer_many_self_us_per_pt": "us/pt",
    "persist.checkpoint_ms": "ms",
    "persist.checkpoints": "count",
    "persist.wal_bytes": "bytes",
    "persist.ckpt_bytes": "bytes",
    "persist.records_replayed": "count",
    "persist.recover_s": "s",
    "persist.journal_bytes_per_point": "bytes/point",
    "shard.partition_us_per_pt": "us/pt",
    "shard.offer_many_self_us_per_pt": "us/pt",
    "shard.resident_columns_us": "us",
    "shard.fold_ms": "ms",
    "mining.predict_us": "us",
    "mining.observe_self_us": "us",
    "streams.self_share": "ratio",
    "core.self_share": "ratio",
    "shard.self_share": "ratio",
    "persist.self_share": "ratio",
    "queries.self_share": "ratio",
    "mining.self_share": "ratio",
    "bench.self_share": "ratio",
    "trace.points_per_s_untraced": "points/s",
    "trace.points_per_s_traced": "points/s",
    "trace.overhead_pct": "%",
}

LAYERS = ("streams", "core", "shard", "persist", "queries", "mining")

def import_program():
    """Put the checkout's ``src`` on the path and import the workloads."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    import workloads

    return workloads


def measure(wl, workloads, seed: int, seconds: float, tracer, checks,
            workdir: Path, min_passes: int = MIN_PASSES):
    """Repeat identical passes until ``seconds`` of pipeline time are measured.

    Every pass is built from the same seed, so pass ``k``'s ``i``-th call
    does the same work as every other pass's ``i``-th. Times are returned
    in reference seconds (see the module docstring).
    """
    import numpy as np

    setups: List[float] = []
    pass_times: List[float] = []
    latencies = []
    slowdowns: List[float] = []
    stats: Dict[str, List[float]] = defaultdict(list)
    timed = 0.0
    run = tracer.fn(wl.run, "bench.pass")
    while len(pass_times) < min_passes or timed < seconds:
        passdir = workdir / f"pass{len(pass_times)}"
        passdir.mkdir(parents=True)
        gc.collect()
        probes = [workloads.probe_ns() for _ in range(SETUP_PROBES)]
        start = perf_counter()
        state = wl.setup(np.random.SeedSequence(seed), passdir)
        setup_s = perf_counter() - start
        probes += [workloads.probe_ns() for _ in range(SETUP_PROBES)]
        setups.append(setup_s / (np.mean(probes) / workloads.PROBE_REF_NS))
        start = perf_counter()
        rec = workloads.PassRecord()
        run(state, tracer, rec, checks)
        rec.lap()
        timed += perf_counter() - start
        slowdowns.append(float(np.mean(rec.slowdowns())))
        pass_time, pass_latencies = rec.scaled()
        pass_times.append(pass_time)
        latencies.append(pass_latencies)
        for key, value in wl.check(state, checks).items():
            stats[key].append(float(value))
        del state
        shutil.rmtree(passdir)
    return {
        "setups": setups,
        "passes": len(pass_times),
        "points": len(pass_times) * wl.points,
        "timed_s": timed,
        "points_per_s": wl.points / float(np.median(pass_times)),
        # Per call, the median over the identical passes.
        "latencies_us": np.median(np.array(latencies), axis=0),
        "slowdown": float(np.median(slowdowns)),
        "stats": {k: float(np.median(v)) for k, v in stats.items()},
    }


def end_to_end(m: Dict[str, Any]) -> Dict[str, float]:
    import numpy as np

    return {
        "setup_s": float(np.median(m["setups"])),
        "points_per_s": m["points_per_s"],
        "latency_p50_us": float(np.percentile(m["latencies_us"], 50)),
        "latency_p99_us": float(np.percentile(m["latencies_us"], 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, traced: Dict[str, Any], untraced: Dict[str, Any],
              summary: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        wl.layer_metrics(summary, traced["points"], traced["passes"], traced["stats"])
    )
    wall = summary["bench.pass"]["wall_ns"]
    for layer in LAYERS + ("bench",):
        self_ns = sum(
            row["self_ns"]
            for name, row in summary.items()
            if name.split(".", 1)[0] == layer
        )
        metrics[f"{layer}.self_share"] = self_ns / wall
    pps_untraced = untraced["points_per_s"]
    pps_traced = traced["points_per_s"]
    metrics["trace.points_per_s_untraced"] = pps_untraced
    metrics["trace.points_per_s_traced"] = pps_traced
    metrics["trace.overhead_pct"] = (pps_untraced / pps_traced - 1.0) * 100.0
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return metrics


def run_one(args) -> int:
    workloads = import_program()
    import numpy as np
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](points=args.points)
    checks = workloads.Checks()
    workdir = WORKDIR / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        # Warm-up: one small pass so lazy imports and first-call costs
        # land outside the measured passes.
        warm = type(wl)(points=max(wl.points // 10, 1))
        measure(warm, workloads, args.seed, 0.0, Tracer(False), checks,
                workdir / "warm", 1)
        untraced = measure(wl, workloads, args.seed, args.seconds, Tracer(False),
                           checks, workdir / "untraced")
        if args.trace:
            tracer = Tracer(True)
            traced = measure(wl, workloads, args.seed, args.seconds, tracer, checks,
                             workdir / "traced")
            summary = tracer.summary()
            metrics = per_layer(wl, traced, untraced, summary)
            units = PER_LAYER
            tracer.dump(WORKDIR / "traces" / f"{wl.name}-seed{args.seed}.json.gz")
        else:
            metrics = end_to_end(untraced)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "points_per_pass": wl.points,
        "passes": untraced["passes"],
        "points": untraced["points"],
        "points_per_s_wall": untraced["points"] / untraced["timed_s"],
        "slowdown": untraced["slowdown"],
        "latency_op": wl.latency_op,
        "latency_samples": len(untraced["latencies_us"]),
        "config": wl.config(),
        "error_rate": checks.failed / max(checks.attempted, 1),
    }
    for message in checks.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]}")
    print(f"{wl.name} error_rate = {context['error_rate']:.6g} ratio "
          f"({checks.failed}/{checks.attempted} checks failed)")
    print("context " + json.dumps(context))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    attempted = failed = 0
    merged: Dict[str, Any] = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            merged[f"{name}.{key}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=None,
                        help="override the stream points per pass of one "
                        "workload (smoke tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
