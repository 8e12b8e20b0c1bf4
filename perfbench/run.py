#!/usr/bin/env python3
"""One-core benchmark of the CDC engine: bulk replay and live tail,
each ending with point lookups and scans of its table. Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload bulk_replay --seed 1 \\
        --seconds 10 --trace 0

Prints a JSON line of host facts and sample counts, then, as the last
line of stdout, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
run with `--trace 1`. Inputs, work dirs and the Ray session dir live
under `.perfbench/` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "techtalk_data_pipeline_snowpark_ray"
STATE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("bulk_replay", "live_tail")
#: set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 2
END_TO_END_UNITS = {
    "setup_s": "s", "replay_events_per_s": "1/s", "compact_s": "s",
    "snapshot_read_s": "s", "bytes_per_row": "B",
    "commit_p50_ms": "ms", "commit_p90_ms": "ms",
    "view_p50_ms": "ms", "view_p90_ms": "ms",
    "lookup_p50_ms": "ms", "lookup_p90_ms": "ms",
    "scan_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="input sizes; smoke is for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"perfbench: the engine package {PACKAGE}/ is not in {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers import the package: put it on their path before init
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    from perfbench import host
    try:
        result = bench(args)
    finally:
        import ray
        ray.shutdown()
        host.reap()
    print(json.dumps(result), flush=True)
    return 0


def cache_key(workload: str, size: str, seed: int, phases) -> str:
    """The input cache entry of (workload, size, seed, WAL phases)."""
    return f"{workload}-{size}-s{seed}-" + "-".join(
        f"{p.chunks}x{p.segment_rows}" for p in phases)


def build_inputs(cache, phases, seed: int, expect_phases) -> float:
    """Build the cache entry in a child process (untimed, and outside
    the driver's peak RSS); returns its wall time."""
    t0 = time.perf_counter()
    spec = {"dir": cache.dir, "seed": seed, "expect": list(expect_phases),
            "phases": [dataclasses.asdict(p) for p in phases]}
    proc = subprocess.run([sys.executable, "-m", "perfbench.inputs",
                           json.dumps(spec)], cwd=ROOT)
    if proc.returncode != 0 or not cache.complete:
        raise RuntimeError(f"input build failed (exit {proc.returncode})")
    return time.perf_counter() - t0


def warm_up(work: str, wal_dir: str, i: int) -> None:
    """Worker warm-up: one tiny tick, view refresh, compaction and read
    through the engine, so the measured phase pays no lazy start-up
    (worker imports, Ray Data's executor, remote function export)."""
    from perfbench import workloads as wl
    cfg = wl.engine_config(os.path.join(work, f"warm-{i}"), wal_dir)
    cfg.ensure_dirs()
    wl.ingest.apply_tick(cfg)
    wl.matview.refresh_matview(cfg, wl.VIEW)
    wl.ingest.compact(cfg)
    wl.materialize(wl.ingest.read_snapshot(cfg))
    wl.ingest.read_conversation(cfg, "conv-0000000")


def bench(args) -> dict:
    from perfbench import host, inputs, kernels, layers
    from perfbench import workloads as wl
    from perfbench.tracing import Tracer
    from techtalk_data_pipeline_snowpark_ray.sources.generate import (
        GenSpec, write_wal)

    import ray

    clock = time.perf_counter
    start = clock()
    timeline = {}

    def mark(stage):
        timeline[stage] = round(clock() - start, 3)

    z = wl.SIZES[args.size]
    info = host.facts(ROOT, PACKAGE, args.seed)
    info.update(workload=args.workload, seconds=args.seconds,
                trace=args.trace, size=args.size)
    phases = wl.phases(args.workload, z, args.seconds, bool(args.trace))
    cache = inputs.InputCache(
        os.path.join(STATE_DIR, "cache"),
        cache_key(args.workload, args.size, args.seed, phases))
    if not cache.complete:
        info["input_build_s"] = build_inputs(
            cache, phases, args.seed,
            expect_phases=("all",) if args.workload == "bulk_replay" else ())

    mark("inputs")
    work = os.path.join(STATE_DIR, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    warm_wal = os.path.join(work, "warm-wal")
    write_wal(GenSpec(n_events=2048, n_conversations=64, max_turns=8,
                      seed=args.seed), warm_wal, segment_rows=512)

    setup = []
    repeats = SETUP_REPEATS if args.size == "full" else 1
    for i in range(repeats):
        if i:
            ray.shutdown()
        t0 = clock()
        host.start_ray(ROOT)
        warm_up(work, warm_wal, i)
        setup.append(clock() - t0)

    mark("setup")
    # zipf-drawn, so hot conversations are read most
    run = wl.Run(z, cache, work, inputs.zipf_conv_ids(args.seed + 1, 10_000))
    w = wl.WORKLOADS[args.workload](run)
    t0 = clock()
    w.prepare()
    info["prepare_s"] = clock() - t0

    mark("prepare")
    cpu0 = host.cpu_times()
    rec = wl.Recorder()
    untraced = None
    if args.trace:
        # untraced first, then the same workload traced: the ratio of
        # their commit latencies is the tracing overhead
        untraced = rec
        w.main(untraced, args.seconds)
        rec = wl.Recorder()
        run.tracer = Tracer()
        with layers.instrument(run.tracer):
            w.main(rec, args.seconds)
            table = wl.table_stats(w.cfg)
            runs = kernels.bucket_runs(w.cfg.table_dir)
            rb = w.read_back(rec)
    else:
        w.main(rec, args.seconds)
        rss = [host.tree_peak_rss_mb()]
        rb = w.read_back(rec)
        rss.append(host.tree_peak_rss_mb())

    mark("measure")
    info["steal_share"] = host.steal_share(cpu0, host.cpu_times())
    # oracle-side work starts here: nothing below is measured
    expected, want = w.final_expected()
    wl.verify(rec, rb, expected, want)
    mark("verify")
    attempted = rec.attempted + (untraced.attempted if untraced else 0)
    failed = rec.failed + (untraced.failed if untraced else 0)

    if args.trace:
        errs = run.tracer.nesting_errors()
        if errs:
            raise RuntimeError("trace spans do not nest: " + "; ".join(errs[:5]))
        run.tracer.dump(os.path.join(STATE_DIR, f"trace-{args.workload}"
                                     f"-s{args.seed}.json"))
        overhead = (statistics.median(rec.samples["commit_s"])
                    / statistics.median(untraced.samples["commit_s"]) - 1) * 100
        seg_paths = [cache.segment_path(n)
                     for names in cache.segments().values() for n in names]
        k = kernels.ingest_kernels(sorted(seg_paths), wl.NUM_BUCKETS, work)
        values = layers.per_layer(run.tracer, rec, k,
                                  kernels.resolve_kernel(runs), table,
                                  overhead)
        metrics = {n: {"value": float(values[n]), "unit": u}
                   for n, (u, _) in layers.PER_LAYER.items()}
    else:
        values = end_to_end(rec, setup, rss)
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}
    info["samples"] = {k: len(v) for k, v in rec.samples.items()}
    info["counts"] = rec.counts
    info["setup_samples_s"] = setup
    mark("report")
    info["timeline_s"] = timeline
    print(json.dumps({"perfbench": info}), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def end_to_end(rec, setup: list[float], rss: list[float]) -> dict:
    import numpy as np

    def need(name):
        xs = rec.samples.get(name)
        if not xs:
            raise RuntimeError(f"no successful {name} samples")
        return xs

    def pct_ms(name, q):
        return float(np.percentile(need(name), q)) * 1e3

    if not rec.counts.get("tick_s"):
        raise RuntimeError("no tick committed")
    return {
        "setup_s": statistics.median(setup),
        "replay_events_per_s": rec.counts["events"] / rec.counts["tick_s"],
        "compact_s": statistics.median(need("compact_s")),
        "snapshot_read_s": statistics.median(need("snapshot_read_s")),
        "bytes_per_row": need("bytes_per_row")[-1],
        "commit_p50_ms": pct_ms("commit_s", 50),
        "commit_p90_ms": pct_ms("commit_s", 90),
        "view_p50_ms": pct_ms("view_s", 50),
        "view_p90_ms": pct_ms("view_s", 90),
        "lookup_p50_ms": pct_ms("lookup_s", 50),
        "lookup_p90_ms": pct_ms("lookup_s", 90),
        "scan_s": statistics.median(need("scan_s")),
        "peak_rss_mb": max(rss),
    }


if __name__ == "__main__":
    sys.exit(main())
