"""Which engine calls the traced run wraps, and the per-layer metrics
it derives from them. Layers are the package modules: `sources`
(wal, generate), `stages` (normalize, partition, apply), `state`
(manifest), `pipelines.ingest` and `pipelines.matview`."""

from __future__ import annotations

import contextlib
import statistics

from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.sources import wal
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState

#: name -> (unit, better); the order is the report order
PER_LAYER = {
    "stages.normalize_cpu_ms": ("ms", "lower"),
    "stages.partition_cpu_ms": ("ms", "lower"),
    "stages.key_hash_cpu_ms": ("ms", "lower"),
    "stages.fold_table_cpu_ms": ("ms", "lower"),
    "stages.run_order_cpu_ms": ("ms", "lower"),
    "stages.parquet_write_cpu_ms": ("ms", "lower"),
    "stages.apply_one_cpu_ms": ("ms", "lower"),
    "stages.fold_ratio": ("ratio", "lower"),
    "stages.resolve_final_cpu_ms": ("ms", "lower"),
    "sources.list_segments_ms": ("ms", "lower"),
    "sources.footer_reads_ms": ("ms", "lower"),
    "sources.backlog_max_segments": ("count", "lower"),
    "sources.generator_lag_max_ms": ("ms", "lower"),
    "state.load_latest_ms": ("ms", "lower"),
    "state.publish_ms": ("ms", "lower"),
    "state.manifest_bytes": ("B", "lower"),
    "state.versions": ("count", "lower"),
    "state.live_files": ("count", "lower"),
    "state.global_runs": ("count", "lower"),
    "state.table_bytes": ("B", "lower"),
    "ingest.apply_tick_ms": ("ms", "lower"),
    "ingest.apply_tick_self_ms": ("ms", "lower"),
    "ingest.apply_tick_driver_cpu_share": ("share", "lower"),
    "ingest.ticks": ("count", "lower"),
    "ingest.events_applied": ("count", "higher"),
    "ingest.commit_conflicts": ("count", "lower"),
    "ingest.compact_s": ("s", "lower"),
    "ingest.compact_bytes_rewritten": ("B", "lower"),
    "ingest.compact_rows_out": ("count", "lower"),
    "ingest.read_conversation_ms": ("ms", "lower"),
    "ingest.read_conversation_files": ("count", "lower"),
    "ingest.read_snapshot_s": ("s", "lower"),
    "ingest.read_snapshot_projected_s": ("s", "lower"),
    "matview.refresh_ms": ("ms", "lower"),
    "matview.refresh_incremental": ("count", "higher"),
    "matview.refresh_full": ("count", "lower"),
    "matview.affected_keys": ("count", "lower"),
    "matview.runs_scanned": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


@contextlib.contextmanager
def instrument(tracer):
    """Wrap each layer's entry points, wherever the engine calls them."""
    def n_paths(args, kwargs):
        return {"paths": len(args[0])}

    wraps = [
        (wal, "list_segments", "sources.list_segments", None),
        # the tick's serial footer reads (one per listed segment)
        (ingest, "_segment_groups", "sources.footer_reads", n_paths),
        (TableState, "load_latest", "state.load_latest", None),
        (TableState, "load_latest_versioned", "state.load_latest", None),
        (TableState, "publish", "state.publish", None),
        (ingest, "apply_tick", "ingest.apply_tick", None),
        (ingest, "compact", "ingest.compact", None),
        (ingest, "read_conversation", "ingest.read_conversation", None),
        (ingest, "_exchange_by_bucket", "ingest.exchange", n_paths),
        (matview, "refresh_matview", "matview.refresh", None),
    ]
    with contextlib.ExitStack() as stack:
        for owner, attr, name, attrs_of in wraps:
            stack.enter_context(tracer.patch(owner, attr, name, attrs_of))
        yield


def _median(xs, scale=1.0) -> float:
    return statistics.median(xs) * scale if xs else 0.0


def per_layer(tracer, rec, kernels: dict, resolve_ms: float, table: dict,
              overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of the traced phase; a layer a workload never
    entered reads 0."""
    def ms(name):
        return _median([s.duration for s in tracer.named(name)], 1e3)

    ticks = tracer.named("ingest.apply_tick")
    refreshes = tracer.named("matview.refresh")
    snaps = tracer.named("ingest.read_snapshot")
    wall = sum(s.duration for s in ticks)
    s, c = rec.samples, rec.counts
    m = {f"stages.{k}_cpu_ms": v for k, v in kernels.items()
         if k != "fold_ratio"}
    m["stages.fold_ratio"] = kernels["fold_ratio"]
    m["stages.resolve_final_cpu_ms"] = resolve_ms
    m.update({
        "sources.list_segments_ms": ms("sources.list_segments"),
        "sources.footer_reads_ms": ms("sources.footer_reads"),
        "sources.backlog_max_segments": c.get("backlog_segments", 0),
        "sources.generator_lag_max_ms": c.get("generator_lag_s", 0.0) * 1e3,
        "state.load_latest_ms": ms("state.load_latest"),
        "state.publish_ms": ms("state.publish"),
        **{f"state.{k}": v for k, v in table.items()},
        "ingest.apply_tick_ms": ms("ingest.apply_tick"),
        "ingest.apply_tick_self_ms": _median(
            [tracer.self_time(t) for t in ticks], 1e3),
        "ingest.apply_tick_driver_cpu_share":
            sum(t.cpu for t in ticks) / wall if wall else 0.0,
        "ingest.ticks": c.get("ticks", 0),
        "ingest.events_applied": c.get("events", 0),
        "ingest.commit_conflicts": sum(
            1 for p in tracer.named("state.publish")
            if p.error == "CommitConflict"),
        "ingest.compact_s": ms("ingest.compact") / 1e3,
        "ingest.compact_bytes_rewritten": _median(s.get("compact_bytes", [])),
        "ingest.compact_rows_out": _median(s.get("compact_rows_out", [])),
        "ingest.read_conversation_ms": ms("ingest.read_conversation"),
        "ingest.read_conversation_files": _median(s.get("lookup_files", [])),
        "ingest.read_snapshot_s": _median(
            [x.duration for x in snaps if "columns" not in x.attrs]),
        "ingest.read_snapshot_projected_s": _median(
            [x.duration for x in snaps if "columns" in x.attrs]),
        "matview.refresh_ms": ms("matview.refresh"),
        "matview.refresh_incremental": c.get("refresh_incremental", 0),
        "matview.refresh_full": c.get("refresh_full", 0),
        "matview.affected_keys": _median(s.get("affected_keys", [])),
        "matview.runs_scanned": _median([
            sum(d.attrs["paths"] for d in tracer.descendants(r)
                if d.name == "ingest.exchange") for r in refreshes]),
        "trace.overhead_pct": overhead_pct,
    })
    missing = set(PER_LAYER) ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metric set mismatch: {missing}")
    return m
