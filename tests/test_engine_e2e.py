"""End-to-end engine tests (FIXTURES.md F2/F3/F5 'tiny'): deterministic
WAL replay through the full Ray pipeline vs the dict oracle, in one and
many ticks, with kill/resume, duplicate re-delivery, schema evolution
and compaction."""

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, generate_chunks, write_wal)
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.stages.normalize import normalize_batch
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState
from techtalk_data_pipeline_snowpark_ray.state.oracle import apply_events_oracle

PAYLOAD = schemas.payload_cols(3)

TINY = GenSpec(n_events=2000, n_conversations=50, max_turns=10, zipf_s=1.2,
               ooo_window=16, dup_fraction=0.04, partial_update_fraction=0.25,
               schema_add_at=600, schema_widen_at=1400, seed=42)


def wal_oracle(wal_dir: str) -> pd.DataFrame:
    tables = [normalize_batch(pq.read_table(p), schemas.table_schema(3),
                              keep_extra=("lsn", "op"))
              for p in sorted(glob.glob(os.path.join(wal_dir, "*.parquet")))]
    return apply_events_oracle(pa.concat_tables(tables), PAYLOAD)


def nulls_as_none(df: pd.DataFrame) -> pd.DataFrame:
    """`df` with every null (None, NaN, pd.NA) as None, so that frames
    built by different paths compare their nulls position by position
    without pandas' mixed-null-marker ambiguity."""
    return df.astype(object).where(df.notna(), None)


def assert_matches_oracle(cfg):
    snap = ingest.snapshot_to_pandas(cfg)
    oracle = wal_oracle(cfg.wal_dir)
    assert len(snap) == len(oracle)
    pd.testing.assert_frame_equal(
        snap.reset_index(drop=True),
        oracle.astype({c: snap[c].dtype for c in snap.columns}),
        check_dtype=False,
    )


def test_single_tick_replay_matches_oracle(tmp_engine):
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    res = ingest.apply_tick(tmp_engine)
    assert res.events_applied >= TINY.n_events  # includes duplicates
    assert_matches_oracle(tmp_engine)
    # per-turn text equality under stable (conv_id, turn_idx) ordering
    snap = ingest.snapshot_to_pandas(tmp_engine)
    keys = list(map(tuple, snap[["conv_id", "turn_idx"]].to_numpy()))
    assert keys == sorted(keys)


def test_multi_tick_incremental_replay(tmp_engine):
    chunks = list(generate_chunks(TINY))
    w = WalWriter(tmp_engine.wal_dir, segment_rows=300, reorder_slack=64)
    mid = len(chunks) // 2 or 1
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()
    r1 = ingest.apply_tick(tmp_engine)
    assert r1 is not None
    for t, v in chunks[mid:]:
        w.append(t, v)
    w.close()
    r2 = ingest.apply_tick(tmp_engine)
    assert r2 is not None and r2.manifest.committed_seq > r1.manifest.committed_seq
    assert_matches_oracle(tmp_engine)


def test_idle_tick_is_noop_and_resume_offsets(tmp_engine):
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    r1 = ingest.apply_tick(tmp_engine)
    assert ingest.apply_tick(tmp_engine) is None  # nothing new -> no-op
    state = TableState(tmp_engine.table_dir)
    assert state.load_latest().committed_seq == r1.manifest.committed_seq


def test_exactly_once_duplicate_segment_replay(tmp_engine):
    """Re-submitting already-consumed WAL content must not change the
    table (the 'rollback leaves stream unconsumed / commit consumes
    exactly once' rule, SnowflakeUtils.scala:68-81)."""
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine)
    before = ingest.snapshot_to_pandas(tmp_engine)
    # same files, same seqs -> tail (seq > committed) sees nothing
    assert ingest.apply_tick(tmp_engine) is None
    after = ingest.snapshot_to_pandas(tmp_engine)
    pd.testing.assert_frame_equal(before, after)


def test_crash_before_commit_is_invisible_and_replay_safe(tmp_engine, monkeypatch):
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    # crash INSIDE the commit step: runs written, manifest not published
    def boom(self, manifest, **kw):
        raise RuntimeError("crash before manifest publish")
    monkeypatch.setattr(TableState, "publish", boom)
    with pytest.raises(RuntimeError, match="crash before"):
        ingest.apply_tick(tmp_engine)
    monkeypatch.undo()
    state = TableState(tmp_engine.table_dir)
    assert state.latest_version() is None            # nothing visible
    orphans = [f for f in os.listdir(state.runs_dir) if f.endswith(".parquet")]
    assert orphans                                    # uncommitted junk exists
    # resume: full replay applies cleanly and matches oracle
    res = ingest.apply_tick(tmp_engine)
    assert res is not None
    assert_matches_oracle(tmp_engine)
    # orphan runs from the aborted txn are GC-able and unreferenced
    removed = state.gc_orphan_runs(keep_versions=2)
    assert set(removed).issuperset(set(orphans) - set(state.load_latest().run_files()))
    assert_matches_oracle(tmp_engine)


def test_schema_evolution_add_and_widen(tmp_engine):
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine)
    snap = ingest.snapshot_to_pandas(tmp_engine)
    assert "model" in snap.columns
    # rows whose last write predates v2 have NULL model
    assert snap["model"].isna().any() and snap["model"].notna().any()
    arrow = ingest.read_snapshot(tmp_engine).schema()
    assert dict(zip(arrow.names, arrow.types))["turn_idx"] == pa.int64()


def test_compaction_single_run_per_bucket_and_equal_state(tmp_engine):
    chunks = list(generate_chunks(TINY))
    w = WalWriter(tmp_engine.wal_dir, segment_rows=300, reorder_slack=64)
    for i, (t, v) in enumerate(chunks):
        w.append(t, v)
    w.close()
    ingest.apply_tick(tmp_engine)
    before = ingest.snapshot_to_pandas(tmp_engine)
    m = ingest.compact(tmp_engine)
    assert all(len(runs) == 1 for runs in m.buckets.values())
    after = ingest.snapshot_to_pandas(tmp_engine)
    pd.testing.assert_frame_equal(before, after)
    # compacted runs carry no tombstones
    state = TableState(tmp_engine.table_dir)
    for p in state.run_paths(m):
        t = pq.read_table(p, columns=["op"])
        assert schemas.OP_DELETE not in set(t["op"].to_pylist())
    # post-compaction ticks still work
    spec2 = GenSpec(n_events=500, n_conversations=50, seed=43)
    w2 = WalWriter(tmp_engine.wal_dir, segment_rows=300)
    base = 10_000_000
    for t, v in generate_chunks(spec2):
        t = t.set_column(t.schema.get_field_index("lsn"), "lsn",
                         pa.compute.add(t["lsn"], base))
        w2.append(t, v)
    w2.close()
    assert ingest.apply_tick(tmp_engine) is not None


def test_lineage_and_metrics(tmp_engine):
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine)
    ingest.compact(tmp_engine)
    state = TableState(tmp_engine.table_dir)
    lineage = state.lineage()
    assert [m.version for m in lineage] == [1, 0]
    tick = lineage[1]
    assert tick.metrics["events_applied"] >= TINY.n_events
    assert tick.metrics["lag"] == 0
    assert tick.wal_consumed  # consumed segments recorded for audit


def test_run_loop_bounded_replay(tmp_engine):
    chunks = list(generate_chunks(TINY))
    w = WalWriter(tmp_engine.wal_dir, segment_rows=300, reorder_slack=64)
    for t, v in chunks[: len(chunks) // 2]:
        w.append(t, v)
    w.flush()
    r = ingest.run_loop(tmp_engine, stop_when_idle=True)
    assert len(r) == 1
    for t, v in chunks[len(chunks) // 2:]:
        w.append(t, v)
    w.close()
    r2 = ingest.run_loop(tmp_engine, stop_when_idle=True, compact_every=1)
    assert len(r2) == 1
    assert_matches_oracle(tmp_engine)


def test_direct_mode_full_replay_and_compaction(tmp_path):
    """LSM-style direct apply: multi-tick replay, exactly-once idle
    tick, compaction folding global runs into per-bucket bases -- all
    matching the oracle."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    cfg = EngineConfig(table_dir=str(tmp_path / "t"), wal_dir=str(tmp_path / "w"),
                       num_buckets=4, apply_mode="direct")
    cfg.ensure_dirs()
    chunks = list(generate_chunks(TINY))
    w = WalWriter(cfg.wal_dir, segment_rows=300, reorder_slack=64)
    mid = len(chunks) // 2 or 1
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()
    r1 = ingest.apply_tick(cfg)
    assert r1 is not None and r1.manifest.global_runs
    for t, v in chunks[mid:]:
        w.append(t, v)
    w.close()
    r2 = ingest.apply_tick(cfg)
    assert r2 is not None
    assert ingest.apply_tick(cfg) is None          # exactly-once no-op
    assert_matches_oracle(cfg)
    m = ingest.compact(cfg)
    assert m.global_runs == []                     # deltas folded away
    assert all(len(v) == 1 for v in m.buckets.values())
    assert_matches_oracle(cfg)


def test_dual_sink_atomic_commit(tmp_path, monkeypatch):
    """One consumed delta feeds the lake table AND the derived
    conv_stats sink in one atomic manifest publish (SampleStream
    parity: one stream, two sinks, one transaction)."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4,
                       derived_views=("conv_stats", "role_stats"))
    cfg.ensure_dirs()
    write_wal(TINY, cfg.wal_dir, segment_rows=500)
    # crash before publish: NEITHER sink becomes visible
    def boom(self, manifest, **kw):
        raise RuntimeError("crash")
    monkeypatch.setattr(TableState, "publish", boom)
    with pytest.raises(RuntimeError):
        ingest.apply_tick(cfg)
    monkeypatch.undo()
    state = TableState(cfg.table_dir)
    assert state.latest_version() is None
    assert ingest.read_derived(cfg).count() == 0
    # successful tick: BOTH sinks visible from the same manifest
    ingest.apply_tick(cfg)
    m = state.load_latest()
    assert m.derived["conv_stats"]
    stats = ingest.read_derived(cfg).to_pandas().sort_values(
        "conv_id", ignore_index=True)
    # derived counters == per-conv event counts of the whole WAL
    events = pa.concat_tables(
        [normalize_batch(pq.read_table(p), schemas.table_schema(3),
                         keep_extra=("lsn", "op"))
         for p in sorted(glob.glob(os.path.join(cfg.wal_dir, "*.parquet")))])
    expect = (events.to_pandas().groupby("conv_id", as_index=False)
              .agg(n_events=("lsn", "size"), max_lsn=("lsn", "max")))
    pd.testing.assert_frame_equal(
        stats, expect.sort_values("conv_id", ignore_index=True),
        check_dtype=False)
    # the SECOND named view rides the same transaction (registry):
    # per-role counts over non-delete events
    assert m.derived["role_stats"]
    roles = ingest.read_derived(cfg, "role_stats").to_pandas() \
        .sort_values("role", ignore_index=True)
    edf = events.to_pandas()
    expect_roles = (edf[(edf["op"] != "delete") & edf["role"].notna()]
                    .groupby("role", as_index=False)
                    .agg(n_events=("lsn", "size"), max_lsn=("lsn", "max")))
    pd.testing.assert_frame_equal(
        roles, expect_roles.sort_values("role", ignore_index=True),
        check_dtype=False)
    # compaction folds the partials and preserves totals in BOTH views
    ingest.compact(cfg)
    m2 = TableState(cfg.table_dir).load_latest()
    assert len(m2.derived["conv_stats"]) == 1
    assert len(m2.derived["role_stats"]) == 1
    stats2 = ingest.read_derived(cfg).to_pandas().sort_values(
        "conv_id", ignore_index=True)
    pd.testing.assert_frame_equal(stats2, stats)
    roles2 = ingest.read_derived(cfg, "role_stats").to_pandas() \
        .sort_values("role", ignore_index=True)
    pd.testing.assert_frame_equal(roles2, roles)


# -- apply-time conditional ops (controls) + expression merge keys ---------

def wal_oracle_with_controls(wal_dir: str, controls) -> pd.DataFrame:
    tables = [normalize_batch(pq.read_table(p), schemas.table_schema(3),
                              keep_extra=("lsn", "op"))
              for p in sorted(glob.glob(os.path.join(wal_dir, "*.parquet")))]
    return apply_events_oracle(pa.concat_tables(tables), PAYLOAD,
                               control_ops=controls)


def _tiny_controls():
    from techtalk_data_pipeline_snowpark_ray.stages.controls import ControlOp
    # C1 rewrites tool for current-'assistant' rows mid-stream; C2 later
    # deletes exactly the rows C1 touched -- state-at-position semantics
    # with partial updates crossing both barriers (TINY has 25% partials)
    return [
        ControlOp(lsn=700, kind="update",
                  predicate={"col": "role", "fn": "eq", "value": "assistant"},
                  assignments={"tool": {"fn": "concat", "col": "tool",
                                        "value": "-X"}}),
        ControlOp(lsn=1400, kind="delete",
                  predicate={"col": "tool", "fn": "contains", "value": "-X"}),
    ]


def test_conditional_controls_match_sequential_oracle(tmp_engine):
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ops = _tiny_controls()
    ingest.apply_tick(tmp_engine, control_ops=ops)
    snap = ingest.snapshot_to_pandas(tmp_engine)
    oracle = wal_oracle_with_controls(tmp_engine.wal_dir, ops)
    assert len(snap) == len(oracle)
    pd.testing.assert_frame_equal(
        nulls_as_none(snap.reset_index(drop=True)),
        nulls_as_none(oracle.astype({c: snap[c].dtype
                                     for c in snap.columns})),
        check_dtype=False)
    # compaction absorbs covered ops: same state, ops gone
    ingest.compact(tmp_engine)
    snap2 = ingest.snapshot_to_pandas(tmp_engine)
    pd.testing.assert_frame_equal(snap, snap2, check_dtype=False)
    assert TableState(tmp_engine.table_dir).load_latest().control_ops == []


def test_conditional_controls_direct_mode_and_future_op(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    from techtalk_data_pipeline_snowpark_ray.stages.controls import ControlOp
    cfg = EngineConfig(table_dir=str(tmp_path / "t"), wal_dir=str(tmp_path / "w"),
                       num_buckets=4, apply_mode="direct")
    cfg.ensure_dirs()
    write_wal(TINY, cfg.wal_dir, segment_rows=500)
    ops = _tiny_controls()
    future = ControlOp(lsn=10_000_000, kind="delete",
                       predicate={"col": "role", "fn": "eq", "value": "tool"})
    ingest.apply_tick(cfg, control_ops=ops + [future])
    # the future-dated op applies to whatever state exists when the
    # snapshot is read (all events precede it here)
    snap = ingest.snapshot_to_pandas(cfg)
    oracle = wal_oracle_with_controls(cfg.wal_dir, ops + [future])
    assert len(snap) == len(oracle)
    pd.testing.assert_frame_equal(
        nulls_as_none(snap.reset_index(drop=True)),
        nulls_as_none(oracle.astype({c: snap[c].dtype
                                     for c in snap.columns})),
        check_dtype=False)
    # compaction absorbs only covered ops; the future op stays pending
    ingest.compact(cfg)
    left = TableState(cfg.table_dir).load_latest().control_ops
    assert [o["lsn"] for o in left] == [10_000_000]
    snap2 = ingest.snapshot_to_pandas(cfg)
    pd.testing.assert_frame_equal(snap, snap2, check_dtype=False)


def test_control_before_watermark_rejected(tmp_engine):
    from techtalk_data_pipeline_snowpark_ray.stages.controls import ControlOp
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine)
    stale = ControlOp(lsn=5, kind="delete",
                      predicate={"col": "role", "fn": "eq", "value": "user"})
    with pytest.raises(ValueError, match="committed_lsn"):
        ingest.apply_tick(tmp_engine, control_ops=[stale])


def test_prefix_key_extractor_merges_key_space(tmp_engine):
    import pyarrow.compute as pc
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)

    def extractor(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("conv_id")
        return t.set_column(i, "conv_id",
                            pc.utf8_slice_codeunits(t["conv_id"], 0, 6))

    tmp_engine.extras["key_extractor"] = extractor
    ingest.apply_tick(tmp_engine)
    snap = ingest.snapshot_to_pandas(tmp_engine)
    # oracle over the SAME extracted key space
    tables = [normalize_batch(pq.read_table(p), schemas.table_schema(3),
                              keep_extra=("lsn", "op"))
              for p in sorted(glob.glob(os.path.join(tmp_engine.wal_dir, "*.parquet")))]
    ev = extractor(pa.concat_tables(tables))
    oracle = apply_events_oracle(ev, PAYLOAD)
    assert len(snap) == len(oracle)
    assert snap["conv_id"].str.len().max() <= 6
    assert snap["conv_id"].nunique() < 50   # key space actually merged
    pd.testing.assert_frame_equal(
        snap.reset_index(drop=True),
        oracle.astype({c: snap[c].dtype for c in snap.columns}),
        check_dtype=False)


def test_run_loop_gc_sweeps_orphans(tmp_engine):
    chunks = list(generate_chunks(TINY))
    w = WalWriter(tmp_engine.wal_dir, segment_rows=250)
    for t, sv in chunks:
        w.append(t, sv)
    w.close()
    ingest.run_loop(tmp_engine, stop_when_idle=True, compact_every=1)
    state = TableState(tmp_engine.table_dir)
    latest = state.latest_version()
    referenced = set()
    v = latest
    for _ in range(tmp_engine.gc_keep_versions):
        if v is None:
            break
        m = state.load(v)
        referenced.update(m.run_files())
        v = m.parent
    on_disk = {f for f in os.listdir(state.runs_dir) if f.endswith(".parquet")}
    assert on_disk == referenced          # nothing unreferenced survives
    assert_matches_oracle(tmp_engine)     # and the data is still right


def test_resumable_partitioned_sink(tmp_path):
    """write_partitioned: atomic per-bucket commit, resume skips
    complete buckets, readback equals input."""
    import shutil

    import numpy as np
    import ray.data
    from techtalk_data_pipeline_snowpark_ray.pipelines import sinks

    df = pd.DataFrame({"k": np.arange(500, dtype=np.int64),
                       "v": np.arange(500, dtype=np.int64) * 3})
    out = str(tmp_path / "sink")
    ds = ray.data.from_pandas([df.iloc[:250], df.iloc[250:]])
    first = sinks.write_partitioned(ds, out, key="k", num_buckets=8)
    assert sum(first.values()) == 500 and len(first) == 8
    back = sinks.read_partitioned(out).to_pandas()
    pd.testing.assert_frame_equal(
        back.sort_values("k", ignore_index=True), df)
    # kill two buckets (one fully, one mid-write: data present, no marker)
    shutil.rmtree(out + "/bucket=00003")
    (tmp_path / "sink" / "bucket=00005" / "_SUCCESS").unlink()
    second = sinks.write_partitioned(ds, out, key="k", num_buckets=8)
    assert set(second) == {3, 5}            # only the incomplete buckets
    assert second[3] == first[3] and second[5] == first[5]
    back2 = sinks.read_partitioned(out).to_pandas()
    # the unmarked bucket re-writes the same deterministic file names
    # (atomic overwrite), so readback equals the input with no
    # duplicated rows from the partial attempt
    pd.testing.assert_frame_equal(
        back2.sort_values("k", ignore_index=True), df)


def test_time_travel_read_snapshot_as_of(tmp_engine):
    """Reading an older manifest version reproduces exactly the state
    that version committed, even after later ticks and compaction."""
    chunks = list(generate_chunks(TINY))
    w = WalWriter(tmp_engine.wal_dir, segment_rows=300, reorder_slack=64)
    mid = len(chunks) // 2 or 1
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()
    r1 = ingest.apply_tick(tmp_engine)
    v1 = r1.manifest.version
    snap_v1 = ingest.read_snapshot(tmp_engine).to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    for t, v in chunks[mid:]:
        w.append(t, v)
    w.close()
    r2 = ingest.apply_tick(tmp_engine)
    assert r2.manifest.version > v1
    # time travel back to v1: identical to what v1's reader saw
    back = ingest.read_snapshot_as_of(tmp_engine, v1).to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(back[snap_v1.columns], snap_v1)
    # latest still matches the full oracle
    assert_matches_oracle(tmp_engine)


def test_read_delta_between_versions(tmp_engine):
    """CDC-out: the delta between two manifest versions is exactly the
    change records committed by the ticks in that window."""
    chunks = list(generate_chunks(TINY))
    w = WalWriter(tmp_engine.wal_dir, segment_rows=300, reorder_slack=64)
    mid = len(chunks) // 2 or 1
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()
    r1 = ingest.apply_tick(tmp_engine)
    for t, v in chunks[mid:]:
        w.append(t, v)
    w.close()
    r2 = ingest.apply_tick(tmp_engine)
    delta = ingest.read_delta(tmp_engine, r1.manifest.version,
                              r2.manifest.version).to_pandas()
    assert len(delta) > 0
    # every delta record postdates tick 1's committed lsn watermark...
    # (collapsed runs keep the LATEST lsn per key seen in the tick)
    assert delta["lsn"].min() > -1
    # applying v1's snapshot + the delta fold reproduces v2's snapshot
    import pandas as _pd
    v1 = ingest.read_snapshot_as_of(tmp_engine, r1.manifest.version,
                                    final_only=False).to_pandas()
    from techtalk_data_pipeline_snowpark_ray.stages.apply import resolve_final
    both = _pd.concat([v1, delta[v1.columns]], ignore_index=True)
    refolded = resolve_final(both, PAYLOAD)
    final = ingest.snapshot_to_pandas(tmp_engine)
    keys = ["conv_id", "turn_idx"]
    refolded = refolded[final.columns].sort_values(keys, kind="stable",
                                                   ignore_index=True)
    _pd.testing.assert_frame_equal(nulls_as_none(refolded),
                                   nulls_as_none(final), check_dtype=False)
    # a window spanning a compaction is rejected
    ingest.compact(tmp_engine)
    state = TableState(tmp_engine.table_dir)
    with pytest.raises(ValueError, match="compaction"):
        ingest.read_delta(tmp_engine, r1.manifest.version,
                          state.latest_version())


def test_live_writer_concurrent_with_run_loop(tmp_path):
    """A WAL writer publishing segments WHILE run_loop ticks must not
    lose or double-count anything: the final table matches the oracle
    and the additive conv_stats sink counts every event exactly once
    (the segment-listing race would double-count here)."""
    import threading
    import time as _time

    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig

    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"),
                       num_buckets=4, apply_mode="direct",
                       derived_views=("conv_stats",))
    cfg.ensure_dirs()
    chunks = list(generate_chunks(TINY))

    def writer():
        w = WalWriter(cfg.wal_dir, segment_rows=150, reorder_slack=64)
        for t, v in chunks:
            w.append(t, v)
            w.flush()
            _time.sleep(0.05)      # interleave with ticks
        w.close()

    th = threading.Thread(target=writer)
    th.start()
    results = []
    while th.is_alive() or True:
        res = ingest.apply_tick(cfg)
        if res is not None:
            results.append(res)
        elif not th.is_alive():
            break
        else:
            _time.sleep(0.02)
    th.join()
    assert len(results) >= 2          # genuinely interleaved ticks
    assert_matches_oracle(cfg)
    # additive sink: exactly-once counting across racing ticks
    stats = ingest.read_derived(cfg).to_pandas()
    events = pa.concat_tables(
        [normalize_batch(pq.read_table(p), schemas.table_schema(3),
                         keep_extra=("lsn", "op"))
         for p in sorted(glob.glob(os.path.join(cfg.wal_dir, "*.parquet")))])
    expect = (events.to_pandas().groupby("conv_id", as_index=False)
              .agg(n_events=("lsn", "size"), max_lsn=("lsn", "max")))
    pd.testing.assert_frame_equal(
        stats.sort_values("conv_id", ignore_index=True),
        expect.sort_values("conv_id", ignore_index=True), check_dtype=False)


def test_gc_sweeps_stale_tmp_files(tmp_engine):
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine)
    state = TableState(tmp_engine.table_dir)
    stale = os.path.join(state.runs_dir, "delta-xdead.parquet.tmp-beef1234")
    with open(stale, "w") as f:
        f.write("partial write from a crashed task")
    removed = state.gc_orphan_runs(keep_versions=2)
    assert os.path.basename(stale) in removed
    assert not os.path.exists(stale)
    assert_matches_oracle(tmp_engine)


def test_snapshot_diff_across_compaction(tmp_engine):
    """snapshot_diff labels added/removed/changed keys between two
    versions, comparing RESOLVED states (valid across compaction)."""
    chunks = list(generate_chunks(TINY))
    w = WalWriter(tmp_engine.wal_dir, segment_rows=300, reorder_slack=64)
    mid = len(chunks) // 2 or 1
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()
    r1 = ingest.apply_tick(tmp_engine)
    v1 = r1.manifest.version
    s1 = ingest.snapshot_to_pandas(tmp_engine)
    for t, v in chunks[mid:]:
        w.append(t, v)
    w.close()
    ingest.apply_tick(tmp_engine)
    ingest.compact(tmp_engine)            # diff must survive compaction
    s2 = ingest.snapshot_to_pandas(tmp_engine)
    got = ingest.snapshot_diff(tmp_engine, v1).to_pandas()
    keys = ["conv_id", "turn_idx"]
    payload = [c for c in s2.columns if c not in keys]
    m = s1.merge(s2, on=keys, how="outer", suffixes=("_a", "_b"),
                 indicator="mflag")
    want = {}
    for r in m.itertuples():
        k = (r.conv_id, r.turn_idx)
        if r.mflag == "left_only":
            want[k] = "removed"
        elif r.mflag == "right_only":
            want[k] = "added"
        else:
            same = all(
                (getattr(r, f"{c}_a") == getattr(r, f"{c}_b"))
                or (pd.isna(getattr(r, f"{c}_a")) and pd.isna(getattr(r, f"{c}_b")))
                for c in payload)
            if not same:
                want[k] = "changed"
    got_map = {(r.conv_id, r.turn_idx): r.change for r in got.itertuples()}
    assert got_map == want
    assert set(got["change"]) <= {"added", "removed", "changed"}


def test_export_training_set_resumable(tmp_path):
    """curation -> resumable sink composition: export, kill a bucket,
    resume writes only it, readback matches a fresh curation run."""
    import shutil

    from techtalk_data_pipeline_snowpark_ray.pipelines import curation, sinks

    out = str(tmp_path / "train")
    first = curation.export_training_set("/root/testdata/sf0.001", out,
                                         num_buckets=4)
    assert len(first) == 4 and sum(first.values()) > 0
    shutil.rmtree(out + "/bucket=00002")
    second = curation.export_training_set("/root/testdata/sf0.001", out,
                                          num_buckets=4)
    assert set(second) == {2}
    back = sinks.read_partitioned(out).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    fresh = curation.curation_pipeline("/root/testdata/sf0.001").to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(back[fresh.columns], fresh)
    assert curation.export_training_set("/root/testdata/sf0.001", out,
                                        num_buckets=4) == {}


def test_sigkill_mid_replay_resumes_exactly_once(tmp_path):
    """REAL process death (SIGKILL) in the middle of a replay: the
    committed state stays consistent, and resuming in a fresh session
    replays to exactly the oracle state (no loss, no double-apply).
    Stronger than the monkeypatched crash test: nothing gets a chance
    to clean up."""
    import signal
    import subprocess
    import sys
    import time as _time

    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig

    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4)
    cfg.ensure_dirs()
    spec = GenSpec(n_events=60_000, n_conversations=300, ooo_window=64,
                   dup_fraction=0.02, partial_update_fraction=0.2,
                   schema_add_at=20_000, schema_widen_at=45_000, seed=9)
    write_wal(spec, cfg.wal_dir, segment_rows=2_000)  # 30 segments

    helper = os.path.join(os.path.dirname(__file__), "kill_replay_helper.py")
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, helper, cfg.table_dir, cfg.wal_dir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd="/root/repo")
    # wait for the replay to actually start, then kill the moment the
    # first run file lands -- that is mid-tick by construction (run
    # files are written BEFORE the single manifest publish of the tick)
    line = proc.stdout.readline()
    assert "STARTING" in line
    runs_dir = os.path.join(cfg.table_dir, "runs")
    deadline = _time.time() + 60
    while _time.time() < deadline:
        if any(f.endswith(".parquet") for f in os.listdir(runs_dir)):
            break
        _time.sleep(0.01)
    else:
        raise AssertionError("no run file appeared within 60s")
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    # prove the kill landed MID-REPLAY: nothing was committed yet
    rest = proc.stdout.read()
    assert "FINISHED" not in rest, "replay finished before the kill"
    assert TableState(cfg.table_dir).latest_version() is None
    # resume in THIS session: whatever was (or wasn't) committed, the
    # tail must complete the table to exactly the oracle state
    ingest.run_loop(cfg, stop_when_idle=True)
    snap = ingest.snapshot_to_pandas(cfg)
    oracle = wal_oracle(cfg.wal_dir)
    assert len(snap) == len(oracle)
    pd.testing.assert_frame_equal(
        snap.reset_index(drop=True),
        oracle.astype({c: snap[c].dtype for c in snap.columns}),
        check_dtype=False)


def test_read_snapshot_column_pushdown(tmp_engine):
    """columns= prunes the run-file scan but must resolve identically:
    partial updates ffill per column, evolution null-fills, and control
    ops pull in the columns their predicates/assignments read."""
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine, control_ops=_tiny_controls())
    full = ingest.snapshot_to_pandas(tmp_engine)
    pruned = ingest.read_snapshot(tmp_engine, columns=["text"]).to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    assert list(pruned.columns) == ["conv_id", "turn_idx", "text"]
    pd.testing.assert_frame_equal(
        pruned, full[["conv_id", "turn_idx", "text"]].reset_index(drop=True),
        check_dtype=False)
    # evolution-added column requested alone: old rows null-filled
    m = ingest.read_snapshot(tmp_engine, columns=["model"]).to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(
        m, full[["conv_id", "turn_idx", "model"]].reset_index(drop=True),
        check_dtype=False)
    with pytest.raises(ValueError):
        ingest.read_snapshot(tmp_engine, columns=["nope"])


def test_wave_compaction_equals_single_wave(tmp_engine):
    """compact(waves=3) over 4 buckets: same resolved state, same
    one-base-per-bucket layout, one manifest publish."""
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine)
    before = ingest.snapshot_to_pandas(tmp_engine)
    v0 = TableState(tmp_engine.table_dir).load_latest().version
    m = ingest.compact(tmp_engine, waves=3)
    assert m is not None and m.version == v0 + 1     # exactly one publish
    assert all(len(files) == 1 for files in m.buckets.values())
    assert len(m.buckets) == tmp_engine.num_buckets
    after = ingest.snapshot_to_pandas(tmp_engine)
    pd.testing.assert_frame_equal(before, after, check_dtype=False)
    assert_matches_oracle(tmp_engine)


def test_rebucket_compaction_migrates_layout(tmp_path):
    """compact(rebucket=True) moves a live table from num_buckets=4 to
    7: same resolved state, new layout committed, layout guard then
    accepts the new count and rejects the old one; post-migration ticks
    keep matching the oracle."""
    from dataclasses import replace
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4)
    cfg.ensure_dirs()
    chunks = list(generate_chunks(TINY))
    w = WalWriter(cfg.wal_dir, segment_rows=300, reorder_slack=64)
    mid = len(chunks) // 2 or 1
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()
    ingest.apply_tick(cfg)
    before = ingest.snapshot_to_pandas(cfg)

    cfg7 = replace(cfg, num_buckets=7)
    with pytest.raises(ValueError, match="num_buckets"):
        ingest.apply_tick(cfg7)                    # guard still fires
    m = ingest.compact(cfg7, rebucket=True)        # explicit migration
    assert m.num_buckets == 7
    assert set(int(b) for b in m.buckets) <= set(range(7))
    after = ingest.snapshot_to_pandas(cfg7)
    pd.testing.assert_frame_equal(before, after, check_dtype=False)

    # old count now rejected, new count accepted for further ticks
    with pytest.raises(ValueError, match="num_buckets"):
        ingest.apply_tick(cfg)
    for t, v in chunks[mid:]:
        w.append(t, v)
    w.close()
    assert ingest.apply_tick(cfg7) is not None
    assert_matches_oracle(cfg7)
    # and a normal compaction under the new layout stays consistent
    ingest.compact(cfg7)
    assert_matches_oracle(cfg7)
    # a READER still holding the old bucket count must see the full
    # table (the exchange follows the manifest's layout, not the
    # config's -- silently dropping buckets >= cfg.num_buckets was the
    # failure mode)
    stale = ingest.snapshot_to_pandas(cfg)
    pd.testing.assert_frame_equal(stale, ingest.snapshot_to_pandas(cfg7))


def test_auto_compaction_and_metrics_history(tmp_path):
    """Backlog-triggered compaction: with auto_compact_runs=2 a
    multi-tick replay compacts whenever the committed run-file count
    exceeds the threshold; metrics_history exposes the per-version
    throughput/lag series and records the compactions."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4,
                       apply_mode="direct", auto_compact_runs=1)
    cfg.ensure_dirs()
    chunks = list(generate_chunks(TINY))
    w = WalWriter(cfg.wal_dir, segment_rows=200, reorder_slack=64)
    # three staged loads -> three ticks, so the run backlog crosses the
    # threshold between ticks (a single run_loop drains all-at-once)
    res = []
    third = max(1, len(chunks) // 3)
    for i in range(3):
        for t, v in chunks[i * third: None if i == 2 else (i + 1) * third]:
            w.append(t, v)
        w.flush() if i < 2 else w.close()
        res += ingest.run_loop(cfg, stop_when_idle=True)
    assert len(res) >= 3
    hist = ingest.metrics_history(cfg)
    assert hist["is_compaction"].any()            # trigger fired
    # every non-compaction version left at most threshold+1 run sets
    # before its following compaction; final state is oracle-exact
    assert hist["version"].is_monotonic_increasing
    assert int(hist["events_applied"].sum()) == sum(r.events_applied
                                                    for r in res)
    assert hist.iloc[-1]["lag"] == 0 or not hist.iloc[-1]["is_compaction"]
    assert_matches_oracle(cfg)
    # history survives and extends across compaction + further idle load
    last = TableState(cfg.table_dir).load_latest()
    assert len(hist) == last.version + 1 - hist["version"].iloc[0]


def test_bootstrap_import_then_cdc(tmp_path):
    """Bulk initial load then CDC tail: an existing table (case-variant
    column names, no `model` column) is registered as the lsn=-1
    snapshot; WAL replay on top must win by LWW everywhere it touches
    -- final state equals the oracle over (imported rows as earliest
    inserts) + (all WAL events)."""
    import numpy as np
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4,
                       apply_mode="direct")
    cfg.ensure_dirs()
    # source table: keys overlapping the generator's conv space plus
    # some import-only keys; uppercase column names exercise the
    # case-insensitive projection
    n = 300
    src = pa.table({
        "CONV_ID": pa.array([f"conv-{i % 60:06d}" for i in range(n)]),
        "Turn_Idx": pa.array(np.arange(n) % 7, pa.int32()),
        "role": pa.array(["imported"] * n),
        "TEXT": pa.array([f"hist-{i}" for i in range(n)]),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([None] * n, pa.timestamp("us")),
    })
    src_path = str(tmp_path / "source.parquet")
    pq.write_table(src, src_path)
    m0 = ingest.bootstrap_import(cfg, src_path)
    assert m0.metrics["bootstrap_import"] and m0.global_runs
    snap0 = ingest.snapshot_to_pandas(cfg)
    assert len(snap0) == len(set(zip(src["CONV_ID"].to_pylist(),
                                     src["Turn_Idx"].to_pylist())))
    assert set(snap0["role"]) == {"imported"}
    assert snap0["model"].isna().all()          # null-filled evolution col

    # a second import must refuse (non-empty table)
    with pytest.raises(ValueError, match="empty table"):
        ingest.bootstrap_import(cfg, src_path)

    # now CDC on top
    write_wal(TINY, cfg.wal_dir, segment_rows=500)
    ingest.run_loop(cfg, stop_when_idle=True)
    got = ingest.snapshot_to_pandas(cfg)

    # oracle: imported rows as lsn -1 full inserts + the WAL events
    imported = snap0.copy()
    imported["lsn"] = np.int64(-1)
    imported["op"] = "insert"
    wal_events = pa.concat_tables(
        [normalize_batch(pq.read_table(p), schemas.table_schema(3),
                         keep_extra=("lsn", "op"))
         for p in sorted(glob.glob(os.path.join(cfg.wal_dir,
                                                "*.parquet")))]).to_pandas()
    events = pd.concat([imported, wal_events], ignore_index=True)
    events["ts"] = events["ts"].astype("datetime64[us]")
    oracle = apply_events_oracle(
        pa.Table.from_pandas(events, preserve_index=False), PAYLOAD)
    got = got.sort_values(["conv_id", "turn_idx"], ignore_index=True)
    oracle = oracle.sort_values(["conv_id", "turn_idx"], ignore_index=True)
    oracle = oracle.astype({c: got[c].dtype for c in oracle.columns})
    pd.testing.assert_frame_equal(got[oracle.columns], oracle,
                                  check_dtype=False)


def test_read_conversation_point_lookup(tmp_engine):
    """Serving-path point lookup equals the full snapshot filtered to
    the conversation, before and after compaction, plus the miss
    case."""
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine)
    snap = ingest.snapshot_to_pandas(tmp_engine)
    some = snap["conv_id"].drop_duplicates().iloc[[0, 7, 23]].tolist()
    for cid in some:
        got = ingest.read_conversation(tmp_engine, cid)
        want = snap[snap["conv_id"] == cid].reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want[got.columns],
                                      check_dtype=False)
        assert got["turn_idx"].is_monotonic_increasing
    assert len(ingest.read_conversation(tmp_engine, "no-such-conv")) == 0
    ingest.compact(tmp_engine)
    for cid in some:
        got = ingest.read_conversation(tmp_engine, cid)
        want = snap[snap["conv_id"] == cid].reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want[got.columns],
                                      check_dtype=False)


def _wal_with_bad_rows(wal_dir):
    """20 valid change records + 3 malformed (null conv_id, empty
    conv_id, unknown op), valid disjoint lsns throughout."""
    import numpy as np
    n = 23
    conv = [f"conv-{i % 5:06d}" for i in range(n)]
    op = ["insert"] * n
    conv[7], conv[15] = None, ""
    op[20] = "bogus"
    t = pa.table({
        "lsn": pa.array(np.arange(n, dtype=np.int64)),
        "op": pa.array(op, pa.string()),
        "schema_version": pa.array([3] * n, pa.int32()),
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(np.arange(n) % 4, pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array([f"t{i}" for i in range(n)]),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([None] * n, pa.timestamp("us")),
        "model": pa.array([None] * n, pa.string()),
    })
    w = WalWriter(wal_dir, segment_rows=50)
    w.append(t, 3)
    w.close()
    return t


def test_bad_record_policy(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    from techtalk_data_pipeline_snowpark_ray.stages.validate import (
        read_wal_quarantine)
    # fail: loud rollback, nothing visible, WAL unconsumed
    cfg_f = EngineConfig(table_dir=str(tmp_path / "tf"),
                         wal_dir=str(tmp_path / "w"), num_buckets=4,
                         bad_record_policy="fail")
    cfg_f.ensure_dirs()
    _wal_with_bad_rows(cfg_f.wal_dir)
    with pytest.raises(Exception, match="invalid change record"):
        ingest.apply_tick(cfg_f)
    assert TableState(cfg_f.table_dir).latest_version() is None

    # quarantine: tick commits valid rows; bad rows tagged + counted
    cfg_q = EngineConfig(table_dir=str(tmp_path / "tq"),
                         wal_dir=cfg_f.wal_dir, num_buckets=4,
                         bad_record_policy="quarantine")
    cfg_q.ensure_dirs()
    res = ingest.apply_tick(cfg_q)
    assert res.manifest.metrics["events_rejected"] == 3
    snap = ingest.snapshot_to_pandas(cfg_q)
    assert len(snap) == 18                        # 20 valid -> 18 keys
    assert snap["conv_id"].notna().all()
    q = read_wal_quarantine(cfg_q.table_dir).to_pandas()
    assert sorted(q["_rule"]) == ["null_or_empty_conv_id",
                                  "null_or_empty_conv_id", "unknown_op"]
    # exactly-once still holds after a quarantining tick
    assert ingest.apply_tick(cfg_q) is None


def test_read_conversation_with_pending_controls(tmp_engine):
    """Point lookup must apply pending control ops exactly like the
    full snapshot read (unresolved controls live in the manifest until
    a compaction absorbs them)."""
    write_wal(TINY, tmp_engine.wal_dir, segment_rows=500)
    ingest.apply_tick(tmp_engine, control_ops=_tiny_controls())
    m = TableState(tmp_engine.table_dir).load_latest()
    assert m.control_ops                       # still pending
    snap = ingest.snapshot_to_pandas(tmp_engine)
    for cid in snap["conv_id"].drop_duplicates().iloc[[1, 11]].tolist():
        got = ingest.read_conversation(tmp_engine, cid)
        want = snap[snap["conv_id"] == cid].reset_index(drop=True)
        pd.testing.assert_frame_equal(nulls_as_none(got),
                                      nulls_as_none(want[got.columns]),
                                      check_dtype=False)


def test_read_snapshot_keeps_types_of_all_null_columns(tmp_engine):
    """A payload column that is null throughout a bucket (`tool`
    outside bucket 0) or never set (`model`) keeps its schema type in
    every block read_snapshot emits, projected or not; a pandas round
    trip of the resolved bucket would type it `null`."""
    import numpy as np
    import ray
    from techtalk_data_pipeline_snowpark_ray.stages.partition import (
        hash_strings_arrow)

    convs = [f"conv-{i}" for i in range(24)]
    bucket = hash_strings_arrow(pa.array(convs)) \
        % np.uint64(tmp_engine.num_buckets)
    assert len(set(bucket.tolist())) > 1
    n = len(convs)
    w = WalWriter(tmp_engine.wal_dir, segment_rows=100)
    w.append(pa.table({
        "lsn": pa.array(range(1, n + 1), pa.int64()),
        "op": ["insert"] * n,
        "schema_version": pa.array([3] * n, pa.int32()),
        "conv_id": convs,
        "turn_idx": pa.array([0] * n, pa.int64()),
        "role": ["user"] * n,
        "text": [f"t{i}" for i in range(n)],
        "tool": ["search" if b == 0 else None for b in bucket.tolist()],
        "ts": pa.array([i * 1_000_000 for i in range(n)], pa.timestamp("us")),
        "model": pa.nulls(n, pa.string()),
    }, schema=schemas.change_schema(3)), 3)
    w.close()
    ingest.apply_tick(tmp_engine)

    target = schemas.table_schema(3)
    for columns in (None, ["tool"]):
        ds = ingest.read_snapshot(tmp_engine, columns=columns).materialize()
        blocks = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
                  for ref in bundle.block_refs]
        assert sum(b.num_rows for b in blocks) == n
        for b in blocks:
            assert b.schema.names == [*schemas.KEY_COLS,
                                      *(columns or PAYLOAD)]
            for f in b.schema:
                assert f.type == target.field(f.name).type, (columns, f)


def test_replicate_delta_cascade(tmp_path):
    """Cascaded CDC: engine B materializes engine A's table by
    ingesting A's replicated delta windows through its ordinary loop
    -- incremental (two windows), with strict validation on B, and
    idempotent under re-shipping."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    a = EngineConfig(table_dir=str(tmp_path / "a"),
                     wal_dir=str(tmp_path / "wa"), num_buckets=4,
                     apply_mode="direct")
    b = EngineConfig(table_dir=str(tmp_path / "b"),
                     wal_dir=str(tmp_path / "wb"), num_buckets=8,
                     apply_mode="direct")
    a.ensure_dirs(); b.ensure_dirs()
    chunks = list(generate_chunks(TINY))
    w = WalWriter(a.wal_dir, segment_rows=300, reorder_slack=64)
    mid = len(chunks) // 2 or 1
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()
    ingest.apply_tick(a)
    v0 = TableState(a.table_dir).load_latest().version
    m = ingest.replicate_delta(a, b, from_version=-1, to_version=v0)
    assert m is not None and m.metrics["replicated_from"]["table_dir"] == a.table_dir
    pd.testing.assert_frame_equal(ingest.snapshot_to_pandas(b),
                                  ingest.snapshot_to_pandas(a))
    # second window (replicated under B's DIFFERENT bucket layout)
    for t, v in chunks[mid:]:
        w.append(t, v)
    w.close()
    ingest.apply_tick(a)
    v1 = TableState(a.table_dir).load_latest().version
    ingest.replicate_delta(a, b, from_version=v0, to_version=v1)
    pd.testing.assert_frame_equal(ingest.snapshot_to_pandas(b),
                                  ingest.snapshot_to_pandas(a))
    assert_matches_oracle(a)
    # re-applying the same window is idempotent on resolved state
    ingest.replicate_delta(a, b, from_version=v0, to_version=v1)
    pd.testing.assert_frame_equal(ingest.snapshot_to_pandas(b),
                                  ingest.snapshot_to_pandas(a))
    # and B's compaction absorbs the duplicate runs cleanly
    ingest.compact(b)
    pd.testing.assert_frame_equal(ingest.snapshot_to_pandas(b),
                                  ingest.snapshot_to_pandas(a))


def test_publish_optimistic_concurrency(tmp_path):
    """Two committers racing for the same successor version: exactly
    one wins; the loser gets CommitConflict and its state is the same
    as crash-before-commit. A stale LATEST pointer heals by
    probe-forward."""
    from techtalk_data_pipeline_snowpark_ray.state.manifest import (
        CommitConflict, Manifest, TableState)
    s1 = TableState(str(tmp_path / "t"))
    s2 = TableState(str(tmp_path / "t"))
    v0, _ = s1.load_latest_versioned()
    assert v0 is None
    m1 = s1.publish(Manifest(txn_id="a"), expected_parent=v0)
    assert m1.version == 0
    # s2 built its txn against the SAME (stale) parent -> conflict
    with pytest.raises(CommitConflict, match="v0 already committed"):
        s2.publish(Manifest(txn_id="b"), expected_parent=v0)
    # s2 reloads and commits cleanly
    v1, _ = s2.load_latest_versioned()
    assert v1 == 0
    m2 = s2.publish(Manifest(txn_id="b"), expected_parent=v1)
    assert m2.version == 1 and s1.latest_version() == 1
    # stale LATEST (a slow winner's pointer write) heals by probing
    with open(s1._latest_path(), "w") as f:
        f.write("0")
    assert s1.latest_version() == 1
    assert s1.load_latest().txn_id == "b"


def test_concurrent_tick_conflict_rebases_or_raises(tmp_path):
    """An apply_tick built on stale table state must never silently
    commit over the interloper. With the commutable-conflict retry
    enabled (default) it REBASES onto a commutable winner and commits
    exactly-once-correct state; with commit_retries=0 it raises on the
    first conflict (the pre-rebase behavior)."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    from techtalk_data_pipeline_snowpark_ray.state.manifest import (
        CommitConflict, Manifest, TableState)
    import pytest as _pytest
    from unittest import mock

    def run(table, retries):
        cfg = EngineConfig(table_dir=str(tmp_path / table),
                           wal_dir=str(tmp_path / f"w-{table}"),
                           num_buckets=4, apply_mode="direct",
                           commit_retries=retries)
        cfg.ensure_dirs()
        write_wal(TINY, cfg.wal_dir, segment_rows=500)
        orig = TableState.publish
        state = {"fired": False}

        def race(self, manifest, expected_parent=None, **kw):
            # interloper commits a (commutable: empty, no WAL consumed)
            # version between this tick's load and publish
            if not state["fired"]:
                state["fired"] = True
                TableState(cfg.table_dir).publish(
                    Manifest(txn_id="interloper"))
            return orig(self, manifest, expected_parent=expected_parent)

        with mock.patch.object(TableState, "publish", race):
            if retries == 0:
                with _pytest.raises(CommitConflict):
                    ingest.apply_tick(cfg)
                return cfg, None
            return cfg, ingest.apply_tick(cfg)

    # retries disabled: first conflict raises; retry from fresh state ok
    cfg0, _ = run("t0", retries=0)
    res = ingest.apply_tick(cfg0)
    assert res is not None
    assert_matches_oracle(cfg0)
    assert ingest.apply_tick(cfg0) is None      # exactly-once intact

    # default: the tick rebases onto the commutable winner and commits
    cfg1, res1 = run("t1", retries=3)
    assert res1 is not None
    assert res1.manifest.metrics.get("rebased_onto") == 0
    assert res1.manifest.parent == 0            # built on the interloper
    assert_matches_oracle(cfg1)
    assert ingest.apply_tick(cfg1) is None      # exactly-once intact


def test_all_invalid_segment_advances_offset(tmp_path):
    """A segment whose every record is malformed must still be
    CONSUMED under quarantine policy (commit advances committed_seq
    with zero valid rows) -- otherwise ingest stalls behind it
    forever re-quarantining the same file."""
    import numpy as np
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4,
                       apply_mode="direct", bad_record_policy="quarantine")
    cfg.ensure_dirs()
    n = 8
    t = pa.table({
        "lsn": pa.array(np.arange(n, dtype=np.int64)),
        "op": pa.array(["bogus"] * n, pa.string()),
        "schema_version": pa.array([3] * n, pa.int32()),
        "conv_id": pa.array([f"c{i}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(np.zeros(n, np.int32)),
        "role": pa.array(["user"] * n), "text": pa.array(["x"] * n),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([None] * n, pa.timestamp("us")),
        "model": pa.array([None] * n, pa.string()),
    })
    w = WalWriter(cfg.wal_dir, segment_rows=50)
    w.append(t, 3)
    w.close()
    res = ingest.apply_tick(cfg)
    assert res is not None and res.events_applied == 0
    assert res.manifest.metrics["events_rejected"] == n
    assert res.manifest.committed_seq >= 0
    assert ingest.apply_tick(cfg) is None     # consumed: no stall loop
    assert ingest.snapshot_to_pandas(cfg).empty


# -- multi-table DAG runner (X1-X3: Node/>>, dedup-by-deepest, evaluate) ----

def test_dag_runner_order_dedup_by_deepest_and_cycles():
    from techtalk_data_pipeline_snowpark_ray.pipelines.dag import (
        DagRunner, Step)
    ran = []

    def mk(name):
        return lambda ctx: ran.append(name)

    # the reference's fan shape: root -> 4 ingests -> 3 shared analytics;
    # each analytics node reachable from several branches runs ONCE,
    # after ALL ingests (maxDeptPerNode semantics)
    steps = [Step(f"ing{i}", mk(f"ing{i}")) for i in range(4)]
    steps += [Step(a, mk(a), depends_on=("ing0", "ing1", "ing2", "ing3"))
              for a in ("dq", "amex", "top30")]
    r = DagRunner(steps)
    assert r.order() == ["ing0", "ing1", "ing2", "ing3",
                         "dq", "amex", "top30"]
    r.evaluate()
    assert ran.index("dq") > max(ran.index(f"ing{i}") for i in range(4))

    with pytest.raises(ValueError, match="cycle"):
        DagRunner([Step("a", mk("a"), depends_on=("b",)),
                   Step("b", mk("b"), depends_on=("a",))])
    with pytest.raises(ValueError, match="duplicate"):
        DagRunner([Step("a", mk("a")), Step("a", mk("a"))])
    with pytest.raises(ValueError, match="unknown"):
        DagRunner([Step("a", mk("a"), depends_on=("zz",))])


def test_dag_runner_two_ingests_one_analytics_exactly_once(tmp_path):
    """The reference fan-in (2 ingests -> 1 derived analytics) driven
    continuously by the DAG runner, with exactly-once intact: draining
    ticks apply each WAL delta once; idle passes change nothing; new
    WAL segments are picked up by the next pass."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    from techtalk_data_pipeline_snowpark_ray.pipelines.dag import (
        DagContext, DagRunner, Step, ingest_step)

    cfgs = {}
    for t in ("ta", "tb"):
        cfgs[t] = EngineConfig(table_dir=str(tmp_path / t / "table"),
                               wal_dir=str(tmp_path / t / "wal"),
                               num_buckets=4)
        cfgs[t].ensure_dirs()
    write_wal(GenSpec(n_events=800, n_conversations=30, seed=7),
              cfgs["ta"].wal_dir, segment_rows=400)
    write_wal(GenSpec(n_events=600, n_conversations=20, seed=8),
              cfgs["tb"].wal_dir, segment_rows=300)

    analytics_runs = []

    def derived(ctx: DagContext):
        # runs after BOTH ingests; None (idle) when neither advanced
        if ctx.results["ing_a"] is None and ctx.results["ing_b"] is None:
            return None
        na = len(ingest.snapshot_to_pandas(cfgs["ta"]))
        nb = len(ingest.snapshot_to_pandas(cfgs["tb"]))
        analytics_runs.append((na, nb))
        return {"total_rows": na + nb}

    dag = DagRunner([
        ingest_step("ing_a", cfgs["ta"]),
        ingest_step("ing_b", cfgs["tb"]),
        Step("conv_totals", derived, depends_on=("ing_a", "ing_b")),
    ])
    passes = dag.run_continuous(interval_s=0.01, stop_when_idle=True)
    # drains both WALs (2 segments each) then one fully-idle pass
    assert all(v is None for v in passes[-1].results.values())
    assert len(analytics_runs) >= 1
    final_a = wal_oracle(cfgs["ta"].wal_dir)
    final_b = wal_oracle(cfgs["tb"].wal_dir)
    last = [p.results["conv_totals"] for p in passes
            if p.results["conv_totals"] is not None][-1]
    assert last["total_rows"] == len(final_a) + len(final_b)
    # exactly-once under re-evaluation: another full pass is a no-op
    again = dag.evaluate()
    assert all(v is None for v in again.results.values())
    assert ingest.snapshot_to_pandas(cfgs["ta"]).equals(
        wal_oracle(cfgs["ta"].wal_dir).astype(
            ingest.snapshot_to_pandas(cfgs["ta"]).dtypes.to_dict()))
    # late-arriving WAL (lsn-shifted past the first batch): the same
    # DAG picks up the new delta
    w2 = WalWriter(cfgs["ta"].wal_dir, segment_rows=200)
    for t, v in generate_chunks(GenSpec(n_events=200, n_conversations=30,
                                        seed=9)):
        t = t.set_column(t.schema.get_field_index("lsn"), "lsn",
                         pa.compute.add(t["lsn"], 10_000_000))
        w2.append(t, v)
    w2.close()
    more = dag.run_continuous(interval_s=0.01, stop_when_idle=True)
    assert any(p.results["ing_a"] is not None for p in more)
    assert len(ingest.snapshot_to_pandas(cfgs["ta"])) == \
        len(wal_oracle(cfgs["ta"].wal_dir))


# -- storage shim (the commit protocol's cloud-portability contract) --------

def test_storage_shim_primitives_and_commit_path(tmp_path):
    """LocalStorage implements the documented contract (atomic write,
    exactly-one-winner exclusive create) and EVERY manifest/commit/GC
    operation of TableState flows through the shim -- a cloud
    deployment swaps one object."""
    from techtalk_data_pipeline_snowpark_ray.state.manifest import (
        CommitConflict, Manifest, TableState)
    from techtalk_data_pipeline_snowpark_ray.state.storage import (
        LocalStorage)

    st = LocalStorage()
    p = str(tmp_path / "x" / "one.txt")
    st.makedirs(str(tmp_path / "x"))
    st.write_atomic(p, "a")
    st.write_atomic(p, "b")                    # overwrite is fine
    assert st.read_text(p) == "b"
    st.create_exclusive(p + ".v", "first")
    with pytest.raises(FileExistsError):       # one winner only
        st.create_exclusive(p + ".v", "second")
    assert st.read_text(p + ".v") == "first"
    assert "one.txt" in st.list(str(tmp_path / "x"))

    class Instrumented(LocalStorage):
        calls: list = []

        def __getattribute__(self, name):
            attr = LocalStorage.__getattribute__(self, name)
            if callable(attr) and not name.startswith("__"):
                def wrap(*a, **k):
                    Instrumented.calls.append(name)
                    return attr(*a, **k)
                return wrap
            return attr

    ts = TableState(str(tmp_path / "tbl"), storage=Instrumented())
    m = ts.publish(Manifest(committed_seq=0, committed_lsn=10))
    with pytest.raises(CommitConflict):
        ts.publish(Manifest(committed_seq=1), expected_parent=None)
    assert ts.load_latest().committed_lsn == 10
    (tmp_path / "tbl" / "runs" / "orphan.parquet").write_bytes(b"x")
    assert ts.gc_orphan_runs(keep_versions=1) == ["orphan.parquet"]
    # the shim saw the whole protocol: dirs, exclusive create, pointer
    # write, reads, list and delete
    for op in ("makedirs", "create_exclusive", "write_atomic",
               "read_text", "exists", "list", "remove"):
        assert op in Instrumented.calls, op


def test_dag_matview_step_keeps_view_fresh(tmp_path):
    """ingest >> matview refresh as a DAG chain: the continuous runner
    drains WAL ticks and view refreshes together (idle contract), and
    the view matches a snapshot recompute after every drain."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    from techtalk_data_pipeline_snowpark_ray.pipelines import matview
    from techtalk_data_pipeline_snowpark_ray.pipelines.dag import (
        DagRunner, ingest_step, matview_step)

    cfg = EngineConfig(table_dir=str(tmp_path / "t" / "table"),
                       wal_dir=str(tmp_path / "t" / "wal"), num_buckets=4)
    cfg.ensure_dirs()
    write_wal(GenSpec(n_events=900, n_conversations=25, seed=11),
              cfg.wal_dir, segment_rows=300)
    dag = DagRunner([
        ingest_step("ing", cfg),
        matview_step("mv_role", cfg, "role_live_stats",
                     depends_on=("ing",)),
    ])
    passes = dag.run_continuous(interval_s=0.01, stop_when_idle=True)
    assert all(v is None for v in passes[-1].results.values())
    got = matview.read_grouped_matview(cfg, "role_live_stats") \
        .to_pandas().sort_values("role", ignore_index=True)
    snap = ingest.snapshot_to_pandas(cfg)
    s = snap[snap["role"].notna()]
    g = s.groupby("role")
    want = pd.DataFrame({
        "n_turns": g.size().astype("int64"),
        "text_chars": g["text"].apply(
            lambda x: int(x.fillna("").str.len().sum())).astype("int64"),
        "max_turn_idx": g["turn_idx"].max().astype("int64"),
    }).reset_index().sort_values("role", ignore_index=True)
    pd.testing.assert_frame_equal(
        got[["role", "n_turns", "text_chars", "max_turn_idx"]], want,
        check_dtype=False)
    # already-fresh view reports idle on the next pass
    again = dag.evaluate()
    assert again.results["mv_role"] is None


def test_job_submit_cli_surface(tmp_path, capsys):
    """The `ray job submit` payload (python -m package <cmd>): replay
    with a matview kept fresh, refresh, compact, export and metrics all
    drive the public API and emit one machine-readable JSON line."""
    import json

    from techtalk_data_pipeline_snowpark_ray.__main__ import main
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    from techtalk_data_pipeline_snowpark_ray.pipelines import matview

    base = ["--table-dir", str(tmp_path / "t"), "--wal-dir",
            str(tmp_path / "w"), "--num-buckets", "4"]
    write_wal(GenSpec(n_events=800, n_conversations=30, seed=3),
              str(tmp_path / "w"), segment_rows=400)

    def run(*args):
        assert main([*base, *args]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    r = run("replay", "--stop-when-idle", "--matviews", "role_live_stats")
    assert r["events"] > 0 and r["version"] is not None
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4)
    assert matview.read_grouped_matview(cfg, "role_live_stats").count() > 0
    assert run("refresh", "--view", "hourly_activity")["refreshed"]
    assert not run("refresh", "--view", "hourly_activity")["refreshed"]
    assert run("compact")["version"] is not None
    e = run("export", "--out-dir", str(tmp_path / "exp"),
            "--export-buckets", "4")
    assert e["rows_written"] == len(ingest.snapshot_to_pandas(cfg))
    m = run("metrics")
    assert len(m["versions"]) >= 2


def test_export_layout_marker_rejects_mismatched_resume(tmp_engine):
    """A resumed export with a different bucket count or key must be
    REFUSED (persisted-layout contract), not silently mis-placed."""
    from techtalk_data_pipeline_snowpark_ray.pipelines.sinks import (
        read_partitioned, write_partitioned)

    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=500)
    ingest.apply_tick(cfg)
    out = os.path.join(os.path.dirname(cfg.table_dir), "exp")
    write_partitioned(ingest.read_snapshot(cfg), out, key="conv_id",
                      num_buckets=8)
    n = read_partitioned(out).count()
    with pytest.raises(ValueError, match="layout mismatch"):
        write_partitioned(ingest.read_snapshot(cfg), out, key="conv_id",
                          num_buckets=4)
    with pytest.raises(ValueError, match="layout mismatch"):
        write_partitioned(ingest.read_snapshot(cfg), out, key="role",
                          num_buckets=8)
    # matching resume stays a clean no-op
    assert write_partitioned(ingest.read_snapshot(cfg), out,
                             key="conv_id", num_buckets=8) == {}
    assert read_partitioned(out).count() == n


def test_cli_rejects_unknown_matview_before_any_tick(tmp_path, capsys):
    from techtalk_data_pipeline_snowpark_ray.__main__ import main

    write_wal(TINY, str(tmp_path / "w"), segment_rows=500)
    with pytest.raises(SystemExit, match="unknown matview"):
        main(["--table-dir", str(tmp_path / "t"), "--wal-dir",
              str(tmp_path / "w"), "replay", "--stop-when-idle",
              "--matviews", "role_live_stat"])
    # fail-fast: nothing was committed
    from techtalk_data_pipeline_snowpark_ray.state.manifest import (
        TableState)
    assert TableState(str(tmp_path / "t")).latest_version() is None


def test_batch_interval_check():
    """The direct-fold precondition checker: overlapping batch lsn
    ranges abort the tick; touching boundaries (a duplicate straddling
    a block split) are legal."""
    ingest._check_batch_intervals([(0, 99), (100, 200), (200, 300)])
    with pytest.raises(RuntimeError, match="interval violation"):
        ingest._check_batch_intervals([(0, 199), (150, 400)])
    # a batch with no lsn range is skipped, even where it would overlap
    ingest._check_batch_intervals([(0, 99), (None, None), (100, 200)])


def test_direct_apply_many_tiny_segments_matches_oracle(tmp_engine):
    """Many small WAL segments (the shape that surfaced the
    non-contiguous-bundle fold corruption): per-block folds + the
    interval check must yield exact oracle state."""
    cfg = tmp_engine
    spec = GenSpec(n_events=6000, n_conversations=30, max_turns=2000,
                   zipf_s=1.6, ooo_window=8, dup_fraction=0.02,
                   partial_update_fraction=0.3, seed=13)
    write_wal(spec, cfg.wal_dir, segment_rows=100)   # 60 tiny segments
    r = ingest.apply_tick(cfg)
    assert r is not None
    got = ingest.snapshot_to_pandas(cfg)
    want = wal_oracle(cfg.wal_dir)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want.astype(got.dtypes.to_dict()).reset_index(drop=True))
    # and through compaction
    ingest.compact(cfg)
    got2 = ingest.snapshot_to_pandas(cfg)
    pd.testing.assert_frame_equal(got2.reset_index(drop=True),
                                  got.reset_index(drop=True))
