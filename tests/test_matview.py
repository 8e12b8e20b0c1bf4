"""Materialized-view maintenance tests: full vs incremental refresh
parity against the resolved snapshot, retraction on delete, compaction
interplay (state-preserving skip vs genuine fallback), control-op
fallback, run_loop integration, and the file model: one view file per
bucket, replaced by each refresh and left alone by compaction."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.pipelines.matview import _file_bucket
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, generate_chunks, write_wal)
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState

from test_engine_e2e import nulls_as_none

MV = "conv_live_stats"

TINY = GenSpec(n_events=1500, n_conversations=40, max_turns=10, zipf_s=1.2,
               ooo_window=16, dup_fraction=0.04, partial_update_fraction=0.25,
               schema_add_at=400, schema_widen_at=900, seed=7)


def view_oracle(cfg) -> pd.DataFrame:
    """Expected view = plain pandas aggregate of the (oracle-verified)
    resolved snapshot."""
    snap = ingest.snapshot_to_pandas(cfg)
    g = snap.groupby("conv_id")
    out = pd.DataFrame({
        "n_turns": g.size().astype("int64"),
        "n_tool_turns": g["tool"].count().astype("int64"),
        "text_chars": g["text"].apply(
            lambda s: int(s.fillna("").str.len().sum())).astype("int64"),
        "max_turn_idx": g["turn_idx"].max().astype("int64"),
    }).reset_index()
    return out.sort_values("conv_id", ignore_index=True)


def read_view(cfg) -> pd.DataFrame:
    df = matview.read_matview(cfg, MV).to_pandas()
    return df.sort_values("conv_id", ignore_index=True)[
        ["conv_id", "n_turns", "n_tool_turns", "text_chars", "max_turn_idx"]]


def assert_view_matches(cfg):
    pd.testing.assert_frame_equal(read_view(cfg), view_oracle(cfg),
                                  check_dtype=False)


def _live_convs(cfg, n) -> list:
    """First n conversation ids present in the resolved snapshot."""
    snap = ingest.snapshot_to_pandas(cfg)
    return sorted(snap["conv_id"].unique())[:n]


def _phase2_events(cfg, convs_touch, conv_kill) -> pa.Table:
    """Hand-built second-phase change batch: update turn 0 of each
    touched conv, insert a high turn, and delete EVERY live turn of
    `conv_kill` (full retraction)."""
    snap = ingest.snapshot_to_pandas(cfg)
    base_lsn = int(TableState(cfg.table_dir).committed_lsn) + 1
    rows = []
    for i, c in enumerate(convs_touch):
        rows.append((base_lsn + 2 * i, "update", c, 0, "assistant",
                     "patched-text-longer-than-before", "tool-x"))
        rows.append((base_lsn + 2 * i + 1, "insert", c, 99, "user",
                     "appended", None))
    off = base_lsn + 2 * len(convs_touch)
    kills = snap[snap.conv_id == conv_kill]["turn_idx"].tolist()
    for j, t in enumerate(kills):
        rows.append((off + j, "delete", conv_kill, int(t), None, None, None))
    lsn, op, conv, turn, role, text, tool = zip(*rows)
    n = len(rows)
    return pa.table({
        "lsn": pa.array(lsn, pa.int64()),
        "op": pa.array(op, pa.string()),
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(turn, pa.int64()),
        "role": pa.array(role, pa.string()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array(tool, pa.string()),
        "ts": pa.array([np.datetime64("2026-01-01", "us")] * n,
                       pa.timestamp("us")),
        "model": pa.array([None] * n, pa.string()),
    })


def _mv_stats(m) -> dict:
    return m.metrics["matview_refresh"]


def view_buckets(cfg, key) -> list:
    """Bucket ids of the view's current files, parsed from their
    names; asserts there is at most one file per bucket."""
    files = TableState(cfg.table_dir).load_latest().derived.get(key, [])
    ids = [_file_bucket(f) for f in files]
    assert len(ids) == len(set(ids)), files
    return sorted(ids)


def _bucket_of(conv, nb) -> int:
    from techtalk_data_pipeline_snowpark_ray.stages.partition import (
        hash_strings_arrow)
    return int(hash_strings_arrow(pa.array([conv]))[0] % np.uint64(nb))


def test_full_then_incremental_matches_recompute(tmp_engine):
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    m1 = matview.refresh_matview(cfg, MV)
    assert _mv_stats(m1)["mode"] == "full"
    assert_view_matches(cfg)

    *touched, kill = _live_convs(cfg, 4)
    w = WalWriter(cfg.wal_dir, segment_rows=400, reorder_slack=8)
    w.append(_phase2_events(cfg, touched, kill), 3)
    w.close()
    ingest.apply_tick(cfg)
    key = matview.MV_PREFIX + MV
    state = TableState(cfg.table_dir)
    before = set(state.load_latest().derived[key])
    m2 = matview.refresh_matview(cfg, MV)
    st = _mv_stats(m2)
    assert st["mode"] == "incremental"
    # delta-proportional: only the touched conversations' buckets refold
    assert st["affected_keys"] == 4
    hit = {_bucket_of(c, cfg.num_buckets) for c in [*touched, kill]}
    assert st["affected_buckets"] == len(hit)
    assert_view_matches(cfg)
    view = read_view(cfg)
    assert kill not in set(view["conv_id"])       # fully retracted
    assert int(view.loc[view.conv_id == touched[0], "max_turn_idx"]
               .iloc[0]) == 99
    # one file per bucket: the refresh replaced the affected buckets'
    # files and kept the others
    assert view_buckets(cfg, key) == list(range(cfg.num_buckets))
    after = set(state.load_latest().derived[key])
    assert {_file_bucket(f) for f in after - before} == hit


def test_refresh_is_idempotent(tmp_engine):
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    assert matview.refresh_matview(cfg, MV) is not None
    assert matview.refresh_matview(cfg, MV) is None  # already fresh


def test_compaction_state_preserving_skip(tmp_engine):
    """refresh -> compact -> new tick -> refresh stays INCREMENTAL:
    a compaction with no unrefreshed deltas is a state-preserving
    rewrite, not a reason to recompute."""
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    matview.refresh_matview(cfg, MV)
    ingest.compact(cfg)
    w = WalWriter(cfg.wal_dir, segment_rows=400, reorder_slack=8)
    a, b = _live_convs(cfg, 2)
    w.append(_phase2_events(cfg, [a], b), 3)
    w.close()
    ingest.apply_tick(cfg)
    m = matview.refresh_matview(cfg, MV)
    assert _mv_stats(m)["mode"] == "incremental"
    assert_view_matches(cfg)


def test_compaction_over_pending_delta_forces_full(tmp_engine):
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    matview.refresh_matview(cfg, MV)
    w = WalWriter(cfg.wal_dir, segment_rows=400, reorder_slack=8)
    a, b = _live_convs(cfg, 2)
    w.append(_phase2_events(cfg, [a], b), 3)
    w.close()
    ingest.apply_tick(cfg)           # delta the view has NOT folded
    ingest.compact(cfg)              # ...now folded away by compaction
    m = matview.refresh_matview(cfg, MV)
    st = _mv_stats(m)
    assert st["mode"] == "full" and st["reason"] == "compaction"
    assert_view_matches(cfg)


def test_new_control_op_forces_full(tmp_engine):
    from techtalk_data_pipeline_snowpark_ray.stages.controls import ControlOp
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    matview.refresh_matview(cfg, MV)
    lsn = TableState(cfg.table_dir).committed_lsn + 1
    ingest.apply_tick(cfg, control_ops=[
        ControlOp(kind="delete", lsn=lsn,
                  predicate={"col": "role", "fn": "eq", "value": "system"})])
    m = matview.refresh_matview(cfg, MV)
    st = _mv_stats(m)
    assert st["mode"] == "full" and st["reason"] == "controls-changed"
    assert_view_matches(cfg)


def test_run_loop_maintains_matview(tmp_engine):
    cfg = tmp_engine
    cfg.matviews = (MV,)
    write_wal(TINY, cfg.wal_dir, segment_rows=300)
    ingest.run_loop(cfg, stop_when_idle=True)
    assert_view_matches(cfg)


def test_compaction_leaves_view_files(tmp_engine):
    """Compaction rewrites table runs only: each refreshed view keeps
    its one file per bucket, reads the same, and the next refresh
    after a tick stays incremental."""
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    views = (MV, "token_index")
    for v in views:
        matview.refresh_matview(cfg, v)
    w = WalWriter(cfg.wal_dir, segment_rows=400, reorder_slack=8)
    a, b = _live_convs(cfg, 2)
    w.append(_phase2_events(cfg, [a], b), 3)
    w.close()
    ingest.apply_tick(cfg)
    for v in views:
        matview.refresh_matview(cfg, v)
    before = read_view(cfg)
    tokens = matview.read_grouped_matview(cfg, "token_index").to_pandas() \
        .sort_values("token", ignore_index=True)
    state = TableState(cfg.table_dir)
    keys = [matview.MV_PREFIX + MV, matview.GMV_PREFIX + "token_index"]
    files = {k: state.load_latest().derived[k] for k in keys}
    ingest.compact(cfg)
    for k in keys:
        assert state.load_latest().derived[k] == files[k]
        assert view_buckets(cfg, k) == list(range(cfg.num_buckets))
    pd.testing.assert_frame_equal(read_view(cfg), before,
                                  check_dtype=False)
    pd.testing.assert_frame_equal(
        matview.read_grouped_matview(cfg, "token_index").to_pandas()
        .sort_values("token", ignore_index=True), tokens)
    w = WalWriter(cfg.wal_dir, segment_rows=400, reorder_slack=8)
    w.append(_phase2_events(cfg, [b], a), 3)
    w.close()
    ingest.apply_tick(cfg)
    m = matview.refresh_matview(cfg, MV)
    assert _mv_stats(m)["mode"] == "incremental"
    assert_view_matches(cfg)


def test_empty_table_refresh_and_read(tmp_engine):
    cfg = tmp_engine
    assert matview.refresh_matview(cfg, MV) is None  # nothing committed
    ds = matview.read_matview(cfg, MV)
    assert ds.schema().names == ["conv_id", "n_turns", "n_tool_turns",
                                 "text_chars", "max_turn_idx"]
    assert ds.count() == 0


def test_unknown_view_rejected(tmp_engine):
    with pytest.raises(KeyError):
        matview.refresh_matview(tmp_engine, "nope")


def test_run_loop_rejects_unknown_view_before_any_tick(tmp_engine):
    """`run_loop` checks its view names with the CLI's helper
    (`check_matview_names`, same text) before any tick commits."""
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    cfg.matviews = (MV, "role_live_stat")
    with pytest.raises(KeyError, match=r"unknown matview\(s\) "
                                       r"\['role_live_stat'\]"):
        ingest.run_loop(cfg, stop_when_idle=True)
    assert TableState(cfg.table_dir).latest_version() is None


def test_join_view_needs_other_and_others_reject_it(tmp_engine):
    """`other` is required for a join view and rejected for any other
    view, before anything is read."""
    with pytest.raises(ValueError, match="needs `other`"):
        matview.refresh_matview(tmp_engine, "conv_drift")
    with pytest.raises(ValueError, match="join views only"):
        matview.refresh_matview(tmp_engine, MV, other=tmp_engine)


# -- grouped matviews --------------------------------------------------------

GMV = "role_live_stats"


def gmv_oracle(cfg) -> pd.DataFrame:
    snap = ingest.snapshot_to_pandas(cfg)
    s = snap[snap["role"].notna()]
    g = s.groupby("role")
    return pd.DataFrame({
        "n_turns": g.size().astype("int64"),
        "text_chars": g["text"].apply(
            lambda x: int(x.fillna("").str.len().sum())).astype("int64"),
        "max_turn_idx": g["turn_idx"].max().astype("int64"),
    }).reset_index().sort_values("role", ignore_index=True)


def read_gview(cfg) -> pd.DataFrame:
    ds = matview.read_grouped_matview(cfg, GMV)
    df = ds.to_pandas()
    if not len(df.columns):  # Ray quirk: zero-row block -> columnless
        df = pd.DataFrame({f.name: pd.Series(dtype="object")
                           for f in ds.schema().base_schema})
    return df.sort_values("role", ignore_index=True)[
        ["role", "n_turns", "text_chars", "max_turn_idx"]]


def assert_gview_matches(cfg):
    pd.testing.assert_frame_equal(read_gview(cfg), gmv_oracle(cfg),
                                  check_dtype=False)


def test_grouped_full_then_incremental(tmp_engine):
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    m1 = matview.refresh_matview(cfg, GMV)
    assert _mv_stats(m1)["mode"] == "full"
    assert_gview_matches(cfg)

    *touched, kill = _live_convs(cfg, 2)
    w = WalWriter(cfg.wal_dir, segment_rows=400, reorder_slack=8)
    w.append(_phase2_events(cfg, touched, kill), 3)
    w.close()
    ingest.apply_tick(cfg)
    m2 = matview.refresh_matview(cfg, GMV)
    st = _mv_stats(m2)
    assert st["mode"] == "incremental"
    assert st["affected_buckets"] <= cfg.num_buckets
    assert_gview_matches(cfg)
    assert matview.refresh_matview(cfg, GMV) is None  # idempotent


def _single_conv_batch(conv, turns, op, lsn0):
    n = len(turns)
    return pa.table({
        "lsn": pa.array(range(lsn0, lsn0 + n), pa.int64()),
        "op": pa.array([op] * n, pa.string()),
        "conv_id": pa.array([conv] * n, pa.string()),
        "turn_idx": pa.array(turns, pa.int64()),
        "role": pa.array([None if op == "delete" else "user"] * n,
                         pa.string()),
        "text": pa.array([None if op == "delete" else "hello"] * n,
                         pa.string()),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([np.datetime64("2026-01-01", "us")] * n,
                       pa.timestamp("us")),
        "model": pa.array([None] * n, pa.string()),
    })


def test_grouped_full_retraction_empties_view(tmp_engine):
    """Deleting every live row of a bucket must replace its stored
    partials with an empty file: the view ends EMPTY, not stale."""
    cfg = tmp_engine
    w = WalWriter(cfg.wal_dir, segment_rows=100, reorder_slack=8)
    w.append(_single_conv_batch("conv-solo", [0, 1, 2, 3, 4],
                                "insert", 1), 3)
    w.close()
    ingest.apply_tick(cfg)
    matview.refresh_matview(cfg, GMV)
    assert int(read_gview(cfg)["n_turns"].sum()) == 5
    w = WalWriter(cfg.wal_dir, segment_rows=100, reorder_slack=8)
    w.append(_single_conv_batch("conv-solo", [0, 1, 2, 3, 4],
                                "delete", 100), 3)
    w.close()
    ingest.apply_tick(cfg)
    m = matview.refresh_matview(cfg, GMV)
    assert _mv_stats(m)["mode"] == "incremental"
    assert read_gview(cfg).empty
    assert_gview_matches(cfg)


def test_grouped_compaction_and_run_loop(tmp_engine):
    cfg = tmp_engine
    cfg.matviews = (GMV, MV)
    write_wal(TINY, cfg.wal_dir, segment_rows=300)
    ingest.run_loop(cfg, stop_when_idle=True)
    assert_gview_matches(cfg)
    assert_view_matches(cfg)
    before = read_gview(cfg)
    key = matview.GMV_PREFIX + GMV
    files = TableState(cfg.table_dir).load_latest().derived[key]
    ingest.compact(cfg)
    # compaction leaves the view's per-bucket files as they are
    assert TableState(cfg.table_dir).load_latest().derived[key] == files
    assert view_buckets(cfg, key) == list(range(cfg.num_buckets))
    pd.testing.assert_frame_equal(read_gview(cfg), before,
                                  check_dtype=False)
    # post-compaction delta refresh stays incremental and correct
    a, b = _live_convs(cfg, 2)
    w = WalWriter(cfg.wal_dir, segment_rows=400, reorder_slack=8)
    w.append(_phase2_events(cfg, [a], b), 3)
    w.close()
    ingest.apply_tick(cfg)
    m = matview.refresh_matview(cfg, GMV)
    assert _mv_stats(m)["mode"] == "incremental"
    assert_gview_matches(cfg)


# -- windowed grouped matview (derived group col) -----------------------------

HMV = "hourly_activity"


def hmv_oracle(cfg) -> pd.DataFrame:
    snap = ingest.snapshot_to_pandas(cfg)
    s = snap[snap["ts"].notna()].copy()
    s["window_start"] = s["ts"].dt.floor("h")
    g = s.groupby("window_start")
    return pd.DataFrame({
        "n_convs": g["conv_id"].nunique().astype("int64"),
        "n_turns": g.size().astype("int64"),
        "max_turn_idx": g["turn_idx"].max().astype("int64"),
    }).reset_index().sort_values("window_start", ignore_index=True)


def read_hview(cfg) -> pd.DataFrame:
    df = matview.read_grouped_matview(cfg, HMV).to_pandas()
    if not len(df.columns):
        df = pd.DataFrame(columns=["window_start", "n_convs", "n_turns",
                                   "max_turn_idx"])
    return df.sort_values("window_start", ignore_index=True)[
        ["window_start", "n_convs", "n_turns", "max_turn_idx"]]


def test_windowed_gmv_late_data_moves_windows(tmp_engine):
    """An update that MOVES a row's event time must retract it from the
    old window and land it in the new one on the next incremental
    refresh (the derived-group-col path)."""
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    m1 = matview.refresh_matview(cfg, HMV)
    assert _mv_stats(m1)["mode"] == "full"
    pd.testing.assert_frame_equal(read_hview(cfg), hmv_oracle(cfg),
                                  check_dtype=False)

    # move one live row five hours forward via a full-payload update
    snap = ingest.snapshot_to_pandas(cfg)
    row = snap.iloc[0]
    base_lsn = int(TableState(cfg.table_dir).committed_lsn) + 1
    new_ts = (pd.Timestamp(row["ts"]) + pd.Timedelta(hours=5)) \
        .as_unit("us").to_datetime64()
    t = pa.table({
        "lsn": pa.array([base_lsn], pa.int64()),
        "op": pa.array(["update"], pa.string()),
        "conv_id": pa.array([row["conv_id"]], pa.string()),
        "turn_idx": pa.array([int(row["turn_idx"])], pa.int64()),
        "role": pa.array([row["role"]], pa.string()),
        "text": pa.array([row["text"]], pa.string()),
        "tool": pa.array([row["tool"]], pa.string()),
        "ts": pa.array([new_ts], pa.timestamp("us")),
        "model": pa.array([None], pa.string()),
    })
    w = WalWriter(cfg.wal_dir, segment_rows=100, reorder_slack=8)
    w.append(t, 3)
    w.close()
    ingest.apply_tick(cfg)
    m2 = matview.refresh_matview(cfg, HMV)
    st = _mv_stats(m2)
    assert st["mode"] == "incremental"
    got = read_hview(cfg)
    pd.testing.assert_frame_equal(got, hmv_oracle(cfg), check_dtype=False)
    # the moved row's new window really is present
    assert pd.Timestamp(new_ts).floor("h") in set(got["window_start"])


def test_gmv_refresh_conflict_and_orphan_gc(tmp_engine, monkeypatch):
    """A grouped-view refresh racing a table tick: the refresh computed
    against the pre-tick version must LOSE (CommitConflict), leave no
    visible view state, be GC-reclaimable, and succeed on retry against
    the new table version."""
    from techtalk_data_pipeline_snowpark_ray.state.manifest import (
        CommitConflict)

    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    st = TableState(cfg.table_dir)
    orig = TableState.publish
    fired = {}

    def racing(self, manifest, *a, **k):
        if "matview_refresh" in manifest.metrics and not fired:
            fired["x"] = True          # a real competing writer ticks
            a2, b = _live_convs(cfg, 2)
            w = WalWriter(cfg.wal_dir, segment_rows=400, reorder_slack=8)
            w.append(_phase2_events(cfg, [a2], b), 3)
            w.close()
            ingest.apply_tick(cfg)
        return orig(self, manifest, *a, **k)

    monkeypatch.setattr(TableState, "publish", racing)
    with pytest.raises(CommitConflict):
        matview.refresh_matview(cfg, GMV)
    assert matview.GMV_PREFIX + GMV not in st.load_latest().derived

    # retry recomputes against the post-tick state and wins
    m = matview.refresh_matview(cfg, GMV)
    assert m is not None
    assert_gview_matches(cfg)

    # the aborted attempt's run files are referenced by nothing: GC
    # reclaims them, and the view still reads correctly afterwards
    removed = st.gc_orphan_runs(keep_versions=10)
    assert removed, "aborted refresh left no GC-able orphans?"
    assert_gview_matches(cfg)


def test_grouped_multicolumn_group(tmp_engine):
    """(role, tool) pair grouping: the generic N-col group path, with a
    NULL group member (non-tool turns) as a real group, agrees with a
    snapshot recompute (the exchange path: test_view_merge.py)."""
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    matview.refresh_matview(cfg, "role_tool_stats")

    snap = ingest.snapshot_to_pandas(cfg)
    s = snap[snap["role"].notna()]
    want = s.groupby(["role", "tool"], dropna=False).size() \
        .rename("n_turns").reset_index() \
        .sort_values(["role", "tool"], ignore_index=True)
    got = matview.read_grouped_matview(cfg, "role_tool_stats") \
        .to_pandas().sort_values(["role", "tool"], ignore_index=True)
    pd.testing.assert_frame_equal(
        nulls_as_none(got[["role", "tool", "n_turns"]]), nulls_as_none(want),
        check_dtype=False)
    assert want["tool"].isna().any()      # the null group is exercised
