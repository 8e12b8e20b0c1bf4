"""Cross-table join matview (`pipelines/joinview.py`): incremental
maintenance of a per-key FULL OUTER join of two independently
ingesting tables, including retraction of keys deleted on both sides
and the non-delta-expressible fallbacks."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest
from techtalk_data_pipeline_snowpark_ray.pipelines.joinview import (
    read_join_matview)
from techtalk_data_pipeline_snowpark_ray.pipelines.matview import refresh_matview
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter


def _mk(tmp_path, name, nb):
    cfg = EngineConfig(table_dir=str(tmp_path / name),
                       wal_dir=str(tmp_path / f"w-{name}"),
                       num_buckets=nb, apply_mode="direct")
    cfg.ensure_dirs()
    return cfg


def _ch(rows):
    """Hand-crafted change batch: rows = [(lsn, op, conv, turn, text)]."""
    lsn, op, conv, turn, text = zip(*rows)
    n = len(rows)
    return pa.table({
        "lsn": pa.array(lsn, pa.int64()),
        "op": pa.array(op, pa.string()),
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(turn, pa.int64()),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([0] * n, pa.timestamp("us")),
    })


def _append(cfg, rows, w=None):
    writer = w or WalWriter(cfg.wal_dir, segment_rows=1000,
                            reorder_slack=8)
    writer.append(_ch(rows), 1)
    writer.flush()
    return writer


def _view(cfg_a):
    return read_join_matview(cfg_a, "conv_drift").to_pandas() \
        .sort_values("conv_id", ignore_index=True)


def test_join_view_incremental_with_retraction_tombstone(tmp_path):
    A = _mk(tmp_path, "a", 8)
    B = _mk(tmp_path, "b", 4)          # different layouts on purpose
    wa = _append(A, [(1, "insert", "c1", 0, "aa"),
                     (2, "insert", "c1", 1, "bbb"),
                     (3, "insert", "c2", 0, "cccc")])
    wb = _append(B, [(1, "insert", "c1", 0, "aa"),
                     (3, "insert", "c3", 0, "dd")])
    ingest.apply_tick(A)
    ingest.apply_tick(B)
    m1 = refresh_matview(A, "conv_drift", other=B)
    assert m1.metrics["matview_refresh"]["mode"] == "full"
    v = _view(A).set_index("conv_id")
    assert v.loc["c1", "n_turns_a"] == 2 and v.loc["c1", "n_turns_b"] == 1
    assert v.loc["c2", "n_turns_b"] == 0      # outer: A-only conv
    assert v.loc["c3", "n_turns_a"] == 0      # outer: B-only conv
    assert v.loc["c1", "turn_diff"] == 1

    # phase 2: c1 fully deleted on BOTH sides, c2 grows on A only
    _append(A, [(10, "delete", "c1", 0, None),
                (11, "delete", "c1", 1, None),
                (12, "insert", "c2", 1, "ee")], wa)
    wa.close()
    _append(B, [(10, "delete", "c1", 0, None)], wb)
    wb.close()
    ingest.apply_tick(A)
    ingest.apply_tick(B)
    m2 = refresh_matview(A, "conv_drift", other=B)
    stats = m2.metrics["matview_refresh"]
    assert stats["mode"] == "incremental"
    v = _view(A)
    # c1 vanished from both sides -> its bucket's new file drops it
    assert set(v["conv_id"]) == {"c2", "c3"}
    assert v.set_index("conv_id").loc["c2", "n_turns_a"] == 2
    # untouched key (c3) survives from the previous generation
    assert v.set_index("conv_id").loc["c3", "n_turns_b"] == 1
    # idempotent: both tables unchanged -> no-op
    assert refresh_matview(A, "conv_drift", other=B) is None


def test_join_view_one_sided_advance(tmp_path):
    """Only table B advances: the refresh windows each side separately
    and still re-resolves the affected keys on BOTH sides."""
    A = _mk(tmp_path, "a", 4)
    B = _mk(tmp_path, "b", 4)
    wa = _append(A, [(1, "insert", "c1", 0, "xx")])
    wa.close()
    wb = _append(B, [(1, "insert", "c1", 0, "x")])
    ingest.apply_tick(A)
    ingest.apply_tick(B)
    refresh_matview(A, "conv_drift", other=B)
    _append(B, [(5, "insert", "c1", 1, "yy"),
                (6, "insert", "c9", 0, "zz")], wb)
    wb.close()
    ingest.apply_tick(B)
    m = refresh_matview(A, "conv_drift", other=B)
    assert m.metrics["matview_refresh"]["mode"] == "incremental"
    v = _view(A).set_index("conv_id")
    assert v.loc["c1", "n_turns_b"] == 2 and v.loc["c1", "n_turns_a"] == 1
    assert v.loc["c9", "n_turns_a"] == 0


def test_dag_two_ingests_fan_into_join_view(tmp_path):
    """The reference's two-ingest fan-in as a DAG: both tables tick,
    the join view refreshes after BOTH, and the continuous loop drains
    to idle with the view consistent with both final states."""
    from techtalk_data_pipeline_snowpark_ray.pipelines.dag import (
        DagRunner, ingest_step, matview_step)

    A = _mk(tmp_path, "a", 8)
    B = _mk(tmp_path, "b", 4)
    wa = _append(A, [(1, "insert", "c1", 0, "xx"),
                     (2, "insert", "c2", 0, "yy")])
    wb = _append(B, [(1, "insert", "c1", 0, "x")])
    dag = DagRunner([
        ingest_step("ingest_a", A),
        ingest_step("ingest_b", B),
        matview_step("drift", A, "conv_drift", B,
                     depends_on=("ingest_a", "ingest_b")),
    ])
    assert dag.order() == ["ingest_a", "ingest_b", "drift"]
    dag.run_continuous(interval_s=0.01, stop_when_idle=True)
    v = _view(A).set_index("conv_id")
    assert v.loc["c1", "turn_diff"] == 0 and v.loc["c2", "n_turns_b"] == 0
    # late WAL on one side only: another continuous run picks it up
    _append(B, [(7, "insert", "c2", 0, "q")], wb)
    wb.close()
    wa.close()
    dag.run_continuous(interval_s=0.01, stop_when_idle=True)
    v = _view(A).set_index("conv_id")
    assert v.loc["c2", "n_turns_b"] == 1 and v.loc["c2", "turn_diff"] == 0


def test_join_view_survives_primary_compaction(tmp_path):
    """Compacting the PRIMARY table leaves the view's per-bucket files
    (and so its two-sided watermark) as they are, and later incremental
    refreshes still work."""
    from techtalk_data_pipeline_snowpark_ray.state.manifest import \
        TableState

    A = _mk(tmp_path, "a", 4)
    B = _mk(tmp_path, "b", 4)
    wa = _append(A, [(1, "insert", "c1", 0, "xx"),
                     (2, "insert", "c2", 0, "yy")])
    wb = _append(B, [(1, "insert", "c1", 0, "x")])
    ingest.apply_tick(A)
    ingest.apply_tick(B)
    refresh_matview(A, "conv_drift", other=B)
    # a second generation, replacing c2's bucket file
    _append(A, [(5, "delete", "c2", 0, None)], wa)
    wa.close()
    ingest.apply_tick(A)
    refresh_matview(A, "conv_drift", other=B)
    before = _view(A)
    state = TableState(A.table_dir)
    jfiles = state.load_latest().derived["jmv:conv_drift"]
    assert len(jfiles) == 4                     # one file per A bucket
    ingest.compact(A)
    assert state.load_latest().derived["jmv:conv_drift"] == jfiles
    pd.testing.assert_frame_equal(_view(A), before)
    # watermark survived: a one-sided advance refreshes incrementally
    _append(B, [(9, "insert", "c1", 1, "zz")], wb)
    wb.close()
    ingest.apply_tick(B)
    m = refresh_matview(A, "conv_drift", other=B)
    assert m.metrics["matview_refresh"]["mode"] == "incremental"
    v = _view(A).set_index("conv_id")
    assert v.loc["c1", "n_turns_b"] == 2


def test_join_view_fallbacks_on_history_rewrites(tmp_path):
    A = _mk(tmp_path, "a", 4)
    B = _mk(tmp_path, "b", 4)
    wa = _append(A, [(1, "insert", "c1", 0, "xx"),
                     (2, "insert", "c2", 0, "yy")])
    wb = _append(B, [(1, "insert", "c1", 0, "x")])
    ingest.apply_tick(A)
    ingest.apply_tick(B)
    refresh_matview(A, "conv_drift", other=B)

    # a compaction on the NON-primary side forces the full fallback
    _append(B, [(5, "insert", "c2", 0, "q")], wb)
    wb.close()
    ingest.apply_tick(B)
    ingest.compact(B)
    m = refresh_matview(A, "conv_drift", other=B)
    stats = m.metrics["matview_refresh"]
    assert stats["mode"] == "full" and stats["reason"] == "compaction"
    assert set(_view(A)["conv_id"]) == {"c1", "c2"}

    # an erasure on the primary side forces it too
    _append(A, [(9, "insert", "c3", 0, "zz")], wa)
    wa.close()
    ingest.apply_tick(A)
    ingest.erase_conversation(A, "c1")
    m = refresh_matview(A, "conv_drift", other=B)
    stats = m.metrics["matview_refresh"]
    assert stats["mode"] == "full" and stats["reason"] == "erasure"
    v = _view(A).set_index("conv_id")
    assert v.loc["c1", "n_turns_a"] == 0      # erased on A...
    assert v.loc["c1", "n_turns_b"] == 1      # ...but B still has it
