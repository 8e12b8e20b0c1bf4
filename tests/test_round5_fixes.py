"""Round-5 defect fixes, each pinned by the scenario that exposed it:

* clone-foreign matview watermarks (`s<V>` stamps from the SOURCE
  lineage must never window a clone's refresh — falsely-fresh and
  wrong-delta-baseline variants, keyed + grouped + join views, plus
  the token-search layout guard),
* replication pass-through (`DirectApplier(fold=False)`: a replicated
  window's batches are not lsn intervals, so they must land verbatim),
* distributed additive-view compaction (size-gated key-routed
  exchange),
* vectorized current-epoch filter equivalence,
* empty-source bootstrap guard.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState

from test_engine_e2e import assert_matches_oracle


def _mk_cfg(tmp_path, name="t", **kw):
    kw.setdefault("num_buckets", 4)
    kw.setdefault("apply_mode", "direct")
    cfg = EngineConfig(table_dir=str(tmp_path / name),
                       wal_dir=str(tmp_path / f"w-{name}"), **kw)
    cfg.ensure_dirs()
    return cfg


def _ev_table(rows):
    """Hand-crafted v3 change-record table from [(lsn, op, conv, turn,
    {payload overrides})]."""
    n = len(rows)
    cols = {
        "lsn": pa.array([r[0] for r in rows], pa.int64()),
        "op": pa.array([r[1] for r in rows], pa.string()),
        "schema_version": pa.array(np.full(n, 3, np.int32)),
        "conv_id": pa.array([r[2] for r in rows], pa.string()),
        "turn_idx": pa.array([r[3] for r in rows], pa.int64()),
    }
    for c in ("role", "text", "tool", "model"):
        cols[c] = pa.array([r[4].get(c) for r in rows], pa.string())
    cols["ts"] = pa.array([r[4].get("ts", 0) for r in rows],
                          pa.timestamp("us"))
    return pa.table(cols)


def _tick(cfg, w, rows):
    w.append(_ev_table(rows), 3)
    w.flush()
    assert ingest.apply_tick(cfg) is not None
    return TableState(cfg.table_dir).latest_version()


def _full(lsn, conv, turn, text, tool=None):
    return (lsn, "insert", conv, turn,
            {"role": "user", "text": text, "tool": tool})


def _upd(lsn, conv, turn, **payload):
    return (lsn, "update", conv, turn, payload)


def _mv_turns(cfg):
    mv = matview.read_matview(cfg, "conv_live_stats").to_pandas()
    return mv.set_index("conv_id")["n_turns"].astype(int).to_dict()


# -- clone-foreign watermarks -------------------------------------------------

def test_clone_matview_not_falsely_fresh(tmp_path):
    """A diverged clone whose foreign stamp >= its own version must
    refresh (full), not report 'already fresh' forever."""
    src = _mk_cfg(tmp_path, "src")
    w = WalWriter(src.wal_dir, segment_rows=100, reorder_slack=4)
    _tick(src, w, [_full(0, "c1", 0, "a"), _full(1, "c1", 1, "b")])
    _tick(src, w, [_full(2, "c2", 0, "c")])                   # src v1
    assert matview.refresh_matview(src, "conv_live_stats") is not None
    # stamp s1 minted at src v2

    dst = EngineConfig(table_dir=str(tmp_path / "dst"), wal_dir=src.wal_dir,
                       num_buckets=4, apply_mode="direct")
    ingest.clone_table(src, dst)                              # dst v0
    _tick(dst, w, [_full(3, "c3", 0, "d")])                   # dst v1
    # foreign stamp (1) >= clone cur (1): pre-fix this returned None
    res = matview.refresh_matview(dst, "conv_live_stats")
    assert res is not None
    assert res.metrics["matview_refresh"]["mode"] == "full"
    assert _mv_turns(dst) == {"c1": 2, "c2": 1, "c3": 1}
    w.close()


def test_clone_matview_wrong_delta_baseline(tmp_path):
    """Foreign stamp < clone version: the delta window must NOT be
    computed against the clone's own manifest at the stamp's number —
    keys touched only by early clone ticks would never re-aggregate."""
    src = _mk_cfg(tmp_path, "src")
    w = WalWriter(src.wal_dir, segment_rows=100, reorder_slack=4)
    _tick(src, w, [_full(0, "a", 0, "x"), _full(1, "b", 0, "y")])
    _tick(src, w, [_full(2, "a", 1, "x2")])
    _tick(src, w, [_full(3, "a", 2, "x3")])                   # src v2
    assert matview.refresh_matview(src, "conv_live_stats") is not None
    # stamp s2 minted at src v3

    dst = EngineConfig(table_dir=str(tmp_path / "dst"), wal_dir=src.wal_dir,
                       num_buckets=4, apply_mode="direct")
    ingest.clone_table(src, dst)                              # dst v0
    _tick(dst, w, [_full(4, "b", 1, "y2")])                   # dst v1
    _tick(dst, w, [_full(5, "b", 2, "y3")])                   # dst v2
    _tick(dst, w, [_full(6, "c", 0, "z")])                    # dst v3
    # pre-fix: last=2 < cur=3 windowed the delta to dst (2,3] — only
    # conv c re-aggregated; b stayed at its clone-time count of 1
    res = matview.refresh_matview(dst, "conv_live_stats")
    assert res is not None
    assert res.metrics["matview_refresh"]["mode"] == "full"
    assert _mv_turns(dst) == {"a": 3, "b": 3, "c": 1}
    # post-refresh stamps are native: the NEXT refresh windows
    # incrementally again
    _tick(dst, w, [_full(7, "c", 1, "z2")])
    res2 = matview.refresh_matview(dst, "conv_live_stats")
    assert res2.metrics["matview_refresh"]["mode"] == "incremental"
    assert _mv_turns(dst)["c"] == 2
    w.close()


def test_clone_token_search_stamp_version_coincidence(tmp_path):
    """Grouped-index layout guard: a diverged clone whose own version
    count catches the foreign stamp used to take the `last == ver`
    trust-the-index fast path — a token present only in clone-added
    rows then short-circuited to an empty result."""
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
        refresh_matview, search_tokens)

    src = _mk_cfg(tmp_path, "src")
    w = WalWriter(src.wal_dir, segment_rows=100, reorder_slack=4)
    _tick(src, w, [_full(0, "c1", 0, "alpha words")])
    _tick(src, w, [_full(1, "c1", 1, "beta words")])
    _tick(src, w, [_full(2, "c2", 0, "gamma words")])         # src v2
    assert refresh_matview(src, "token_index") is not None    # stamp s2

    dst = EngineConfig(table_dir=str(tmp_path / "dst"), wal_dir=src.wal_dir,
                       num_buckets=4, apply_mode="direct")
    ingest.clone_table(src, dst)                              # dst v0
    _tick(dst, w, [_full(3, "c3", 0, "plain filler")])        # dst v1
    _tick(dst, w, [_full(4, "c4", 0, "zzzuniq payload")])     # dst v2 == stamp
    hits = search_tokens(dst, all_of=["zzzuniq"]).to_pandas()
    assert len(hits) == 1 and hits["conv_id"].iloc[0] == "c4"
    w.close()


def test_clone_join_matview_not_falsely_fresh(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.pipelines.joinview import (
        read_join_matview)
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
        refresh_matview)

    a = _mk_cfg(tmp_path, "a")
    b = _mk_cfg(tmp_path, "b")
    wa = WalWriter(a.wal_dir, segment_rows=100, reorder_slack=4)
    wb = WalWriter(b.wal_dir, segment_rows=100, reorder_slack=4)
    _tick(a, wa, [_full(0, "c1", 0, "aa"), _full(1, "c1", 1, "ab")])
    _tick(b, wb, [_full(0, "c1", 0, "ba")])
    assert refresh_matview(a, "conv_drift", other=b) is not None
    # stamp (sa=0, sb=0) minted at a v1

    a2 = EngineConfig(table_dir=str(tmp_path / "a2"), wal_dir=a.wal_dir,
                      num_buckets=4, apply_mode="direct")
    ingest.clone_table(a, a2)                                 # a2 v0
    _tick(a2, wa, [_full(2, "c1", 2, "ac")])                  # a2 v1
    # foreign (0, 0) with cur_a=1 — pre-fix the delta windowed against
    # a2's own v0 manifest; with an equal-version clone it could also
    # report falsely fresh. Native check forces the full join refresh.
    res = refresh_matview(a2, "conv_drift", other=b)
    assert res is not None
    assert res.metrics["matview_refresh"]["mode"] == "full"
    jv = read_join_matview(a2, "conv_drift").to_pandas() \
        .set_index("conv_id")
    assert int(jv.loc["c1", "n_turns_a"]) == 3
    assert int(jv.loc["c1", "n_turns_b"]) == 1
    wa.close()
    wb.close()


# -- replication pass-through -------------------------------------------------

def test_replicate_delta_passthrough_no_fold(tmp_path):
    """A replicated window lands verbatim: no per-batch fold (whose
    lsn-interval precondition replication can't meet), byte-exact
    resolved equality, and record counts preserved."""
    src = _mk_cfg(tmp_path, "src")
    w = WalWriter(src.wal_dir, segment_rows=100, reorder_slack=4)
    _tick(src, w, [_full(2, "k", 0, "a", tool="x")])
    _tick(src, w, [_upd(12, "k", 0, text="b")])
    _tick(src, w, [_upd(25, "k", 0, tool="z")])
    w.close()
    v_hi = TableState(src.table_dir).latest_version()

    # tiny batch size so Ray re-bundles the window's blocks arbitrarily
    dst = _mk_cfg(tmp_path, "dst", direct_batch_rows=2)
    m = ingest.replicate_delta(src, dst, from_version=-1, to_version=v_hi)
    assert m is not None
    # pass-through: every source window record lands (3 collapsed
    # records from 3 single-event ticks), none re-folded away
    assert m.metrics["records_written"] == 3
    snap = ingest.snapshot_to_pandas(dst)
    assert len(snap) == 1
    row = snap.iloc[0]
    assert (row["text"], row["tool"]) == ("b", "z")
    pd.testing.assert_frame_equal(snap, ingest.snapshot_to_pandas(src))


# -- distributed additive-view compaction -------------------------------------

def test_additive_view_compaction_distributed(tmp_path, monkeypatch):
    from techtalk_data_pipeline_snowpark_ray.pipelines.derived import (
        DERIVED_CONV_STATS)

    cfg = _mk_cfg(tmp_path, derived_views=("conv_stats",))
    w = WalWriter(cfg.wal_dir, segment_rows=100, reorder_slack=4)
    _tick(cfg, w, [_full(0, "a", 0, "x"), _full(1, "b", 0, "y"),
                   _full(2, "a", 1, "x2")])
    _tick(cfg, w, [_full(3, "b", 1, "y2"), _full(4, "c", 0, "z")])
    w.close()
    before = ingest.read_derived(cfg, DERIVED_CONV_STATS).to_pandas() \
        .sort_values("conv_id", ignore_index=True)
    assert dict(zip(before["conv_id"], before["n_events"])) == \
        {"a": 2, "b": 2, "c": 1}

    from techtalk_data_pipeline_snowpark_ray.pipelines import derived
    monkeypatch.setattr(derived, "SMALL_VIEW_BYTES", 0)  # force exchange
    assert ingest.compact(cfg) is not None
    m = TableState(cfg.table_dir).load_latest()
    bases = m.derived[DERIVED_CONV_STATS]
    assert len(bases) >= 2                     # one base per partition
    after = ingest.read_derived(cfg, DERIVED_CONV_STATS).to_pandas() \
        .sort_values("conv_id", ignore_index=True)
    pd.testing.assert_frame_equal(before, after)
    # per-partition bases are key-exclusive
    runs_dir = TableState(cfg.table_dir).runs_dir
    seen = [set(pq.read_table(os.path.join(runs_dir, f))["conv_id"]
                .to_pylist()) for f in bases]
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert not (seen[i] & seen[j])


# -- review fixes at the final round-5 pass ------------------------------------

def test_replicate_delta_empty_window_returns_none(tmp_path):
    """A poller replicating an empty window (no new versions / no new
    files) gets None, not a KeyError from the columnless empty metrics
    frame Ray yields for a zero-block Dataset."""
    src = _mk_cfg(tmp_path, "src")
    w = WalWriter(src.wal_dir, segment_rows=100, reorder_slack=4)
    v = _tick(src, w, [_full(0, "k", 0, "a")])
    w.close()
    dst = _mk_cfg(tmp_path, "dst")
    assert ingest.replicate_delta(src, dst, from_version=v,
                                  to_version=v) is None
    # destination untouched: no manifest was published
    assert TableState(dst.table_dir).latest_version() is None


def test_jmv_watermark_canonical_across_paths_and_cwd(tmp_path, monkeypatch):
    """The join-view stamp must record cfg_b.table_dir CANONICALIZED at
    mint time (realpath) — a stamp recorded verbatim from a symlinked
    or cwd-relative spelling would later resolve against the checking
    process's cwd/symlink state and misread a native stamp as foreign,
    silently degrading every refresh to mode='full' forever."""
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
        refresh_matview)

    a = _mk_cfg(tmp_path, "a")
    b = _mk_cfg(tmp_path, "b")
    wa = WalWriter(a.wal_dir, segment_rows=100, reorder_slack=4)
    wb = WalWriter(b.wal_dir, segment_rows=100, reorder_slack=4)
    _tick(a, wa, [_full(0, "c1", 0, "aa")])
    _tick(b, wb, [_full(0, "c1", 0, "ba")])
    # mint through a SYMLINKED spelling of B's table_dir
    blink = tmp_path / "blink"
    blink.symlink_to(tmp_path / "b")
    b_link = EngineConfig(table_dir=str(blink), wal_dir=b.wal_dir,
                          num_buckets=4, apply_mode="direct")
    res0 = refresh_matview(a, "conv_drift", other=b_link)
    assert res0 is not None
    # contract: the stamp carries the canonical path, not the spelling
    recorded = res0.metrics["matview_refresh"]["source_b"]["table_dir"]
    assert recorded == os.path.realpath(b.table_dir)
    assert os.path.isabs(recorded)

    # a later refresh from a different cwd, naming B canonically, must
    # window incrementally — the stamp is native whatever the cwd
    _tick(a, wa, [_full(1, "c1", 1, "ab")])
    wa.close()
    wb.close()
    sub = tmp_path / "sub"
    sub.mkdir()
    monkeypatch.chdir(sub)
    res = refresh_matview(a, "conv_drift", other=b)
    assert res is not None
    assert res.metrics["matview_refresh"]["mode"] == "incremental"


def _write_events(tmp_path, rows):
    """events.parquet from [(event_id, user_id, event_type, value, ts)]."""
    d = tmp_path / "sfa"
    d.mkdir(exist_ok=True)
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "value": pa.array([r[3] for r in rows], pa.float64()),
        "ts": pa.array([pd.Timestamp("2024-01-01") + pd.Timedelta(hours=r[4])
                        for r in rows], pa.timestamp("us")),
    }), d / "events.parquet")
    return str(d)


def test_user_moving_sum_null_value_contained(tmp_path):
    """One NULL value must not NaN-poison later rows' moving sums (a
    raw partition-wide cumsum propagated it across users); SQL window
    SUM skips NULLs, and an all-null window stays NULL."""
    from techtalk_data_pipeline_snowpark_ray.pipelines import analytics
    rows = [(0, 1, "a", 1.0, 0), (1, 1, "a", None, 1), (2, 1, "a", 2.0, 2),
            (3, 2, "a", 5.0, 0), (4, 2, "a", 6.0, 1)]
    sf = _write_events(tmp_path, rows)
    got = analytics.user_moving_sum(sf, window=2).to_pandas() \
        .set_index("event_id")["moving_c"]
    assert got.loc[0] == 100            # cents
    assert got.loc[1] == 100            # window {1.0, NULL} -> 1.0
    assert got.loc[2] == 200            # window {NULL, 2.0} -> 2.0
    assert got.loc[3] == 500 and got.loc[4] == 1100   # other user intact


def test_small_groupby_keeps_null_group(ray_session):
    """SQL GROUP BY keeps a NULL group; pandas' dropna default was
    silently deleting those rows from every aggregate."""
    import ray
    from techtalk_data_pipeline_snowpark_ray.pipelines.analytics import (
        small_groupby)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", None, "a", None], pa.string()),
        "v": pa.array([1, 2, 3, 4], pa.int64())}))
    out = small_groupby(ds, "k", {"n": ("v", "count"),
                                  "s": ("v", "sum")})
    by = {(None if pd.isna(k) else k): (n, s)
          for k, n, s in zip(out["k"], out["n"], out["s"])}
    assert by["a"] == (2, 4)
    assert by[None] == (2, 6)


def test_top_segments_empty_events_typed_empty(tmp_path):
    from techtalk_data_pipeline_snowpark_ray.pipelines import analytics
    d = tmp_path / "sfb"
    d.mkdir()
    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "ts": pa.array([], pa.timestamp("us"))}), d / "events.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([1], pa.int64()),
        "c_mktsegment": pa.array(["X"], pa.string())}),
        d / "customer.parquet")
    out = analytics.top_segments_last7d(str(d))
    assert len(out) == 0
    assert list(out.columns) == ["c_mktsegment", "n_events",
                                 "sum_value_c", "avg_value"]


def test_stage_two_phase_publish_in_key_order(tmp_path):
    """stage_events_as_json publishes via hidden .pending files renamed
    in key order — a concurrent tailer can never see key K+1 before K
    (the list_staged_files marker contract). Pending files are
    invisible to discovery."""
    from techtalk_data_pipeline_snowpark_ray.sources import staged_json as sj
    d = str(tmp_path / "stage")
    # a pending-only PUT is invisible
    p = sj.stage_put(["{}"], d, "000000000001", publish=False)
    assert os.path.basename(p).startswith(".pending-")
    assert sj.list_staged_files(d) == []
    n = sj.stage_events_as_json("/root/testdata/sf0.001", d)
    assert n >= 1
    files = sj.list_staged_files(d)
    assert len(files) >= n                  # all visible post-publish
    assert [f.key for f in files] == sorted(f.key for f in files)
    # no pending file from the producer run remains (the synthetic
    # pending PUT above keeps its hidden name, by design)
    leftover = [f for f in os.listdir(d)
                if f.startswith(".pending-") and "000000000001" not in f]
    assert leftover == []


def test_cdc_apply_full_cleanup_safe(ray_session):
    from techtalk_data_pipeline_snowpark_ray.pipelines.cdc_queries import (
        cdc_apply_full)
    snap = cdc_apply_full("/root/testdata/sf0.001", cleanup=True)
    rows = snap.take_all()        # must not race the deleted run files
    assert len(rows) > 0


def test_control_ne_predicate_skips_nulls():
    """SQL three-valued logic: `col != v` is NULL (no match) for NULL
    rows; pandas' != instead evaluates True there, so a 'ne' delete
    used to tombstone every null-valued row. The Arrow mask fills the
    null compare with False."""
    from techtalk_data_pipeline_snowpark_ray.stages.controls import (
        ControlOp, apply_control)
    state = pa.table({
        "conv_id": ["a", "b", "c"], "turn_idx": [0, 0, 0],
        "lsn": np.array([1, 2, 3], np.int64),
        "op": ["full", "full", "full"],
        "role": ["user", "user", "user"],
        "text": ["x", "y", "z"],
        "tool": ["search", None, "calc"],
    })
    op = ControlOp(lsn=10, kind="delete",
                   predicate={"col": "tool", "fn": "ne", "value": "search"})
    out = apply_control(state, op, ["role", "text", "tool"])
    by = dict(zip(out["conv_id"].to_pylist(), out["op"].to_pylist()))
    assert by["a"] == "full"      # tool == 'search': not matched
    assert by["b"] == "full"      # tool NULL: SQL says no match
    assert by["c"] == "delete"    # tool == 'calc': matched


def test_text_stats_empty_corpus_typed_empty(tmp_path, ray_session):
    """All-null corpus: top-terms/bigrams return typed empty frames and
    the quantile sketch returns an empty digest — not KeyError from the
    columnless all-empty-exchange frame."""
    import math
    import ray
    from techtalk_data_pipeline_snowpark_ray.functions import (
        sketches, textstats)
    sf = make_doc_dir(tmp_path, [None, None])
    vt = textstats.vocab_top_terms(sf)
    assert len(vt) == 0 and list(vt.columns) == ["tok", "df"]
    bc = textstats.bigram_counts(sf)
    assert len(bc) == 0 and list(bc.columns) == ["bigram", "n"]
    empty = ray.data.from_arrow(pa.table({"v": pa.array([], pa.float64())}))
    d = sketches.sketch_column(empty, "v")
    assert math.isnan(d.quantile(0.5))


def test_export_empty_dataset_completes(tmp_path, ray_session):
    """Exporting a zero-block dataset still marks every bucket complete
    (resume = no-op) and reads back as an empty dataset — not a
    never-finishing export plus FileNotFoundError on readback."""
    import ray
    from techtalk_data_pipeline_snowpark_ray.pipelines import sinks
    out_dir = str(tmp_path / "exp")
    empty = ray.data.from_arrow_refs([])
    first = sinks.write_partitioned(empty, out_dir, key="k", num_buckets=4)
    assert set(first) == {0, 1, 2, 3}
    assert sinks.finished_buckets(out_dir) == {0, 1, 2, 3}
    assert sinks.write_partitioned(empty, out_dir, key="k",
                                   num_buckets=4) == {}   # resume no-op
    assert sinks.read_partitioned(out_dir).count() == 0
    # filter-produced SCHEMALESS empty blocks (blocks exist, key
    # column doesn't) must also complete
    out2 = str(tmp_path / "exp2")
    filtered = ray.data.from_items([{"k": "a", "v": 1}]) \
        .filter(lambda r: False)
    w2 = sinks.write_partitioned(filtered, out2, key="k", num_buckets=2)
    assert set(w2) == {0, 1}
    assert sinks.read_partitioned(out2).count() == 0


def make_doc_dir(tmp_path, texts):
    d = tmp_path / "sfdocs"
    d.mkdir(exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["xx"] * len(texts)),
        "source": pa.array(["t"] * len(texts)),
        "n_chars": pa.array([0] * len(texts), pa.int64()),
    }), d / "documents.parquet")
    return str(d)


def test_cents_rejects_nan_loudly():
    """cents() must not let numpy turn NaN into INT64_MIN silently
    (±9.2e18 garbage in integer SUMs where SQL yields NULL)."""
    import pytest
    from techtalk_data_pipeline_snowpark_ray.functions.numeric import (
        cents, cents_arrow)
    assert cents(pd.Series([1.005, 2.0])).tolist() == [100, 200]
    with pytest.raises(ValueError, match="NaN/null"):
        cents(pd.Series([1.0, None]))
    # the arrow kernel is the null-tolerant path: null propagates
    out = cents_arrow(pa.chunked_array([pa.array([1.0, None])]))
    assert out.to_pylist() == [100, None]


def test_codec_malformed_inputs_raise_valueerror():
    """Every malformed-media path honors the loud ValueError contract
    (not IndexError / struct.error / a misleading mid-stream error)."""
    import struct
    import pytest
    from techtalk_data_pipeline_snowpark_ray.functions import (
        audiocodec, videocodec)
    # WAV with a truncated fmt chunk (declared size 8)
    fmt_body = b"\x01\x00\x01\x00\x44\xac\x00\x00"
    wav = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt_body) + 8) +
           b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) +
           fmt_body + b"data" + struct.pack("<I", 0))
    with pytest.raises(ValueError, match="fmt chunk truncated"):
        audiocodec.decode_wav(wav)
    # Y4M with a 10-bit 4:2:0 colorspace: format rejection, not a
    # mid-stream 'bad FRAME marker'
    y4m = b"YUV4MPEG2 W4 H4 F25:1 C420p10\nFRAME\n" + bytes(48)
    with pytest.raises(ValueError, match="unsupported Y4M colorspace"):
        videocodec.decode_y4m(y4m)


def test_config_yaml_explicit_null_views(tmp_path):
    """'derived_views:' with an empty YAML value means no views — it
    must load as (), not construct a config that crashes run_loop
    later with a bare TypeError."""
    from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
    p = tmp_path / "c.yml"
    p.write_text("table-dir: /tmp/x\nwal-dir: /tmp/y\nderived-views:\n")
    cfg = EngineConfig.from_yaml(str(p))
    assert cfg.derived_views == ()


def test_generator_wide_domains_no_truncation():
    """Fixed-width unicode dtypes must never silently truncate conv or
    turn ids for wide domains (U7 collided conversations past 10M)."""
    from techtalk_data_pipeline_snowpark_ray.sources.generate import (
        GenSpec, _chunk_arrays)
    spec = GenSpec(n_events=256, n_conversations=20_000_000,
                   max_turns=5_000, seed=1, zipf_s=0.0)   # uniform ids
    a = _chunk_arrays(spec, 0, 0, 256)
    ids = [c for c in a["conv_id"]]
    # every conv id names its integer exactly (no 7-char truncation)
    nums = [int(c.split("-")[1]) for c in ids]
    assert all(0 <= x < 20_000_000 for x in nums)
    assert any(x >= 10_000_000 for x in nums)  # wide domain exercised
    # ids are zero-padded to the domain width (8 here), never truncated
    assert all(len(c.split("-")[1]) == 8 for c in ids)
    assert len(set(ids)) == len(set(nums))


# -- empty bootstrap ------------------------------------------------------------

def test_bootstrap_import_empty_source_then_cdc(tmp_path):
    cfg = _mk_cfg(tmp_path)
    m = ingest.bootstrap_import(
        cfg, ray.data.from_arrow(schemas.table_schema(3).empty_table()))
    assert m.version == 0 and m.metrics["events_applied"] == 0
    assert len(ingest.snapshot_to_pandas(cfg)) == 0
    # the empty bootstrap is a real first commit: CDC tails from here
    w = WalWriter(cfg.wal_dir, segment_rows=100, reorder_slack=4)
    w.append(_ev_table([_full(0, "c1", 0, "hello")]), 3)
    w.close()
    assert ingest.apply_tick(cfg) is not None
    assert_matches_oracle(cfg)


# -- zero-total and empty-input edges -------------------------------------------

def test_mixture_weights_zero_tokens_gives_zero_shares(tmp_path, ray_session):
    """A corpus with no tokens at all (empty or null text) has zero
    total tokens: every group's share is 0, not a ZeroDivisionError."""
    from techtalk_data_pipeline_snowpark_ray.functions import sampling
    sf = make_doc_dir(tmp_path, ["", None, "   "])
    out = sampling.mixture_weights(sf)
    assert len(out) == 1
    assert out["n_tokens"].tolist() == [0]
    assert out["share_ppm"].tolist() == [0]
    assert out["w_t2_ppm"].tolist() == [0]


def test_events_max_id_empty_events_raises_valueerror(tmp_path):
    """An empty events table has no max event_id: a descriptive
    ValueError, not int(None)'s TypeError."""
    import pytest
    from techtalk_data_pipeline_snowpark_ray.pipelines import cdc_queries
    d = tmp_path / "sfe"
    d.mkdir()
    pq.write_table(pa.table({"event_id": pa.array([], pa.int64())}),
                   d / "events.parquet")
    with pytest.raises(ValueError, match="empty events table"):
        cdc_queries._events_max_id(str(d))
