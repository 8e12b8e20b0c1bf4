"""The tick and the view refresh dispatch plain Ray tasks: a tick with
many segment groups (one of them wholly invalid under quarantine)
resolves to the oracle, and neither `apply_tick` nor `refresh_matview`
(full or incremental) nor `compact` builds a Ray Data plan."""

import os
import shutil
from dataclasses import replace

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.sources import wal
from techtalk_data_pipeline_snowpark_ray.sources.generate import write_wal

from test_engine_e2e import TINY, assert_matches_oracle, wal_oracle
from test_matview import MV, assert_view_matches


def test_multi_group_tick_with_an_all_invalid_group(tmp_path):
    """`direct_batch_rows=500` splits one tick into many segment groups,
    each folded by its own task; a group whose every record is invalid
    is quarantined whole, writes no delta run and still commits."""
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4,
                       direct_batch_rows=500,
                       bad_record_policy="quarantine")
    cfg.ensure_dirs()
    write_wal(replace(TINY, n_events=4000), cfg.wal_dir, segment_rows=250)
    groups = ingest._segment_groups(wal.list_segments(cfg.wal_dir), cfg)
    assert len(groups) >= 6
    bad = groups[len(groups) // 2]
    n_bad = 0
    for path in bad:                  # same lsns and name, unknown op
        t = pq.read_table(path)
        t = t.set_column(t.schema.get_field_index("op"), "op",
                         pa.array(["bogus"] * t.num_rows, pa.string()))
        pq.write_table(t, path)
        n_bad += t.num_rows
    valid_dir = tmp_path / "valid"    # the WAL minus the invalid group
    valid_dir.mkdir()
    for g in groups:
        if g is not bad:
            for path in g:
                shutil.copy(path, valid_dir / os.path.basename(path))

    res = ingest.apply_tick(cfg)
    assert res.manifest.metrics["events_rejected"] == n_bad
    n_total = sum(pq.read_metadata(p).num_rows for g in groups for p in g)
    assert res.events_applied == n_total - n_bad
    runs = res.manifest.global_runs
    assert len(runs) == len(groups) - 1       # one run per non-empty group
    assert all(f.startswith(f"delta-x{res.manifest.txn_id}-") for f in runs)
    snap = ingest.snapshot_to_pandas(cfg)
    oracle = wal_oracle(str(valid_dir))
    assert len(snap) == len(oracle)
    pd.testing.assert_frame_equal(
        snap, oracle.astype({c: snap[c].dtype for c in snap.columns}),
        check_dtype=False)
    assert ingest.apply_tick(cfg) is None     # exactly-once


def test_tick_refresh_and_compact_build_no_ray_data_plan(tmp_engine,
                                                         monkeypatch):
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=250)
    later = wal.list_segments(cfg.wal_dir)[4:]   # the second tick's input
    hold = os.path.join(os.path.dirname(cfg.wal_dir), "hold")
    os.makedirs(hold)
    for s in later:
        shutil.move(s.path, hold)

    def no_plan(*args, **kwargs):
        raise AssertionError("a Ray Data plan was built")

    with monkeypatch.context() as mp:
        mp.setattr(ray.data, "from_items", no_plan)
        mp.setattr(ray.data.Dataset, "map_batches", no_plan)
        assert ingest.apply_tick(cfg) is not None
        full = matview.refresh_matview(cfg, MV)
        for s in later:
            shutil.move(os.path.join(hold, os.path.basename(s.path)),
                        cfg.wal_dir)
        assert ingest.apply_tick(cfg) is not None
        inc = matview.refresh_matview(cfg, MV)
        assert ingest.compact(cfg) is not None

    assert full.metrics["matview_refresh"]["mode"] == "full"
    assert inc.metrics["matview_refresh"]["mode"] == "incremental"
    assert_matches_oracle(cfg)
    assert_view_matches(cfg)


def test_multi_segment_tick_run_order_and_phases(tmp_engine):
    """One task folds a multi-segment scan (one chunk per segment):
    its delta run is sorted by (bucket, key hash, lsn) -- the invariant
    that bucket row-group pruning relies on -- with one record per key,
    and the tick's manifest carries the apply tasks' phase CPU."""
    import numpy as np

    from techtalk_data_pipeline_snowpark_ray.stages.partition import key_hash

    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=250)
    segments = wal.list_segments(cfg.wal_dir)
    assert len(ingest._segment_groups(segments, cfg)) == 1
    res = ingest.apply_tick(cfg)
    [run] = res.manifest.global_runs
    t = pq.read_table(os.path.join(cfg.table_dir, "runs", run))
    assert t.num_rows == res.records_written
    kh = key_hash(t["conv_id"], t["turn_idx"].to_numpy())
    assert len(np.unique(kh)) == t.num_rows
    order = np.lexsort((t["lsn"].to_numpy(), kh, t["bucket"].to_numpy()))
    assert (order == np.arange(t.num_rows)).all()

    phases = res.manifest.metrics["phases"]
    assert set(phases) == set(ingest.TASK_PHASES)
    for p, v in phases.items():
        assert set(v) == {"sum", "max"} and 0 <= v["max"] <= v["sum"], p
    assert phases["fold_ms"]["sum"] > 0 and phases["scan_ms"]["sum"] > 0
    assert_matches_oracle(cfg)
