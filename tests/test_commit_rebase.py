"""Optimistic-concurrency REBASE tests (the retry half of U7): a
commit that loses the version race to a COMMUTABLE winner re-publishes
its already-written run files on the new latest instead of recomputing
(the one driver, state.commit.commit, re-applies the transaction's
actions to the new tip); any non-commutable pair still raises
CommitConflict. Every rebased outcome is checked for serial
equivalence against the dict oracle over the full WAL. The whole
table of pairs is tests/test_conflict_table.py."""

import pandas as pd
import pytest
from unittest import mock

from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, generate_chunks, write_wal)
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.state.manifest import (
    CommitConflict, Manifest, TableState)

from test_engine_e2e import TINY, assert_matches_oracle

_PUBLISH = TableState.publish


def _mk_cfg(tmp_path, name="t", **kw):
    cfg = EngineConfig(table_dir=str(tmp_path / name),
                       wal_dir=str(tmp_path / f"w-{name}"),
                       num_buckets=4, apply_mode="direct", **kw)
    cfg.ensure_dirs()
    return cfg


def _two_phase_wal(wal_dir, spec=TINY):
    """Write the spec's WAL in two batches; returns after phase 1 with
    a closure that appends phase 2."""
    chunks = list(generate_chunks(spec))
    mid = len(chunks) // 2 or 1
    w = WalWriter(wal_dir, segment_rows=300, reorder_slack=64)
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()

    def phase2():
        for t, v in chunks[mid:]:
            w.append(t, v)
        w.close()
    return phase2


def _hook(winner_fn):
    """One-shot publish hook: the first publish call runs `winner_fn`
    (whose own publishes pass straight through) before the original
    publish proceeds with its now-stale expected_parent."""
    state = {"fired": False}

    def race(self, manifest, expected_parent=None, **kw):
        if not state["fired"]:
            state["fired"] = True
            winner_fn()
        return _PUBLISH(self, manifest, expected_parent=expected_parent)
    return race


def test_tick_rebases_over_concurrent_compaction(tmp_path):
    """ingest append vs compaction commute: the losing tick keeps its
    delta runs, rebuilds bookkeeping on the compacted manifest and
    commits -- final state identical to the serial schedule."""
    cfg = _mk_cfg(tmp_path)
    phase2 = _two_phase_wal(cfg.wal_dir)
    assert ingest.apply_tick(cfg) is not None          # v0: phase-1 data
    phase2()

    with mock.patch.object(TableState, "publish",
                           _hook(lambda: ingest.compact(cfg))):
        res = ingest.apply_tick(cfg)                   # loses to compact
    assert res is not None
    assert res.manifest.metrics["rebased_onto"] == 1   # onto the compaction
    assert res.manifest.parent == 1
    # the compaction's bases AND the tick's delta runs are both live
    assert res.manifest.buckets and res.manifest.global_runs
    assert_matches_oracle(cfg)
    assert ingest.apply_tick(cfg) is None              # exactly-once


def test_compaction_rebases_over_concurrent_tick(tmp_path):
    """compaction vs ingest append, the other direction: the losing
    compaction carries the winner's appended runs forward on top of its
    bases, and the winner's WAL consumption (committed_seq) survives."""
    cfg = _mk_cfg(tmp_path)
    phase2 = _two_phase_wal(cfg.wal_dir)
    assert ingest.apply_tick(cfg) is not None          # v0: phase-1 data
    phase2()

    with mock.patch.object(TableState, "publish",
                           _hook(lambda: ingest.apply_tick(cfg))):
        m = ingest.compact(cfg)                        # loses to the tick
    assert m is not None
    assert m.metrics["rebased_onto"] == 1
    winner = TableState(cfg.table_dir).load(1)
    assert winner.wal_consumed                         # v1 was the tick
    # the winner's consumption survives the rebase...
    assert m.committed_seq == winner.committed_seq
    # ...and its appended delta runs ride on top of the new bases
    new_tail = [f for f in winner.global_runs if f not in
                TableState(cfg.table_dir).load(0).global_runs]
    assert m.global_runs == new_tail and m.buckets
    assert_matches_oracle(cfg)
    assert ingest.apply_tick(cfg) is None              # nothing re-consumed


def test_competing_ticks_same_wal_conflict(tmp_path):
    """Two ticks consuming the same WAL window can NEVER rebase
    (duplicate application); the loser raises and the winner's state
    stands exactly-once correct."""
    cfg = _mk_cfg(tmp_path)
    write_wal(TINY, cfg.wal_dir, segment_rows=500)

    with mock.patch.object(TableState, "publish",
                           _hook(lambda: ingest.apply_tick(cfg))):
        with pytest.raises(CommitConflict, match="committed_seq"):
            ingest.apply_tick(cfg)
    assert_matches_oracle(cfg)                         # winner's commit rules
    assert ingest.apply_tick(cfg) is None
    # the loser's orphaned runs are sweepable, not referenced
    st = TableState(cfg.table_dir)
    orphans = st.gc_orphan_runs(keep_versions=2)
    assert_matches_oracle(cfg)                         # GC didn't hurt state
    assert orphans                                     # loser left orphans


def test_competing_compactions_conflict(tmp_path):
    """Two compactions rewrite the same run lists -- never rebasable."""
    cfg = _mk_cfg(tmp_path)
    write_wal(TINY, cfg.wal_dir, segment_rows=500)
    assert ingest.apply_tick(cfg) is not None

    with mock.patch.object(TableState, "publish",
                           _hook(lambda: ingest.compact(cfg))):
        with pytest.raises(CommitConflict, match="rewrote run lists"):
            ingest.compact(cfg)
    assert_matches_oracle(cfg)


def test_winner_control_op_blocks_tick_rebase(tmp_path):
    """A winner that ADDED a control op invalidates the loser's folds
    (they collapsed without that barrier) -> conflict, not rebase."""
    from techtalk_data_pipeline_snowpark_ray.stages.controls import ControlOp
    cfg = _mk_cfg(tmp_path)
    phase2 = _two_phase_wal(cfg.wal_dir)
    assert ingest.apply_tick(cfg) is not None
    phase2()

    def winner_adds_op():
        st = TableState(cfg.table_dir)
        v, prev = st.load_latest_versioned()
        op = ControlOp(lsn=prev.committed_lsn + 1, kind="delete",
                       predicate={"col": "role", "fn": "eq",
                                  "value": "__nobody__"})
        st.publish(expected_parent=v, manifest=Manifest(
            txn_id="op-winner", committed_seq=prev.committed_seq,
            committed_lsn=prev.committed_lsn,
            schema_version=prev.schema_version,
            num_buckets=prev.num_buckets, buckets=prev.buckets,
            global_runs=prev.global_runs, derived=prev.derived,
            control_ops=list(prev.control_ops) + [op.to_dict()],
            wal_consumed=[], metrics={"control_only": True}))

    with mock.patch.object(TableState, "publish", _hook(winner_adds_op)):
        with pytest.raises(CommitConflict, match="control ops"):
            ingest.apply_tick(cfg)
    # rebuild from fresh state succeeds with the barrier in place
    assert ingest.apply_tick(cfg) is not None


def test_replication_rebases_over_destination_tick(tmp_path):
    """A replicated window is seq-independent (its read set holds no
    WAL position): it rebases even over a winner that consumed the
    DESTINATION's WAL."""
    src = _mk_cfg(tmp_path, "src")
    write_wal(TINY, src.wal_dir, segment_rows=500)
    assert ingest.apply_tick(src) is not None

    dst = _mk_cfg(tmp_path, "dst")
    spec2 = GenSpec(n_events=400, n_conversations=10, max_turns=6,
                    zipf_s=1.2, ooo_window=8, dup_fraction=0.0,
                    partial_update_fraction=0.2, schema_add_at=100,
                    schema_widen_at=200, seed=7)
    write_wal(spec2, dst.wal_dir, segment_rows=200)

    with mock.patch.object(TableState, "publish",
                           _hook(lambda: ingest.apply_tick(dst))):
        m = ingest.replicate_delta(src, dst, from_version=-1)
    assert m is not None
    assert m.metrics["rebased_onto"] == 0              # onto the dst tick
    assert m.committed_seq == TableState(dst.table_dir) \
        .load(0).committed_seq                         # dst offsets intact
    assert ingest.apply_tick(dst) is None              # nothing re-consumed
    # dst resolves to: its own WAL's rows + the replicated src rows
    got = ingest.snapshot_to_pandas(dst)
    src_rows = ingest.snapshot_to_pandas(src)
    assert len(got) >= len(src_rows)
    merged = got.merge(src_rows, on=["conv_id", "turn_idx"], how="inner",
                       suffixes=("", "_src"))
    assert len(merged) == len(src_rows)                # every src row landed
    pd.testing.assert_series_equal(merged["text"], merged["text_src"],
                                   check_names=False)


def test_run_loop_background_compaction_with_live_writer(tmp_path):
    """The production shape the rebase enables: run_loop with
    `background_compaction=True` compacts in a driver thread while
    ticks keep consuming a LIVE WAL writer. Whatever interleaving the
    scheduler picks, the final state must match the oracle, stay
    exactly-once, and at least one compaction must have committed."""
    import threading
    import time

    spec = GenSpec(n_events=6000, n_conversations=80, max_turns=10,
                   zipf_s=1.2, ooo_window=16, dup_fraction=0.04,
                   partial_update_fraction=0.25, schema_add_at=1500,
                   schema_widen_at=4000, seed=11)
    cfg = _mk_cfg(tmp_path)
    chunks = list(generate_chunks(spec))
    w = WalWriter(cfg.wal_dir, segment_rows=250, reorder_slack=64)
    # phase 1 pre-written so the first tick has work immediately
    head = max(1, len(chunks) // 4)
    for t, v in chunks[:head]:
        w.append(t, v)
    w.flush()

    def feed():
        for t, v in chunks[head:]:
            w.append(t, v)
            w.flush()
            time.sleep(0.02)       # keep the WAL arriving across ticks
        w.close()

    writer = threading.Thread(target=feed, name="wal-writer")
    writer.start()
    try:
        # chase the live writer: each pass consumes whatever has
        # arrived, compacting in the background while later ticks of
        # the same pass commit; hang-proof because every pass is
        # stop_when_idle
        while writer.is_alive():
            ingest.run_loop(cfg, compact_every=1,
                            background_compaction=True,
                            poll_interval_s=0.01, stop_when_idle=True)
            time.sleep(0.02)
        writer.join()
        # drain whatever arrived after the last pass exited
        ingest.run_loop(cfg, stop_when_idle=True,
                        background_compaction=True, compact_every=1)
    finally:
        if writer.is_alive():
            writer.join()
    assert_matches_oracle(cfg)
    assert ingest.apply_tick(cfg) is None          # exactly-once intact
    lineage = TableState(cfg.table_dir).lineage()
    assert any(m.metrics.get("compaction") for m in lineage)
    assert len(lineage) > 2                        # genuinely multi-tick


def test_run_loop_retries_matview_refresh_on_conflict(tmp_path):
    """A matview refresh losing the version race to a background
    compaction must be retried by run_loop as a fresh transaction, not
    crash the loop."""
    cfg = _mk_cfg(tmp_path, matviews=("conv_live_stats",))
    write_wal(TINY, cfg.wal_dir, segment_rows=500)

    def compact_wins():
        ingest.compact(cfg)

    fired = {"n": 0}

    def race(self, manifest, expected_parent=None, **kw):
        # fire on the FIRST matview-refresh publish only
        if not fired["n"] and "matview_refresh" in (manifest.metrics or {}):
            fired["n"] = 1
            compact_wins()
        return _PUBLISH(self, manifest, expected_parent=expected_parent)

    with mock.patch.object(TableState, "publish", race):
        res = ingest.run_loop(cfg, stop_when_idle=True)
    assert fired["n"] == 1 and len(res) == 1
    # the retried refresh committed on top of the compaction
    m = TableState(cfg.table_dir).load_latest()
    assert "matview_refresh" in m.metrics
    assert m.buckets and not m.global_runs       # compaction state rules
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import \
        read_matview
    mv = read_matview(cfg, "conv_live_stats").to_pandas()
    assert len(mv) > 0
    assert_matches_oracle(cfg)


def test_serial_equivalence_of_rebased_schedule(tmp_path):
    """The rebased concurrent schedule produces byte-identical resolved
    state to the serial schedule over the same WAL."""
    # concurrent: tick1 | (tick2 racing compact, tick2 rebases)
    cfg_a = _mk_cfg(tmp_path, "a")
    phase2_a = _two_phase_wal(cfg_a.wal_dir)
    ingest.apply_tick(cfg_a)
    phase2_a()
    with mock.patch.object(TableState, "publish",
                           _hook(lambda: ingest.compact(cfg_a))):
        assert ingest.apply_tick(cfg_a) is not None

    # serial: tick1, compact, tick2
    cfg_b = _mk_cfg(tmp_path, "b")
    phase2_b = _two_phase_wal(cfg_b.wal_dir)
    ingest.apply_tick(cfg_b)
    ingest.compact(cfg_b)
    phase2_b()
    ingest.apply_tick(cfg_b)

    a = ingest.snapshot_to_pandas(cfg_a).reset_index(drop=True)
    b = ingest.snapshot_to_pandas(cfg_b).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_tick_refuses_rebase_onto_concurrent_restore_rollback(tmp_path):
    """A WAL tick losing the version race to a RESTORE rollback must
    NOT rebase: restore keeps committed_seq (so the seq-equality guard
    alone would pass) but rewinds committed_lsn, and the rebase's
    max() would re-inflate it past rows the restore dropped, corrupting
    the watermark used for control-op placement and lag."""
    cfg = _mk_cfg(tmp_path)
    chunks = list(generate_chunks(TINY))
    a, b = max(1, len(chunks) // 3), max(2, 2 * len(chunks) // 3)
    w = WalWriter(cfg.wal_dir, segment_rows=300, reorder_slack=64)
    for t, v in chunks[:a]:
        w.append(t, v)
    w.flush()
    assert ingest.apply_tick(cfg) is not None          # v0
    for t, v in chunks[a:b]:
        w.append(t, v)
    w.flush()
    assert ingest.apply_tick(cfg) is not None          # v1
    for t, v in chunks[b:]:
        w.append(t, v)
    w.close()
    with mock.patch.object(
            TableState, "publish",
            _hook(lambda: ingest.rollback(cfg, 0, rewind_stream=False))):
        with pytest.raises(CommitConflict, match="rollback"):
            ingest.apply_tick(cfg)
    # the restore ruled: committed_lsn is back at v0's, not re-inflated
    st = TableState(cfg.table_dir)
    assert st.load_latest().committed_lsn == st.load(0).committed_lsn
    # the aborted tick left its window unconsumed: a re-run applies it
    assert ingest.apply_tick(cfg) is not None


def test_replication_refuses_rebase_onto_concurrent_rewind(tmp_path):
    """A replication window is seq-independent (its read set holds no
    WAL position, so the committed_seq-changed guard does not apply) --
    but racing a REWIND rollback it still must not rebase: the append's
    committed_seq max() would silently re-advance the rewound offset
    to its pre-rewind value without the segments ever being
    re-consumed."""
    src = _mk_cfg(tmp_path, "src")
    write_wal(TINY, src.wal_dir, segment_rows=500)
    assert ingest.apply_tick(src) is not None

    dst = _mk_cfg(tmp_path, "dst")
    spec2 = GenSpec(n_events=400, n_conversations=10, max_turns=6,
                    zipf_s=1.2, ooo_window=8, dup_fraction=0.0,
                    partial_update_fraction=0.2, schema_add_at=100,
                    schema_widen_at=200, seed=7)
    phase2 = _two_phase_wal(dst.wal_dir, spec2)
    assert ingest.apply_tick(dst) is not None          # dst v0
    phase2()
    assert ingest.apply_tick(dst) is not None          # dst v1

    with mock.patch.object(
            TableState, "publish",
            _hook(lambda: ingest.rollback(dst, 0, rewind_stream=True))):
        with pytest.raises(CommitConflict, match="rollback"):
            ingest.replicate_delta(src, dst, from_version=-1)
    # the rewind survived: the offset stayed at v0's watermark, so the
    # next tick RE-CONSUMES the rewound window (the whole point)
    st = TableState(dst.table_dir)
    assert st.load_latest().committed_seq == st.load(0).committed_seq
    assert ingest.apply_tick(dst) is not None
