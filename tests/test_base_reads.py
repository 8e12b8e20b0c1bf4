"""Stored-bucket reads of compacted tables: a bucket's base runs are read
by its own fold task, only global (delta) runs cross the split, and a
lone base with no control op pending is returned as read.

The premise of that shortcut is pinned here: every file a
`Manifest.buckets` list names is its own resolve after every operation
that writes one. Reads, lookups, a view refresh and the compaction of
a table that mixes every bucket shape (a bucket with two bases, as
older compactions left a hot bucket, included) are checked against the
oracles, with and without a pending control op, and a base holding a
foreign row fails the read loudly."""

import os
from dataclasses import replace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.sources.generate import write_wal
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.stages.controls import (
    ControlOp, resolve_with_controls)
from techtalk_data_pipeline_snowpark_ray.stages.exchange import block_refs
from techtalk_data_pipeline_snowpark_ray.stages.partition import (
    BUCKET_COL, hash_strings_arrow)
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState
from techtalk_data_pipeline_snowpark_ray.state.oracle import \
    apply_events_oracle
from techtalk_data_pipeline_snowpark_ray.state.storage import write_run

from test_engine_e2e import TINY, assert_matches_oracle
from test_matview import MV, assert_view_matches

PAYLOAD = schemas.payload_cols()
KEYS = list(schemas.KEY_COLS)


def assert_bases_resolved(cfg) -> int:
    """Every base run of the latest manifest equals its own
    `resolve_with_controls`: one row per key, no tombstone, sorted by
    (conv_id, turn_idx). Returns the number of non-empty bases."""
    state = TableState(cfg.table_dir)
    m = state.load_latest()
    n = 0
    for b, runs in m.buckets.items():
        for f in runs:
            t = pq.read_table(os.path.join(state.runs_dir, f))
            if not t.num_rows:
                continue                   # an erasure can empty a base
            n += 1
            assert pc.all(pc.equal(t[BUCKET_COL], int(b))).as_py(), f
            assert not pc.any(pc.equal(t[schemas.OP_COL],
                                       schemas.OP_DELETE)).as_py(), f
            keys = t.select(KEYS)
            assert keys.group_by(KEYS).aggregate([]).num_rows \
                == t.num_rows, f
            assert keys.equals(keys.sort_by([(k, "ascending")
                                             for k in KEYS])), f
            assert resolve_with_controls(t, PAYLOAD, []).equals(t), f
    return n


def _tiny_table(tmp_path, **cfg_kw) -> EngineConfig:
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), **cfg_kw)
    cfg.ensure_dirs()
    return cfg


@pytest.mark.parametrize("op", ["compact", "waves", "rebucket", "erase"])
def test_every_base_is_its_own_resolve(tmp_path, op):
    """The lone-base shortcut's premise, after each operation that
    writes a `Manifest.buckets` file."""
    cfg = _tiny_table(tmp_path, num_buckets=4)
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    if op == "rebucket":
        ingest.compact(cfg)
        cfg.num_buckets = 6
        ingest.compact(cfg, rebucket=True)
    elif op == "erase":
        ingest.compact(cfg)
        snap = ingest.snapshot_to_pandas(cfg)
        ingest.erase_conversations(cfg, sorted(set(snap["conv_id"]))[:5],
                                   scrub_wal=True)
    else:
        ingest.compact(cfg, waves=2 if op == "waves" else 1)
    m = TableState(cfg.table_dir).load_latest()
    if op == "erase":
        assert m.metrics["erasure"]["files_rewritten"]
    assert not m.global_runs
    assert all(len(runs) == 1 for runs in m.buckets.values())
    assert assert_bases_resolved(cfg) > 0
    assert_matches_oracle(cfg)
    # with no global run, a lookup reads one base and returns it as read
    snap = ingest.snapshot_to_pandas(cfg)
    for conv in sorted(set(snap["conv_id"]))[::7]:
        want = snap[snap["conv_id"] == conv].reset_index(drop=True)
        pd.testing.assert_frame_equal(ingest.read_conversation(cfg, conv),
                                      want)


# -- one table with every bucket shape -----------------------------------

NB = 4
BASE_ONLY, WITH_DELTA, EMPTY, TWO_BASES = range(NB)


def _convs_of(bucket: int, n: int) -> list[str]:
    """The first `n` conversation ids `cv-<i>` stored in `bucket`."""
    ids = [f"cv-{i}" for i in range(400)]
    b = hash_strings_arrow(pa.array(ids)) % np.uint64(NB)
    return [c for c, x in zip(ids, b) if x == bucket][:n]


def _events(rows) -> pa.Table:
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


def _history(convs, turns: int, lsn: int) -> list:
    """Inserts of every turn, then a partial update and a delete on some
    of them: the input compaction resolves."""
    rows = []
    for c in convs:
        for t in range(turns):
            rows.append((lsn, "insert", c, t, ("user", "assistant")[t % 2],
                         f"{c}/{t}", None if t % 3 else "search"))
            lsn += 1
        rows.append((lsn, "update", c, 1, None, f"{c}/1 edited", None))
        rows.append((lsn + 1, "delete", c, 2, None, None, None))
        lsn += 2
    return rows


@pytest.fixture()
def mixed_table(tmp_path):
    """Bucket 0: one base. Bucket 1: one base plus a delta run. Bucket
    2: no rows at all. Bucket 3: two key-exclusive bases, the layout
    older compactions left for a hot bucket: its compacted base is
    split by turn_idx parity into `base-b…-sNN-x…` files and the
    manifest republished."""
    cfg = _tiny_table(tmp_path, num_buckets=NB)
    w = WalWriter(cfg.wal_dir, segment_rows=10_000)
    rows = _history(_convs_of(BASE_ONLY, 2), 6, 0) \
        + _history(_convs_of(WITH_DELTA, 2), 6, 1_000) \
        + _history(_convs_of(TWO_BASES, 4), 60, 2_000)
    w.append(_events(rows), 3)
    w.flush()
    ingest.apply_tick(cfg)
    m = ingest.compact(cfg)
    state = TableState(cfg.table_dir)
    [base] = m.buckets[str(TWO_BASES)]
    t = pq.read_table(os.path.join(state.runs_dir, base))
    odd = pc.equal(pc.bit_wise_and(t["turn_idx"], 1), 1)
    txn = state.new_txn()
    shards = []
    for s, keep in enumerate((pc.invert(odd), odd)):
        shards.append(f"base-b{TWO_BASES:05d}-s{s:02d}-x{txn}.parquet")
        write_run(t.filter(keep), os.path.join(state.runs_dir, shards[-1]))
    state.publish(replace(m, txn_id=txn, metrics={},
                          buckets={**m.buckets, str(TWO_BASES): shards}))
    c1, c2 = _convs_of(WITH_DELTA, 2)
    delta = [(9_000, "update", c1, 0, "system", None, "edited"),
             (9_001, "insert", c1, 40, "user", "late turn", None),
             (9_002, "delete", c2, 3, None, None, None),
             (9_003, "insert", c2, 2, "assistant", "re-inserted", None)]
    w.append(_events(delta), 3)
    w.close()
    ingest.apply_tick(cfg)
    m = TableState(cfg.table_dir).load_latest()
    assert sorted(m.buckets) == [str(BASE_ONLY), str(WITH_DELTA),
                                 str(TWO_BASES)]
    assert [len(m.buckets[str(b)]) for b in (BASE_ONLY, WITH_DELTA,
                                             TWO_BASES)] == [1, 1, 2]
    assert len(m.global_runs) == 1
    return cfg, _events(rows + delta)


def _blocks(ds) -> list[pa.Table]:
    blocks = ray.get(block_refs(ds))
    schema = blocks[0].schema
    for b in blocks:
        assert b.schema.equals(schema), (b.schema, schema)
    return blocks


def _check_reads(cfg, events, controls):
    want = pa.Table.from_pandas(
        apply_events_oracle(events, PAYLOAD, control_ops=controls),
        preserve_index=False)
    want = want.cast(pa.schema([schemas.table_schema().field(c)
                                for c in want.column_names]))

    def rows_of(tbl, cols, bucket_set=None):
        exp = want
        if bucket_set is not None:
            b = hash_strings_arrow(exp["conv_id"]) % np.uint64(NB)
            exp = exp.filter(pa.array(np.isin(b, list(bucket_set))))
        got = tbl.select(KEYS + cols).sort_by([(k, "ascending")
                                               for k in KEYS])
        assert got.equals(exp.select(KEYS + cols)), cols

    full = pa.concat_tables(_blocks(ingest.read_snapshot(cfg)))
    assert full.column_names == KEYS + PAYLOAD
    rows_of(full, PAYLOAD)

    cols = ["role", "tool"]
    scan = pa.concat_tables(_blocks(ingest.read_snapshot(cfg, columns=cols)))
    assert scan.column_names == KEYS + cols
    rows_of(scan, cols)

    raw = pa.concat_tables(_blocks(ingest.read_snapshot(cfg,
                                                        final_only=False)))
    assert set(raw.column_names) == {BUCKET_COL, schemas.LSN_COL,
                                     schemas.OP_COL, *KEYS, *PAYLOAD}
    rows_of(raw, PAYLOAD)

    # unprojected, a block carries every column a pending control op
    # reads next to the requested ones
    raw = pa.concat_tables(_blocks(ingest.read_snapshot(
        cfg, columns=cols, final_only=False)))
    assert set(cols) <= set(raw.column_names) <= set(full.column_names) \
        | {BUCKET_COL, schemas.LSN_COL, schemas.OP_COL}
    rows_of(raw, cols)

    for subset in ([BASE_ONLY], [EMPTY], [WITH_DELTA, TWO_BASES],
                   list(range(NB))):
        part = pa.concat_tables(_blocks(ingest.read_snapshot(
            cfg, buckets=subset, columns=cols)))
        assert part.column_names == KEYS + cols
        rows_of(part, cols, set(subset))

    for bucket in (BASE_ONLY, WITH_DELTA, TWO_BASES):
        for conv in _convs_of(bucket, 2):
            got = pa.Table.from_pandas(
                ingest.read_conversation(cfg, conv), preserve_index=False)
            exp = want.filter(pc.equal(want["conv_id"], conv))
            assert got.select(KEYS + PAYLOAD).cast(exp.schema).equals(exp)


def test_mixed_bucket_reads_equal_oracle(mixed_table):
    cfg, events = mixed_table
    _check_reads(cfg, events, [])
    matview.refresh_matview(cfg, MV)
    assert_view_matches(cfg)
    # a pending control op forces the fold in every bucket, lone bases
    # included: the oracle applies it to all of them
    lsn = TableState(cfg.table_dir).committed_lsn + 1
    controls = [
        ControlOp(kind="update", lsn=lsn,
                  predicate={"col": "role", "fn": "eq", "value": "user"},
                  assignments={"tool": {"fn": "set", "value": "ctl"}}),
        ControlOp(kind="delete", lsn=lsn + 1,
                  predicate={"col": "tool", "fn": "eq", "value": "search"})]
    ingest.apply_tick(cfg, control_ops=controls)
    assert TableState(cfg.table_dir).load_latest().control_ops
    _check_reads(cfg, events, controls)
    # the next compaction folds the two bases into one
    m = ingest.compact(cfg)
    assert sorted(m.buckets) == [str(BASE_ONLY), str(WITH_DELTA),
                                 str(TWO_BASES)]
    assert all(len(runs) == 1 for runs in m.buckets.values())
    assert not m.global_runs
    _check_reads(cfg, events, controls)
    matview.refresh_matview(cfg, MV)
    assert_view_matches(cfg)


def test_fold_task_marks_a_lone_base(tmp_path):
    """`lone_base` is set only when the bucket's rows are one base
    run's alone; an empty base or an empty delta slice does not count
    as input."""
    base = ingest._run_schema(3, PAYLOAD).empty_table()
    row = {c: [None] for c in base.column_names}
    row.update({BUCKET_COL: [1], "conv_id": ["a"], "turn_idx": [0],
                schemas.LSN_COL: [5], schemas.OP_COL: ["full"]})
    one = pa.table(row, schema=base.schema)
    full, empty = str(tmp_path / "full.parquet"), str(tmp_path / "e.parquet")
    write_run(one, full)
    write_run(base, empty)
    fold = ingest._fold_bucket_refs._function

    def seen(bases, *parts):
        return fold(lambda g, lone: (None if g is None else g.num_rows,
                                     lone), 1, bases, None, *parts)

    assert seen([full]) == (1, True)
    assert seen([full, empty], base) == (1, True)
    assert seen([full], one) == (2, False)
    assert seen([full, full]) == (2, False)
    assert seen([], one) == (1, False)
    assert seen([empty], base) == (None, False)


def test_base_with_a_foreign_row_raises(mixed_table):
    """A base run is read without routing, so a row of another bucket
    in it fails the read and the compaction instead of being folded
    into the wrong bucket."""
    cfg, _ = mixed_table
    state = TableState(cfg.table_dir)
    path = os.path.join(state.runs_dir,
                        state.load_latest().buckets[str(BASE_ONLY)][0])
    t = pq.read_table(path)
    foreign = t.slice(0, 1).set_column(
        t.schema.get_field_index(BUCKET_COL), BUCKET_COL,
        pa.array([EMPTY], pa.int32()))
    os.remove(path)
    write_run(pa.concat_tables([t, foreign]), path)
    with pytest.raises(ValueError, match="other buckets"):
        ingest.read_snapshot(cfg).materialize()
    with pytest.raises(ValueError, match="other buckets"):
        ingest.compact(cfg)
