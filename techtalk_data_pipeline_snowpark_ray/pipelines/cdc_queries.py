"""Driver-checkable CDC pipelines: a change stream derived from the
`events` testdata table with SQL-mirrorable arithmetic, replayed by the
real engine, and verifiable by a DuckDB window-function oracle.

Derivation (MUST stay in sync with the SQL in __ray_entry__.py):

    lsn      = event_id
    op       = event_id % 10 -> [0,6) insert | [6,9) update | 9 delete
    conv_id  = 'conv-' || (user_id % 200)
    turn_idx = (event_id * 7 + user_id) % 40
    role     = CASE event_id % 4 -> user|assistant|system|tool
    text     = 'txt-' || event_id
    tool     = 'tool-' || (event_id % 7)
    ts       = events.ts
    model    = (evolution query only) 'm-' || lsn % 3  for lsn >= thr

Updates carry FULL rows (never-null payload) so the oracle's
"row with max lsn per key, excluding deletes" expresses the exact LWW
final state; partial-update semantics are covered by the pytest oracle
(tests/test_engine_e2e.py) instead, since SQL can't see them.

Two execution paths:
  * `cdc_apply_full` -- the real engine end-to-end: derive -> WAL
    segments on disk -> tail/normalize/partition/apply -> atomic
    manifest commit -> snapshot read (U1-U7+S7/S8+ST2/ST3 parity).
  * `apply_changes_dataset` -- pure Dataset expression (no disk): the
    same fold as a groupby(bucket).map_groups resolve; used by the
    dedup / out-of-order variants.
"""

from __future__ import annotations

import os
import shutil
import uuid
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from .. import schemas
from ..config import EngineConfig
from ..sources.wal import WalWriter
from ..stages.controls import resolve_with_controls
from ..stages.partition import BUCKET_COL, Partitioner
from . import ingest

N_CONVS = 200
N_TURNS = 40


# -- derivation ------------------------------------------------------------

def derive_change_batch(t: pa.Table, with_model_from: int | None = None) -> pa.Table:
    """Vectorized events -> change-records transform (numpy kernels)."""
    eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    sel = eid % 10
    op = np.full(len(eid), schemas.OP_INSERT, dtype=object)
    op[(sel >= 6) & (sel < 9)] = schemas.OP_UPDATE
    op[sel == 9] = schemas.OP_DELETE
    conv_id = np.char.add("conv-", (uid % N_CONVS).astype("U4")).astype(object)
    turn = (eid * 7 + uid) % N_TURNS
    roles = np.array(["user", "assistant", "system", "tool"], dtype=object)
    role = roles[eid % 4]
    text = np.char.add("txt-", eid.astype("U20")).astype(object)
    tool = np.char.add("tool-", (eid % 7).astype("U2")).astype(object)
    is_del = op == schemas.OP_DELETE
    role[is_del] = None
    text[is_del] = None
    tool[is_del] = None

    cols = {
        "lsn": pa.array(eid, type=pa.int64()),
        "op": pa.array(op, type=pa.string()),
        "conv_id": pa.array(conv_id, type=pa.string()),
        "turn_idx": pa.array(turn, type=pa.int64()),
        "role": pa.array(role, type=pa.string()),
        "text": pa.array(text, type=pa.string()),
        "tool": pa.array(tool, type=pa.string()),
        "ts": t["ts"],
    }
    if with_model_from is not None:
        model = np.char.add("m-", (eid % 3).astype("U2")).astype(object)
        model[is_del | (eid < with_model_from)] = None
        cols["model"] = pa.array(model, type=pa.string())
    return pa.table(cols)


def changes_dataset(sf_dir: str) -> ray.data.Dataset:
    from ..sources.tables import read_table
    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])
    return ev.map_batches(derive_change_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


# -- pure-Dataset LWW apply (no disk) --------------------------------------

def apply_changes_dataset(ds: ray.data.Dataset, num_buckets: int = 16,
                          schema_version: int = 3,
                          finish=None) -> ray.data.Dataset:
    """Fold a change Dataset to its final visible state, hash-partitioned
    by conv_id. Sound for arbitrary input order because each bucket group
    holds ALL events of its keys when the fold runs.

    `finish(resolved) -> pa.Table` maps each bucket's resolved rows
    (sorted by key, every column of the normalized stream) to that
    bucket's output, in the task that resolved them; the default keeps
    the key and payload columns."""
    payload = schemas.payload_cols(schema_version)
    target = schemas.table_schema(schema_version)
    norm = ingest.SchemaNormalizer(target, keep_extra=(schemas.LSN_COL, schemas.OP_COL))
    ds = ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)
    ds = ds.map_batches(Partitioner(num_buckets), batch_format="pyarrow",
                        zero_copy_batch=True)
    if finish is None:
        final_cols = [*schemas.KEY_COLS, *payload]

        def finish(fin: pa.Table) -> pa.Table:
            return fin.select(final_cols)

    def resolve(g: pa.Table) -> pa.Table:
        return finish(resolve_with_controls(g, payload, []))

    from ..stages.exchange import exchange_map_groups
    return exchange_map_groups(ds, BUCKET_COL, num_buckets, resolve,
                               batch_format="pyarrow")


# -- engine-backed flagship ------------------------------------------------

def _fresh_cfg(tag: str, schema_version: int = 3) -> EngineConfig:
    """Query harness config: a fresh table and WAL under /tmp."""
    root = os.path.join("/tmp", "ttdps-cdcq", f"{tag}-{uuid.uuid4().hex[:8]}")
    cfg = EngineConfig(table_dir=os.path.join(root, "table"),
                       wal_dir=os.path.join(root, "wal"),
                       num_buckets=16,
                       schema_version=schema_version)
    cfg.ensure_dirs()
    return cfg


def _write_events_wal(sf_dir: str, cfg: EngineConfig,
                      evolution_threshold: int | None = None) -> None:
    """Materialize the derived change stream as WAL segments (the
    ingestion boundary; single log writer, as any binlog). Events are
    read in event_id order; segments are cut as disjoint lsn intervals."""
    src = pq.ParquetFile(os.path.join(sf_dir, "events.parquet"))
    w = WalWriter(cfg.wal_dir, segment_rows=100_000, reorder_slack=1024)
    for rb in src.iter_batches(batch_size=65536,
                               columns=["event_id", "user_id", "ts"]):
        t = pa.Table.from_batches([rb])
        if evolution_threshold is None:
            w.append(derive_change_batch(t), 1)
        else:
            ch = derive_change_batch(t, with_model_from=evolution_threshold)
            eid = ch["lsn"].to_numpy()
            lo_mask = eid < evolution_threshold
            if lo_mask.any():
                w.append(ch.filter(pa.array(lo_mask)).drop_columns(["model"]), 1)
            if (~lo_mask).any():
                w.append(ch.filter(pa.array(~lo_mask)), 2)
    w.close()


def _events_max_id(sf_dir: str) -> int:
    """max(event_id) from parquet footer statistics — zero data bytes
    read (the same helper the version-window harnesses use); falls back
    to a column scan only when a row group lacks stats."""
    from .analytics import _parquet_col_max

    path = os.path.join(sf_dir, "events.parquet")
    mx = _parquet_col_max(path, "event_id")
    if mx is None:
        mx = pc.max(pq.read_table(path,
                                  columns=["event_id"])["event_id"]).as_py()
    if mx is None:
        raise ValueError(f"{path}: no non-null event_id (empty events "
                         "table); cannot derive the evolution threshold")
    return int(mx)


def _snapshot_sorted(cfg: EngineConfig) -> ray.data.Dataset:
    snap = ingest.read_snapshot(cfg)
    return snap.sort(list(schemas.KEY_COLS))


def cdc_apply_full(sf_dir: str, cleanup: bool = False) -> ray.data.Dataset:
    """Flagship: full engine replay of the events-derived change stream
    (WAL -> tick(s) -> committed manifest -> LWW snapshot)."""
    cfg = _fresh_cfg("full")
    try:
        _write_events_wal(sf_dir, cfg)
        ingest.run_loop(cfg, stop_when_idle=True)
        snap = _snapshot_sorted(cfg)
        if cleanup:
            # pin the result into the object store BEFORE the rmtree:
            # the sort is lazy and the snapshot's split tasks open run
            # files asynchronously — deleting the dirs under a still-
            # lazy Dataset races the remote reads
            snap = snap.materialize()
        return snap
    finally:
        if cleanup:
            shutil.rmtree(os.path.dirname(cfg.table_dir), ignore_errors=True)


def cdc_export_roundtrip(sf_dir: str) -> ray.data.Dataset:
    """Resumable training-data export: full replay -> snapshot ->
    `sinks.write_partitioned` (bucket=NNNNN dirs with completion
    markers, so a re-run skips finished buckets) -> read the exported
    parquet back. The round-trip must equal the resolved final state —
    value-gates the export sink itself, not just the snapshot."""
    from .sinks import read_partitioned, write_partitioned

    cfg = _fresh_cfg("exp")
    _write_events_wal(sf_dir, cfg)
    ingest.run_loop(cfg, stop_when_idle=True)
    out_dir = os.path.join(os.path.dirname(cfg.table_dir), "export")
    write_partitioned(ingest.read_snapshot(cfg), out_dir,
                      key="conv_id", num_buckets=16)
    rerun = write_partitioned(      # resumability: second run = no-op
        ingest.read_snapshot(cfg), out_dir, key="conv_id",
        num_buckets=16)
    if rerun:                       # explicit: survives python -O
        raise AssertionError(
            f"export re-run rewrote {len(rerun)} finished bucket(s) "
            f"({sorted(rerun)[:5]}); write_partitioned resumability "
            f"is broken")
    return read_partitioned(out_dir).sort(list(schemas.KEY_COLS))


def cdc_replicated_table(sf_dir: str) -> ray.data.Dataset:
    """Cascaded CDC: replay into table A in two committed phases, then
    replicate each delta window A -> B (`ingest.replicate_delta`, the
    stream-on-table -> second-sink chain of the reference); B's
    resolved snapshot must equal the full-resolve oracle. The second
    window is re-applied once to prove idempotence."""
    cfg_a, _cut, v1, v2 = _two_phase_versions(sf_dir, "repl-a")
    cfg_b = _fresh_cfg("repl-b", schema_version=1)
    ingest.replicate_delta(cfg_a, cfg_b, from_version=-1, to_version=v1)
    ingest.replicate_delta(cfg_a, cfg_b, from_version=v1, to_version=v2)
    ingest.replicate_delta(cfg_a, cfg_b, from_version=v1,
                           to_version=v2)   # idempotent re-apply
    return ingest.read_snapshot(cfg_b).sort(list(schemas.KEY_COLS))


def cdc_schema_evolution(sf_dir: str) -> ray.data.Dataset:
    """Column-add evolution through the engine: v1 segments (no `model`)
    below the threshold lsn, v2 segments above; normalize null-fills old
    rows; the final snapshot carries the evolved schema."""
    thr = _events_max_id(sf_dir) // 2
    cfg = _fresh_cfg("evo", schema_version=2)
    _write_events_wal(sf_dir, cfg, evolution_threshold=thr)
    ingest.run_loop(cfg, stop_when_idle=True)
    return _snapshot_sorted(cfg)


def cdc_derived_conv_stats(sf_dir: str) -> ray.data.Dataset:
    """Dual-sink transaction (SampleStream/stream/Main.scala parity):
    the same consumed delta feeds the lake table AND the derived
    per-conversation counters, committed in one atomic manifest
    publish; this returns the resolved derived sink."""
    cfg = _fresh_cfg("dual")
    cfg.derived_views = ("conv_stats",)
    _write_events_wal(sf_dir, cfg)
    ingest.run_loop(cfg, stop_when_idle=True)
    return ingest.read_derived(cfg).sort("conv_id")


def cdc_derived_role_stats(sf_dir: str) -> ray.data.Dataset:
    """Second NAMED derived view (registry parity,
    ``TopRestaurantsLast30Days.scala:38`` createOrReplaceView +
    ``stream/Main.scala:16-19`` multi-sink transaction): per-role event
    counters maintained ALONGSIDE conv_stats from the same consumed
    delta, all three sinks committed in one manifest publish. Returns
    the resolved role_stats view."""
    cfg = _fresh_cfg("roles")
    cfg.derived_views = ("conv_stats", "role_stats")
    _write_events_wal(sf_dir, cfg)
    ingest.run_loop(cfg, stop_when_idle=True)
    return ingest.read_derived(cfg, "role_stats").sort("role")


def cdc_conditional_crud(sf_dir: str) -> ray.data.Dataset:
    """Apply-time conditional UPDATE/DELETE through the engine
    (``SampleCrud.scala:28-36`` conditional update with assignment,
    ``:71-75`` conditional delete): two control ops are committed at
    fixed lsn positions in the stream and evaluated against the CURRENT
    table state by the epoch-aware fold --

      C1 (lsn = max//3):    UPDATE SET role = 'flagged'
                            WHERE startswith(text, 'txt-7')
      C2 (lsn = 2*max//3):  DELETE WHERE role = 'system'

    A row flagged by C1 escapes C2's delete even if its role was
    'system' before C1 -- exactly the state-at-position semantics a
    producer-side rewrite cannot express."""
    from ..stages.controls import ControlOp

    mx = _events_max_id(sf_dir)
    c1, c2 = mx // 3, 2 * mx // 3
    ops = [
        ControlOp(lsn=c1, kind="update",
                  predicate={"col": "text", "fn": "startswith", "value": "txt-7"},
                  assignments={"role": {"fn": "set", "value": "flagged"}}),
        ControlOp(lsn=c2, kind="delete",
                  predicate={"col": "role", "fn": "eq", "value": "system"}),
    ]
    cfg = _fresh_cfg("crud")
    _write_events_wal(sf_dir, cfg)
    ingest.apply_tick(cfg, control_ops=ops)
    ingest.run_loop(cfg, stop_when_idle=True)
    # exercise absorption too: compaction must fold the ops into the
    # bases and the re-read must be identical
    ingest.compact(cfg)
    return _snapshot_sorted(cfg)


def _prefix_key_extractor(t: pa.Table) -> pa.Table:
    """Expression merge key (J7, ``SampleCrud.scala:47-51`` merge ON
    substring(code, 0, 4)): rewrite conv_id to its first 6 chars, so
    e.g. conv-1 / conv-1x / conv-1xx merge into one key space."""
    i = t.schema.get_field_index("conv_id")
    return t.set_column(i, "conv_id", pc.utf8_slice_codeunits(
        t["conv_id"], 0, 6))


def cdc_prefix_merge(sf_dir: str) -> ray.data.Dataset:
    """Engine replay merging on an EXPRESSION key: the key-extractor
    hook rewrites conv_id -> substr(conv_id, 1, 6) before partitioning,
    so routing, fold and storage all operate on the derived key."""
    cfg = _fresh_cfg("prefix")
    cfg.extras["key_extractor"] = _prefix_key_extractor
    _write_events_wal(sf_dir, cfg)
    ingest.run_loop(cfg, stop_when_idle=True)
    return _snapshot_sorted(cfg)


def ingest_json_staged(sf_dir: str) -> ray.data.Dataset:
    """Staged-JSON ingestion end-to-end (reference pipeline #5,
    ``IngestPaymentsStreamFromStage.scala:39-69`` + the parse/flatten of
    ``IngestOrdersFromRawToFlat.scala:39-50``): JSON files land in a
    stage directory (distributed atomic PUTs) -> stream of new files by
    marker -> ``ray.data.read_json`` -> parse_json + lateral flatten of
    the array-of-objects payload -> typed projection (jsonToFields).

    Output is the typed event rows (value as exact cents for float
    parity with the DuckDB oracle over the source parquet)."""
    from ..functions.numeric import cents_arrow
    from ..sources import staged_json

    stage_dir = os.path.join("/tmp", "ttdps-stage", f"q-{uuid.uuid4().hex[:8]}")
    staged_json.stage_events_as_json(sf_dir, stage_dir)
    ds, _marker = staged_json.read_staged_json(stage_dir)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "event_type": t["event_type"],
            "value_c": cents_arrow(t["value"]),
            "ts": t["ts"],
        })

    return ds.map_batches(finish, batch_format="pyarrow",
                          zero_copy_batch=True).sort("event_id")


def cdc_render_transcripts(sf_dir: str,
                           changes: "ray.data.Dataset | None" = None
                           ) -> ray.data.Dataset:
    """Transcript rendering: fold the change stream to its LWW final
    state and emit ONE training text per conversation -- turns in
    turn_idx order, each line "role: text", newline-joined. This is the
    export every LLM-training pipeline runs over the transcript table,
    fused INTO the fold's own exchange: the partition that resolves a
    conversation's final state renders it in the same task (zero extra
    shuffle -- conv_id routing already co-locates whole conversations),
    and only (conv_id, n_turns, transcript) rows leave.

    `changes` overrides the derived stream (tests inject partial-update
    edge cases SQL can't derive from the events table)."""
    out_schema = pa.schema([("conv_id", pa.string()),
                            ("n_turns", pa.int64()),
                            ("transcript", pa.string())])

    def render(fin: pa.Table) -> pa.Table:
        fin = fin.to_pandas()
        if fin.empty:
            return out_schema.empty_table()
        # null role/text (upsert that never set the column) renders as
        # '' -- without the fill the '\n'.join raises on NaN while the
        # SQL string_agg would silently skip the line; COALESCE in the
        # oracle mirrors this choice
        fin["line"] = fin["role"].fillna("") + ": " + fin["text"].fillna("")
        out = fin.groupby("conv_id", sort=False).agg(
            n_turns=("line", "size"),
            transcript=("line", "\n".join)).reset_index()
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False)

    ds = changes_dataset(sf_dir) if changes is None else changes
    return apply_changes_dataset(ds, finish=render).sort("conv_id")


def cdc_turn_windows(sf_dir: str, w: int = 4,
                     stride: int = 2) -> ray.data.Dataset:
    """Sliding turn windows over the resolved transcript table: per
    conversation, overlapping windows of `w` consecutive FINAL turns
    (positions after the LWW fold, so deleted turns never appear and
    turn-idx gaps are closed), each rendered "role: text" newline-
    joined -- how bounded-context training examples are cut from live
    conversation tables (the transcript analogue of
    packing.chunk_documents; same no-subset-window rule: a trailing
    window starts only while it adds uncovered turns).

    Fused like cdc_render_transcripts: the partition that resolves a
    conversation windows it in the same task (conv_id routing already
    co-locates whole conversations; the inner loop is over window
    POSITIONS, not rows); only the emitted windows leave the task."""
    overlap = w - stride

    out_schema = pa.schema([("conv_id", pa.string()),
                            ("window_idx", pa.int64()),
                            ("turn_lo", pa.int64()),
                            ("turn_hi", pa.int64()),
                            ("n_window_turns", pa.int64()),
                            ("window_text", pa.string())])

    def window(fin: pa.Table) -> pa.Table:
        fin = fin.to_pandas()
        if fin.empty:
            return out_schema.empty_table()
        # null-fill as in cdc_render_transcripts (oracle: COALESCE)
        fin["line"] = fin["role"].fillna("") + ": " + fin["text"].fillna("")
        grp = fin.groupby("conv_id", sort=False)
        lines = grp["line"].agg(list)
        turns = grp["turn_idx"].agg(list)
        n = lines.str.len().to_numpy()
        n_win = np.maximum(1, -((n - overlap) // -stride))
        frames = []
        for k in range(int(n_win.max()) if len(n_win) else 0):
            m = n_win > k
            lo = k * stride
            sl = lines[m].str[lo:lo + w]
            st = turns[m].str[lo:lo + w]
            frames.append(pd.DataFrame({
                "conv_id": lines[m].index,
                "window_idx": np.int64(k),
                "turn_lo": st.str[0].astype(np.int64).to_numpy(),
                "turn_hi": st.str[-1].astype(np.int64).to_numpy(),
                "n_window_turns": sl.str.len().astype(np.int64).to_numpy(),
                "window_text": sl.str.join("\n").to_numpy()}))
        return pa.Table.from_pandas(pd.concat(frames, ignore_index=True),
                                    schema=out_schema, preserve_index=False)

    return apply_changes_dataset(changes_dataset(sf_dir), finish=window) \
        .sort(["conv_id", "window_idx"])


def _two_phase_refresh(sf_dir: str, tag: str,
                       view: str) -> "tuple[EngineConfig, object]":
    """Shared matview-query harness: land the derived change stream in
    two phases with an engine tick + view refresh at the boundary (so
    a gated result comes from a FULL first refresh followed by an
    INCREMENTAL one). Returns (cfg, final refresh manifest)."""
    from .matview import refresh_matview

    cfg = _fresh_cfg(tag)
    src = pq.ParquetFile(os.path.join(sf_dir, "events.parquet"))
    half = src.metadata.num_rows // 2
    seen = 0
    w = WalWriter(cfg.wal_dir, segment_rows=100_000, reorder_slack=1024)
    for rb in src.iter_batches(batch_size=65536,
                               columns=["event_id", "user_id", "ts"]):
        t = pa.Table.from_batches([rb])
        if half and seen + t.num_rows >= half:
            # the boundary batch is SPLIT so phase 2 is non-empty even
            # when one read batch covers the whole table (small sf —
            # otherwise the second refresh would be a no-op and the
            # incremental path would never exercise)
            head = t.slice(0, half - seen)
            if head.num_rows:
                w.append(derive_change_batch(head), 1)
            t = t.slice(half - seen)
            half = 0            # phase boundary: tick + first refresh
            w.close()
            ingest.run_loop(cfg, stop_when_idle=True)
            refresh_matview(cfg, view)
            w = WalWriter(cfg.wal_dir, segment_rows=100_000,
                          reorder_slack=1024)
        if t.num_rows:
            w.append(derive_change_batch(t), 1)
        seen += t.num_rows
    w.close()
    ingest.run_loop(cfg, stop_when_idle=True)
    return cfg, refresh_matview(cfg, view)


def _two_phase_matview(sf_dir: str, tag: str, view: str,
                       sort_cols) -> "ray.data.Dataset":
    """Two-phase refresh, then read the view's current rows."""
    from .matview import (GROUPED_MATVIEWS, read_grouped_matview,
                          read_matview)

    cfg, _m = _two_phase_refresh(sf_dir, tag, view)
    read = read_grouped_matview if view in GROUPED_MATVIEWS \
        else read_matview
    return read(cfg, view).sort(sort_cols)


def cdc_matview_conv_stats(sf_dir: str) -> ray.data.Dataset:
    """Materialized-view maintenance through the engine: the
    per-conversation live-stats aggregate (turn count, tool-turn count,
    text characters, max turn index over the RESOLVED state) is kept by
    delta-proportional refreshes. The WAL lands in two phases so the
    gated result comes from a FULL first refresh followed by an
    INCREMENTAL one (affected-keys-only re-resolution, retractions
    included) -- the retraction-aware view shape the additive derived
    sinks cannot express (`TopRestaurantsLast30Days.scala:38` recomputes
    its view from scratch each tick; this maintains it)."""
    return _two_phase_matview(sf_dir, 'mv', 'conv_live_stats',
                               'conv_id')


def cdc_matview_role_stats(sf_dir: str) -> ray.data.Dataset:
    """Grouped materialized view: per-ROLE aggregate over the RESOLVED
    state (a NON-partition-key grouping, so updates/deletes retract
    across arbitrary keys), maintained bucket-proportionally — each
    refresh re-partials only the buckets the delta touched and the read
    merges current per-bucket partials. Two-phase WAL: full first
    refresh, incremental second."""
    return _two_phase_matview(sf_dir, 'gmv', 'role_live_stats',
                               'role')


def cdc_matview_role_tool_stats(sf_dir: str) -> ray.data.Dataset:
    """Multi-column grouped matview: (role, tool) pair aggregate over
    the RESOLVED state — exercises the generic N-col group path where
    the tool member is legitimately NULL for deletes-then-reinserts and
    non-tool turns. Two-phase WAL like the other matview queries."""
    return _two_phase_matview(sf_dir, 'rtmv', 'role_tool_stats',
                               ['role', 'tool'])


def cdc_matview_hourly_activity(sf_dir: str) -> ray.data.Dataset:
    """Windowed grouped matview: event-time tumbling (1h) aggregate
    over the RESOLVED state, maintained incrementally. The group col is
    DERIVED (floor of ts), so late updates that move a row's timestamp
    retract from the old window and land in the new one; `n_convs` is a
    per-window DISTINCT conversation count that merges by plain sum
    because buckets partition conversations exclusively. Two-phase WAL:
    full first refresh, incremental second."""
    return _two_phase_matview(sf_dir, 'hmv', 'hourly_activity',
                               'window_start')


def cdc_erase_conversation(sf_dir: str) -> ray.data.Dataset:
    """PHYSICAL ERASURE (GDPR): replay the full stream, then
    `ingest.erase_conversation('conv-0', scrub_wal=True)` — the key's
    rows leave the run files (bucket-proportional rewrite, one
    strict-CAS commit) AND the WAL segments. The query asserts in-code
    that rows were actually erased and that no file the new manifest
    references still carries the key; the gated result is the
    remaining snapshot."""
    cfg = _fresh_cfg("er")
    _write_events_wal(sf_dir, cfg)
    ingest.run_loop(cfg, stop_when_idle=True)
    m = ingest.erase_conversation(cfg, "conv-0", scrub_wal=True)
    if m.metrics["erasure"]["rows_erased"] <= 0:
        raise AssertionError("erasure removed no rows for conv-0")
    from ..state.manifest import TableState
    state = TableState(cfg.table_dir)
    for f in m.table_run_files():
        col = pq.read_table(os.path.join(state.runs_dir, f),
                            columns=["conv_id"])["conv_id"]
        if pc.any(pc.equal(col, "conv-0")).as_py():
            raise AssertionError(f"erased key survives in {f}")
    return _snapshot_sorted(cfg)


def cdc_token_index(sf_dir: str) -> ray.data.Dataset:
    """INVERTED TEXT INDEX as a grouped matview: token -> (occurrence
    count, distinct-conversation count) over the RESOLVED state,
    maintained incrementally (two-phase WAL: full first refresh, then
    a delta-affected-buckets-only one; updates/deletes retract their
    tokens because bucket partials re-derive from live rows). The
    tokenizer (lower + RE2 split on [^a-z0-9]+) is bit-portable to the
    SQL oracle's regexp_split_to_array."""
    return _two_phase_matview(sf_dir, 'tix', 'token_index', 'token')


def _top_numeric_tokens(cfg, k: int) -> "list[str]":
    """The k largest all-digit tokens in the refreshed index (demo
    glue shared by the search queries; the index read is a Dataset, so
    the top-k itself is distributed: filter -> sort -> limit)."""
    from .matview import read_grouped_matview

    def numeric(t: pa.Table) -> pa.Table:
        keep = pc.match_substring_regex(t["token"], r"^[0-9]+$")
        t = t.filter(keep)
        return t.append_column(
            "tok_num", pc.cast(t["token"], pa.int64()))

    top = read_grouped_matview(cfg, "token_index") \
        .map_batches(numeric, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .sort("tok_num", descending=True).limit(k).take_all()
    return [r["token"] for r in top]


def _assert_pruned_union(cfg, tokens, what: str) -> None:
    """Shared prune gate for the search queries: the union of the
    tokens' index bucket sets must be smaller than a full fan-out."""
    from .matview import token_buckets

    union: set = set()
    nb = cfg.num_buckets
    for tok in tokens:
        hit, nb = token_buckets(cfg, tok)
        union |= set(hit)
    if not len(union) < nb:
        raise AssertionError(f"{what} pruned no bucket scan")


def cdc_token_search(sf_dir: str) -> ray.data.Dataset:
    """Serving-side SEARCH over the inverted index: build the table,
    refresh `token_index`, then `matview.search_tokens(any_of=...)`
    the ten largest numeric tokens in ONE index-pruned scan — the
    union of the tokens' bucket sets is asserted smaller than a full
    fan-out. Numeric tokens are 1:1 with live rows here (each text is
    'txt-<winning lsn>'), so the oracle is the top-10 rows by numeric
    text suffix."""
    from .matview import refresh_matview, search_tokens

    cfg, _cutoff, _v1, _v2 = _two_phase_versions(sf_dir, "ts")
    refresh_matview(cfg, "token_index")
    tokens = _top_numeric_tokens(cfg, 10)
    _assert_pruned_union(cfg, tokens, "token search")
    return search_tokens(cfg, any_of=tokens) \
        .sort(["conv_id", "turn_idx"])


def cdc_token_search_bool(sf_dir: str) -> ray.data.Dataset:
    """BOOLEAN index search: rows containing the hot token 'txt' AND
    any of the five largest numeric tokens (`matview.search_tokens`).
    The bucket-pruning composes: the AND intersects 'txt''s bucket set
    (everything) with the union of the rare tokens' sets, so the scan
    touches only the rare tokens' buckets (asserted in-code). Result =
    the top-5 rows by numeric text suffix."""
    from .matview import refresh_matview, search_tokens

    cfg, _cutoff, _v1, _v2 = _two_phase_versions(sf_dir, "tb")
    refresh_matview(cfg, "token_index")
    any_tokens = _top_numeric_tokens(cfg, 5)
    _assert_pruned_union(cfg, any_tokens, "boolean search")
    return search_tokens(cfg, all_of=("txt",), any_of=any_tokens) \
        .sort(["conv_id", "turn_idx"])


def cdc_ann_search(sf_dir: str) -> ray.data.Dataset:
    """ANN SEARCH COMPOSED WITH INGEST: the IVF vector index is an
    incrementally-maintained grouped matview over the CDC table
    (posting rows (cell, conv_id, turn_idx, embedding), cell-sorted) —
    similarity search composes with the engine the way token search
    does. Two-phase WAL (full first refresh, incremental second —
    asserted), then `matview.search_ann` probes the fixed demo query's
    4 nearest cells, reads ONLY those cells' postings (asserted
    smaller than the index), and exact-ranks top-10. Embeddings are
    deterministic digit-count vectors, so index + search mirror 1:1 in
    SQL (reference parity target: a Snowflake user would run VECTOR
    search server-side; here it's engine state like any other view)."""
    import pyarrow.dataset as pads

    from ..state.manifest import TableState
    from .matview import (ANN_QUERY, GROUPED_MATVIEWS, ann_probe_cells,
                          search_ann)

    cfg, m = _two_phase_refresh(sf_dir, "ann", "ivf_index")
    if m is None or m.metrics["matview_refresh"]["mode"] != "incremental":
        raise AssertionError("second ivf_index refresh was not "
                             "incremental")
    state = TableState(cfg.table_dir)
    paths = state.derived_paths(
        GROUPED_MATVIEWS["ivf_index"].derived_key, state.load_latest())
    probes = ann_probe_cells(ANN_QUERY, 4)
    idx = pads.dataset(paths, format="parquet")
    # the substantive claim: posting rows OUTSIDE the probed cells
    # exist and were skipped (marker rows and superseded generations
    # would make a plain total-vs-probed comparison vacuously true)
    n_skipped = idx.count_rows(
        filter=~pads.field("cell").isin(probes)
        & ~pads.field("cell").is_null())
    if not n_skipped > 0:
        raise AssertionError(
            "probe read pruned nothing: no posting rows outside the "
            f"{len(probes)} probed cells")
    return search_ann(cfg, ANN_QUERY, k=10, nprobe=4) \
        .sort(["conv_id", "turn_idx"])


def cdc_hybrid_search(sf_dir: str) -> ray.data.Dataset:
    """HYBRID (filter + rank) SEARCH: the inverted token index prunes
    and verifies the candidate rows (the ten largest numeric tokens —
    1:1 with live rows here), then the fixed ANN query ranks them by
    embedding cosine and keeps the top 5. Both stages serve from
    incrementally-maintained engine state; bucket pruning asserted
    like the token-search queries."""
    from .matview import ANN_QUERY, refresh_matview, search_hybrid

    cfg, _cutoff, _v1, _v2 = _two_phase_versions(sf_dir, "hs")
    refresh_matview(cfg, "token_index")
    tokens = _top_numeric_tokens(cfg, 10)
    _assert_pruned_union(cfg, tokens, "hybrid search")
    return search_hybrid(cfg, ANN_QUERY, k=5, any_of=tokens) \
        .sort(["conv_id", "turn_idx"])


def _phase_cutoff(sf_dir: str) -> int:
    """The two-phase harnesses' lsn cutoff: max(event_id) // 2, from
    footer stats (no data scan) -- a deterministic lsn predicate, not
    a file position, so a SQL oracle can name the same boundary."""
    from .analytics import _parquet_col_max

    return int(_parquet_col_max(os.path.join(sf_dir, "events.parquet"),
                                "event_id")) // 2


def _write_phase(sf_dir: str, cutoff: int, phase: int,
                 wals: "dict[str, Callable[[pa.Table], pa.Table] | None]"
                 ) -> None:
    """Land one side of the lsn cutoff of the derived change stream
    (phase 0: event_id <= cutoff, phase 1: the rest) in each WAL of
    `wals`, through that WAL's row filter (None keeps every row)."""
    writers = {d: WalWriter(d, segment_rows=1_000_000, reorder_slack=2048)
               for d in wals}
    src = pq.ParquetFile(os.path.join(sf_dir, "events.parquet"))
    for rb in src.iter_batches(batch_size=65536,
                               columns=["event_id", "user_id", "ts"]):
        t = pa.Table.from_batches([rb])
        keep = pc.less_equal(t["event_id"], cutoff) if phase == 0 \
            else pc.greater(t["event_id"], cutoff)
        part = t.filter(keep)
        if not part.num_rows:
            continue
        ch = derive_change_batch(part)
        for d, select in wals.items():
            rows = ch if select is None else select(ch)
            if rows.num_rows:
                writers[d].append(rows, 1)
    for w in writers.values():
        w.close()


def cdc_join_matview_drift(sf_dir: str) -> ray.data.Dataset:
    """CROSS-TABLE JOIN MATVIEW: two independently-ingesting engine
    tables — A consumes the full change stream, B a filtered shadow
    (even lsns only; a deterministic predicate the SQL oracle can
    name) under a DIFFERENT bucket layout — joined per conversation by
    the incrementally-maintained `conv_drift` view (live turn counts /
    text sizes per side + the delta; FULL OUTER per key). Two-phase
    WAL on BOTH tables: the gated result comes from a full first
    refresh followed by an incremental one (affected keys re-resolved
    on each side under its own layout, co-partitioned by key hash,
    joined vectorized per partition)."""
    from .joinview import read_join_matview
    from .matview import refresh_matview

    cfg_a = _fresh_cfg("jva", schema_version=1)
    cfg_b = _fresh_cfg("jvb", schema_version=1)
    cfg_b.num_buckets = 8                  # different layout than A's 16
    cutoff = _phase_cutoff(sf_dir)
    for phase in (0, 1):
        _write_phase(sf_dir, cutoff, phase, {
            cfg_a.wal_dir: None,
            cfg_b.wal_dir: lambda ch: ch.filter(
                pc.equal(pc.bit_wise_and(ch["lsn"], 1), 0))})
        ingest.apply_tick(cfg_a)
        ingest.apply_tick(cfg_b)
        m = refresh_matview(cfg_a, "conv_drift", other=cfg_b)
        want = "full" if phase == 0 else "incremental"
        if m.metrics["matview_refresh"]["mode"] != want:
            raise AssertionError(
                f"phase-{phase} refresh was not {want}")
    return read_join_matview(cfg_a, "conv_drift").sort("conv_id")


def _two_phase_versions(sf_dir: str, tag: str) -> tuple[EngineConfig,
                                                        int, int, int]:
    """Shared harness for the version-window queries: land the derived
    change stream in two lsn-disjoint phases split at `_phase_cutoff`,
    each committed as ONE tick, and return (cfg, cutoff, v1, v2)."""
    from ..state.manifest import TableState

    cfg = _fresh_cfg(tag, schema_version=1)
    cutoff = _phase_cutoff(sf_dir)
    for phase in (0, 1):
        _write_phase(sf_dir, cutoff, phase, {cfg.wal_dir: None})
        ingest.apply_tick(cfg)
        if phase == 0:
            v1 = TableState(cfg.table_dir).latest_version()
    v2 = TableState(cfg.table_dir).latest_version()
    return cfg, cutoff, v1, v2


def cdc_time_travel(sf_dir: str) -> ray.data.Dataset:
    """TIME TRAVEL: ingest the change stream in two committed phases,
    then read the table AS OF the first commit — the later phase's
    inserts/updates/deletes must be invisible. Exercises
    `ingest.read_snapshot_as_of` (immutable manifests naming their run
    files; the read honors the pinned version's schema and layout)."""
    cfg, _cutoff, v1, _v2 = _two_phase_versions(sf_dir, "tt")
    return ingest.read_snapshot_as_of(cfg, v1).sort(
        ["conv_id", "turn_idx"])


def cdc_changefeed_delta(sf_dir: str) -> ray.data.Dataset:
    """CDC OUT: the collapsed change records committed AFTER version
    v1 (`ingest.read_delta`) — the lake table re-exported as a change
    SOURCE for downstream consumers (reference stream-on-table read,
    `SnowflakeUtils.scala:96-118`, at the snapshot level). One row per
    key touched in phase 2, carrying (op, lsn): op is 'delete' when
    the key's last phase-2 event deletes it, 'full' when an insert
    outlives the last delete, else 'partial' (update with no base in
    the window)."""
    cfg, _cutoff, v1, _v2 = _two_phase_versions(sf_dir, "cf")
    return ingest.read_delta(cfg, v1).drop_columns([BUCKET_COL]) \
        .sort(["conv_id", "turn_idx"])


def cdc_rollback_restore(sf_dir: str) -> ray.data.Dataset:
    """ROLLBACK (restore mode): ingest the change stream as two
    committed ticks, then `ingest.rollback` to the phase-1 version —
    a pure metadata commit re-pointing LATEST at the old file set.
    Restore keeps the stream offset, so phase 2's effects are dropped
    and must NOT be re-consumed (checked in-code: the next tick is
    idle). Result = the restored snapshot = the table as of phase 1."""
    cfg, _cutoff, v1, _v2 = _two_phase_versions(sf_dir, "rb")
    ingest.rollback(cfg, v1)
    if ingest.apply_tick(cfg) is not None:
        raise AssertionError("restore must keep the WAL offset "
                             "(phase 2 was re-consumed)")
    return ingest.read_snapshot(cfg).sort(["conv_id", "turn_idx"])


def cdc_rollback_rewind(sf_dir: str) -> ray.data.Dataset:
    """ROLLBACK (rewind mode): same two-phase ingest, but the rollback
    also rewinds ``committed_seq`` to the phase-1 watermark, so the
    next tick RE-CONSUMES the phase-2 WAL segments (the Kafka
    offset-rewind move). The LWW fold is idempotent, so reprocessing
    converges to the full-stream state — the gated result proves
    rewind + replay is lossless end-to-end."""
    cfg, _cutoff, v1, _v2 = _two_phase_versions(sf_dir, "rw")
    ingest.rollback(cfg, v1, rewind_stream=True)
    if ingest.apply_tick(cfg) is None:
        raise AssertionError("rewind must re-consume the phase-2 WAL")
    return ingest.read_snapshot(cfg).sort(["conv_id", "turn_idx"])


def cdc_clone_divergence(sf_dir: str) -> ray.data.Dataset:
    """ZERO-COPY CLONE fork: ingest phase 1 into the source table,
    `ingest.clone_table` it (hardlinked run files + copied stream
    offsets), land phase 2 in the SHARED WAL and tick ONLY the clone.
    The clone resumes at the source's exact offset and resolves the
    full stream; the source stays frozen at phase 1 (checked in-code).
    Gated result = the diverged clone's resolved snapshot."""
    from dataclasses import replace

    cfg = _fresh_cfg("cl", schema_version=1)
    cutoff = _phase_cutoff(sf_dir)
    clone_cfg = replace(cfg, table_dir=cfg.table_dir + "-clone")
    n_src = 0
    for phase in (0, 1):
        _write_phase(sf_dir, cutoff, phase, {cfg.wal_dir: None})
        if phase == 0:
            ingest.apply_tick(cfg)
            n_src = ingest.read_snapshot(cfg).count()
            ingest.clone_table(cfg, clone_cfg)
        else:
            if ingest.apply_tick(clone_cfg) is None:
                raise AssertionError("clone failed to resume the shared "
                                     "WAL at the source's offset")
    if ingest.read_snapshot(cfg).count() != n_src:
        raise AssertionError("source table changed after the clone "
                             "diverged (clone is not independent)")
    return ingest.read_snapshot(clone_cfg).sort(["conv_id", "turn_idx"])


def cdc_exactly_once(sf_dir: str) -> ray.data.Dataset:
    """Duplicate delivery: every change event delivered twice; the
    (key, lsn) dedup inside the fold must yield the identical table."""
    ds = changes_dataset(sf_dir)
    return apply_changes_dataset(ds.union(changes_dataset(sf_dir)))


def cdc_out_of_order(sf_dir: str) -> ray.data.Dataset:
    """Arrival order fully randomized; LWW by lsn must win regardless."""
    ds = changes_dataset(sf_dir).random_shuffle(seed=7)
    return apply_changes_dataset(ds)


def cdc_tool_call_stats(sf_dir: str) -> pd.DataFrame:
    """Per-tool usage over the RESOLVED transcript table: number of
    final-state turns invoking each tool and the number of distinct
    conversations that used it -- the agent-telemetry rollup every
    transcript pipeline reports. Fused into the fold's own exchange
    (the cdc_render_transcripts shape): each partition resolves its
    conversations' final state and emits ONE (tool, n_turns, n_convs)
    partial; conv_id routing makes conversations partition-exclusive,
    so per-partition distinct-conversation counts ADD -- the driver
    merge is a bounded sum over (partitions x tools)."""
    out_schema = pa.schema([("tool", pa.string()),
                            ("n_turns", pa.int64()),
                            ("n_convs", pa.int64())])

    def count(fin: pa.Table) -> pa.Table:
        fin = fin.filter(pc.is_valid(fin["tool"])).to_pandas()
        if fin.empty:
            return out_schema.empty_table()
        agg = fin.groupby("tool", sort=False).agg(
            n_turns=("conv_id", "size"),
            n_convs=("conv_id", "nunique")).reset_index()
        return pa.Table.from_pandas(agg, schema=out_schema,
                                    preserve_index=False)

    parts = apply_changes_dataset(changes_dataset(sf_dir),
                                  finish=count).to_pandas()
    out = parts.groupby("tool", sort=True, as_index=False).agg(
        n_turns=("n_turns", "sum"), n_convs=("n_convs", "sum"))
    return out.sort_values("tool", ignore_index=True)


def cdc_point_lookup(sf_dir: str, conv: str = "conv-42") -> pd.DataFrame:
    """The serving path, driver-gated: replay the change stream through
    the real engine (WAL -> ticks -> committed manifest), then resolve
    ONE conversation via `ingest.read_conversation` -- which scans only
    that conversation's hash bucket (parquet footer stats prune the
    rest). Output = the conversation's final turns, exactly the SQL
    window-fold filtered to the conv_id."""
    cfg = _fresh_cfg("lookup")
    _write_events_wal(sf_dir, cfg)
    ingest.run_loop(cfg, stop_when_idle=True)
    out = ingest.read_conversation(cfg, conv)
    return out.sort_values(list(schemas.KEY_COLS), ignore_index=True)
