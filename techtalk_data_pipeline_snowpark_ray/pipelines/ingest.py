"""The ingest pipeline: WAL tail -> normalize -> partition -> fold-apply
-> atomic commit; plus snapshot read and compaction.

This is the Ray-Data re-expression of the reference's core loop
(``IngestOrdersFromRawToFlat.scala:63-98``: read stream delta ->
explode/normalize -> merge -> commit advancing the stream offset), with
Snowflake's server-side machinery replaced by one write path:

  tick:     wal.list_segments(seq > committed)            # stream read S8
            -> _segment_groups                            # lsn-interval groups
            -> one plain Ray task per group (DirectApplier):  # merge U1-U7
                 scan -> SchemaNormalizer                 # jsonToFields T2
                 -> [key extractor] -> [ChangeValidator]
                 -> Partitioner                           # hash(conv_id)
                 -> fold_table (LWW) -> sorted delta run + derived partials
            -> _check_batch_intervals                     # fold precondition
            -> state.commit.commit                        # txn commit U7

Delta runs land unbucketed (global runs); compaction folds them into
per-bucket bases, and snapshot reads resolve across runs: each bucket's
task reads its own bases and folds them with its slices of the delta
runs, and a bucket that is one base alone is already resolved. Heavy data
never reaches the driver: it touches only segment lists and one
metrics dict per task.

Every run file goes through `state.storage.write_run`: zstd parquet
whose integer and timestamp columns (bucket, turn_idx, lsn, ts) are
delta-coded and whose unique `text` stays plain, because every tick,
compaction, snapshot read and lookup pays for the bytes stored.
"""

from __future__ import annotations

import functools
import os
import time
import uuid
from dataclasses import dataclass, replace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from .. import schemas
from ..config import EngineConfig
from ..sources import wal
from ..stages.apply import fold_table
from ..stages.controls import resolve_stored, sorted_controls
from ..stages.exchange import (block_refs, split_by_route, split_fan_out,
                               table_dataset, tasks_dataset)
from ..stages.normalize import SchemaNormalizer, normalize_batch
from ..stages.partition import (BUCKET_COL, KEY_HASH_COL, Partitioner,
                                hash_strings_arrow)
from ..state.commit import Txn, commit
from ..state.manifest import CommitConflict, Manifest, TableState
from ..state.storage import write_parquet, write_run

_BOOKKEEPING = (schemas.LSN_COL, schemas.OP_COL)


# --------------------------------------------------------------------------
# merge-apply (the stateful stage)
# --------------------------------------------------------------------------

RUN_COLS_FIXED = [BUCKET_COL, *schemas.KEY_COLS, schemas.LSN_COL, schemas.OP_COL]


_COLLAPSED_OPS = pa.array([schemas.OP_FULL, schemas.OP_PARTIAL, schemas.OP_DELETE])


class DirectApplier:
    """Shuffle-free (LSM-style) apply: each task folds its lsn-interval
    batch, sorts it by (bucket, key hash, lsn) and writes one delta run
    straight to storage -- no all-to-all in the ingest hot path, so
    throughput scales linearly with cores. Cross-run LWW resolution is
    deferred to compaction / snapshot read, which operate on the
    already-collapsed (much smaller) records.

    Hot-path note: the whole per-batch fold runs in Arrow/numpy
    (`stages.apply.fold_table`: one lexsort over (key-hash, lsn,
    absolute-rank), then ONE chunk-wise filter gather per column of
    the multi-segment scan -- a pyarrow 16 `ChunkedArray.take` would
    concatenate every chunk first) -- repeated-key batches pay no
    pandas groupby. The partitioner's key hash (`KEY_HASH_COL`) rides
    through the fold and orders the run with one more gather per
    column, on the fold's small single-chunk output, and no re-hash.
    Each task reports its phases' process CPU (`TASK_PHASES`) in its
    metrics row. Hash-groups where two DIFFERENT real keys
    collide on the 64-bit key hash (vanishing probability, checked
    explicitly) are re-folded by the exact dense key code inside
    `fold_table`, which orders by the REAL key columns; collisions are
    thereby harmless.

    ``fold=False`` is the PASS-THROUGH mode for inputs that are NOT
    lsn-interval batches (replication windows: already-collapsed run
    records whose lsn ranges interleave arbitrarily across files, and
    which Ray's rebatching may bundle/split any way). Folding such a
    batch is unsound — collapsing a FULL with a later PARTIAL can mint
    a full record whose lsn masks an intermediate PARTIAL that landed
    in a sibling batch — so pass-through re-partitions and lands the
    records verbatim; read-time LWW resolution (which needs no
    interval precondition) produces the exact state.

    An apply returns one plain metrics dict (run file, counts, input
    lsn range, phase CPU), or None for a batch with no rows.
    """

    def __init__(self, runs_dir: str, txn_id: str, payload_cols: list[str],
                 pre_stages: tuple = (), scan_schema: pa.Schema | None = None,
                 derived_views: tuple = (),
                 barriers: list[int] | None = None, fold: bool = True):
        self.runs_dir = runs_dir
        self.txn_id = txn_id
        self.payload_cols = list(payload_cols)
        self.pre_stages = tuple(pre_stages)
        self.scan_schema = scan_schema
        self.derived_views = tuple(derived_views)
        self.barriers = list(barriers) if barriers else None
        self.fold = fold

    def __call__(self, batch: pa.Table) -> dict | None:
        return self._apply_one(batch)

    def _scan(self, paths: list[str]) -> pa.Table:
        import pyarrow.dataset as pads
        # single-threaded per-task scan: parallelism comes from the
        # task fan-out; nested arrow IO pools (workers x io threads)
        # oversubscribe the host at high parallelism (pinned by A/B)
        return pads.dataset(paths, format="parquet",
                            schema=self.scan_schema) \
            .to_table(use_threads=False)

    def _apply_one(self, batch: pa.Table) -> dict | None:
        t0 = time.process_time()
        for stage in self.pre_stages:   # manually fused normalize/partition
            batch = stage(batch)
        n = batch.num_rows
        if n == 0:
            return None
        # the partitioner's key hash rides through the fold (every row
        # of a group carries the same one) and orders the run
        out = batch.select(RUN_COLS_FIXED + self.payload_cols + [KEY_HASH_COL])
        t1 = time.process_time()
        if self.fold:
            out = fold_table(out, self.payload_cols,
                             kh=batch[KEY_HASH_COL].to_numpy(
                                 zero_copy_only=False),
                             barriers=self.barriers)
        t2 = time.process_time()
        # order the run by (bucket, key-hash, lsn): pure-integer sort
        # that still co-locates each bucket's keys for read locality
        # (the user-visible (conv_id, turn_idx) ordering is produced by
        # compaction / snapshot resolution, not by run files)
        out = out.take(pa.array(np.lexsort((
            out[schemas.LSN_COL].to_numpy(zero_copy_only=False),
            out[KEY_HASH_COL].to_numpy(zero_copy_only=False),
            out[BUCKET_COL].to_numpy(zero_copy_only=False))))) \
            .drop_columns([KEY_HASH_COL])
        t3 = time.process_time()

        fname = f"delta-x{self.txn_id}-{uuid.uuid4().hex[:12]}.parquet"
        write_run(out, os.path.join(self.runs_dir, fname))

        derived_files = write_derived_partials(batch, self.derived_views,
                                               self.runs_dir, self.txn_id)
        t4 = time.process_time()

        op_counts = dict(zip(*np.unique(
            pc.index_in(out[schemas.OP_COL], value_set=_COLLAPSED_OPS)
            .to_numpy(zero_copy_only=False), return_counts=True)))
        return {
            "file": fname,
            "events_in": n, "records_out": out.num_rows,
            "n_full": int(op_counts.get(0, 0)),
            "n_partial": int(op_counts.get(1, 0)),
            "n_delete": int(op_counts.get(2, 0)),
            # (min, max) input lsn: the driver verifies all batches'
            # ranges are pairwise disjoint BEFORE publishing -- the
            # fold's interval precondition made checkable
            "min_lsn": int(pc.min(batch[schemas.LSN_COL]).as_py()),
            "max_lsn": int(pc.max(batch[schemas.LSN_COL]).as_py()),
            "derived_files": derived_files,
            # process CPU ms per phase; `_apply_group` fills in the scan
            "scan_ms": 0.0,
            "prep_ms": (t1 - t0) * 1e3,
            "fold_ms": (t2 - t1) * 1e3,
            "order_ms": (t3 - t2) * 1e3,
            "write_ms": (t4 - t3) * 1e3,
        }


@ray.remote
def _apply_group(applier: DirectApplier, paths: list[str]) -> dict | None:
    """Scan one consecutive segment group and fold it, in one task."""
    t0 = time.process_time()
    batch = applier._scan(paths)
    scan_ms = (time.process_time() - t0) * 1e3
    metrics = applier._apply_one(batch)
    if metrics is not None:
        metrics["scan_ms"] = scan_ms
    return metrics


@ray.remote
def _apply_block(applier: DirectApplier, block,
                 batch_rows: int) -> list[dict]:
    """Apply one Ray Data block (Arrow, or pandas converted by Ray's
    accessor) in slices of at most `batch_rows` rows."""
    from ray.data.block import BlockAccessor
    tbl = BlockAccessor.for_block(block).to_arrow()
    return [r for i in range(0, tbl.num_rows, batch_rows)
            if (r := applier._apply_one(tbl.slice(i, batch_rows)))]


def _apply_blocks(ds: ray.data.Dataset, applier: DirectApplier,
                  batch_rows: int) -> list[dict]:
    """Metrics dicts of `applier` over every block of `ds`, one plain
    task per block."""
    applier_ref = ray.put(applier)
    return [r for rows in ray.get([
        _apply_block.remote(applier_ref, b, batch_rows)
        for b in block_refs(ds)]) for r in rows]


def _check_batch_intervals(ranges) -> None:
    """Verify the direct-mode fold precondition: every batch's input
    lsn range [min, max] must be pairwise disjoint (boundary EQUALITY
    is allowed — a duplicate re-delivery, confined to reorder-slack
    distance by the WAL writer's contract, can legally straddle a
    batch split as two equal-lsn records, which the terminal fold's
    (key, lsn) dedup resolves). A violation means a segment group was
    not an lsn interval; the tick aborts BEFORE publish (its
    written runs are unreferenced orphans, GC-sweepable), so nothing
    corrupt ever commits. `ranges` holds one (min_lsn, max_lsn) pair
    per batch; a pair with a None end (a batch with no lsn range) is
    skipped."""
    pairs = [(lo, hi) for lo, hi in ranges
             if lo is not None and hi is not None]
    if len(pairs) < 2:
        return
    lo, hi = np.array(pairs, dtype=np.int64).T
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    bad = np.flatnonzero(lo[1:] < hi[:-1])
    if bad.size:
        i = int(bad[0])
        raise RuntimeError(
            "direct-apply batch interval violation: batch "
            f"[{lo[i + 1]}, {hi[i + 1]}] overlaps [{lo[i]}, {hi[i]}] — "
            "a segment group was not an lsn interval; tick aborted "
            "before publish (no corrupt state "
            "committed; orphan runs are GC-sweepable)")


#: per-task process-CPU phases of an apply task's metrics row:
#: segment scan; normalize, validate and partition; fold; run
#: ordering; run and derived-partial writes
TASK_PHASES = ("scan_ms", "prep_ms", "fold_ms", "order_ms", "write_ms")


from .derived import DERIVED_CONV_STATS, resolve_views  # noqa: E402


def write_derived_partials(batch: pa.Table, view_names, runs_dir: str,
                           txn_id: str) -> dict[str, str]:
    """Write one additive partial file per registered derived view for
    this batch (see pipelines/derived.py). Written by the same task that
    applies the delta; all partials become visible only through the same
    manifest publish as the main table (atomic multi-sink). Returns
    {view: filename} for the metrics row."""
    out: dict[str, str] = {}
    for view in resolve_views(view_names):
        agg = view.partial(batch)
        fname = f"derived-{view.name}-x{txn_id}-{uuid.uuid4().hex[:12]}.parquet"
        write_run(agg, os.path.join(runs_dir, fname))
        out[view.name] = fname
    return out


# --------------------------------------------------------------------------
# the tick (one consumed delta, one atomic commit)
# --------------------------------------------------------------------------

def _segment_groups(segments: list[wal.Segment],
                    cfg: EngineConfig) -> list[list[str]]:
    """Partition the (seq-ordered) segment list into consecutive groups
    of ~cfg.direct_batch_rows rows each (exact footer counts, no data
    read): the unit of fused read+apply work. Consecutive seqs => each
    group is an lsn interval (the fold's soundness precondition).
    Sizing by ROWS, not compressed bytes — transcript text compresses
    ~6x, so a byte target makes groups too big and starves the task
    fan-out."""
    groups: list[list[str]] = []
    cur: list[str] = []
    cur_rows = 0
    for s in segments:
        rows = pq.read_metadata(s.path).num_rows
        if cur and cur_rows + rows > cfg.direct_batch_rows:
            groups.append(cur)
            cur, cur_rows = [], 0
        cur.append(s.path)
        cur_rows += rows
    if cur:
        groups.append(cur)
    return groups


def _check_bucket_layout(prev: Manifest, cfg: EngineConfig) -> None:
    """Refuse to write with a bucket count that differs from the one the
    table's existing run files were laid out with (bucket is a persisted
    routing key; see Manifest.num_buckets). A mismatch requires an
    explicit re-bucketing compaction, not a silent config change."""
    if (prev.num_buckets and prev.num_buckets != cfg.num_buckets
            and (prev.buckets or prev.global_runs)):
        raise ValueError(
            f"table was committed with num_buckets={prev.num_buckets} but "
            f"cfg.num_buckets={cfg.num_buckets}; changing the bucket count "
            "on an existing table splits persisted LWW state across "
            "compaction groups. Re-bucket via a full compaction with the "
            "old count first, or keep the committed value.")


@dataclass
class TickResult:
    manifest: Manifest
    events_applied: int
    records_written: int
    segments_consumed: int

    @property
    def committed_lsn(self) -> int:
        return self.manifest.committed_lsn


def apply_tick(cfg: EngineConfig,
               control_ops: list | None = None) -> TickResult | None:
    """Consume everything new in the WAL and commit one snapshot version.

    `control_ops` (stages/controls.py ControlOp) are conditional
    UPDATE/DELETE ... WHERE table ops positioned at their lsn in the
    stream (``SampleCrud.scala:28-36,71-75`` parity); they are committed
    with the tick and act as epoch barriers for every fold from here on.
    An op naming an unknown column or a value outside its column's type
    family raises ValueError before anything is written.

    Returns None when there is nothing to consume (control-only ticks
    publish a manifest carrying just the new ops). Crash-safe: nothing
    is visible until the manifest LATEST pointer is swapped.
    """
    cfg.ensure_dirs()
    state = TableState(cfg.table_dir)
    prev_version, prev = state.load_latest_versioned()
    _check_bucket_layout(prev, cfg)

    new_controls = sorted_controls(control_ops)
    run_schema = _run_schema(cfg.schema_version,
                             schemas.payload_cols(cfg.schema_version))
    for op in new_controls:
        op.check(run_schema)
        if op.lsn <= prev.committed_lsn:
            raise ValueError(
                f"control op at lsn {op.lsn} <= committed_lsn "
                f"{prev.committed_lsn}: already-committed records were "
                "folded without this barrier; position new ops after "
                "the committed watermark")
    # re-sort the UNION: a pending future-dated op plus a new lower-lsn
    # op would otherwise leave barriers unsorted, and np.searchsorted
    # over an unsorted barrier list mis-assigns fold epochs silently
    all_controls = sorted_controls(list(prev.control_ops or [])
                                   + new_controls)
    barriers = [c.lsn for c in all_controls] or None
    if new_controls and not wal.list_segments(cfg.wal_dir,
                                              after_seq=prev.committed_seq):
        # control-only tick: nothing to fold, just commit the ops. It
        # reads the WAL position like any tick: an op's lsn was
        # validated against prev.committed_lsn, so a concurrent
        # WAL-consuming winner invalidates it (rebase would commit an
        # op at/below the new watermark) -- conflict instead.
        manifest = commit(state, cfg, prev_version, prev, Txn(
            "control", state.new_txn(), {"control_only": True},
            num_buckets=cfg.num_buckets,
            add_ops=[c.to_dict() for c in new_controls]))
        return TickResult(manifest, 0, 0, 0)
    # each apply task scans its own segment group; only list here
    segments = wal.list_segments(cfg.wal_dir, after_seq=prev.committed_seq)
    if not segments:
        return None
    payload = schemas.payload_cols(cfg.schema_version)
    view_names = list(cfg.derived_views)
    resolve_views(view_names)         # unknown names fail before any write

    txn = state.new_txn()

    # Fully fused stage: each task scans its OWN group of WAL segments
    # straight from storage (what every worker on a real cluster does),
    # then normalize + partition + fold + write -- zero data bytes
    # transit the object store; only segment paths in and one metrics
    # row per group out.
    normalizer = SchemaNormalizer(schemas.table_schema(cfg.schema_version),
                                  keep_extra=_BOOKKEEPING)
    partitioner = Partitioner(cfg.num_buckets, 1, None, include_key_hash=True)
    # key-extractor hook (J7 expression merge keys, SampleCrud.scala:
    # 47-51: merge ON substring(code, 0, 4)): a table->table callable
    # rewriting the key columns BEFORE partitioning, so routing,
    # fold and storage all see the extracted key
    key_extractor = cfg.extras.get("key_extractor")
    pre = [normalizer]
    if key_extractor:
        pre.append(key_extractor)
    # validator sits AFTER the key extractor (it must judge the keys
    # the partitioner will actually hash -- a raw null key the extractor
    # can derive is fine; an extractor emitting a null key must be
    # caught) and BEFORE the partitioner
    if cfg.bad_record_policy != "none":
        from ..stages.validate import QUARANTINE_SUBDIR, ChangeValidator
        pre.append(ChangeValidator(
            cfg.bad_record_policy,
            os.path.join(cfg.table_dir, QUARANTINE_SUBDIR), txn))
    pre.append(partitioner)
    applier = DirectApplier(runs_dir=state.runs_dir, txn_id=txn,
                            payload_cols=payload,
                            pre_stages=tuple(pre),
                            scan_schema=schemas.change_schema(cfg.schema_version),
                            derived_views=tuple(view_names),
                            barriers=barriers)
    # Each task scans and folds ONE consecutive segment group: the
    # fold's collapse is associative only over lsn-interval inputs, and
    # `_segment_groups` makes every group an interval by construction
    # (`_check_batch_intervals` still verifies it before publish).
    # Groups come from the ALREADY-listed segments (re-listing would
    # race a live WAL writer).
    applier_ref = ray.put(applier)
    metrics = [r for r in ray.get([_apply_group.remote(applier_ref, g)
                                   for g in _segment_groups(segments, cfg)])
               if r is not None]
    _check_batch_intervals([(r["min_lsn"], r["max_lsn"]) for r in metrics])
    # with quarantine active, a segment can be consumed while
    # contributing ZERO valid rows (every record diverted); the tick
    # must still publish so committed_seq advances past it -- returning
    # None here would re-read and re-quarantine the same segment
    # forever and stall every later segment behind it
    if not metrics and cfg.bad_record_policy != "quarantine":
        return None

    derived_appends: dict[str, list[str]] = {}
    for r in metrics:
        for view, fname in r["derived_files"].items():
            derived_appends.setdefault(view, []).append(fname)

    def total(k: str) -> int:
        return sum(r[k] for r in metrics)

    committed = max([r["max_lsn"] for r in metrics]
                    + [s.hi for s in segments] + [prev.committed_lsn])
    n_rejected = 0
    if cfg.bad_record_policy == "quarantine":
        import glob as _glob

        from ..stages.validate import QUARANTINE_SUBDIR
        n_rejected = sum(
            pq.read_metadata(p).num_rows for p in _glob.glob(os.path.join(
                cfg.table_dir, QUARANTINE_SUBDIR, f"dead-x{txn}-*.parquet")))
    manifest = commit(state, cfg, prev_version, prev, Txn(
        "tick", txn,
        {
            "events_applied": total("events_in"),
            "records_written": total("records_out"),
            "deletes": total("n_delete"),
            "lag": int(wal.high_watermark(cfg.wal_dir) - committed),
            "events_rejected": n_rejected,
            # apply-task CPU per phase: the sum over tasks, and the
            # slowest task's (a straggler shows as max close to sum)
            "phases": {p: {"sum": round(sum((r[p] for r in metrics), 0.0),
                                        3),
                           "max": round(max((r[p] for r in metrics),
                                            default=0.0), 3)}
                       for p in TASK_PHASES},
        },
        add_global=[r["file"] for r in metrics],
        add_views=derived_appends,
        add_ops=[c.to_dict() for c in new_controls],
        wal_consumed=[s.name for s in segments],
        seq=max(s.seq for s in segments),
        lsn=committed,
        schema_version=cfg.schema_version,
        num_buckets=cfg.num_buckets))
    return TickResult(manifest, total("events_in"), total("records_out"),
                      len(segments))


# --------------------------------------------------------------------------
# snapshot read + compaction
# --------------------------------------------------------------------------
#
# Both fold the complete run set per BUCKET. Dataset.groupby would do a
# SORT-based all-to-all over every run row (measured 40s for 27M rows /
# 0.65 GB zstd at 32 cpus -- the sort, not the exchange, dominates);
# the runs are already collapsed per task, so all the fold needs is
# CO-LOCATION by the stored bucket key. A bucket's base runs are
# co-located by construction (`Manifest.buckets[b]` holds only bucket
# b's rows), so the task that folds bucket b reads them itself. Only
# the global (delta) runs, which hold every bucket, go through a
# raw-Ray hash exchange: one task per file chunk splits each file by
# bucket through `stages.exchange.split_by_route` (one object-store
# entry per (chunk, bucket)), and each bucket's fold task concats its
# base rows and its slices. Every delta run is written sorted by
# bucket, so the split finds a non-decreasing route and cuts zero-copy
# slices by range: no argsort, no gather (a chunk of several files
# still copies each bucket's slices once, into one contiguous table).
# Same data movement, no global sort: 5.5s on the same input. This is
# the deliberate drop-below-Dataset case (a shared shuffle the Dataset
# API only expresses as a sort); partitioning assumption: bucket =
# H(key) % num_buckets is frozen per table (Manifest.num_buckets).


def _split_run_files(file_chunk: list[str], num_buckets: int,
                     columns: list[str] | None = None,
                     bucket_subset: list[int] | None = None,
                     rebucket: bool = False) -> tuple[pa.Table, ...]:
    """Read a chunk of run files and return one Arrow table per bucket
    (per `bucket_subset` id when given, else per bucket). The chunk
    holds global (delta) runs -- every file only under `rebucket`; a
    bucket's base runs are read by its fold task. Each file splits on
    its own and a bucket's slices concat in file order, so rows reach
    the fold as a concat-then-stable-sort would order them.
    Each bucket's table leaves as one chunk per column: a chunk of one
    file stays a zero-copy slice, one of several files is copied once,
    in order. Ray's Arrow serializer and the fold both pay per chunk,
    and a bucket spread over many small delta runs (a live tail) cost
    more that way than the copy.
    `columns` prunes the parquet scan; it is intersected per file with
    that file's schema (runs written before a column-add evolution lack
    the new column -- concat's promote null-fills it, same as the
    unpruned path). `bucket_subset` emits only those buckets' slices
    (wave compaction: rows outside the subset are dropped here, so the
    object count shrinks by the wave factor). `rebucket` recomputes the
    bucket column from the key hash under THIS `num_buckets` (the
    re-bucketing migration path) instead of trusting the stored one.
    A stored bucket outside ``[0, num_buckets)`` raises."""
    # with a bucket subset (and a trusted stored bucket column) the scan
    # drops the other buckets' rows. `write_run` leaves pyarrow's
    # default row groups (up to 1,048,576 rows), so a run file is one
    # group at these sizes and this is a row filter over the decoded
    # file, not a skip of row groups by their footer statistics
    filters = None if rebucket or bucket_subset is None \
        else [(BUCKET_COL, "in", list(bucket_subset))]
    per_file = []
    for p in file_chunk:
        have = pq.read_schema(p).names if columns is not None else None
        t = pq.read_table(p, filters=filters, columns=None if have is None
                          else [c for c in columns if c in have])
        if rebucket:
            nb = (hash_strings_arrow(t["conv_id"])
                  % np.uint64(num_buckets)).astype(np.int32)
            t = t.set_column(t.schema.get_field_index(BUCKET_COL),
                             BUCKET_COL, pa.array(nb, type=pa.int32()))
        per_file.append(split_by_route(
            t, t[BUCKET_COL].to_numpy(), num_buckets, bucket_subset))
    return tuple(pa.concat_tables(parts, promote_options="default")
                 .combine_chunks() for parts in zip(*per_file))


def _read_base(path: str, bucket: int,
               columns: list[str] | None) -> pa.Table:
    """One base run of `bucket`, pruned to `columns` as the split prunes
    a delta run. The base is read without routing, so its footer
    statistics must show that the bucket column holds `bucket` alone:
    anything else (a foreign row, a missing statistic) raises
    ValueError before the rows are decoded. An empty base, which an
    erasure can leave behind, has no statistics and reads as no
    rows."""
    with pq.ParquetFile(path) as f:
        have = f.schema_arrow.names
        md = f.metadata
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            if not rg.num_rows:
                continue
            s = rg.column(have.index(BUCKET_COL)).statistics \
                if BUCKET_COL in have else None
            seen = (s.min, s.max) if s is not None and s.has_min_max \
                else None
            if seen != (bucket, bucket):
                raise ValueError(
                    f"base run {os.path.basename(path)} of bucket {bucket} "
                    f"may hold other buckets' rows: its bucket column's "
                    f"footer (min, max) is {seen}")
        return f.read(columns=None if columns is None
                      else [c for c in columns if c in have])


def _fold_bucket(fn, bucket: int, bases: list[str],
                 columns: list[str] | None, *parts, n_other: int = 0):
    """Fold one bucket: read its base runs (`_read_base`), concat them
    with its exchanged delta slices, in that order, and return
    ``fn(group, lone_base)``. `group` is None when no input has rows;
    `lone_base` is True when the rows are one base run's alone, which
    compaction already resolved (`stages.controls.resolve_stored`).
    `bases` may name several files: compactions before one base per
    bucket left key-exclusive sub-shard bases (`base-b<B>-sNN-x…`).
    The last `n_other` parts are another table's slices re-routed to
    this bucket (a join view's B side); they concat apart and reach fn
    as a third argument."""
    parts, other = parts[:len(parts) - n_other], parts[len(parts) - n_other:]
    base = [t for t in (_read_base(p, bucket, columns) for p in bases)
            if t.num_rows]
    group = _concat_rows(base + list(parts))
    lone_base = len(base) == 1 and not any(p.num_rows for p in parts)
    if n_other:
        return fn(group, lone_base, _concat_rows(list(other)))
    return fn(group, lone_base)


#: `_fold_bucket` as a task: compaction and view refreshes, which return
#: file names, not blocks (a read runs it through `tasks_dataset`)
_fold_bucket_refs = ray.remote(_fold_bucket)


def _concat_rows(tables: list) -> "pa.Table | None":
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables, promote_options="default") \
        if tables else None


def _stored_runs(state: TableState, m: Manifest,
                 buckets: "set[int] | None" = None
                 ) -> tuple[list[str], dict[int, list[str]]]:
    """The run paths a stored-bucket read of `buckets` (default: every
    bucket) covers -- those buckets' base runs, then every global run --
    and each of those buckets' base paths."""
    bases = {int(b): [os.path.join(state.runs_dir, f) for f in runs]
             for b, runs in m.buckets.items()
             if buckets is None or int(b) in buckets}
    return [p for runs in bases.values() for p in runs] \
        + [os.path.join(state.runs_dir, f) for f in m.global_runs], bases


def _exchange_by_bucket(paths: list[str], num_buckets: int,
                        bases: dict[int, list[str]],
                        target_chunk_bytes: int = 256 << 20,
                        columns: list[str] | None = None,
                        bucket_subset: list[int] | None = None,
                        rebucket: bool = False) -> list[tuple]:
    """The one entry point of every stored-bucket read: `paths` is every
    run file the read covers, base runs included. Returns, per bucket
    (per `bucket_subset` id when given), the arguments of its
    `_fold_bucket` call after the fold callable: ``(bucket, its
    base paths, columns, *its delta slice refs)``.

    Bucket b's base runs (`bases[b]`, paths from `Manifest.buckets`)
    are read by b's own fold task; only the other paths -- the global
    runs -- cross the split stage, and a read with none launches no
    split task. A `rebucket` migration, whose route is recomputed,
    sends every path through the split.

    Chunk size targets ~2 chunks per core (bounded above so a chunk's
    decompressed rows stay in one worker's heap); object count is
    chunks x buckets, each entry a contiguous Arrow slice."""
    bases = {} if rebucket else bases
    owned = {p for runs in bases.values() for p in runs}
    split = [p for p in paths if p not in owned]
    ids = list(range(num_buckets)) if bucket_subset is None \
        else list(bucket_subset)
    if not split:
        return [(b, bases.get(b, []), columns) for b in ids]
    total = sum(os.path.getsize(p) for p in split)
    cpus = int(ray.cluster_resources().get("CPU", 8) or 8)
    target = max(8 << 20, min(target_chunk_bytes,
                              total // max(2 * cpus, 1) or total))
    chunks: list[list[str]] = []
    cur: list[str] = []
    size = 0
    for p in split:
        cur.append(p)
        size += os.path.getsize(p)
        if size >= target:
            chunks.append(cur)
            cur, size = [], 0
    if cur:
        chunks.append(cur)
    return [(b, bases.get(b, []), columns, *refs)
            for b, refs in zip(ids, split_fan_out(
                _split_run_files, chunks, len(ids),
                num_buckets, columns, bucket_subset, rebucket))]


def _pruned_scan(columns, payload: list[str],
                 controls) -> tuple[list[str], list[str]]:
    """(pruned payload, parquet scan columns) of a read that needs the
    payload `columns`: those plus whatever pending control ops read or
    write, with the key, lsn, op and bucket columns the fold needs."""
    need = set(columns)
    for c in controls:
        need.add(c.predicate["col"])
        for out_col, spec in c.assignments.items():
            need.add(out_col)
            if "col" in spec:
                need.add(spec["col"])
    pruned = [c for c in payload if c in need]
    return pruned, [*schemas.KEY_COLS, schemas.LSN_COL, schemas.OP_COL,
                    BUCKET_COL, *pruned]


def _run_schema(version: int, payload: list[str]) -> pa.Schema:
    """Column layout of a run file (RUN_COLS_FIXED + `payload`), typed
    by the table schema at `version`."""
    target = schemas.table_schema(version)
    return pa.schema([pa.field(BUCKET_COL, pa.int32()),
                      *(target.field(k) for k in schemas.KEY_COLS),
                      pa.field(schemas.LSN_COL, pa.int64()),
                      pa.field(schemas.OP_COL, pa.string()),
                      *(target.field(c) for c in payload)])


def read_snapshot(cfg: EngineConfig, manifest: Manifest | None = None,
                  final_only: bool = True,
                  columns: list[str] | None = None,
                  buckets: "list[int] | None" = None) -> ray.data.Dataset:
    """Dataset of the committed table state (LWW-resolved across runs).

    Grouping is by `bucket` (the stored layout key). One task per
    bucket reads the bucket's base runs itself and folds them with its
    slices of the global (delta) runs; only the delta rows cross the
    split stage and the object store (`_exchange_by_bucket`). A bucket
    whose only rows are one base run's, with no control op pending, is
    returned as read: compaction wrote it resolved
    (`stages.controls.resolve_stored`).

    The fold tasks' blocks reach Ray Data with the metadata those tasks
    computed (`stages.exchange.tasks_dataset`): the read runs one task
    per bucket and none per block for metadata, the Dataset comes back
    already executed (no streaming executor starts to list its blocks),
    and a failing fold raises here. Every bucket with live rows is one
    block; empty ones are left out (a pandas `map_batches` over a 0-row
    block makes Ray Data log a schema mismatch).

    `columns` (payload subset) pushes projection down to the run-file
    parquet scan: only key cols, lsn/op/bucket and the requested
    payload columns are read and exchanged. Sound because the LWW fold
    resolves each payload column independently (a partial update's
    per-column ffill never looks at sibling columns). Unresolved
    control ops disable pruning for any column their predicates or
    assignments read, so a 2-of-7-column query over a wide transcript
    table scans ~2/7 of the bytes.

    `buckets` restricts the read to a subset of stored buckets (key
    pruning: only those buckets' base runs plus the uncompacted global
    runs are scanned, and only those buckets are folded). Sound
    because buckets partition keys exclusively — every record of a
    restricted key set lives inside its buckets' slices. This is the
    skipping read under the inverted-index search (index-hit buckets,
    matview.search_token).
    """
    state = TableState(cfg.table_dir)
    m = manifest or state.load_latest()
    if buckets is not None:
        buckets = sorted({int(b) for b in buckets})
    paths, bases = _stored_runs(
        state, m, None if buckets is None else set(buckets))
    if buckets == []:
        paths = []
    payload = schemas.payload_cols(cfg.schema_version)
    if not paths:
        empty = schemas.table_schema(cfg.schema_version).empty_table()
        if columns is not None:
            empty = empty.select([*schemas.KEY_COLS, *columns])
        return table_dataset(empty)
    controls = sorted_controls(m.control_ops)

    scan_cols = None
    if columns is not None:
        unknown = [c for c in columns if c not in payload]
        if unknown:
            raise ValueError(f"unknown payload columns {unknown}")
        payload, scan_cols = _pruned_scan(columns, payload, controls)

    final_cols = [*schemas.KEY_COLS,
                  *(payload if columns is None else columns)]
    # an empty bucket resolves a typed empty run, in the scan's column
    # order, through the same path (and thus schema) as an occupied one
    # -- mismatched per-block schemas break unions
    empty_run = _run_schema(cfg.schema_version, payload).empty_table()
    if scan_cols is not None:
        empty_run = empty_run.select(scan_cols)

    def resolve(group: "pa.Table | None", lone_base: bool) -> pa.Table:
        out = resolve_stored(empty_run if group is None else group,
                             payload, controls, lone_base)
        return out.select(final_cols) if final_only else out

    # the exchange splits by the STORED layout: the manifest's bucket
    # count, never the config's (a reader with a stale cfg after a
    # re-bucketing migration would otherwise silently drop every row
    # whose bucket >= cfg.num_buckets)
    per_bucket = _exchange_by_bucket(paths, m.num_buckets or cfg.num_buckets,
                                     bases, columns=scan_cols,
                                     bucket_subset=buckets)
    return tasks_dataset(_fold_bucket,
                         [(resolve, *args) for args in per_bucket],
                         drop_empty=True)


def read_conversation(cfg: EngineConfig, conv_id: str,
                      manifest: Manifest | None = None) -> pd.DataFrame:
    """Point lookup (the serving path): resolve ONE conversation's
    final turns by scanning only its hash bucket -- the read-side
    payoff of the persisted `bucket = H(conv_id) % num_buckets`
    layout. Touches the bucket's base runs plus the not-yet-compacted
    global runs, and keeps the rows that pass the scan filter
    (bucket == b AND conv_id == id). `write_run` leaves pyarrow's
    default row groups (up to 1,048,576 rows), so at today's run sizes
    a file is one row group and the filter runs over its decoded rows;
    the files' (bucket, key hash) order would let bigger files skip
    row groups by their footer statistics. Cost is O(one bucket's
    bytes) regardless of table size; at 100 TB with thousands of
    buckets that is the difference between a serving query and a
    table scan. Resolution (LWW fold + pending control ops + tombstone
    drop + turn_idx ordering) is identical to `read_snapshot`,
    including its lone-base rule: when the bucket's one base run is
    the only file read and no control op is pending, its rows are
    returned as read. With global runs present it stays one scan and
    folds: a second scan to tell whether they hold the conversation
    costs more than the fold."""
    import pyarrow.dataset as pads

    state = TableState(cfg.table_dir)
    m = manifest or state.load_latest()
    nb = m.num_buckets or cfg.num_buckets
    bucket = int(hash_strings_arrow(pa.array([conv_id], pa.string()))[0]
                 % np.uint64(nb))
    payload = schemas.payload_cols(cfg.schema_version)
    bases = m.buckets.get(str(bucket), [])
    files = list(bases) + list(m.global_runs)
    scan_schema = _run_schema(cfg.schema_version, payload)
    if files:
        flt = (pads.field(BUCKET_COL) == bucket) \
            & (pads.field("conv_id") == conv_id)
        t = pads.dataset([os.path.join(state.runs_dir, f) for f in files],
                         format="parquet", schema=scan_schema) \
            .to_table(filter=flt)
    else:
        t = scan_schema.empty_table()
    out = resolve_stored(t, payload, sorted_controls(m.control_ops),
                         lone_base=len(bases) == 1 and not m.global_runs)
    return out.select([*schemas.KEY_COLS, *payload]).to_pandas()


def read_snapshot_as_of(cfg: EngineConfig, version: int,
                        final_only: bool = True) -> ray.data.Dataset:
    """TIME TRAVEL: the table exactly as manifest `version` committed it.

    Manifests are immutable and name their run files, so any retained
    version is readable; the read honors the VERSION'S schema_version
    and num_buckets (not the current config's), so it works across
    schema evolution and is safe against layout drift. Retention is
    bounded by `cfg.gc_keep_versions` (the post-compaction GC deletes
    files only unreferenced by that window) -- a reader pinned to an
    old version within the window never sees files vanish.
    """
    from dataclasses import replace

    state = TableState(cfg.table_dir)
    m = state.load(version)
    cfg_v = replace(cfg,
                    schema_version=m.schema_version or cfg.schema_version,
                    num_buckets=m.num_buckets or cfg.num_buckets)
    return read_snapshot(cfg_v, manifest=m, final_only=final_only)


#: why `read_delta` refuses a window spanning each history rewrite
_NOT_A_DELTA = {
    "compaction": "deltas are only defined between compactions",
    "rollback": "a restore rewrites visible history, so the window's "
                "file lineage is not a change stream",
    "erasure": "an erasure rewrites files without emitting change "
               "records (and replicating them would re-export the "
               "erased rows)",
}


def read_delta(cfg: EngineConfig, from_version: int,
               to_version: int | None = None) -> ray.data.Dataset:
    """CDC OUT: the collapsed change records committed AFTER manifest
    `from_version` up to `to_version` (default latest) -- the lake
    table as a change SOURCE for downstream consumers (the reference's
    stream-on-table read, S8, re-exported at the snapshot level).

    Each manifest names its run files, so the delta is exactly the run
    files referenced by (from_version, to_version] manifests and not by
    `from_version`; rows carry (op, lsn) so a consumer can apply its
    own fold. Compactions rewrite history (their manifests reference
    replacement files, not new changes), so the window must not span
    one -- detected via `Manifest.rewrite` and rejected, as are
    rollbacks and erasures."""
    state = TableState(cfg.table_dir)
    hi = to_version if to_version is not None else state.latest_version()
    if hi is None or hi < from_version:
        raise ValueError(f"bad version window ({from_version}, {hi}]")
    base = set(state.load(from_version).table_run_files()) \
        if from_version >= 0 else set()
    new_files: list[str] = []
    for v in range(from_version + 1, hi + 1):
        m = state.load(v)
        if m.rewrite is not None:
            raise ValueError(
                f"version window ({from_version}, {hi}] spans "
                f"{m.rewrite} v{v}; {_NOT_A_DELTA[m.rewrite]}")
        new_files.extend(f for f in m.table_run_files()
                         if f not in base and f not in new_files)
    if not new_files:
        return table_dataset(
            schemas.table_schema(cfg.schema_version).empty_table())
    return ray.data.read_parquet(
        [os.path.join(state.runs_dir, f) for f in new_files])


def replicate_delta(cfg_src: EngineConfig, cfg_dst: EngineConfig,
                    from_version: int,
                    to_version: int | None = None) -> Manifest | None:
    """Table-to-table replication (downstream materialization): apply
    one table's committed delta window to another table as a single
    destination transaction -- cascaded CDC, the lake analogue of the
    reference's stream-on-table feeding a second sink
    (`stream/Main.scala:16-19`, `DQOrderPaidMoreThanPrice.scala:20-53`
    chain raw->flat->derived tables the same way).

    The delta does NOT pass through the destination's WAL: a WAL is a
    strictly-ordered producer log (disjoint ascending lsn intervals),
    while a replicated window legitimately contains historical lsns
    (duplicate re-deliveries collapsed into upstream runs). Instead
    the window re-normalizes and re-partitions under the DESTINATION's
    schema version and bucket layout, lands as ordinary delta runs,
    and commits in one manifest publish (metrics record the source
    window for lineage). Resolution is LWW by the ORIGINAL lsns, so
    replication is idempotent: re-applying a window adds runs whose
    (key, lsn) records fold to the identical resolved state, and the
    next compaction absorbs the duplicates. The destination's own
    committed_seq is untouched (its WAL position is independent)."""
    ds = read_delta(cfg_src, from_version, to_version)
    cfg_dst.ensure_dirs()
    state = TableState(cfg_dst.table_dir)
    prev_version, prev = state.load_latest_versioned()
    _check_bucket_layout(prev, cfg_dst)
    txn = state.new_txn()
    normalizer = SchemaNormalizer(
        schemas.table_schema(cfg_dst.schema_version),
        keep_extra=_BOOKKEEPING)
    partitioner = Partitioner(cfg_dst.num_buckets, 1, None,
                              include_key_hash=True)
    # fold=False: the window's records are already collapsed by the
    # SOURCE's folds, and their lsn intervals interleave arbitrarily
    # across files — Ray's rebatching does not preserve any interval
    # discipline here, so re-folding could collapse a FULL over a gap
    # whose PARTIAL sits in a sibling batch and mask it at read time.
    # Pass-through is immutable under any bundling; the destination's
    # read-time LWW fold resolves the exact state.
    applier = DirectApplier(
        runs_dir=state.runs_dir, txn_id=txn,
        payload_cols=schemas.payload_cols(cfg_dst.schema_version),
        pre_stages=(normalizer, partitioner), fold=False)
    metrics = _apply_blocks(ds, applier, cfg_dst.direct_batch_rows)
    if not metrics:
        return None
    # committed_lsn stays the DESTINATION's own watermark: the source's
    # lsns are a different domain (importing them would poison the
    # replica's lag metric and its control-op positioning if it also
    # ingests its own WAL -- a replica mixing domains is on the user,
    # but the engine must not corrupt its own bookkeeping)
    # a replicated window does not read the WAL position: it commutes
    # even with a concurrent WAL-consuming tick on the destination
    # (both are pure delta appends; LWW resolves by lsn)
    return commit(state, cfg_dst, prev_version, prev, Txn(
        "replicate", txn,
        {"replicated_from": {"table_dir": cfg_src.table_dir,
                             "versions": [from_version, to_version]},
         "events_applied": sum(r["events_in"] for r in metrics),
         "records_written": sum(r["records_out"] for r in metrics),
         "lag": 0},
        add_global=[r["file"] for r in metrics],
        schema_version=cfg_dst.schema_version,
        num_buckets=cfg_dst.num_buckets))


def rollback(cfg: EngineConfig, to_version: int,
             rewind_stream: bool = False) -> Manifest:
    """RESTORE the table to a prior committed version, as a NEW commit
    (the lake analogue of time travel made writable: Delta RESTORE /
    Snowflake UNDROP-style administrative recovery — the reference
    delegates this to the warehouse; here it is one manifest publish).

    Manifests are immutable and name their run files, so restoring is
    pure metadata: the new version re-points at `to_version`'s exact
    file set (table runs, derived sinks, pending control ops, schema
    and bucket layout). Nothing is rewritten, nothing rewinds history
    — lineage keeps every intermediate version, and the restored files
    become referenced by LATEST again, which re-protects them from GC.
    Only versions still inside the GC retention window are restorable;
    a version whose files were swept raises before publishing.

    Stream-offset semantics (the CDC-specific design point):

    * ``rewind_stream=False`` (default, RESTORE): the WAL offset stays
      at the CURRENT watermark — the undone ticks' effects are dropped
      from the table and will NOT be re-consumed. Use for "a bad
      control op / bad import landed; discard it".
    * ``rewind_stream=True`` (REWIND): ``committed_seq`` also rewinds
      to the target's, so the next tick RE-CONSUMES every WAL segment
      after it. The LWW fold is idempotent, so replay converges to the
      pre-rollback state — use for "reprocess the window with fixed
      code/config" (the classic Kafka offset-rewind move, S7/ST2's
      offset contract made user-drivable).

    Strict CAS, no rebase: an administrative restore racing a live
    writer must fail loudly (`CommitConflict`), not auto-merge.

    Downstream readers that walk file lineage treat the rollback
    commit as a history rewrite, exactly like compaction: matview
    refreshes fall back to a full recompute and `read_delta` refuses
    windows spanning it."""
    state = TableState(cfg.table_dir)
    prev_version, prev = state.load_latest_versioned()
    if prev_version is None:
        raise ValueError("cannot roll back a table with no commits")
    if not 0 <= to_version <= prev_version:
        raise ValueError(f"rollback target v{to_version} out of range "
                         f"[0, {prev_version}]")
    # an erasure is a FLOOR: restoring a pre-erasure version would
    # resurrect physically-erased rows from still-retained files,
    # silently undoing a right-to-be-forgotten action
    for v in range(to_version + 1, prev_version + 1):
        mv = state.load(v)
        if mv.rewrite == "erasure":
            who = mv.metrics["erasure"].get("conv_ids",
                                            mv.metrics["erasure"]
                                            .get("conv_id"))
            raise ValueError(
                f"cannot roll back to v{to_version} across the "
                f"erasure committed at v{v} ({who!r}): erased "
                f"data must not resurrect; re-apply the erasure on "
                f"the restored state instead")
    target = state.load(to_version)
    missing = [f for f in target.run_files()
               if not state.storage.exists(os.path.join(state.runs_dir, f))]
    if missing:
        raise ValueError(
            f"version {to_version} left the GC retention window "
            f"(cfg.gc_keep_versions); missing run files e.g. {missing[:3]}")
    return commit(state, cfg, prev_version, prev, Txn(
        "rollback", state.new_txn(),
        {"rollback_to": to_version,
         "rollback_mode": "rewind" if rewind_stream else "restore"},
        restore=replace(target, committed_seq=target.committed_seq
                        if rewind_stream else prev.committed_seq)))


def clone_table(cfg_src: EngineConfig, cfg_dst: EngineConfig,
                version: int | None = None) -> Manifest:
    """ZERO-COPY CLONE of a committed version into a new table dir
    (Snowflake ``CREATE TABLE .. CLONE`` / Iceberg branch semantics —
    warehouse-side in the reference, one metadata commit here).

    Run files are immutable, so the clone shares them by reference:
    each file is linked (`storage.link_or_copy`: hardlink locally,
    server-side COPY on object stores) under the destination's
    ``runs/`` namespace and the destination publishes a v0 manifest
    with the source version's exact content — data, derived sinks,
    pending control ops, schema version, bucket layout AND stream
    offsets. From that point the two tables are fully independent:
    either side's writes, compactions and GC touch only its own
    references (hardlinks are independent inode refs; deleting one
    name never affects the other).

    The cloned ``committed_seq`` makes the CDC story composable: point
    the clone's config at the SAME WAL and it resumes consuming
    exactly where the source left off (dev/test forks of a live
    table); point it at its own WAL for a frozen fork."""
    src = TableState(cfg_src.table_dir)
    v = version if version is not None else src.latest_version()
    if v is None:
        raise ValueError("source table has no committed version to clone")
    if os.path.abspath(cfg_dst.table_dir) == os.path.abspath(
            cfg_src.table_dir):
        raise ValueError("clone destination must be a different table_dir")
    m = src.load(v)
    cfg_dst.ensure_dirs()
    dst = TableState(cfg_dst.table_dir)
    if dst.latest_version() is not None:
        raise ValueError(
            f"clone destination {cfg_dst.table_dir} already has commits")
    for f in m.run_files():
        try:
            dst.storage.link_or_copy(os.path.join(src.runs_dir, f),
                                     os.path.join(dst.runs_dir, f))
        except FileNotFoundError:
            raise ValueError(
                f"source version {v} left the GC retention window "
                f"(missing run file {f})")
    return commit(dst, cfg_dst, None, Manifest(), Txn(
        "clone", dst.new_txn(),
        {"cloned_from": {"table_dir": cfg_src.table_dir, "version": v}},
        restore=m))


def _without_keys(path: str, conv_ids: "list[str]"
                  ) -> "tuple[pa.Table, int] | None":
    """(the file's rows without the keys', rows removed), or None when
    the file holds none of the keys. The probe reads only the conv_id
    column; single-threaded reads, since parallelism is the per-file
    task fan-out."""
    keys = pa.array(conv_ids, pa.string())
    probe = pq.read_table(path, columns=["conv_id"], use_threads=False)
    if not pc.any(pc.is_in(probe["conv_id"], value_set=keys)).as_py():
        return None
    t = pq.read_table(path, use_threads=False)
    # a null key is not an erased key: keep its rows (a null
    # membership would filter-drop them otherwise)
    kept = t.filter(pc.fill_null(
        pc.invert(pc.is_in(t["conv_id"], value_set=keys)), True))
    return kept, t.num_rows - kept.num_rows


@ray.remote
def _erase_from_file(path: str, out_path: str, conv_ids: "list[str]"
                     ) -> "tuple[int, int] | None":
    """Rewrite one immutable file without the keys' rows. Returns
    (kept, removed), or None when the file contains none of the keys
    (the original stays shared)."""
    hit = _without_keys(path, conv_ids)
    if hit is None:
        return None
    kept, removed = hit
    write_run(kept, out_path)
    return kept.num_rows, removed


@ray.remote
def _scrub_segment(path: str, conv_ids: "list[str]") -> int:
    """In-place WAL-segment scrub (atomic same-name replace: the
    name's lsn interval stays a valid superset bound). Probe-gated:
    segments without the keys are untouched. Returns rows removed."""
    if "conv_id" not in pq.read_schema(path).names:
        return 0                  # e.g. a staged-source side file
    hit = _without_keys(path, conv_ids)
    if hit is None:
        return 0
    kept, removed = hit
    write_parquet(kept, path)
    return removed


def erase_conversation(cfg: EngineConfig, conv_id: str,
                       scrub_wal: bool = False) -> Manifest:
    """Single-key convenience over :func:`erase_conversations`."""
    return erase_conversations(cfg, [conv_id], scrub_wal=scrub_wal)


def erase_conversations(cfg: EngineConfig, conv_ids: "list[str]",
                        scrub_wal: bool = False) -> Manifest:
    """PHYSICAL ERASURE of a batch of conversations (GDPR/right-to-be-
    forgotten — the op a transcript lake must have; a tombstone delete
    only hides rows, this removes their bytes). Cost is
    affected-bucket-proportional, never table-proportional: the keys'
    hash buckets name the only base runs that can hold them, so the
    rewrite set is those buckets' runs, the uncompacted global runs,
    and any derived-sink files carrying a conv_id column (keyed
    matviews, additive sinks) — and a BATCH rewrites each affected
    file once for the whole key set (erasure requests arrive in
    batches; N keys must not mean N rewrites of a shared bucket).
    Files containing none of the keys are NOT rewritten (cheap column
    probe) and stay byte-shared with prior versions/clones.

    The rewrite commits as one manifest (same atomicity as everything
    else; a lost version race redoes it on the new latest); old files become unreferenced and age out via GC
    — full physical purge completes when the retention window passes
    (`gc_keep_versions`), the standard lakehouse erasure contract.
    Lineage-walking readers treat the commit as a history rewrite
    (matviews full-recompute, `read_delta` refuses spanning windows).

    The UNCONSUMED WAL tail is always scrubbed (in-place atomic
    same-name rewrites, probe-gated, task-parallel): segments the
    table hasn't ticked yet would otherwise re-insert the key at the
    very next tick. `scrub_wal=True` extends the scrub to CONSUMED
    history too — without it, a bootstrap replay of the old segments
    by another consumer could resurrect the conversation from the
    log. Derived files that cannot be row-filtered (no conv_id
    column: the token index, grouped/windowed aggregates) are
    INVALIDATED instead — dropped from the manifest (GC collects the
    bytes) and rebuilt by their next refresh, which the erasure guard
    forces to a full recompute over the erased table. A rollback
    across the erasure and a rebase onto it are both refused.

    Caveats a deployment must own: clones made BEFORE the erasure
    still share the old bytes (erase them separately), and replicas
    fed by `replicate_delta` windows that predate it must be erased
    downstream too."""
    if not conv_ids:
        raise ValueError("empty erasure batch")
    conv_ids = sorted(set(conv_ids))
    state = TableState(cfg.table_dir)
    # Losing the version race must not abandon the erasure: the
    # unconsumed WAL tail is scrubbed BEFORE each publish attempt (see
    # `_erase_txn`), so an abandoned attempt would leave the
    # conversations in the table with their in-flight WAL updates
    # already destroyed and no erasure recorded. The driver redoes the
    # (idempotent) rewrite against the new latest instead.
    redo = functools.partial(_erase_txn, cfg, state, conv_ids, scrub_wal)
    return commit(state, cfg, *redo(), rebuild=redo)


def _erase_txn(cfg: EngineConfig, state: TableState,
               conv_ids: "list[str]", scrub_wal: bool
               ) -> "tuple[int, Manifest, Txn]":
    """One attempt of :func:`erase_conversations` on the latest
    version: (version, manifest, txn)."""
    prev_version, prev = state.load_latest_versioned()
    if prev_version is None:
        raise ValueError("cannot erase from a table with no commits")
    nb = prev.num_buckets or cfg.num_buckets
    kh = hash_strings_arrow(pa.array(conv_ids, pa.string()))
    affected = {str(int(b)) for b in (kh % np.uint64(nb))}
    txn = state.new_txn()

    def out_name(f: str) -> str:
        return f"{os.path.splitext(f)[0]}-er{txn}.parquet"

    # candidates: the keys' bucket base runs + global runs + derived
    # files that carry the conv_id key (row-filterable). Per derived
    # CLASS (decided by registry/prefix, never by reading footers):
    #   mv:/jmv: -- keyed by conv_id by construction: REWRITE.
    #   gmv:     -- grouped aggregates may embed the erased text's
    #               CONTENT (the token index literally stores its
    #               vocabulary) and no row filter names the keys'
    #               share; they are recomputable from the table, so
    #               INVALIDATE (drop from the manifest; files age out
    #               via GC; the next refresh is a forced-full rebuild
    #               over the already-erased table).
    #   additive sinks -- fed only by per-tick WAL deltas with NO
    #               recompute path; the conv_id-keyed ones REWRITE,
    #               the rest (role-level counters: numeric aggregates,
    #               no row content) are RETAINED -- dropping them
    #               would permanently destroy unrelated state.
    candidates = [*(f for b in sorted(affected)
                    for f in prev.buckets.get(b, [])),
                  *prev.global_runs]
    refs = {f: _erase_from_file.remote(
                os.path.join(state.runs_dir, f),
                os.path.join(state.runs_dir, out_name(f)), conv_ids)
            for f in candidates}
    from .derived import VIEWS
    drefs = {}
    invalidated = []
    retained = []
    for k, fs in prev.derived.items():
        if k.startswith("gmv:"):
            invalidated.append(k)
            continue
        if k.startswith(("mv:", "jmv:")):
            keyed = True
        else:
            keyed = k in VIEWS and VIEWS[k].key == "conv_id"
        if not keyed:
            retained.append(k)
            continue
        for f in fs:
            drefs[f] = _erase_from_file.remote(
                os.path.join(state.runs_dir, f),
                os.path.join(state.runs_dir, out_name(f)), conv_ids)
    results = {f: r for f, r in zip(refs, ray.get(list(refs.values())))}
    dresults = {f: r for f, r in zip(drefs, ray.get(list(drefs.values())))}

    def remap(files: "list[str]", res: dict) -> "list[str]":
        return [out_name(f) if res.get(f) is not None else f
                for f in files]

    rows_erased = sum(r[1] for r in results.values() if r) \
        + sum(r[1] for r in dresults.values() if r)
    rewritten = sum(1 for r in (*results.values(), *dresults.values())
                    if r)
    erasure = Txn(
        "erase", txn,
        {"erasure": {"conv_ids": conv_ids,
                     "files_rewritten": rewritten,
                     "rows_erased": int(rows_erased),
                     "views_invalidated": sorted(invalidated),
                     "views_retained_aggregate": sorted(retained),
                     "wal_scrubbed": bool(scrub_wal)}},
        buckets={b: remap(fs, results) if b in affected else fs
                 for b, fs in prev.buckets.items()},
        global_runs=remap(prev.global_runs, results),
        views={k: None if k in invalidated else remap(fs, dresults)
               for k, fs in prev.derived.items()})
    # resurrection guard, BEFORE the publish: WAL segments the table
    # has NOT consumed yet would re-insert the keys at the very next
    # tick (committed_seq is untouched by erasure), and scrubbing
    # after the commit would leave a crash window where the erasure is
    # durable but the tail still holds the keys. Scrub-first is safe:
    # if the publish then fails, the WAL merely lost rows the caller
    # asked to erase (over-deletion without a commit; the retry
    # completes the commit), never the reverse. `scrub_wal=True`
    # extends the scrub to consumed history (bootstrap replays /
    # offset rewinds of other consumers). Probe-gated and
    # task-parallel, same shape as the run-file rewrite.
    segs = [s for s in wal.list_segments(cfg.wal_dir)
            if scrub_wal or s.seq > prev.committed_seq]
    if segs:
        ray.get([_scrub_segment.remote(s.path, conv_ids) for s in segs])
    return prev_version, prev, erasure


def snapshot_diff(cfg: EngineConfig, v_from: int, v_to: int | None = None,
                  num_partitions: int = 16) -> ray.data.Dataset:
    """Semantic diff of two committed snapshots: one row per key whose
    visible state differs, labeled added / removed / changed. Works
    across compactions (it compares RESOLVED states, not file lineage
    -- the complement of :func:`read_delta`). Both snapshots hash-route
    by key and each partition diffs its keys in one vectorized merge."""
    from ..stages.exchange import exchange_map_groups

    state = TableState(cfg.table_dir)
    v_hi = v_to if v_to is not None else state.latest_version()
    if v_hi is None:
        raise ValueError("no committed snapshot")
    payload = schemas.payload_cols(cfg.schema_version)
    keys = list(schemas.KEY_COLS)

    def side(tag: int):
        def f(batch: pa.Table) -> pd.DataFrame:
            df = batch.to_pandas()
            # evolution alignment: a snapshot committed under an older
            # schema lacks later-added columns; null-fill so the merge
            # always sees both suffixed sides (an added column counts
            # as "changed" wherever the new side is non-null)
            for c in payload:
                if c not in df.columns:
                    df[c] = None
            df = df[keys + payload]
            df["side"] = np.int8(tag)
            kh = hash_strings_arrow(batch["conv_id"]) \
                + df["turn_idx"].to_numpy().astype(np.uint64)
            df["part"] = (kh % np.uint64(num_partitions)).astype(np.int32)
            return df
        return f

    a = read_snapshot_as_of(cfg, v_from).map_batches(
        side(0), batch_format="pyarrow", zero_copy_batch=True)
    b = read_snapshot_as_of(cfg, v_hi).map_batches(
        side(1), batch_format="pyarrow", zero_copy_batch=True)

    def diff_part(g: pd.DataFrame) -> pd.DataFrame:
        old = g[g["side"] == 0]
        new = g[g["side"] == 1]
        m = old.merge(new, on=keys, how="outer", suffixes=("_a", "_b"),
                      indicator=True)
        change = np.where(m["_merge"] == "left_only", "removed",
                          np.where(m["_merge"] == "right_only", "added",
                                   "changed"))
        same = np.ones(len(m), dtype=bool)
        both = (m["_merge"] == "both").to_numpy()
        for c in payload:
            ca, cb = m[f"{c}_a"], m[f"{c}_b"]
            same &= (ca.eq(cb) | (ca.isna() & cb.isna())).to_numpy()
        keep = ~(both & same)
        out = m.loc[keep, keys].copy()
        out["change"] = change[keep]
        return out

    return exchange_map_groups(a.union(b), "part", num_partitions, diff_part)


def snapshot_to_pandas(cfg: EngineConfig) -> pd.DataFrame:
    """Small-scale convenience (tests): full snapshot, stable ordering."""
    df = read_snapshot(cfg).to_pandas()
    if df.empty and not len(df.columns):
        # Ray's to_pandas drops the schema of a fully-empty Dataset;
        # restore the typed empty frame (legitimately-empty tables
        # exist: e.g. every record quarantined)
        df = schemas.table_schema(cfg.schema_version).empty_table() \
            .to_pandas()
    return df.sort_values(list(schemas.KEY_COLS), kind="stable", ignore_index=True)


def read_derived(cfg: EngineConfig,
                 view: str = DERIVED_CONV_STATS) -> ray.data.Dataset:
    """Resolved state of a named derived view: its additive partials
    merged per the registry's merge_spec (`derived.read_merged`)."""
    from .derived import VIEWS, read_merged

    return read_merged(VIEWS[view],
                       TableState(cfg.table_dir).derived_paths(view))


def _compact_derived(state: TableState, prev: Manifest, txn: str) -> dict[str, list[str]]:
    """Fold each ADDITIVE derived view's partials into a base set (one
    file, or one per hash partition for views past the distribution
    gate). Refreshed views (``mv:``/``gmv:``/``jmv:``) already hold one
    file per bucket, which their refresh replaces; compaction leaves
    them as they are."""
    from .derived import VIEWS, compact_additive_files

    return {view: compact_additive_files(state.runs_dir, view, files, txn)
            for view, files in prev.derived.items()
            if files and view in VIEWS}


def compact(cfg: EngineConfig, waves: int = 1,
            rebucket: bool = False) -> Manifest | None:
    """Fold every bucket's runs into one base run per non-empty bucket
    (one fold task per bucket; each base sorted by (conv_id, turn_idx),
    the reference's 'stable turn ordering' invariant), drop
    tombstones, publish a new manifest. A bucket that holds several
    bases folds into one.

    Safe because compaction folds a bucket's COMPLETE run list and no
    event at lsn <= committed can ever be re-applied (checkpoint rule).

    `waves` > 1 compacts the buckets in that many sequential waves:
    each wave re-reads the run files but emits only its own buckets'
    slices, cutting the exchange's peak object count (and in-flight
    bytes) by the wave factor at the cost of waves-fold re-reads --
    the lever for a pathological backlog (months of uncompacted runs)
    whose full exchange would flood the object store. All waves'
    bases publish in ONE manifest, so atomicity/exactly-once are
    untouched (a crash mid-waves leaves only GC-sweepable orphans).

    `rebucket` is the bucket-count MIGRATION path: rows are re-routed
    by H(conv_id) % cfg.num_buckets during the exchange (stored bucket
    values are recomputed, not trusted) and the manifest commits the
    new count, so a table laid out under an old num_buckets moves to
    the config's value in one atomic compaction -- the explicit
    operation the layout guard (`_check_bucket_layout`) points at.
    LWW safety is preserved because the fold still sees every record
    of a key in exactly one (new) bucket group.
    """
    state = TableState(cfg.table_dir)
    prev_version, prev = state.load_latest_versioned()
    if not prev.buckets and not prev.global_runs:
        return None
    if not rebucket:
        _check_bucket_layout(prev, cfg)
    payload = schemas.payload_cols(cfg.schema_version)
    txn = state.new_txn()
    runs_dir = state.runs_dir

    # absorb control ops the committed watermark covers (their effects
    # land in the compacted bases and the ops leave the manifest);
    # future-dated ops must wait for their position's events
    controls = sorted_controls(prev.control_ops)
    absorb = [c for c in controls if c.lsn <= prev.committed_lsn]

    cols = RUN_COLS_FIXED + payload

    def compact_bucket(group: "pa.Table | None",
                       lone_base: bool) -> "dict | None":
        if group is None or group.num_rows == 0:
            return None
        bucket = group[BUCKET_COL][0].as_py()
        # the user-visible stable (conv_id, turn_idx) ordering lives in
        # the compacted base runs
        out = resolve_stored(group.select(cols), payload, absorb,
                             lone_base)
        fname = f"base-b{bucket:05d}-x{txn}.parquet"
        write_run(out, os.path.join(runs_dir, fname))
        return {"bucket": int(bucket), "file": fname, "rows": out.num_rows}

    paths, bases = _stored_runs(state, prev)
    waves = max(1, min(int(waves), cfg.num_buckets))
    metas = []
    for w in range(waves):
        subset = None if waves == 1 else list(range(w, cfg.num_buckets, waves))
        metas += [m for m in ray.get([
            _fold_bucket_refs.remote(compact_bucket, *args)
            for args in _exchange_by_bucket(paths, cfg.num_buckets, bases,
                                            bucket_subset=subset,
                                            rebucket=rebucket)]) if m]

    return commit(state, cfg, prev_version, prev, Txn(
        "rebucket" if rebucket else "compact", txn,
        {"compaction": True,
         "live_rows": int(sum(m["rows"] for m in metas))},
        buckets={str(m["bucket"]): [m["file"]] for m in metas},
        global_runs=[],
        views=_compact_derived(state, prev, txn),
        absorb_ops=[c.to_dict() for c in absorb],
        schema_version=prev.schema_version,
        num_buckets=cfg.num_buckets))


# --------------------------------------------------------------------------
# the continuous runner (Pipeline.asContinuous parity, W1-W3)
# --------------------------------------------------------------------------

def run_loop(cfg: EngineConfig, max_ticks: int | None = None,
             poll_interval_s: float = 0.2,
             compact_every: int = 0,
             stop_when_idle: bool = False,
             background_compaction: bool = False) -> list[TickResult]:
    """Driver micro-batch loop: poll WAL -> apply tick -> commit ->
    (periodic compaction). The analogue of `Pipeline.asContinuous`
    (`Pipeline.scala:6-20`) + `waitStreamAsData`
    (`SnowflakeUtils.scala:120-128`); in tests a bounded replay.

    `background_compaction=True` runs each triggered compaction in a
    driver-side thread CONCURRENTLY with subsequent ticks instead of
    stalling the loop for it -- the production shape at scale, where a
    full-table compaction takes orders of magnitude longer than a
    tick. Safe because every commit goes through the one driver
    (`state.commit.commit`): whichever side loses the version race to
    a commuting winner re-points its run files and retries; a
    compaction that loses non-commutably (or exhausts its retries)
    just yields -- the next trigger re-attempts from fresh state -- and
    a view refresh that loses recomputes on the new latest
    (`refresh_matview(..., redo=True)`). At most ONE compaction is in
    flight (a live thread defers new triggers), and the in-thread GC
    runs only when `cfg.gc_min_age_s > 0` (the age guard is what
    protects a concurrent tick's written-but-unpublished runs from the
    sweep)."""
    import threading
    import time

    if background_compaction and cfg.gc_min_age_s <= 0:
        # the foreground path GCs after every compaction even at age 0
        # (single-writer mode), but the background thread REQUIRES the
        # age guard to avoid sweeping a concurrent tick's
        # written-but-unpublished runs -- so age 0 disables GC there.
        # A long-running deployment that flips the flag must not
        # silently accumulate superseded run files forever.
        import warnings
        warnings.warn(
            "run_loop(background_compaction=True) with gc_min_age_s=0 "
            "disables orphan-run GC entirely (the age guard is what "
            "makes a concurrent sweep safe); set cfg.gc_min_age_s to a "
            "value above your longest write-to-publish gap (e.g. 300) "
            "to re-enable it", RuntimeWarning, stacklevel=2)

    if cfg.matviews:
        # fail fast on a typo'd view name BEFORE any tick commits --
        # the per-tick refresh would otherwise KeyError mid-run with
        # WAL partially consumed
        from .matview import check_matview_names
        check_matview_names(cfg.matviews)

    compactor: list = [None]
    bg_errors: list = []

    def _bg_compact():
        try:
            compact(cfg)
            if cfg.gc_min_age_s > 0:
                TableState(cfg.table_dir).gc_orphan_runs(
                    keep_versions=cfg.gc_keep_versions,
                    min_age_s=cfg.gc_min_age_s)
        except CommitConflict:
            pass          # non-commutable loss; next trigger re-attempts
        except Exception as e:  # noqa: BLE001 -- surfaced after the loop
            bg_errors.append(e)

    results: list[TickResult] = []
    ticks = 0
    while max_ticks is None or ticks < max_ticks:
        res = apply_tick(cfg)
        if res is None:
            if stop_when_idle:
                break
            time.sleep(poll_interval_s)
            continue
        results.append(res)
        ticks += 1
        if cfg.matviews:
            from .matview import refresh_matview
            for mv in cfg.matviews:
                # a refresh can lose the version race to a background
                # compaction; it then recomputes on the new latest
                refresh_matview(cfg, mv, redo=True)
        backlog = (cfg.auto_compact_runs and
                   len(res.manifest.table_run_files()) > cfg.auto_compact_runs)
        if backlog or (compact_every and ticks % compact_every == 0):
            if background_compaction:
                t = compactor[0]
                if t is None or not t.is_alive():
                    t = threading.Thread(target=_bg_compact, daemon=True,
                                         name="bg-compaction")
                    compactor[0] = t
                    t.start()
            else:
                compact(cfg)
                # sweep run files no manifest in the retention window
                # references (aborted txns, superseded compactions) --
                # a long-running deployment must not accumulate them
                TableState(cfg.table_dir).gc_orphan_runs(
                    keep_versions=cfg.gc_keep_versions,
                    min_age_s=cfg.gc_min_age_s)
    if compactor[0] is not None:
        compactor[0].join()
    if bg_errors:
        raise bg_errors[0]
    return results


def bootstrap_import(cfg: EngineConfig, source, lsn: int = -1) -> Manifest:
    """Initial-load backfill: register an EXISTING table (parquet path
    or Dataset) as the lake table's first committed snapshot without
    synthesizing per-row WAL events -- the production path for "bulk
    load history, then tail CDC from here". SHOW_INITIAL_ROWS /
    overwrite-bootstrap parity (`SnowflakeUtils.scala:51,60`,
    `IngestAndOverwriteRestaurantWithStage.scala:43`).

    Every imported row becomes a collapsed full record at `lsn`
    (default -1: strictly before any WAL lsn, so replayed CDC events
    always win the LWW fold -- exactly the initial-snapshot-then-delta
    semantic). Source columns go through the schema-registry
    projection (case-insensitive, cast, null-fill), so an older or
    differently-cased source lays down cleanly under the current
    schema version. One plain task per source block writes one sorted
    global run (direct-mode layout) per slice of at most
    `direct_batch_rows` rows, only metrics dicts reach the driver, and
    nothing is visible until the single manifest publish. The backfill
    is the table's FIRST commit, like a clone's: a table with any
    committed version -- runs, or only control ops -- raises before
    any file is written."""
    cfg.ensure_dirs()
    state = TableState(cfg.table_dir)
    if state.latest_version() is not None:
        raise ValueError(
            "bootstrap_import requires an empty table; the backfill "
            "must be the first commit (import into a fresh table_dir)")
    ds = ray.data.read_parquet(source) if isinstance(source, str) else source
    txn = state.new_txn()
    # pass-through apply: every row is already one full record at `lsn`
    applier = DirectApplier(
        runs_dir=state.runs_dir, txn_id=txn,
        payload_cols=schemas.payload_cols(cfg.schema_version),
        pre_stages=(functools.partial(
            _as_full_records, target=schemas.table_schema(cfg.schema_version),
            lsn=lsn),
            Partitioner(cfg.num_buckets, 1, None, include_key_hash=True)),
        fold=False)
    metrics = _apply_blocks(ds, applier, cfg.direct_batch_rows)
    return commit(state, cfg, None, Manifest(), Txn(
        "bootstrap", txn,
        {"bootstrap_import": True,
         "events_applied": sum(r["events_in"] for r in metrics),
         "records_written": sum(r["records_out"] for r in metrics),
         "lag": 0},
        restore=Manifest(committed_lsn=lsn,
                         schema_version=cfg.schema_version,
                         num_buckets=cfg.num_buckets,
                         global_runs=sorted(r["file"] for r in metrics))))


def _as_full_records(batch: pa.Table, target: pa.Schema,
                     lsn: int) -> pa.Table:
    """A bootstrap batch projected onto the table schema, each row a
    full record at `lsn`."""
    t = normalize_batch(batch, target)
    n = t.num_rows
    t = t.append_column(schemas.LSN_COL, pa.array(np.full(n, lsn, np.int64)))
    return t.append_column(schemas.OP_COL,
                           pa.array([schemas.OP_FULL] * n, pa.string()))


def metrics_history(cfg: EngineConfig) -> pd.DataFrame:
    """Per-version metrics time series from the manifest lineage (the
    north-star's throughput/lag observable surface, U3 MergeResult
    parity as a queryable table instead of printouts): one row per
    committed version, oldest first -- events applied, records written,
    replication lag (max WAL lsn - committed lsn at commit time),
    segments consumed, run-file count, and whether the version was a
    compaction. Driver-side by construction: manifests are O(versions)
    small JSON, never data files."""
    state = TableState(cfg.table_dir)
    rows = []
    for m in reversed(state.lineage()):
        met = m.metrics or {}
        rows.append({
            "version": m.version,
            "txn_id": m.txn_id,
            "committed_seq": m.committed_seq,
            "committed_lsn": m.committed_lsn,
            "schema_version": m.schema_version,
            "is_compaction": m.rewrite == "compaction",
            "events_applied": int(met.get("events_applied", 0)),
            "records_written": int(met.get("records_written", 0)),
            "lag": int(met.get("lag", 0)),
            "segments_consumed": len(m.wal_consumed),
            "table_run_files": len(m.table_run_files()),
        })
    return pd.DataFrame(rows)
