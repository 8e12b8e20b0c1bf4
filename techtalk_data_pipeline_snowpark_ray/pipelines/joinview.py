"""Cross-table JOIN materialized views: a per-key join of TWO
independently-ingesting CDC tables, maintained incrementally.

The reference chains tables by recomputing derived joins from scratch
every tick (`DQOrderPaidMoreThanPrice.scala:20-53` reads both sides
whole); at lake scale a tick touches a tiny key set, so the refresh
here is **delta-proportional on BOTH sides**:

  1. affected keys = distinct ``conv_id`` in the run files either
     table added since the view's last refreshed (versionA, versionB)
     pair (column-pruned scans, delta-sized);
  2. ONLY those keys re-resolve — on each side independently
     bucket-pruned under that side's OWN layout (the two tables may
     have different bucket counts; the join key hash is layout-free);
  3. the resolved key slices of both sides co-partition by key hash,
     each partition joins its keys vectorized (FULL OUTER per key),
     and the result lands as LWW-versioned view run files (keys that
     vanished from both sides get tombstones) committed by ONE
     manifest publish on the PRIMARY (A) table.

The view file names carry BOTH source versions
(``jmv-<name>-sa<VA>-sb<VB>-x<txn>``), so the next refresh windows
each side separately; any non-delta-expressible event on either side
(first refresh, compaction, re-bucketing, rollback, erasure, control
ops) falls back to a full recompute, reusing matview._delta_files'
rules per side. `_mv_seq` for the latest-wins read merge is the A
version the refresh committed (strictly increasing: every refresh
publishes a new A version).

Read side and tombstone semantics are shared with
:mod:`.matview` (`merge_latest`, measured-small single-task gate).
"""

from __future__ import annotations

import os
import re
import uuid
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..config import EngineConfig
from ..stages.exchange import block_refs, exchange_map_groups
from ..stages.partition import hash_strings_arrow
from ..state.manifest import Manifest, TableState
from ..state.storage import write_run
from .matview import (MV_SEQ_COL, _delta_files, _scan_affected,
                      _state_cols, merge_latest, read_keyed_view)

JMV_PREFIX = "jmv:"
_JMV_RE = re.compile(r"-sa(\d+)-sb(\d+)-x")


@dataclass(frozen=True)
class JoinMatView:
    """A per-key FULL OUTER join of two tables' resolved states.

    ``join`` is a vectorized whole-relation transform: given the live
    resolved rows of ANY complete key set from side A and side B
    (columns ``conv_id`` + the side's source cols), return exactly one
    row per key present on EITHER side. It runs per co-partition
    (key-exclusive on both sides), so results need no cross-task
    merge."""
    name: str
    source_cols_a: tuple[str, ...]
    source_cols_b: tuple[str, ...]
    #: output columns (name, arrow type) besides conv_id
    agg_fields: tuple[tuple[str, pa.DataType], ...]
    join: Callable[[pa.Table, pa.Table], pa.Table]

    @property
    def derived_key(self) -> str:
        return JMV_PREFIX + self.name

    def empty_result(self) -> pa.Table:
        cols = {"conv_id": pa.array([], pa.string())}
        for n, t in self.agg_fields:
            cols[n] = pa.array([], t)
        return pa.table(cols)


def _conv_drift_join(a: pa.Table, b: pa.Table) -> pa.Table:
    """Drift view between a primary and a shadow/replica table: per
    conversation, both sides' live turn counts and text sizes plus the
    deltas — the table-comparison every dual-write / migration
    pipeline watches. FULL OUTER: a conv on one side only reports 0
    for the other."""
    def stats(t: pa.Table, n_col: str, c_col: str) -> pa.Table:
        chars = pc.cast(pc.fill_null(pc.utf8_length(t["text"]), 0),
                        pa.int64())
        g = pa.table({"conv_id": t["conv_id"],
                      n_col: pa.array(np.ones(t.num_rows, np.int64)),
                      c_col: chars})
        agg = pa.TableGroupBy(g, "conv_id").aggregate(
            [(n_col, "sum"), (c_col, "sum")])
        return agg.rename_columns(["conv_id", n_col, c_col])

    m = stats(a, "n_turns_a", "chars_a").join(
        stats(b, "n_turns_b", "chars_b"), "conv_id",
        join_type="full outer", use_threads=False)
    cols = {"conv_id": m["conv_id"]}
    for c in ("n_turns_a", "chars_a", "n_turns_b", "chars_b"):
        cols[c] = pc.fill_null(m[c], 0)
    cols["turn_diff"] = pc.subtract(cols["n_turns_a"], cols["n_turns_b"])
    return pa.table(cols).sort_by("conv_id")


JOIN_MATVIEWS: dict[str, JoinMatView] = {}
JOIN_MATVIEWS["conv_drift"] = JoinMatView(
    name="conv_drift",
    source_cols_a=("text",), source_cols_b=("text",),
    agg_fields=(("n_turns_a", pa.int64()), ("chars_a", pa.int64()),
                ("n_turns_b", pa.int64()), ("chars_b", pa.int64()),
                ("turn_diff", pa.int64())),
    join=_conv_drift_join)


def _write_jmv(tbl: pa.Table, runs_dir: str, fname_base: str) -> str:
    """Atomic parquet publish of one join-view file (the jmv analogue
    of matview._write_mv_file; name carries the -sa/-sb watermark via
    fname_base)."""
    fname = f"{fname_base}-{uuid.uuid4().hex[:12]}.parquet"
    write_run(tbl, os.path.join(runs_dir, fname))
    return fname


def _last_join_refreshed(m: Manifest, view: JoinMatView
                         ) -> "tuple[int, int] | None":
    """(versionA, versionB) of the newest view file, from the
    self-describing names — the refresh watermark travels inside the
    manifest, nothing sidecar."""
    best: "tuple[int, int] | None" = None
    for f in m.derived.get(view.derived_key, ()):
        mm = _JMV_RE.search(f)
        if mm is None:
            raise ValueError(f"unparseable join-view run file {f!r}")
        pair = (int(mm.group(1)), int(mm.group(2)))
        best = pair if best is None else max(best, pair)
    return best


def _jmv_watermark_native(state_a: TableState, cfg_b: EngineConfig,
                          view: JoinMatView,
                          last: "tuple[int, int]") -> bool:
    """True iff the parsed ``(sa, sb)`` watermark was minted by THIS
    A-lineage against THIS B table (the jmv analogue of
    matview._watermark_native). The minting refresh publishes on A
    with ``expected_parent=sa`` (strict CAS), so the commit at version
    ``sa + 1`` must exist here and record
    ``matview_refresh{view=derived_key, source_version=sa,
    source_b={table_dir, version=sb}}``. Foreign stamps — a zero-copy
    CLONE of A carrying the source's view files, or cfg_b re-pointed
    at a different B lineage — fail the check and force the full
    refresh, which replaces the file set with natively-stamped
    files."""
    la, lb = last
    try:
        mm = state_a.load(la + 1).metrics.get("matview_refresh") or {}
    except FileNotFoundError:
        return False
    sb = mm.get("source_b") or {}
    return (mm.get("view") == view.derived_key
            and mm.get("source_version") == la
            and sb.get("version") == lb
            and os.path.realpath(str(sb.get("table_dir", "")))
            == os.path.realpath(cfg_b.table_dir))


def _affected_keys(state: TableState, files: "list[str]") -> "set[str]":
    return {k for t in ray.get([_scan_affected.remote(
        os.path.join(state.runs_dir, f)) for f in files])
        for k in t["conv_id"].to_pylist()}


def _side_ds(cfg: EngineConfig, m: Manifest, view: JoinMatView,
             side: int, keys: "set[str] | None", P: int,
             schema: pa.Schema) -> ray.data.Dataset:
    """One table's resolved (conv_id + source cols) as a Dataset in
    the UNION schema (both sides' source columns suffixed __a/__b, the
    other side's as typed nulls): restricted to the affected keys when
    incremental (bucket-pruned under THIS side's own layout, then a
    vectorized membership filter), streamed whole on the fallback.
    Rows carry `part` = key hash % P, layout-free so both sides
    co-partition identically regardless of their bucket counts."""
    from .ingest import read_snapshot

    src = view.source_cols_a if side == 0 else view.source_cols_b
    buckets = None
    key_arr = None
    if keys is not None:
        nb = m.num_buckets or cfg.num_buckets
        key_arr = pa.array(sorted(keys), pa.string())
        kh = hash_strings_arrow(key_arr)
        buckets = sorted({int(b) for b in (kh % np.uint64(nb))})
    ds = read_snapshot(cfg, manifest=m, columns=list(src),
                       buckets=buckets)

    def prep(t: pa.Table) -> pa.Table:
        if key_arr is not None:
            t = t.filter(pc.is_in(t["conv_id"], value_set=key_arr))
        cols = {"conv_id": t["conv_id"]}
        part = (hash_strings_arrow(t["conv_id"]) % np.uint64(P)) \
            .astype(np.int64) if t.num_rows else \
            np.array([], np.int64)
        cols["part"] = pa.array(part, pa.int64())
        cols["_side"] = pa.array(np.full(t.num_rows, side, np.int8))
        for f in schema:
            if f.name in ("conv_id", "part", "_side"):
                continue
            base, tag = f.name.rsplit("__", 1)
            mine = (tag == "a") == (side == 0)
            cols[f.name] = pc.cast(t[base], f.type) if mine \
                else pa.nulls(t.num_rows, f.type)
        return pa.table(cols).cast(schema)

    return ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)


def _union_schema(view: JoinMatView, m_a: Manifest, m_b: Manifest,
                  cfg_a: EngineConfig, cfg_b: EngineConfig) -> pa.Schema:
    from .. import schemas

    def typ(cfg, m, c):
        t = schemas.table_schema(m.schema_version or cfg.schema_version)
        return t.field(c).type

    fields = [pa.field("conv_id", pa.string()),
              pa.field("part", pa.int64()),
              pa.field("_side", pa.int8())]
    fields += [pa.field(f"{c}__a", typ(cfg_a, m_a, c))
               for c in view.source_cols_a]
    fields += [pa.field(f"{c}__b", typ(cfg_b, m_b, c))
               for c in view.source_cols_b]
    return pa.schema(fields)


def refresh_join_matview(cfg_a: EngineConfig, cfg_b: EngineConfig,
                         name: str) -> "Manifest | None":
    """Bring the join view up to BOTH tables' latest committed
    versions; commits on table A. Returns None when already fresh.
    The join itself is distributed in both modes: the two sides
    co-partition by key hash through the raw exchange and each
    partition joins its keys vectorized, writing its view file
    in-task — the driver only ever sees file names plus (incremental
    mode) the affected/joined key sets, never table-sized data."""
    view = JOIN_MATVIEWS[name]
    state_a, state_b = TableState(cfg_a.table_dir), TableState(cfg_b.table_dir)
    cur_a, m_a = state_a.load_latest_versioned()
    cur_b, m_b = state_b.load_latest_versioned()
    if cur_a is None or cur_b is None:
        return None
    last = _last_join_refreshed(m_a, view)
    if last is not None and not _jmv_watermark_native(state_a, cfg_b,
                                                      view, last):
        last = None                      # foreign (cloned) stamps
    if last is not None and last[0] >= cur_a and last[1] >= cur_b:
        return None                      # already fresh: idempotent

    keys: "set[str] | None" = None
    mode, reason = "full", "first-refresh"
    if last is not None:
        la, lb = last
        delta_a, reason_a = ([], "") if la >= cur_a else \
            _delta_files(state_a, la, m_a, cur_a)
        delta_b, reason_b = ([], "") if lb >= cur_b else \
            _delta_files(state_b, lb, m_b, cur_b)
        if delta_a is not None and delta_b is not None:
            if not delta_a and not delta_b:
                return None
            keys = _affected_keys(state_a, delta_a) \
                | _affected_keys(state_b, delta_b)
            mode = "incremental"
        else:
            reason = reason_a if delta_a is None else reason_b

    P = max(1, min(len(keys), 16)) if keys is not None \
        else max(1, min(32,
                        int(ray.cluster_resources().get("CPU", 8) or 8)))
    schema = _union_schema(view, m_a, m_b, cfg_a, cfg_b)
    ds = _side_ds(cfg_a, m_a, view, 0, keys, P, schema).union(
        _side_ds(cfg_b, m_b, view, 1, keys, P, schema))
    txn = state_a.new_txn()
    runs_dir = state_a.runs_dir
    incremental = keys is not None
    src_a, src_b = view.source_cols_a, view.source_cols_b
    join_fn = view.join
    fname_base = f"jmv-{view.name}-sa{cur_a}-sb{cur_b}-x{txn}"
    seq = cur_a

    def side(g: pa.Table, tag: int, suffix: str,
             src: tuple[str, ...]) -> pa.Table:
        return g.filter(pc.equal(g["_side"], tag)) \
            .select(["conv_id", *[f"{c}__{suffix}" for c in src]]) \
            .rename_columns(["conv_id", *src])

    def fold(g: pa.Table) -> pa.Table:
        joined = join_fn(side(g, 0, "a", src_a), side(g, 1, "b", src_b))
        fname = _write_jmv(_state_cols(joined, seq, False), runs_dir,
                           fname_base)
        # one row per partition; the joined keys go back for the
        # tombstones when incremental
        ids = joined["conv_id"].combine_chunks() if incremental \
            else pa.array([], pa.string())
        return pa.table({"file": [fname],
                         "conv_ids": pa.ListArray.from_arrays([0, len(ids)],
                                                              ids)})

    meta = ray.get(block_refs(exchange_map_groups(
        ds, "part", P, fold, batch_format="pyarrow")))
    files = [f for t in meta for f in t["file"].to_pylist()]
    if incremental:
        joined_keys = {k for t in meta
                       for k in pc.list_flatten(t["conv_ids"]).to_pylist()}
        gone = sorted(keys - joined_keys)
        if gone:
            dead = {"conv_id": pa.array(gone, pa.string())}
            for n, t in view.agg_fields:
                dead[n] = pa.nulls(len(gone), t)
            files.append(_write_jmv(_state_cols(pa.table(dead), seq,
                                                True),
                                    runs_dir, fname_base))
        if not files:
            return None               # nothing changed after resolve
    if mode == "full" and not files:
        # a legitimately-EMPTY view (all keys deleted on both sides)
        # must still commit a watermark-bearing file: with no file the
        # (sa, sb) watermark is lost and every later call would re-run
        # a full refresh and publish a fresh commit forever, breaking
        # the idle contract joinview_step/run_continuous rely on
        files = [_write_jmv(
            _state_cols(view.empty_result(), seq, False),
            runs_dir, fname_base)]

    files = files if mode == "full" \
        else [*m_a.derived.get(view.derived_key, []), *files]
    derived = {k: list(v) for k, v in m_a.derived.items()}
    derived[view.derived_key] = files
    stats = {"mode": mode, "affected_keys": len(keys or ()),
             # realpath at MINT time: a relative table_dir recorded
             # verbatim would resolve against whatever cwd the CHECK
             # later runs from, misreading a native stamp as foreign
             # and silently degrading every refresh to mode="full"
             "source_b": {"table_dir": os.path.realpath(cfg_b.table_dir),
                          "version": cur_b}}
    if mode == "full":
        stats["reason"] = reason
    return state_a.publish(expected_parent=cur_a, manifest=Manifest(
        txn_id=txn, committed_seq=m_a.committed_seq,
        committed_lsn=m_a.committed_lsn,
        schema_version=m_a.schema_version,
        num_buckets=m_a.num_buckets,
        buckets={k: list(v) for k, v in m_a.buckets.items()},
        global_runs=list(m_a.global_runs),
        derived=derived,
        control_ops=m_a.control_ops,
        wal_consumed=[],
        metrics={"matview_refresh": {"view": view.derived_key,
                                     "source_version": cur_a, **stats}}))


def compact_jmv_files(runs_dir: str, view_key: str, files: "list[str]",
                      txn: str) -> "list[str]":
    """Compaction hook (ingest._compact_derived): fold a join view's
    refresh generations into one latest-wins base (tombstones fall
    away with the rows they mask). The base file name carries the MAX
    (versionA, versionB) watermark so the next refresh still windows
    both sides from where the view actually is."""
    name = view_key[len(JMV_PREFIX):]
    pairs = []
    for f in files:
        mm = _JMV_RE.search(f)
        if mm is None:
            raise ValueError(f"unparseable join-view run file {f!r}")
        pairs.append((int(mm.group(1)), int(mm.group(2))))
    sa, sb = max(pairs)
    from .matview import compact_view_sized

    def small(tbl: pa.Table) -> "list[str]":
        seq = int(pc.max(tbl[MV_SEQ_COL]).as_py()) if tbl.num_rows else 0
        out = _state_cols(merge_latest(tbl, "conv_id"), seq, False)
        return [_write_jmv(out, runs_dir,
                           f"jmv-{name}-sa{sa}-sb{sb}-x{txn}")]

    return compact_view_sized(
        runs_dir, files, "conv_id", small,
        lambda i, slices: _merge_jmv_part.remote(
            runs_dir, f"jmv-{name}-sa{sa}-sb{sb}-x{txn}p{i}", *slices))


@ray.remote
def _merge_jmv_part(runs_dir: str, fname_base: str,
                    *slices: pa.Table) -> "str | None":
    """Seq stamp = the partition's own max (see matview._merge_mv_part
    for why per-partition stamps preserve latest-wins)."""
    tbl = pa.concat_tables(slices, promote_options="default")
    if tbl.num_rows == 0:
        return None
    seq = int(pc.max(tbl[MV_SEQ_COL]).as_py())
    return _write_jmv(_state_cols(merge_latest(tbl, "conv_id"), seq,
                                  False), runs_dir, fname_base)


def read_join_matview(cfg_a: EngineConfig, name: str,
                      num_partitions: int | None = None
                      ) -> ray.data.Dataset:
    """Current rows of the join view (latest-wins across refresh
    generations, tombstones dropped) — same read path as keyed
    matviews (`matview.read_keyed_view`)."""
    view = JOIN_MATVIEWS[name]
    state = TableState(cfg_a.table_dir)
    m = state.load_latest()
    return read_keyed_view(state.derived_paths(view.derived_key, m),
                           "conv_id", view.empty_result(), num_partitions,
                           m.num_buckets or cfg_a.num_buckets)
