"""Cross-table JOIN materialized views: a per-key join of TWO
independently-ingesting CDC tables, maintained incrementally.

The reference chains tables by recomputing derived joins from scratch
every tick (`DQOrderPaidMoreThanPrice.scala:20-53` reads both sides
whole); here the refresh has the shape of :mod:`.matview`'s, with table
A's buckets as the view's buckets:

  1. affected buckets = A's buckets of the distinct ``conv_id`` in the
     run files either table added since the view's last refreshed
     (versionA, versionB) pair (`matview._scan_affected`; B's keys are
     re-bucketed under A's bucket count);
  2. each affected bucket's `_fold_bucket_refs` task resolves that
     bucket of BOTH tables -- A's stored bucket, and B's rows re-routed
     to it by `_exchange_by_bucket(..., rebucket=True)` under A's
     bucket count, so the two tables may have different layouts -- and
     joins them (FULL OUTER per key) into one file
     ``jmv-<name>-b<B>-sa<VA>-sb<VB>-x<txn>-...``, even an empty one;
  3. one manifest publish on the PRIMARY (A) table puts each new file
     in place of its bucket's entry in ``derived["jmv:<name>"]``.

The file names carry BOTH source versions, so the next refresh windows
each side separately; any non-delta-expressible event on either side
(first refresh, compaction, re-bucketing, rollback, erasure, control
ops) falls back to a full recompute of every bucket, reusing
matview._delta_files' rules per side. Reads concatenate the current
files (`matview.read_view_files`): each bucket owns its keys.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .. import schemas
from ..config import EngineConfig
from ..stages.controls import sorted_controls
from ..state.manifest import Manifest, TableState
from .matview import (_affected, _bucket_live, _delta_files,
                      _publish_refresh, _scan_affected, _write_view_file,
                      read_view_files)

JMV_PREFIX = "jmv:"
_JMV_RE = re.compile(r"-sa(\d+)-sb(\d+)-x")


@dataclass(frozen=True)
class JoinMatView:
    """A per-key FULL OUTER join of two tables' resolved states.

    ``join`` is a vectorized whole-relation transform: given the live
    resolved rows of ANY complete key set from side A and side B
    (columns ``conv_id`` + the side's source cols), return exactly one
    row per key present on EITHER side. It runs per bucket of table A,
    with B's rows routed by the same key hash (key-exclusive on both
    sides), so results need no cross-task merge."""
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


def refresh_join_matview(cfg_a: EngineConfig, cfg_b: EngineConfig,
                         name: str) -> "Manifest | None":
    """Bring the join view up to BOTH tables' latest committed
    versions; commits on table A. Returns None when already fresh.
    Each affected A bucket (every bucket on a full fallback) folds both
    sides and joins them in one task, writing its view file in-task --
    the calling process only ever sees file names and the
    affected-bucket set, never table-sized data."""
    from .ingest import (_exchange_by_bucket, _fold_bucket_refs,
                         _pruned_scan, _stored_runs)

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

    nb = m_a.num_buckets or cfg_a.num_buckets
    stats = {"view": view.derived_key, "source_version": cur_a,
             # realpath at MINT time: a relative table_dir recorded
             # verbatim would resolve against whatever cwd the CHECK
             # later runs from, misreading a native stamp as foreign
             # and silently degrading every refresh to mode="full"
             "source_b": {"table_dir": os.path.realpath(cfg_b.table_dir),
                          "version": cur_b}}
    buckets = None
    reason = "first-refresh"
    if last is not None:
        la, lb = last
        delta_a, reason_a = ([], "") if la >= cur_a else \
            _delta_files(state_a, la, m_a, cur_a)
        delta_b, reason_b = ([], "") if lb >= cur_b else \
            _delta_files(state_b, lb, m_b, cur_b)
        if delta_a is not None and delta_b is not None:
            if not delta_a and not delta_b:
                return None
            buckets, n_keys = _affected(
                [_scan_affected.remote(os.path.join(state_a.runs_dir, f))
                 for f in delta_a]
                + [_scan_affected.remote(os.path.join(state_b.runs_dir, f),
                                         nb) for f in delta_b])
            if not buckets:
                return None
            stats.update(mode="incremental", affected_buckets=len(buckets),
                         affected_keys=n_keys)
        else:
            reason = reason_a if delta_a is None else reason_b
    if buckets is None:
        stats.update(mode="full", reason=reason, affected_buckets=nb,
                     affected_keys=None)

    def side(cfg: EngineConfig, m: Manifest, src: tuple[str, ...]):
        """(one table's bucket resolver, its scan columns)"""
        version = m.schema_version or cfg.schema_version
        controls = sorted_controls(m.control_ops)
        payload, scan_cols = _pruned_scan(
            src, schemas.payload_cols(version), controls)
        cols = ["conv_id", *src]
        return (lambda group, lone_base: _bucket_live(
            group, payload, controls, lone_base, cols, version)), scan_cols

    live_a, scan_a = side(cfg_a, m_a, view.source_cols_a)
    live_b, scan_b = side(cfg_b, m_b, view.source_cols_b)
    schema = view.empty_result().schema
    runs_dir, txn = state_a.runs_dir, state_a.new_txn()

    def fold(bucket: int):
        stem = f"jmv-{view.name}-b{bucket}-sa{cur_a}-sb{cur_b}-x{txn}"

        def fn(group_a: "pa.Table | None", lone_base: bool,
               group_b: "pa.Table | None" = None) -> str:
            a, b = live_a(group_a, lone_base), live_b(group_b, False)
            out = view.join(a, b).cast(schema) if a.num_rows or b.num_rows \
                else view.empty_result()
            return _write_view_file(out, runs_dir, stem)
        return fn

    paths_a, bases_a = _stored_runs(state_a, m_a,
                                    None if buckets is None else set(buckets))
    per_a = _exchange_by_bucket(paths_a, nb, bases_a, columns=scan_a,
                                bucket_subset=buckets)
    # B's whole table, re-routed to A's buckets (its bases hold rows of
    # any A bucket, so they cross the split too)
    paths_b, _ = _stored_runs(state_b, m_b)
    per_b = _exchange_by_bucket(paths_b, nb, {}, columns=scan_b,
                                bucket_subset=buckets, rebucket=True)
    files = ray.get([
        _fold_bucket_refs.remote(
            fold(a[0]), *a, *b[3:], n_other=len(b) - 3)
        for a, b in zip(per_a, per_b)])
    return _publish_refresh(state_a, cur_a, m_a, txn, view.derived_key,
                            files, buckets is None, stats)


def read_join_matview(cfg_a: EngineConfig, name: str) -> ray.data.Dataset:
    """Current rows of the join view: its per-bucket files
    concatenated (`matview.read_view_files`)."""
    view = JOIN_MATVIEWS[name]
    return read_view_files(
        TableState(cfg_a.table_dir).derived_paths(view.derived_key),
        view.empty_result())
