"""Materialized aggregate views over the RESOLVED table state, with
retraction-aware incremental refresh (incremental view maintenance).

Reference parity: ``TopRestaurantsLast30Days.scala:38`` registers a
derived VIEW that the continuous DAG recomputes from scratch every
tick. The additive sinks in :mod:`.derived` already cover the
*append-only counter* shape; this module covers the other half of the
reference's view story: an aggregate over the table's CURRENT state,
where an update must be net-zero and a delete must RETRACT its
contribution. Recomputing that from the full snapshot per tick is the
reference's (fine at demo scale) approach; at 10^10 events a tick
touches a tiny fraction of keys, so the refresh here is
**delta-proportional**:

  1. affected keys = distinct ``conv_id`` in the run files added since
     the view's last refreshed manifest version (column-pruned scan of
     just ``conv_id``/``bucket`` — delta-sized, not table-sized);
  2. re-resolve ONLY those keys, bucket-pruned: the run-file exchange
     reads only the affected buckets' slices and filters each to the
     affected key set before the LWW fold (retraction handling is free:
     the fold simply re-derives each affected key's aggregate from its
     current live rows — no +1/−1 bookkeeping to corrupt);
  3. write the refreshed rows as an LWW-versioned view run file
     (``_mv_seq`` = source manifest version; keys whose live rows
     vanished get tombstone rows ``_mv_dead``) and commit it by manifest
     publish under ``derived["mv:<name>"]`` — the same atomic commit
     point as everything else, so the view is always consistent with
     exactly one table version.

Full-recompute fallback (window not delta-expressible): first refresh,
a compaction or re-bucketing inside the window (both rewrite file
history), or a control-op change (controls reach keys the delta never
names). The fallback runs the same per-bucket fold over every bucket
and every key (no key filter, no tombstones) and replaces the view's
file set wholesale.

Reads merge the view's run files latest-``_mv_seq``-wins per key and
drop tombstones — a routed hash exchange, never a driver-side fold.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from .. import schemas
from ..config import EngineConfig
from ..stages.controls import resolve_stored, sorted_controls
from ..stages.exchange import split_by_route, split_fan_out
from ..stages.partition import BUCKET_COL, hash_strings_arrow
from ..state.manifest import Manifest, TableState
from ..state.storage import write_run

MV_PREFIX = "mv:"
GMV_PREFIX = "gmv:"
MV_SEQ_COL = "_mv_seq"
MV_DEAD_COL = "_mv_dead"
MV_MARKER_COL = "_mv_marker"
MV_BUCKET_COL = "_mv_bucket"


@dataclass(frozen=True)
class MatView:
    """An aggregate over the resolved table, grouped by ``key``.

    ``agg`` must be a vectorized whole-relation transform: given the
    live resolved rows of ANY complete set of keys (columns ``key``,
    ``turn_idx`` and ``source_cols``), return exactly one row per key
    present. It runs per bucket (key-exclusive), so per-key results
    need no cross-task merge.
    """
    name: str
    key: str
    #: payload columns the aggregate reads (projection pushdown)
    source_cols: tuple[str, ...]
    #: output columns (name, arrow type) — fixes the tombstone schema
    agg_fields: tuple[tuple[str, pa.DataType], ...]
    agg: Callable[[pa.Table], pa.Table]

    @property
    def derived_key(self) -> str:
        return MV_PREFIX + self.name

    def empty_result(self) -> pa.Table:
        cols = {self.key: pa.array([], pa.string())}
        for n, t in self.agg_fields:
            cols[n] = pa.array([], t)
        return pa.table(cols)


def _conv_live_stats_agg(t: pa.Table) -> pa.Table:
    """Per-conversation stats of the LIVE rows: turn count, tool-turn
    count, total text characters, highest turn index."""
    chars = pc.cast(pc.fill_null(pc.utf8_length(t["text"]), 0), pa.int64())
    g = pa.table({"conv_id": t["conv_id"],
                  "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                  "tool": t["tool"],
                  "text_chars": chars})
    agg = pa.TableGroupBy(g, "conv_id").aggregate(
        [("turn_idx", "count"), ("tool", "count"),
         ("text_chars", "sum"), ("turn_idx", "max")])
    agg = agg.select(["conv_id", "turn_idx_count", "tool_count",
                      "text_chars_sum", "turn_idx_max"])
    return agg.rename_columns(
        ["conv_id", "n_turns", "n_tool_turns", "text_chars",
         "max_turn_idx"])


MATVIEWS: dict[str, MatView] = {}
MATVIEWS["conv_live_stats"] = MatView(
    name="conv_live_stats", key="conv_id",
    source_cols=("text", "tool"),
    agg_fields=(("n_turns", pa.int64()), ("n_tool_turns", pa.int64()),
                ("text_chars", pa.int64()), ("max_turn_idx", pa.int64())),
    agg=_conv_live_stats_agg)


@dataclass(frozen=True)
class GroupedMatView:
    """An aggregate over the resolved table grouped by a NON-partition
    column (role, tool, ...): per-key exclusivity cannot localize these,
    so the state is per-(bucket, group) PARTIAL rows. A refresh
    re-resolves each affected bucket wholesale (bucket-proportional,
    not key-proportional — the partial depends on every live row of the
    bucket) and replaces that bucket's partials; reads merge the
    current partials across buckets with the associative merge_spec.
    Retraction is free for the same reason as keyed views: partials are
    re-derived from live rows, never incremented.
    """
    name: str
    group_cols: tuple[str, ...]
    source_cols: tuple[str, ...]
    #: resolved live rows of ONE bucket -> one partial row per group
    partial: Callable[[pa.Table], pa.Table]
    #: (col, "sum"|"max"|"min") merging partials across buckets
    merge_spec: tuple[tuple[str, str], ...]
    #: arrow types aligned with group_cols (default: string) — lets a
    #: group col be DERIVED and non-string (an event-time window, ...)
    group_types: tuple = ()

    @property
    def derived_key(self) -> str:
        return GMV_PREFIX + self.name

    def empty_result(self) -> pa.Table:
        cols = {c: pa.array([], self.group_types[i]
                            if i < len(self.group_types) else pa.string())
                for i, c in enumerate(self.group_cols)}
        for c, _fn in self.merge_spec:
            cols[c] = pa.array([], pa.int64())
        return pa.table(cols)


def _role_live_stats_partial(t: pa.Table) -> pa.Table:
    """Per-role stats of the LIVE rows (null roles — reachable via an
    upsert-on-absent partial update — are excluded; mirror the filter
    in any oracle)."""
    t = t.filter(pc.is_valid(t["role"]))
    chars = pc.cast(pc.fill_null(pc.utf8_length(t["text"]), 0), pa.int64())
    g = pa.table({"role": t["role"],
                  "n_turns": pa.array(np.ones(t.num_rows, np.int64)),
                  "text_chars": chars,
                  "max_turn_idx": pc.cast(t["turn_idx"], pa.int64())})
    agg = pa.TableGroupBy(g, "role").aggregate(
        [("n_turns", "sum"), ("text_chars", "sum"),
         ("max_turn_idx", "max")])
    return agg.select(["role", "n_turns_sum", "text_chars_sum",
                       "max_turn_idx_max"]).rename_columns(
        ["role", "n_turns", "text_chars", "max_turn_idx"])


def _hourly_activity_partial(t: pa.Table) -> pa.Table:
    """Event-time tumbling window (1h) over the resolved state: the
    group col is DERIVED (floor of ts), so a late update that moves a
    row's ts retracts it from the old window and adds it to the new one
    when its bucket re-partials. `n_convs` is a per-window DISTINCT
    count that merges by plain SUM because the lake partitions
    conversations exclusively by bucket — the bucket-partial model
    makes the distinct aggregate distributive for free. Null ts
    (upsert-on-absent partial update) excluded; mirror in oracles."""
    t = t.filter(pc.is_valid(t["ts"]))
    g = pa.table({"window_start": pc.floor_temporal(t["ts"], unit="hour"),
                  "conv_id": t["conv_id"],
                  "turn_idx": pc.cast(t["turn_idx"], pa.int64())})
    agg = pa.TableGroupBy(g, "window_start").aggregate(
        [("conv_id", "count_distinct"), ("turn_idx", "count"),
         ("turn_idx", "max")])
    return agg.select(["window_start", "conv_id_count_distinct",
                       "turn_idx_count", "turn_idx_max"]).rename_columns(
        ["window_start", "n_convs", "n_turns", "max_turn_idx"])


def _role_tool_stats_partial(t: pa.Table) -> pa.Table:
    """Multi-column grouping ((role, tool) pair) — exercises the
    generic N-col group path end-to-end. Null roles excluded (same
    contract as role_live_stats); null tools are a REAL group (non-tool
    turns)."""
    t = t.filter(pc.is_valid(t["role"]))
    g = pa.table({"role": t["role"], "tool": t["tool"],
                  "n_turns": pa.array(np.ones(t.num_rows, np.int64))})
    agg = pa.TableGroupBy(g, ["role", "tool"]).aggregate(
        [("n_turns", "sum")])
    return agg.select(["role", "tool", "n_turns_sum"]).rename_columns(
        ["role", "tool", "n_turns"])


#: index tokenization, shared by partial + search + SQL oracles: ASCII
#: lower, split on runs of non-[a-z0-9]. RE2 both here and in DuckDB's
#: regexp_split_to_array, so the whole index is SQL-mirrorable.
TOKEN_SPLIT_RE = "[^a-z0-9]+"


def _token_index_partial(t: pa.Table) -> pa.Table:
    """INVERTED TEXT INDEX partial: token -> (n_hits, n_convs) over the
    LIVE rows of one bucket — a full-text search index maintained
    incrementally by the grouped-matview machinery (refresh re-partials
    only delta-affected buckets; updates/deletes retract their tokens
    for free because partials re-derive from live rows). `n_hits`
    counts token occurrences; `n_convs` is a per-bucket DISTINCT
    conversation count that merges by SUM because buckets partition
    conversations exclusively. Null text (upsert-on-absent partial
    update) contributes nothing; mirror in oracles."""
    t = t.filter(pc.is_valid(t["text"]))
    toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]), TOKEN_SPLIT_RE)
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    conv = t["conv_id"].take(parent)
    keep = pc.not_equal(flat, "")        # boundary-split artifacts
    g = pa.table({"token": flat.filter(keep),
                  "conv_id": conv.filter(keep)})
    agg = pa.TableGroupBy(g, "token").aggregate(
        [("conv_id", "count"), ("conv_id", "count_distinct")])
    agg = agg.select(["token", "conv_id_count",
                      "conv_id_count_distinct"]).rename_columns(
        ["token", "n_hits", "n_convs"])
    # token-sorted partials would give a multi-row-group index file
    # tight per-group token stats for token_buckets' `token ==` scan to
    # skip by; `write_run` keeps pyarrow's default groups (up to
    # 1,048,576 rows), so at today's sizes a file is one group whose
    # stats span its whole vocabulary, and the predicate filters rows
    return agg.sort_by("token")


GROUPED_MATVIEWS: dict[str, GroupedMatView] = {}
GROUPED_MATVIEWS["token_index"] = GroupedMatView(
    name="token_index", group_cols=("token",), source_cols=("text",),
    partial=_token_index_partial,
    merge_spec=(("n_hits", "sum"), ("n_convs", "sum")))
GROUPED_MATVIEWS["role_tool_stats"] = GroupedMatView(
    name="role_tool_stats", group_cols=("role", "tool"),
    source_cols=("role", "tool"),
    partial=_role_tool_stats_partial,
    merge_spec=(("n_turns", "sum"),))
GROUPED_MATVIEWS["role_live_stats"] = GroupedMatView(
    name="role_live_stats", group_cols=("role",),
    source_cols=("role", "text"),
    partial=_role_live_stats_partial,
    merge_spec=(("n_turns", "sum"), ("text_chars", "sum"),
                ("max_turn_idx", "max")))
GROUPED_MATVIEWS["hourly_activity"] = GroupedMatView(
    name="hourly_activity", group_cols=("window_start",),
    source_cols=("ts",),
    partial=_hourly_activity_partial,
    merge_spec=(("n_convs", "sum"), ("n_turns", "sum"),
                ("max_turn_idx", "max")),
    group_types=(pa.timestamp("us"),))


# -- IVF vector index (ANN search as a grouped matview) -----------------------

#: embedding dimensionality: counts of each digit '0'..'9' in the
#: turn text — deterministic and bit-portable to a SQL oracle
#: (DuckDB: length(text) - length(replace(text, d, ''))). A real
#: deployment swaps `ann_embed` for a model encoder actor; everything
#: else (cells, postings, probes, pruning) is representation-agnostic.
ANN_DIMS = 10
#: IVF cell count. 16 keeps the demo index readable; size to
#: O(sqrt(corpus rows)) at scale — the machinery is cell-count-blind.
ANN_CELLS = 16
ANN_SEED = 7
ANN_EMB_COLS = tuple(f"e{i}" for i in range(ANN_DIMS))
#: the demo query vector (digits of pi), shared with the SQL mirror
ANN_QUERY = (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0)


def ann_centroids() -> np.ndarray:
    """Fixed seeded centroid matrix, rounded to 6 decimals so the SQL
    oracle inlines the exact same literals (one source of truth —
    `__ray_entry__` renders its VALUES list from this function)."""
    rng = np.random.default_rng(ANN_SEED)
    return np.round(rng.normal(size=(ANN_CELLS, ANN_DIMS)), 6)


def ann_embed(text: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """(n, ANN_DIMS) float64 digit-count embedding of non-null texts."""
    return np.stack(
        [pc.count_substring(text, str(d)).to_numpy(zero_copy_only=False)
         for d in range(ANN_DIMS)], axis=1).astype(np.float64)


def _ann_assign_cells(E: np.ndarray) -> np.ndarray:
    """Nearest centroid by 6-decimal-rounded cosine; ties take the
    smaller cell (np.argmax = first maximum), mirroring the oracle's
    ORDER BY sim DESC, cell."""
    C = ann_centroids()
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    return np.argmax(np.round(En @ Cn.T, 6), axis=1).astype(np.int64)


def ann_probe_cells(query, nprobe: int) -> list[int]:
    """The query's `nprobe` nearest cells (rounded cosine, smaller
    cell on ties) — the IVF probe list."""
    q = np.asarray(query, np.float64)
    if not np.linalg.norm(q) > 0:
        raise ValueError("ANN query vector has zero norm — cosine "
                         "similarity is undefined for it")
    C = ann_centroids()
    sims = np.round(
        (q / np.linalg.norm(q)) @
        (C / np.linalg.norm(C, axis=1, keepdims=True)).T, 6)
    order = np.lexsort((np.arange(len(sims)), -sims))
    return [int(c) for c in order[:nprobe]]


def _ivf_index_partial(t: pa.Table) -> pa.Table:
    """IVF POSTING rows over the LIVE rows of one bucket: one row per
    live turn carrying (cell, conv_id, turn_idx, e0..e9). Cell-sorted,
    so an index file past pyarrow's default row-group size (1,048,576
    rows, which `write_run` keeps) would give a probe read (`cell IN
    ...`) per-group `cell` stats to skip by; below it a file is one
    group and the probe is a row filter over the decoded file.
    Unembeddable rows (null text / zero vector) are not indexed;
    mirror the filter in any oracle. Updates/deletes retract their
    postings for free because partials re-derive from live rows."""
    t = t.filter(pc.is_valid(t["text"]))
    E = ann_embed(t["text"])
    keep = E.sum(axis=1) > 0
    if not bool(keep.all()):
        t = t.filter(pa.array(keep))
        E = E[keep]
    cols = {"cell": pa.array(_ann_assign_cells(E)
                             if len(E) else np.array([], np.int64)),
            "conv_id": t["conv_id"],
            "turn_idx": pc.cast(t["turn_idx"], pa.int64())}
    for i, c in enumerate(ANN_EMB_COLS):
        cols[c] = pa.array(E[:, i].astype(np.int64))
    return pa.table(cols).sort_by("cell")


GROUPED_MATVIEWS["ivf_index"] = GroupedMatView(
    name="ivf_index", group_cols=("cell", "conv_id", "turn_idx"),
    source_cols=("text",),
    partial=_ivf_index_partial,
    merge_spec=tuple((c, "max") for c in ANN_EMB_COLS),
    group_types=(pa.int64(), pa.string(), pa.int64()))


def _view(name: str) -> MatView:
    if name not in MATVIEWS:
        raise KeyError(f"unknown matview {name!r}; registered: "
                       f"{sorted(MATVIEWS)}")
    return MATVIEWS[name]


# -- refresh bookkeeping -----------------------------------------------------

def _last_refreshed(m: Manifest, view: MatView) -> int | None:
    """Source manifest version of the view's newest run file, parsed
    from the self-describing file names (``mv-<name>-s<V>-...``) — the
    state travels inside the manifest, nothing sidecar."""
    import re
    best: int | None = None
    for f in m.derived.get(view.derived_key, ()):
        mm = re.search(r"-s(\d+)-x", f)
        if mm is None:
            raise ValueError(f"unparseable matview run file name {f!r}")
        v = int(mm.group(1))
        best = v if best is None else max(best, v)
    return best


def _watermark_native(state: TableState, view_name: str,
                      last: int) -> bool:
    """True iff the parsed ``s<last>`` watermark was minted by THIS
    table's lineage. A refresh always publishes with
    ``expected_parent=last`` (strict CAS, no rebase), so the commit at
    version ``last + 1`` must exist here and record
    ``matview_refresh{view, source_version=last}``.

    A ZERO-COPY CLONE carries the SOURCE's derived files — stamps from
    a foreign lineage — over a fresh v0 history. Trusting them is
    wrong two ways: ``last >= cur`` declares a diverged clone's view
    falsely fresh forever, and ``last < cur`` windows the delta
    against the clone's OWN version ``last``, a different manifest
    than the one the stamp names. A failed check forces the full
    recompute, which REPLACES the file set with natively-stamped
    files, so only the first post-clone refresh pays it. (A swept
    lineage manifest also fails the check — full recompute is the
    correct fallback there too.)"""
    try:
        mm = state.load(last + 1).metrics.get("matview_refresh") or {}
    except FileNotFoundError:
        return False
    return mm.get("view") == view_name \
        and mm.get("source_version") == last


def _delta_files(state: TableState, last: int, cur_m: Manifest,
                 cur: int) -> tuple[list[str] | None, str]:
    """Table run files added in (last, cur], or (None, reason) when the
    window is not delta-expressible and the refresh must go full."""
    m_last = state.load(last)
    if any(op not in m_last.control_ops for op in cur_m.control_ops):
        # a NEW control op reaches keys the delta run files never name.
        # (Ops *dropped* since `last` are fine: only compaction drops
        # them, by baking their effects into the rewritten runs — and a
        # compaction over unrefreshed deltas falls back below anyway.)
        return None, "controls-changed"
    if cur_m.num_buckets != m_last.num_buckets:
        return None, "rebucketed"
    prev_files = set(m_last.table_run_files())
    out: list[str] = []
    for v in range(last + 1, cur + 1):
        m = state.load(v)
        cur_files = m.table_run_files()
        if m.metrics.get("rollback_to") is not None:
            # a restore re-points at OLD files: nothing looks "added"
            # relative to the refresh watermark even though the visible
            # state changed (rows the view aggregated were un-written).
            # Never delta-expressible — recompute.
            return None, "rollback"
        if m.metrics.get("erasure") is not None:
            # a physical erasure rewrites files WITHOUT naming the
            # erased key in any delta, so an incremental refresh would
            # never retract its view rows — recompute (which also
            # purges the key from the view's own replaced file set)
            return None, "erasure"
        if m.metrics.get("compaction"):
            if out:
                # the compaction folded run files the view never
                # refreshed over; their names are gone from the live
                # file set (and possibly GC'd) — recompute
                return None, "compaction"
            # state-preserving rewrite with nothing pending: the
            # resolved table at this version equals the state the view
            # was last refreshed against; just adopt the new file set
            prev_files = set(cur_files)
            continue
        out.extend(f for f in cur_files
                   if f not in prev_files and f not in out)
        prev_files = set(cur_files)
    return out, ""


@ray.remote
def _scan_affected(path: str) -> pa.Table:
    """Distinct (key, bucket) pairs of one delta run file — the only
    columns read; output is collapsed per file, so driver traffic is
    O(distinct keys in the delta), never O(delta rows)."""
    t = pq.read_table(path, columns=["conv_id", BUCKET_COL])
    return pa.TableGroupBy(t, ["conv_id", BUCKET_COL]).aggregate([])


def _scan_cols_for(view: MatView, payload: list[str],
                   controls) -> tuple[list[str], list[str]]:
    """(pruned payload, parquet scan columns) — the view's sources plus
    whatever pending control ops read/write (mirrors read_snapshot's
    pruning contract)."""
    need = set(view.source_cols)
    for c in controls:
        need.add(c.predicate["col"])
        for out_col, spec in c.assignments.items():
            need.add(out_col)
            if "col" in spec:
                need.add(spec["col"])
    pruned = [c for c in payload if c in need]
    scan = [*schemas.KEY_COLS, schemas.LSN_COL, schemas.OP_COL,
            BUCKET_COL, *pruned]
    return pruned, scan


def _state_cols(tbl: pa.Table, mv_seq: int, dead: bool) -> pa.Table:
    n = tbl.num_rows
    return tbl.append_column(
        MV_SEQ_COL, pa.array(np.full(n, mv_seq, np.int64))).append_column(
        MV_DEAD_COL, pa.array(np.full(n, dead, bool)))


def _write_mv_file(tbl: pa.Table, runs_dir: str, view: MatView,
                   mv_seq: int, txn: str) -> str:
    fname = (f"mv-{view.name}-s{mv_seq}-x{txn}-"
             f"{uuid.uuid4().hex[:12]}.parquet")
    write_run(tbl, os.path.join(runs_dir, fname))
    return fname


def _inc_fold(view: MatView, payload: list[str], controls,
              keys: "pa.Array | None", mv_seq: int, runs_dir: str,
              txn: str):
    """Per-bucket fold of both refresh paths: filter the bucket's run
    rows to `keys`, LWW-resolve just those, re-aggregate, tombstone the
    vanished -- then write the view run file in-task (no driver hop for
    the rows). `keys=None` (full recompute) means every key, no filter
    and no tombstones; a bucket with no live rows then writes no file
    and returns None."""
    agg_cols = [view.key, "turn_idx", *view.source_cols]

    def fold(tbl: "pa.Table | None", lone_base: bool) -> dict | None:
        live = view.empty_result()
        if tbl is not None and tbl.num_rows:
            if keys is not None:
                tbl = tbl.filter(pc.is_in(tbl[view.key], value_set=keys))
            resolved = resolve_stored(tbl, payload, controls, lone_base,
                                      sort=False)
            if resolved.num_rows:
                live = view.agg(resolved.select(agg_cols))
        gone = pa.array([], pa.string()) if keys is None else keys.filter(
            pc.invert(pc.is_in(keys, value_set=live[view.key])))
        if not live.num_rows and not len(gone):
            return None
        dead_cols = {view.key: gone}
        for nname, t in view.agg_fields:
            dead_cols[nname] = pa.nulls(len(gone), t)
        out = pa.concat_tables([_state_cols(live, mv_seq, False),
                                _state_cols(pa.table(dead_cols), mv_seq,
                                            True)])
        fname = _write_mv_file(out, runs_dir, view, mv_seq, txn)
        return {"file": fname, "n_live": live.num_rows,
                "n_dead": len(gone)}

    return fold


def refresh_matview(cfg: EngineConfig, name: str) -> Manifest | None:
    """Bring the named view (keyed or grouped) up to the table's latest
    committed version. Publishes one manifest (the refresh is itself a
    transaction); a no-op (already fresh, or an empty delta window)
    returns None."""
    from .ingest import _exchange_by_bucket, _fold_bucket_refs, _stored_runs

    if name in GROUPED_MATVIEWS:
        return _refresh_grouped(cfg, GROUPED_MATVIEWS[name])
    view = _view(name)
    if view.key != "conv_id":
        # the lake layout is bucketed by conv_id: both the per-bucket
        # key-exclusivity the agg relies on and the incremental bucket
        # pruning assume the view key IS the partition key
        raise ValueError(f"matview key must be the partition key "
                         f"'conv_id', got {view.key!r}")
    state = TableState(cfg.table_dir)
    cur, m = state.load_latest_versioned()
    if cur is None:
        return None
    last = _last_refreshed(m, view)
    if last is not None and not _watermark_native(state, name, last):
        last = None                      # foreign (cloned) stamps
    if last is not None and last >= cur:
        return None                      # already fresh: idempotent

    payload = schemas.payload_cols(m.schema_version or cfg.schema_version)
    controls = sorted_controls(m.control_ops)
    txn = state.new_txn()
    num_buckets = m.num_buckets or cfg.num_buckets

    delta: list[str] | None = None
    reason = "first-refresh"
    if last is not None:
        delta, reason = _delta_files(state, last, m, cur)

    if delta is not None and not delta:
        return None                      # version moved, table data didn't

    pruned, scan_cols = _scan_cols_for(view, payload, controls)
    if delta is not None:
        # -- incremental: affected keys -> bucket-pruned re-resolve ----
        pairs = pa.concat_tables(ray.get([
            _scan_affected.remote(os.path.join(state.runs_dir, f))
            for f in delta]))
        # the sorted distinct keys of each affected bucket
        per_bucket = pa.TableGroupBy(pairs, BUCKET_COL).aggregate(
            [(view.key, "distinct")]).sort_by(BUCKET_COL)
        keys_of = {b: ks.values.sort() for b, ks in zip(
            per_bucket[BUCKET_COL].to_pylist(),
            per_bucket[f"{view.key}_distinct"].combine_chunks())}
        subset = list(keys_of)
        # path-list pruning: bucketed run files are bucket-exclusive
        # (manifest.buckets), so only affected buckets' files are read;
        # global (direct-mode) runs can hold any bucket and are always
        # scanned, and the split's scan filter drops their rows of
        # other buckets (a row filter: a run file is one row group)
        paths, bases = _stored_runs(state, m, set(subset))
    else:
        # -- full recompute: every bucket folds all of its keys --------
        keys_of = dict.fromkeys(range(num_buckets))
        subset = None
        paths, bases = _stored_runs(state, m)
    exchanged = _exchange_by_bucket(paths, num_buckets, bases,
                                    columns=scan_cols, bucket_subset=subset)
    metas = [mm for mm in ray.get([
        _fold_bucket_refs.remote(
            _inc_fold(view, pruned, controls, keys, cur, state.runs_dir,
                      txn),
            *args)
        for keys, args in zip(keys_of.values(), exchanged)]) if mm]
    files = [mm["file"] for mm in metas]
    if delta is not None:
        files = list(m.derived.get(view.derived_key, [])) + files
        stats = {"mode": "incremental",
                 "affected_keys": pairs.num_rows,
                 "affected_buckets": len(keys_of),
                 "tombstones": int(sum(mm["n_dead"] for mm in metas))}
    else:
        stats = {"mode": "full", "reason": reason}

    derived = {k: list(v) for k, v in m.derived.items()}
    derived[view.derived_key] = files
    return state.publish(expected_parent=cur, manifest=Manifest(
        txn_id=txn, committed_seq=m.committed_seq,
        committed_lsn=m.committed_lsn,
        schema_version=m.schema_version,
        num_buckets=m.num_buckets,
        buckets={k: list(v) for k, v in m.buckets.items()},
        global_runs=list(m.global_runs),
        derived=derived,
        control_ops=m.control_ops,
        wal_consumed=[],
        metrics={"matview_refresh": {"view": name, "source_version": cur,
                                     **stats}}))


# -- read side ---------------------------------------------------------------

def merge_latest(tbl: pa.Table, key: str,
                 keep_dead: bool = False) -> pa.Table:
    """Latest-``_mv_seq``-wins per key (the last row of a (key, seq)
    tie, in input order), sorted by key, seq/dead columns dropped.
    Tombstones mask older rows and are then dropped unless
    `keep_dead`. A null key is one key."""
    tbl = tbl.take(pc.sort_indices(
        tbl, [(key, "ascending"), (MV_SEQ_COL, "ascending")]))
    if tbl.num_rows > 1:
        k = tbl[key].combine_chunks()
        cur, nxt = k[:-1], k[1:]
        last = pc.and_not(pc.fill_null(pc.not_equal(cur, nxt), True),
                          pc.and_(pc.is_null(cur), pc.is_null(nxt)))
        tbl = tbl.filter(pa.concat_arrays([last, pa.array([True])]))
    if not keep_dead:
        tbl = tbl.filter(pc.invert(tbl[MV_DEAD_COL]))
    return tbl.drop_columns([MV_SEQ_COL, MV_DEAD_COL])


#: a view whose current files measure under this merges in ONE Ray
#: task instead of an exchange — a measured-size serving-latency gate
#: (mirrors stages/joins.py's auto_join): the exchange's fixed task
#: fan-out costs ~1 s that a few-MB view never amortizes, while a
#: big view takes the distributed path untouched.
SMALL_VIEW_BYTES = 32 * 1024 * 1024

#: sentinel standing in for a NULL group member through Ray's sort
#: shuffle (which cannot order null keys); \x00 prefix keeps it out of
#: any real transcript string's value space
_NULL_GROUP = "\x00__mv_null_group__"


def _view_bytes(paths: list[str]) -> int:
    return sum(os.stat(p).st_size for p in paths)


@ray.remote
def _merge_small_view(paths: list[str], key: str) -> pa.Table:
    tbl = pa.concat_tables([pq.read_table(p) for p in paths],
                           promote_options="default")
    return merge_latest(tbl, key)


@ray.remote
def _merge_view_part(key: str, *slices: pa.Table) -> pa.Table:
    return merge_latest(pa.concat_tables(slices, promote_options="default"),
                        key)


def read_keyed_view(paths: list[str], key: str, empty: pa.Table,
                    num_partitions: int | None,
                    num_buckets: int) -> ray.data.Dataset:
    """Latest-wins rows of a keyed (or join) view's current `paths`,
    tombstones dropped. A measured-small view merges in one task;
    otherwise each file splits by hash(key) % P (the map side
    `compact_view_sized` uses) and each partition merges in its own
    task. An explicit `num_partitions` forces the exchange (test hook,
    same as auto_join's forced-partitioned path). Every partition gets
    a slice of every file, so all results share one schema."""
    if not paths:
        return ray.data.from_arrow(empty)
    if num_partitions is None and _view_bytes(paths) <= SMALL_VIEW_BYTES:
        return ray.data.from_arrow_refs([_merge_small_view.remote(paths,
                                                                  key)])
    P = num_partitions or min(32, num_buckets)
    return ray.data.from_arrow_refs(
        [_merge_view_part.remote(key, *slices)
         for slices in _split_partitions(paths, P, key)])


def read_matview(cfg: EngineConfig, name: str,
                 num_partitions: int | None = None) -> ray.data.Dataset:
    """Dataset of the view's current rows (distributed latest-wins
    merge across refresh generations; measured-small views short-cut
    to a single-task merge)."""
    view = _view(name)
    state = TableState(cfg.table_dir)
    m = state.load_latest()
    return read_keyed_view(state.derived_paths(view.derived_key, m),
                           view.key, view.empty_result(), num_partitions,
                           m.num_buckets or cfg.num_buckets)


# -- grouped matviews --------------------------------------------------------

@ray.remote
def _scan_buckets(path: str) -> np.ndarray:
    """Distinct bucket ids of one delta run file (bucket column only)."""
    t = pq.read_table(path, columns=[BUCKET_COL])
    return np.unique(t[BUCKET_COL].to_numpy(zero_copy_only=False))


def _grouped_fold(view: GroupedMatView, payload: list[str], controls,
                  bucket: int, mv_seq: int, runs_dir: str, txn: str):
    """Per-bucket fold: resolve the WHOLE bucket, derive its partial
    rows, and ALWAYS emit a marker row so the bucket's refresh epoch
    advances even when it resolved to zero live rows (otherwise stale
    partials from an older epoch would keep winning the read-side
    current-filter)."""
    def fold(tbl: "pa.Table | None", lone_base: bool) -> dict:
        partial = None
        if tbl is not None and tbl.num_rows:
            resolved = resolve_stored(tbl, payload, controls, lone_base,
                                      sort=False)
            if resolved.num_rows:
                cols = [*schemas.KEY_COLS,
                        *[c for c in payload if c in
                          set(view.source_cols)]]
                partial = view.partial(resolved.select(cols))
        if partial is None:
            # typed empty input: non-string source cols (ts, ...) must
            # keep their lake types or the partial's kernels break
            base = schemas.table_schema()
            partial = view.partial(pa.table(
                {c: pa.array([], base.field(c).type
                             if c in base.names else pa.string())
                 for c in (*schemas.KEY_COLS, *view.source_cols)}))
        n = partial.num_rows
        out = partial.append_column(
            MV_BUCKET_COL, pa.array(np.full(n, bucket, np.int32)))
        out = _state_cols(out, mv_seq, False)
        out = out.append_column(MV_MARKER_COL,
                                pa.array(np.zeros(n, bool)))
        # the epoch marker row: group cols null, merge cols null
        marker = {c: pa.nulls(1, out.schema.field(c).type)
                  for c in out.column_names}
        marker[MV_BUCKET_COL] = pa.array([bucket], pa.int32())
        marker[MV_SEQ_COL] = pa.array([mv_seq], pa.int64())
        marker[MV_DEAD_COL] = pa.array([False])
        marker[MV_MARKER_COL] = pa.array([True])
        out = pa.concat_tables([out, pa.table(marker)
                               .cast(out.schema)])
        fname = _write_mv_file(out, runs_dir, view, mv_seq, txn)
        return {"file": fname, "n_rows": n}

    return fold


def _refresh_grouped(cfg: EngineConfig,
                     view: GroupedMatView) -> Manifest | None:
    """Grouped-view refresh: re-resolve and re-partial the AFFECTED
    buckets (all buckets on a full fallback); windowing rules shared
    with the keyed path."""
    from .ingest import _exchange_by_bucket, _fold_bucket_refs, _stored_runs

    state = TableState(cfg.table_dir)
    cur, m = state.load_latest_versioned()
    if cur is None:
        return None
    last = _last_refreshed(m, view)
    if last is not None and not _watermark_native(state, view.name, last):
        last = None                      # foreign (cloned) stamps
    if last is not None and last >= cur:
        return None

    payload = schemas.payload_cols(m.schema_version or cfg.schema_version)
    controls = sorted_controls(m.control_ops)
    txn = state.new_txn()
    num_buckets = m.num_buckets or cfg.num_buckets

    delta: list[str] | None = None
    reason = "first-refresh"
    if last is not None:
        delta, reason = _delta_files(state, last, m, cur)
    if delta is not None and not delta:
        return None

    if delta is not None:
        buck_arrays = ray.get([
            _scan_buckets.remote(os.path.join(state.runs_dir, f))
            for f in delta])
        buckets = sorted(int(b) for b in
                         np.unique(np.concatenate(buck_arrays))) \
            if buck_arrays else []
        mode = "incremental"
    else:
        buckets = list(range(num_buckets))
        mode = "full"

    files = [] if mode == "full" \
        else list(m.derived.get(view.derived_key, []))
    if buckets:
        # duck-typed: _scan_cols_for only touches source_cols, which
        # keyed and grouped views share
        _pruned, scan_cols = _scan_cols_for(view, payload, controls)
        paths, bases = _stored_runs(
            state, m, None if mode == "full" else set(buckets))
        exchanged = _exchange_by_bucket(
            paths, num_buckets, bases, columns=scan_cols,
            bucket_subset=buckets)
        metas = ray.get([
            _fold_bucket_refs.remote(
                _grouped_fold(view, _pruned, controls, b, cur,
                              state.runs_dir, txn),
                *args)
            for b, args in zip(buckets, exchanged)])
        files += [mm["file"] for mm in metas]

    derived = {k: list(v) for k, v in m.derived.items()}
    derived[view.derived_key] = files
    stats = {"mode": mode, "affected_buckets": len(buckets)}
    if mode == "full":
        stats["reason"] = reason
    return state.publish(expected_parent=cur, manifest=Manifest(
        txn_id=txn, committed_seq=m.committed_seq,
        committed_lsn=m.committed_lsn,
        schema_version=m.schema_version,
        num_buckets=m.num_buckets,
        buckets={k: list(v) for k, v in m.buckets.items()},
        global_runs=list(m.global_runs),
        derived=derived,
        control_ops=m.control_ops,
        wal_consumed=[],
        metrics={"matview_refresh": {"view": view.name,
                                     "source_version": cur, **stats}}))


@ray.remote
def _read_bucket_seq(path: str) -> pa.Table:
    return pq.read_table(path, columns=[MV_BUCKET_COL, MV_SEQ_COL])


def _bucket_epochs(paths: list[str]) -> dict[int, int]:
    """bucket -> newest refresh seq across the view's files. Reads just
    the (bucket, seq) columns; output is num_buckets-sized (tiny).
    Many files (the uncompacted-backlog shape the distributed
    compaction path exists for) read in parallel tasks."""
    if len(paths) > 8:
        tables = ray.get([_read_bucket_seq.remote(p) for p in paths])
    else:
        tables = [pq.read_table(p, columns=[MV_BUCKET_COL, MV_SEQ_COL])
                  for p in paths]
    epoch = pa.concat_tables(tables)
    bmax = pa.TableGroupBy(epoch, MV_BUCKET_COL).aggregate(
        [(MV_SEQ_COL, "max")])
    return {int(b): int(s) for b, s in
            zip(bmax[MV_BUCKET_COL].to_pylist(),
                bmax[f"{MV_SEQ_COL}_max"].to_pylist())}


def _filter_current(tbl: pa.Table, cur_seq: dict[int, int],
                    keep_markers: bool) -> pa.Table:
    """Keep each bucket's newest-epoch rows (superseded partials and —
    unless kept — epoch markers drop)."""
    b = tbl[MV_BUCKET_COL].to_numpy(zero_copy_only=False).astype(np.int64)
    s = tbl[MV_SEQ_COL].to_numpy(zero_copy_only=False)
    # dense epoch lookup (bucket ids are small ints): one gather
    # instead of a per-row Python dict probe. A bucket present in the
    # rows but absent from cur_seq is an invariant violation (cur_seq
    # is computed over the SAME file set) — fail loudly rather than
    # silently matching against the -1 sentinel and dropping the rows.
    epoch = np.full(int(b.max()) + 1 if b.size else 1, -1, np.int64)
    for bk, sq in cur_seq.items():
        if bk < epoch.size:
            epoch[bk] = sq
    if b.size and bool(np.any(epoch[b] < 0)):
        missing = sorted(set(b[epoch[b] < 0].tolist()))[:5]
        raise AssertionError(
            f"_filter_current: buckets {missing} have rows but no "
            f"epoch in cur_seq — epoch map and row set diverged")
    keep = s == epoch[b]
    if not keep_markers:
        keep &= ~tbl[MV_MARKER_COL].to_numpy(zero_copy_only=False)
    return tbl.filter(pa.array(keep))


@ray.remote
def _merge_small_gview(paths: list[str], name: str) -> pa.Table:
    """Single-task merge of a measured-small grouped view (same gate
    rationale as `_merge_small_view`)."""
    view = GROUPED_MATVIEWS[name]
    cur = _bucket_epochs(paths)
    tbl = pa.concat_tables([pq.read_table(p) for p in paths],
                           promote_options="default")
    t = _filter_current(tbl, cur, keep_markers=False).drop_columns(
        [MV_BUCKET_COL, MV_SEQ_COL, MV_DEAD_COL, MV_MARKER_COL])
    if t.num_rows == 0:
        return view.empty_result()
    agg = pa.TableGroupBy(t, list(view.group_cols)).aggregate(
        [(c, fn) for c, fn in view.merge_spec])
    return agg.select(
        [*view.group_cols,
         *[f"{c}_{fn}" for c, fn in view.merge_spec]]).rename_columns(
        [*view.group_cols, *[c for c, _fn in view.merge_spec]])


def read_grouped_matview(cfg: EngineConfig, name: str,
                         force_distributed: bool = False
                         ) -> ray.data.Dataset:
    """Current rows of a grouped view: distributed merge of the
    buckets' current partials (the epoch map is the only driver-side
    state — num_buckets entries, broadcast to the filter stage; the
    partial rows themselves stream through the groupby). Measured-small
    views short-cut to a single-task merge; `force_distributed` is the
    test hook for the exchange path."""
    from ray.data.aggregate import Max, Min, Sum

    view = GROUPED_MATVIEWS[name]
    state = TableState(cfg.table_dir)
    m = state.load_latest()
    paths = state.derived_paths(view.derived_key, m)
    if not paths:
        return ray.data.from_arrow(view.empty_result())
    if not force_distributed and _view_bytes(paths) <= SMALL_VIEW_BYTES:
        return ray.data.from_arrow_refs(
            [_merge_small_gview.remote(paths, name)])
    cur_ref = ray.put(_bucket_epochs(paths))
    want = view.empty_result().schema
    str_groups = [c for c in view.group_cols
                  if pa.types.is_string(want.field(c).type)]

    def keep_current(t: pa.Table) -> pa.Table:
        from ..stages.joins import fetch_broadcast
        out = _filter_current(t, fetch_broadcast(cur_ref),
                              keep_markers=False)
        out = out.drop_columns([MV_BUCKET_COL, MV_SEQ_COL,
                                MV_DEAD_COL, MV_MARKER_COL])
        # Ray's sort-based group shuffle cannot order null keys; a null
        # group member (e.g. "no tool") is legitimate view state, so
        # sentinel-encode it through the exchange and restore after
        for c in str_groups:
            out = out.set_column(out.schema.get_field_index(c), c,
                                 pc.fill_null(out[c], _NULL_GROUP))
        return out

    aggs = {"sum": Sum, "max": Max, "min": Min}
    # materialize the filtered partials: they are (groups x buckets)
    # rows — far smaller than the raw files — and both the emptiness
    # probe and the groupby then share ONE scan instead of re-running
    # the read+filter lineage twice
    ds = ray.data.read_parquet(paths) \
        .map_batches(keep_current, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()
    if ds.count() == 0:
        return ray.data.from_arrow(view.empty_result())
    key = view.group_cols[0] if len(view.group_cols) == 1 \
        else list(view.group_cols)
    out = ds.groupby(key).aggregate(
        *[aggs[fn](c, alias_name=c) for c, fn in view.merge_spec])
    if not view.group_types and not str_groups:
        return out

    def restore(t: pa.Table) -> pa.Table:
        # undo the null sentinel, and restore declared group types
        # (Ray's hash aggregate can demote a non-string key's
        # precision, timestamp[us] -> [s])
        for c in str_groups:
            i = t.schema.get_field_index(c)
            t = t.set_column(i, c, pc.if_else(
                pc.equal(t[c], _NULL_GROUP),
                pa.nulls(t.num_rows, t.schema.field(c).type), t[c]))
        for c in view.group_cols:
            t = t.set_column(t.schema.get_field_index(c), c,
                             pc.cast(t[c], want.field(c).type))
        return t

    return out.map_batches(restore, batch_format="pyarrow",
                           zero_copy_batch=True)


@ray.remote
def _merge_gmv_part(runs_dir: str, view_name: str, cur_seq: dict,
                    txn: str, *slices: pa.Table) -> str | None:
    """Reduce side for grouped views: current-epoch filter of one
    bucket partition's slices, written in-task."""
    view = GROUPED_MATVIEWS[view_name]
    tbl = pa.concat_tables(slices, promote_options="default")
    if tbl.num_rows == 0:
        return None
    out = _filter_current(tbl, cur_seq, keep_markers=True)
    if out.num_rows == 0:
        return None
    seq = int(pc.max(out[MV_SEQ_COL]).as_py())
    return _write_mv_file(out, runs_dir, view, seq, txn)


def compact_gmv_files(runs_dir: str, view_key: str, files: list[str],
                      txn: str) -> list[str]:
    """Compaction hook for grouped views: keep only each bucket's
    current epoch (markers included — they carry the epoch for buckets
    whose partial set is empty). Size-gated like the keyed path: small
    folds into one base in-process; a large view (the token index over
    a big corpus) folds as a bucket-routed exchange, one base per
    partition, never one whole-view concat."""
    name = view_key[len(GMV_PREFIX):]
    view = GROUPED_MATVIEWS[name]
    cur_seq = _bucket_epochs([os.path.join(runs_dir, f) for f in files])

    def small(tbl: pa.Table) -> list[str]:
        out = _filter_current(tbl, cur_seq, keep_markers=True)
        seq = int(pc.max(out[MV_SEQ_COL]).as_py()) if out.num_rows else 0
        return [_write_mv_file(out, runs_dir, view, seq, txn)]

    return compact_view_sized(
        runs_dir, files, None, small,
        lambda i, slices: _merge_gmv_part.remote(
            runs_dir, name, cur_seq, f"{txn}p{i}", *slices))


# -- inverted-index search ----------------------------------------------------

def token_buckets(cfg: EngineConfig, token: str,
                  name: str = "token_index",
                  m: "Manifest | None" = None) -> "tuple[list[int], int]":
    """Buckets whose CURRENT index epoch contains `token`, plus the
    stored bucket count — the SKIPPING read of the inverted index. The
    scan touches only the index files' (token, bucket, seq) columns
    with a `token ==` parquet predicate, so the cost is index-sized,
    never table-sized. An index file is one row group at today's sizes
    (`write_run` keeps pyarrow's 1,048,576-row default), so the
    predicate filters decoded rows rather than skipping groups.

    Contract: the hit ids are in the layout of the index's LAST
    REFRESH. A caller pruning a snapshot read with them must compare
    that layout against the manifest it reads (as `search_tokens`
    does, pinning one manifest via `m` across the guard, the lookups
    and the read); after a rebucket migration the pair (old-layout
    ids, new bucket count) is not coherent for pruning."""
    import pyarrow.dataset as pads

    view = GROUPED_MATVIEWS[name]
    state = TableState(cfg.table_dir)
    if m is None:
        m = state.load_latest()
    nb = m.num_buckets or cfg.num_buckets
    paths = state.derived_paths(view.derived_key, m)
    if not paths:
        raise ValueError(
            f"index {name!r} has never been refreshed on this table; "
            f"run refresh_matview(cfg, {name!r}) first")
    cur = _bucket_epochs(paths)
    t = pads.dataset(paths, format="parquet").to_table(
        columns=[MV_BUCKET_COL, MV_SEQ_COL],
        filter=pads.field("token") == token)
    b = t[MV_BUCKET_COL].to_numpy(zero_copy_only=False)
    s = t[MV_SEQ_COL].to_numpy(zero_copy_only=False)
    hit = sorted({int(x) for x, e in zip(b, s) if cur[int(x)] == e})
    return hit, nb


def search_token(cfg: EngineConfig, token: str,
                 name: str = "token_index") -> ray.data.Dataset:
    """Serving-side full-text token search over the RESOLVED table:
    the inverted index prunes to hit buckets (`token_buckets`), ONLY
    those buckets resolve (`read_snapshot(buckets=...)` — base runs of
    the hits plus uncompacted global runs), and a vectorized per-row
    membership check verifies (the index is bucket-granular, so the
    scan-side check removes same-bucket non-matches). At 100 TB with
    thousands of buckets a rare token reads a few buckets' bytes
    instead of the table. Freshness contract: the index serves its
    last refreshed state — refresh after a tick before searching, or
    accept index-version results (rows added since the refresh are
    missed; rows updated since may verify differently)."""
    return search_tokens(cfg, all_of=(token,), name=name)


def search_tokens(cfg: EngineConfig, all_of=(), any_of=(),
                  name: str = "token_index") -> ray.data.Dataset:
    """Boolean token search: rows containing EVERY `all_of` token and
    (when given) at least one `any_of` token. Index pruning composes
    with the query: the scan set is the INTERSECTION of the all_of
    tokens' bucket sets, further intersected with the UNION of the
    any_of sets — an AND of a rare token with a hot one costs the rare
    token's buckets. A required token absent from the index
    short-circuits to an empty result with zero bucket scans."""
    from .ingest import read_snapshot

    all_of = [t.lower() for t in all_of]
    any_of = [t.lower() for t in any_of]
    if not all_of and not any_of:
        raise ValueError("search needs at least one token")
    # Layout guard: the index's bucket ids refer to the layout at its
    # LAST REFRESH; after a rebucket migration they no longer name the
    # current snapshot's buckets, so pruning with them would read the
    # wrong rows. Fall back to the full verified scan (correct, just
    # unpruned) until the next refresh re-indexes under the new
    # layout. ONE manifest is pinned through the guard, the bucket
    # lookups AND the snapshot read — a rebucket committing mid-search
    # cannot defeat the check (each stage reloading "latest" would).
    state = TableState(cfg.table_dir)
    ver, m = state.load_latest_versioned()
    view = GROUPED_MATVIEWS[name]
    last = _last_refreshed(m, view)
    if last is None:
        raise ValueError(
            f"index {name!r} has never been refreshed on this table; "
            f"run refresh_matview(cfg, {name!r}) first")
    cur_nb = m.num_buckets or cfg.num_buckets
    if not _watermark_native(state, name, last):
        # clones keep the SOURCE's derived file names (stamps from a
        # FOREIGN lineage) over a fresh history: version `last` of
        # THIS lineage — if it even exists — is a different manifest
        # than the one the stamp names, so the layout at refresh time
        # is unknowable. Serve the correct-but-unpruned scan until a
        # refresh re-indexes natively. (This also covers the
        # stamp == current-version coincidence a diverged clone can
        # produce, which a naive load(last) compare would trust.)
        pruning_ok = False
    else:
        pruning_ok = (state.load(last).num_buckets
                      or cfg.num_buckets) == cur_nb
    if not pruning_ok:
        ds = read_snapshot(cfg, manifest=m)
    else:
        buckets: "set[int] | None" = None
        for t in all_of:
            hit, _nb = token_buckets(cfg, t, name, m=m)
            buckets = set(hit) if buckets is None else buckets & set(hit)
            if not buckets:
                break
        if any_of and (buckets is None or buckets):
            union: set[int] = set()
            for t in any_of:
                hit, _nb = token_buckets(cfg, t, name, m=m)
                union |= set(hit)
            buckets = union if buckets is None else buckets & union
        ds = read_snapshot(cfg, manifest=m,
                           buckets=sorted(buckets or ()))

    def verify(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(batch["text"], "")),
            TOKEN_SPLIT_RE)
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)

        def rows_with(tok: str) -> np.ndarray:
            hit = pc.equal(flat, tok).to_numpy(zero_copy_only=False)
            rows = np.zeros(batch.num_rows, bool)
            rows[parent[hit]] = True
            return rows

        keep = np.ones(batch.num_rows, bool)
        for t in all_of:
            keep &= rows_with(t)
        if any_of:
            any_mask = np.zeros(batch.num_rows, bool)
            for t in any_of:
                any_mask |= rows_with(t)
            keep &= any_mask
        return batch.filter(pa.array(keep))

    return ds.map_batches(verify, batch_format="pyarrow",
                          zero_copy_batch=True)


def _local_topk(t: pa.Table, k: int) -> pa.Table:
    """Prune a scored batch to its own top-k under the FULL search
    order (sim desc, conv_id asc, turn_idx asc). Any row outside its
    batch's top-k has >= k rows ahead of it globally, so the global
    sort+limit result is unchanged — but the sort exchange now moves
    at most k rows per block instead of the whole candidate set (the
    difference between probe-bounded and cell-count-unbounded cost
    when a caller passes nprobe=ANN_CELLS)."""
    if t.num_rows <= k:
        return t
    idx = pc.sort_indices(t, sort_keys=[("sim", "descending"),
                                        ("conv_id", "ascending"),
                                        ("turn_idx", "ascending")])
    return t.take(idx.slice(0, k))


# -- hybrid search: token-pruned candidates, vector-ranked --------------------

def search_hybrid(cfg: EngineConfig, query, k: int = 10,
                  all_of=(), any_of=(),
                  token_index: str = "token_index") -> ray.data.Dataset:
    """Token-constrained ANN: the inverted index prunes the scan to
    the tokens' buckets and verifies candidate rows
    (`search_tokens`), then the vector query ranks the candidates by
    6-decimal-rounded cosine over the deterministic embedding —
    retrieval's classic filter+rank composition, both stages serving
    from incrementally-maintained engine state. Candidate count is
    token-selectivity-bounded; the rank is one vectorized pass over
    it."""
    q = np.asarray(query, np.float64)
    if not np.linalg.norm(q) > 0:
        raise ValueError("ANN query vector has zero norm — cosine "
                         "similarity is undefined for it")
    qn = q / np.linalg.norm(q)
    cand = search_tokens(cfg, all_of=all_of, any_of=any_of,
                         name=token_index)

    def score(t: pa.Table) -> pa.Table:
        E = ann_embed(t["text"])
        norm = np.linalg.norm(E, axis=1)
        keep = norm > 0                  # unembeddable rows can't rank
        t = t.filter(pa.array(keep))
        sim = np.round((E[keep] @ qn) / norm[keep], 6) if t.num_rows \
            else np.array([], np.float64)
        return _local_topk(t.append_column("sim", pa.array(sim)), k)

    top = cand.map_batches(score, batch_format="pyarrow",
                           zero_copy_batch=True) \
        .sort(["sim", "conv_id", "turn_idx"],
              descending=[True, False, False]).limit(k)
    return top.drop_columns(["sim"])


# -- ANN search over the IVF index --------------------------------------------

def search_ann(cfg: EngineConfig, query, k: int = 10, nprobe: int = 4,
               name: str = "ivf_index") -> ray.data.Dataset:
    """Approximate-nearest-neighbor search over the RESOLVED table via
    the incrementally-maintained IVF grouped matview: the query probes
    its `nprobe` nearest cells, the scan reads ONLY those cells'
    posting rows (parquet `cell IN` predicate over the cell-sorted
    index files; each file is one row group at today's sizes, so the
    predicate filters decoded rows and the cost is index-sized, never
    table-sized -- files past 1,048,576 rows would skip groups by
    their footer stats), a current-epoch
    filter drops superseded generations, and the candidates exact-rank
    by 6-decimal-rounded cosine with (conv_id, turn_idx) tie-break.
    Same freshness contract as token search: the index serves its last
    refreshed state."""
    import pyarrow.dataset as pads

    view = GROUPED_MATVIEWS[name]
    state = TableState(cfg.table_dir)
    m = state.load_latest()
    paths = state.derived_paths(view.derived_key, m)
    if not paths:
        raise ValueError(
            f"index {name!r} has never been refreshed on this table; "
            f"run refresh_matview(cfg, {name!r}) first")
    cur = _bucket_epochs(paths)
    # sized by the LARGEST bucket id the index files carry, not the
    # manifest's current count: after a rebucket migration the
    # not-yet-refreshed index legitimately holds old-layout ids and
    # must keep serving its last refreshed state (token_buckets' dict
    # handles the same state; this is its vectorized equivalent)
    nb = max(m.num_buckets or cfg.num_buckets,
             max(cur.keys(), default=-1) + 1)
    cur_arr = np.full(nb, -1, np.int64)
    for bk, sq in cur.items():
        cur_arr[int(bk)] = sq
    probes = ann_probe_cells(query, nprobe)
    q = np.asarray(query, np.float64)
    qn = q / np.linalg.norm(q)
    cols = ["cell", "conv_id", "turn_idx", *ANN_EMB_COLS,
            MV_BUCKET_COL, MV_SEQ_COL]
    # marker rows have a null cell, so the isin predicate drops them
    ds = ray.data.read_parquet(
        paths, columns=cols,
        filter=pads.field("cell").isin(probes))

    def score(t: pa.Table) -> pa.Table:
        b = t[MV_BUCKET_COL].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        s = t[MV_SEQ_COL].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(cur_arr[b] == s))
        E = np.stack([t[c].to_numpy(zero_copy_only=False)
                      for c in ANN_EMB_COLS], axis=1).astype(np.float64)
        norm = np.linalg.norm(E, axis=1)
        sim = np.round((E @ qn) / norm, 6) if t.num_rows \
            else np.array([], np.float64)
        return _local_topk(pa.table({"conv_id": t["conv_id"],
                                     "turn_idx": t["turn_idx"],
                                     "sim": pa.array(sim)}), k)

    cand = ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)
    top = cand.sort(["sim", "conv_id", "turn_idx"],
                    descending=[True, False, False]).limit(k)
    return top.drop_columns(["sim"])


def compact_view_sized(runs_dir: str, files: list[str],
                       key: "str | None", small_fn,
                       part_fn) -> list[str]:
    """Shared size-gated view-compaction driver — keyed, grouped, join
    and additive-derived views all share the gate and exchange shape;
    only the per-set merge kernels differ, so they plug in here instead
    of re-implementing the scaffold (review finding, round 5).

    ``small_fn(tbl) -> list[str]`` folds the measured-small whole-view
    concat in-process and writes the base(s); ``part_fn(i, slices) ->
    ObjectRef[str | None]`` launches the reduce task for routed
    partition ``i``. Routing is hash(key) for keyed views or bucket id
    for grouped views (``key=None``). Past ``SMALL_VIEW_BYTES`` the
    fold is a key-routed hash exchange writing one base per partition —
    a view over 10^9 keys must never concat in a single process."""
    paths = [os.path.join(runs_dir, f) for f in files]
    if _view_bytes(paths) <= SMALL_VIEW_BYTES:
        tbl = pa.concat_tables([pq.read_table(p) for p in paths],
                               promote_options="default")
        return small_fn(tbl)
    parts = _split_partitions(paths, _compact_partitions(paths), key)
    names = ray.get([part_fn(i, slices)
                     for i, slices in enumerate(parts)])
    return [n for n in names if n is not None]


def _compact_partitions(paths: list[str]) -> int:
    """Partition count for a distributed view-compaction fold: one
    key-routed reducer per SMALL_VIEW_BYTES of input, capped so the
    object count stays bounded. Always >= 2 — the <= 1-unit case takes
    the in-process fold before this is consulted."""
    unit = max(1, SMALL_VIEW_BYTES)       # tests force the path with 0
    return int(max(2, min(32, -(-_view_bytes(paths) // unit))))


def _split_view_file(path: str, n: int,
                     key: str | None) -> tuple[pa.Table, ...]:
    """Slices of one view run file routed by hash(key) % n (keyed
    views) or bucket % n (grouped views, key=None) — the map side of
    the distributed view exchange."""
    t = pq.read_table(path)
    if key is None:
        part = t[MV_BUCKET_COL].to_numpy(zero_copy_only=False) \
            .astype(np.uint64) % np.uint64(n)
    else:
        part = hash_strings_arrow(t[key]) % np.uint64(n)
    return split_by_route(t, part, n)


def _split_partitions(paths: list[str], P: int,
                      key: str | None) -> "list[tuple]":
    """Map side of a distributed view fold: each file splits into P
    routed slices in its own task (ONE read per file — reduce tasks
    compute their own seq watermarks from the slices); returns the
    per-partition slice tuples."""
    return split_fan_out(_split_view_file, paths, P, P, key)


@ray.remote
def _merge_mv_part(runs_dir: str, view_name: str, txn: str,
                   *slices: pa.Table) -> str | None:
    """Reduce side: latest-wins fold of one key partition's slices,
    written in-task as its own base file (manifests carry per-view
    file LISTS, so readers are unaffected). None for empty parts.
    The seq stamp is the partition's own max — every row derives from
    a generation <= it, and any future refresh writes strictly newer
    seqs, so per-partition stamps preserve latest-wins exactly like
    the old whole-view max while avoiding a second read pass."""
    tbl = pa.concat_tables(slices, promote_options="default")
    if tbl.num_rows == 0:
        return None
    seq = int(pc.max(tbl[MV_SEQ_COL]).as_py())
    view = _view(view_name)
    out = _state_cols(merge_latest(tbl, view.key), seq, False)
    return _write_mv_file(out, runs_dir, view, seq, txn)


def compact_mv_files(runs_dir: str, view_key: str, files: list[str],
                     txn: str) -> list[str]:
    """Compaction hook (called from ingest._compact_derived): fold a
    view's run files into a base set. Latest-wins, tombstones dropped —
    the bases ARE the full row set, nothing older remains to mask.

    Size-gated like the read path (`read_matview`): a measured-small
    view folds in one task; past SMALL_VIEW_BYTES the fold is a
    key-routed hash exchange writing one base file per partition —
    a keyed view over 10^9 conversations must never concat in a single
    process."""
    name = view_key[len(MV_PREFIX):]
    view = _view(name)

    def small(tbl: pa.Table) -> list[str]:
        seq = int(pc.max(tbl[MV_SEQ_COL]).as_py()) if tbl.num_rows else 0
        out = _state_cols(merge_latest(tbl, view.key), seq, False)
        return [_write_mv_file(out, runs_dir, view, seq, txn)]

    return compact_view_sized(
        runs_dir, files, view.key, small,
        lambda i, slices: _merge_mv_part.remote(
            runs_dir, name, f"{txn}p{i}", *slices))
