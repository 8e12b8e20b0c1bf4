"""Materialized aggregate views over the RESOLVED table state, and the
one refresh driver, `refresh_matview`, for every refreshed view:
keyed, grouped, index and the cross-table join views of
:mod:`.joinview`.

Reference parity: ``TopRestaurantsLast30Days.scala:38`` re-creates a
derived VIEW on every run (``createOrReplaceView``). The additive sinks
in :mod:`.derived` cover the *append-only counter* shape; this module
covers the other half of the reference's view story: an aggregate over
the table's CURRENT state, where an update must be net-zero and a
delete must RETRACT its contribution.

A view is a per-bucket file set, and a refresh REPLACES files, the way
a Delta Lake commit adds and removes immutable files:

  1. affected buckets = the buckets of the distinct ``conv_id`` in the
     run files added since the view's last refreshed manifest version
     (`_scan_affected`, a column-pruned scan of just
     ``conv_id``/``bucket`` -- delta-sized, not table-sized); a join
     view windows its second table the same way and re-buckets its
     keys under the first table's bucket count;
  2. each affected bucket's `_fold_bucket_refs` task resolves the WHOLE
     bucket (LWW fold) -- for a join, of both tables, the second one's
     rows re-routed by `_exchange_by_bucket(..., rebucket=True)` --
     applies the view's per-bucket ``of_bucket`` and writes exactly one
     file ``mv-<name>-b<B>-s<V>-x<txn>-...`` (a join's
     ``jmv-<name>-b<B>-sa<VA>-sb<VB>-x<txn>-...``), even an empty one;
  3. one manifest publish puts each new file in place of its bucket's
     entry in ``derived["mv:<name>"]`` (``gmv:`` for grouped views,
     ``jmv:`` for joins) -- the same atomic commit point as everything
     else, so the view is always consistent with exactly one table
     version. Older manifests keep the replaced files until GC, as for
     table runs.

Retraction is free: a bucket's rows are re-derived from its live rows,
never incremented. Full-recompute fallback (window not
delta-expressible, on either table of a join): first refresh, a
compaction over unrefreshed deltas or re-bucketing (both rewrite file
history), a rollback, an erasure, or a control-op change (controls
reach keys the delta never names). It folds every bucket and replaces
every entry. A view list written before views were one file per bucket
(no ``-b<B>`` in its names) refreshes as a first refresh.

Reads concatenate the current files. A keyed view's bucket owns its
keys, so the concat is the view; a grouped view's partials merge across
buckets by its ``merge_spec`` through :mod:`.derived`'s one merge
(`derived.read_merged`). The ``s<V>`` stamps are the
refresh watermark, carried inside the manifest: the newest is the table
version the view was last refreshed against, and because every
refreshed bucket writes a file, a view whose rows were all deleted
keeps it. Compaction leaves view files alone.
"""

from __future__ import annotations

import functools
import os
import re
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
from ..stages.exchange import table_dataset, tasks_dataset
from ..stages.partition import BUCKET_COL, hash_strings_arrow
from ..state.commit import Txn, commit
from ..state.manifest import Manifest, TableState
from ..state.storage import write_run
from . import derived

MV_PREFIX = "mv:"
GMV_PREFIX = "gmv:"


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
    #: output columns (name, arrow type) -- fixes the view file schema
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

    def of_bucket(self, live: pa.Table) -> pa.Table:
        """The view rows of one bucket's live resolved rows."""
        return self.agg(live.select([self.key, "turn_idx",
                                     *self.source_cols]))


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
    so a bucket's file holds PARTIAL rows, one per group present in the
    bucket. A refresh re-partials each affected bucket wholesale and
    replaces that bucket's file; reads merge the current partials across
    buckets with the associative merge_spec. Retraction is free for the
    same reason as keyed views: partials are re-derived from live rows,
    never incremented.
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
        return derived.empty_partials(self.group_cols, self.merge_spec,
                                      self.group_types)

    def of_bucket(self, live: pa.Table) -> pa.Table:
        """The partial rows of one bucket's live resolved rows."""
        return self.partial(live.select([*schemas.KEY_COLS,
                                         *self.source_cols]))


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


def check_matview_names(names) -> None:
    """Raise KeyError naming every entry of `names` that is neither a
    keyed nor a grouped view, before anything commits."""
    known = {*MATVIEWS, *GROUPED_MATVIEWS}
    bad = [v for v in names if v not in known]
    if bad:
        raise KeyError(f"unknown matview(s) {bad}; registered: "
                       f"{sorted(known)}")


# -- refresh bookkeeping -----------------------------------------------------

_BUCKET_RE = re.compile(r"-b(\d+)-s")
#: a view file's source-version stamp: ``-s<V>-x`` (one table) or
#: ``-sa<VA>-sb<VB>-x`` (a join's two tables), after ``-b<B>`` in every
#: name written since views became one file per bucket
_STAMP_RE = re.compile(r"(-b\d+)?-s(?:(\d+)|a(\d+)-sb(\d+))-x")


def _file_bucket(fname: str) -> int:
    """The bucket a view file holds, from its name (``...-b<B>-s...``)."""
    mm = _BUCKET_RE.search(fname)
    if mm is None:
        raise ValueError(f"unparseable view file name {fname!r}")
    return int(mm.group(1))


def _last_refreshed(m: Manifest, key: str) -> "tuple[int, ...] | None":
    """Source versions of the newest file in ``derived[key]`` -- ``(V,)``,
    or ``(VA, VB)`` for a join -- parsed from the self-describing file
    names: the state travels inside the manifest, nothing sidecar. None
    when the view was never refreshed, or when its list still holds a
    name written before views were one file per bucket (no ``-b<B>``):
    such a list is refreshed as a first refresh, which replaces every
    entry."""
    best = None
    for f in m.derived.get(key, ()):
        mm = _STAMP_RE.search(f)
        if mm is None:
            raise ValueError(f"unparseable view file name {f!r}")
        if mm.group(1) is None:
            return None
        v = (int(mm.group(2)),) if mm.group(2) is not None \
            else (int(mm.group(3)), int(mm.group(4)))
        best = v if best is None else max(best, v)
    return best


def _watermark_native(state: TableState, tag: str, last: "tuple[int, ...]",
                      other: "EngineConfig | None" = None) -> bool:
    """True iff the parsed watermark `last` was minted by THIS table's
    lineage (and, for a join, against THIS `other` table). A refresh
    always publishes with ``expected_parent=last[0]`` (strict CAS, no
    rebase), so the commit at version ``last[0] + 1`` must exist here
    and record ``matview_refresh{view=tag, source_version=last[0]}``,
    plus ``source_b{table_dir, version=last[1]}`` for a join.

    A ZERO-COPY CLONE carries the SOURCE's derived files -- stamps from
    a foreign lineage -- over a fresh v0 history, and a join's `other`
    may be re-pointed at a different table. Trusting such stamps is
    wrong two ways: ``last >= cur`` declares a diverged clone's view
    falsely fresh forever, and ``last < cur`` windows the delta
    against the clone's OWN version ``last``, a different manifest
    than the one the stamp names. A failed check forces the full
    recompute, which REPLACES the file set with natively-stamped
    files, so only the first post-clone refresh pays it. (A swept
    lineage manifest also fails the check -- full recompute is the
    correct fallback there too.)"""
    try:
        mm = state.load(last[0] + 1).metrics.get("matview_refresh") or {}
    except FileNotFoundError:
        return False
    if mm.get("view") != tag or mm.get("source_version") != last[0]:
        return False
    if other is None:
        return True
    sb = mm.get("source_b") or {}
    return sb.get("version") == last[1] \
        and os.path.realpath(str(sb.get("table_dir", ""))) \
        == os.path.realpath(other.table_dir)


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
        if m.rewrite in ("rollback", "erasure"):
            # a restore re-points at OLD files: nothing looks "added"
            # relative to the refresh watermark even though the visible
            # state changed (rows the view aggregated were un-written).
            # A physical erasure rewrites files WITHOUT naming the
            # erased key in any delta, so an incremental refresh would
            # never retract its view rows. Neither is delta-expressible
            # — recompute (which also purges an erased key from the
            # view's own replaced file set)
            return None, m.rewrite
        if m.rewrite == "compaction":
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
def _scan_affected(path: str, num_buckets: int | None = None) -> pa.Table:
    """Distinct (key, bucket) pairs of one delta run file — the only
    columns read; output is collapsed per file, so driver traffic is
    O(distinct keys in the delta), never O(delta rows). `num_buckets`
    re-derives the bucket from the key hash under that count (another
    table's layout, as a join view reads its B side)."""
    t = pq.read_table(path, columns=["conv_id", BUCKET_COL])
    if num_buckets is not None:
        nb = hash_strings_arrow(t["conv_id"]) % np.uint64(num_buckets)
        t = t.set_column(t.schema.get_field_index(BUCKET_COL), BUCKET_COL,
                         pa.array(nb.astype(np.int32)))
    return pa.TableGroupBy(t, ["conv_id", BUCKET_COL]).aggregate([])


def _affected(scans: list) -> tuple[list[int], int]:
    """(sorted affected buckets, affected keys) of `_scan_affected`
    refs, counted over the distinct pairs of all of them."""
    pairs = pa.TableGroupBy(pa.concat_tables(ray.get(scans)),
                            ["conv_id", BUCKET_COL]).aggregate([])
    return sorted(set(pairs[BUCKET_COL].to_pylist())), pairs.num_rows


def _bucket_live(group: "pa.Table | None", payload: list[str], controls,
                 lone_base: bool, cols: list[str],
                 version: int) -> pa.Table:
    """One bucket's live resolved rows, projected to `cols`; a bucket
    with no input resolves to a typed empty table."""
    if group is None:
        return schemas.table_schema(version).empty_table().select(cols)
    return resolve_stored(group, payload, controls, lone_base,
                          sort=False).select(cols)


def _write_view_file(tbl: pa.Table, runs_dir: str, stem: str) -> str:
    fname = f"{stem}-{uuid.uuid4().hex[:12]}.parquet"
    write_run(tbl, os.path.join(runs_dir, fname))
    return fname


def refresh_matview(cfg: EngineConfig, name: str,
                    other: "EngineConfig | None" = None, *,
                    redo: bool = False) -> Manifest | None:
    """Bring the named view (keyed, grouped, index or join) up to its
    table's latest committed version -- a join view (`JOIN_MATVIEWS`)
    also up to `other`'s, the config of its second table B, which it
    requires and every other view rejects; the view commits on `cfg`'s
    table. Re-fold every affected bucket (every bucket on a full
    fallback) into one file each and publish them in one manifest (the
    refresh is itself a transaction). Each fold task writes its file
    itself, so this process only sees file names and the affected
    buckets. A no-op (already fresh, or an empty delta window) returns
    None. The files stamp the version read, so a refresh never rebases:
    a lost version race raises `CommitConflict`, or with `redo`
    recomputes on the new latest."""
    state = TableState(cfg.table_dir)
    plan = functools.partial(_refresh_txn, cfg, name, other, state)
    built = plan()
    if built is None:
        return None
    return commit(state, cfg, *built, rebuild=plan if redo else None)


def _refresh_txn(cfg: EngineConfig, name: str,
                 other: "EngineConfig | None", state: TableState
                 ) -> "tuple[int, Manifest, Txn] | None":
    """One attempt of :func:`refresh_matview` on the latest version:
    (version, manifest, txn), or None when there is nothing to do."""
    from .ingest import (_exchange_by_bucket, _fold_bucket_refs,
                         _pruned_scan, _stored_runs)
    from .joinview import JOIN_MATVIEWS

    join = name in JOIN_MATVIEWS
    view = JOIN_MATVIEWS[name] if join \
        else GROUPED_MATVIEWS.get(name) or _view(name)
    if join != (other is not None):
        raise ValueError(
            f"join view {name!r} needs `other`, its second table's config"
            if join else f"view {name!r} reads one table; `other` is "
            f"for join views only")
    if isinstance(view, MatView) and view.key != "conv_id":
        # the lake layout is bucketed by conv_id: the per-bucket
        # key-exclusivity the agg relies on assumes the view key IS the
        # partition key
        raise ValueError(f"matview key must be the partition key "
                         f"'conv_id', got {view.key!r}")
    cfgs = [cfg, other] if join else [cfg]
    states = [state, *(TableState(c.table_dir) for c in cfgs[1:])]
    loaded = [s.load_latest_versioned() for s in states]
    if any(cur is None for cur, _m in loaded):
        return None
    curs = [cur for cur, _m in loaded]
    ms = [m for _cur, m in loaded]
    tag = view.derived_key if join else name
    last = _last_refreshed(ms[0], view.derived_key)
    if last is not None and not _watermark_native(states[0], tag, last,
                                                  other):
        last = None                      # foreign (cloned) stamps
    if last is not None and all(l >= c for l, c in zip(last, curs)):
        return None                      # already fresh: idempotent

    nb = ms[0].num_buckets or cfg.num_buckets
    stats = {"view": tag, "source_version": curs[0]}
    if join:
        # realpath at MINT time: a relative table_dir recorded verbatim
        # would resolve against whatever cwd the CHECK later runs from,
        # misreading a native stamp as foreign and silently degrading
        # every refresh to mode="full"
        stats["source_b"] = {"table_dir": os.path.realpath(other.table_dir),
                             "version": curs[1]}
    buckets, reason = None, "first-refresh"
    if last is not None:
        deltas = [([], "") if l >= c else _delta_files(s, l, m, c)
                  for s, l, m, c in zip(states, last, ms, curs)]
        reason = next((r for d, r in deltas if d is None), "")
        if not reason:
            if not any(d for d, _r in deltas):
                return None              # version moved, table data didn't
            # the second table's keys are re-bucketed under this one's
            # bucket count
            buckets, n_keys = _affected([
                _scan_affected.remote(os.path.join(s.runs_dir, f),
                                      nb if i else None)
                for i, (s, (d, _r)) in enumerate(zip(states, deltas))
                for f in d])
            if not buckets:
                return None
            stats.update(mode="incremental", affected_buckets=len(buckets),
                         affected_keys=n_keys)
    if buckets is None:
        stats.update(mode="full", reason=reason, affected_buckets=nb,
                     affected_keys=None)

    def side(c: EngineConfig, m: Manifest, src: tuple[str, ...]):
        """(one table's bucket resolver, its scan columns)"""
        version = m.schema_version or c.schema_version
        controls = sorted_controls(m.control_ops)
        payload, scan_cols = _pruned_scan(
            src, schemas.payload_cols(version), controls)
        cols = [*schemas.KEY_COLS, *src]
        return (lambda group, lone_base: _bucket_live(
            group, payload, controls, lone_base, cols, version)), scan_cols

    srcs = (view.source_cols_a, view.source_cols_b) if join \
        else (view.source_cols,)
    lives, scans = zip(*(side(c, m, src)
                         for c, m, src in zip(cfgs, ms, srcs)))
    schema = view.empty_result().schema
    runs_dir, txn = states[0].runs_dir, states[0].new_txn()
    prefix = f"{'jmv' if join else 'mv'}-{name}"
    stamp = f"sa{curs[0]}-sb{curs[1]}" if join else f"s{curs[0]}"

    def fold(bucket: int):
        stem = f"{prefix}-b{bucket}-{stamp}-x{txn}"

        def fn(group: "pa.Table | None", lone_base: bool,
               group_b: "pa.Table | None" = None) -> str:
            live = [lives[0](group, lone_base),
                    *(f(group_b, False) for f in lives[1:])]
            out = view.of_bucket(*live).cast(schema) \
                if any(t.num_rows for t in live) else view.empty_result()
            return _write_view_file(out, runs_dir, stem)
        return fn

    # path-list pruning: base runs are bucket-exclusive
    # (manifest.buckets), so only the affected buckets' bases are read;
    # global runs can hold any bucket and are always split
    paths, bases = _stored_runs(states[0], ms[0],
                                None if buckets is None else set(buckets))
    per_bucket = _exchange_by_bucket(paths, nb, bases, columns=scans[0],
                                     bucket_subset=buckets)
    others: list = [()] * len(per_bucket)
    if join:
        # B's whole table, re-routed to A's buckets (its bases hold rows
        # of any A bucket, so they cross the split too); its slices
        # reach the fold as its `n_other` parts
        others = [b[3:] for b in _exchange_by_bucket(
            _stored_runs(states[1], ms[1])[0], nb, {}, columns=scans[1],
            bucket_subset=buckets, rebucket=True)]
    files = ray.get([
        _fold_bucket_refs.remote(fold(args[0]), *args, *o, n_other=len(o))
        for args, o in zip(per_bucket, others)])
    new = {_file_bucket(f) for f in files}
    keep = [] if buckets is None else [
        f for f in ms[0].derived.get(view.derived_key, [])
        if _file_bucket(f) not in new]
    return curs[0], ms[0], Txn(
        "refresh", txn, {"matview_refresh": stats},
        views={view.derived_key: sorted(keep + files, key=_file_bucket)})


# -- read side ---------------------------------------------------------------

def _read_files(paths: list[str]) -> pa.Table:
    return pa.concat_tables([pq.read_table(p) for p in paths],
                            promote_options="default")


def read_view_files(paths: list[str], empty: pa.Table) -> ray.data.Dataset:
    """Rows of a keyed (or join) view's current files, concatenated:
    each bucket's file owns that bucket's keys, so there is nothing to
    merge. A measured-small view (`derived.SMALL_VIEW_BYTES`) is read
    in one task, a larger one in one task per file with rows."""
    if not paths:
        return table_dataset(empty)
    groups = [paths] if derived.view_bytes(paths) <= derived.SMALL_VIEW_BYTES \
        else [[p] for p in paths]
    return tasks_dataset(_read_files, [(g,) for g in groups],
                         drop_empty=True)


def read_matview(cfg: EngineConfig, name: str) -> ray.data.Dataset:
    """Dataset of a keyed view's current rows."""
    view = _view(name)
    state = TableState(cfg.table_dir)
    return read_view_files(state.derived_paths(view.derived_key),
                           view.empty_result())


def read_grouped_matview(cfg: EngineConfig, name: str) -> ray.data.Dataset:
    """Current rows of a grouped view: the buckets' current partials
    merged per group by the view's merge_spec (`derived.read_merged`)."""
    view = GROUPED_MATVIEWS[name]
    return derived.read_merged(
        view, TableState(cfg.table_dir).derived_paths(view.derived_key))


# -- inverted-index search ----------------------------------------------------

def token_buckets(cfg: EngineConfig, token: str,
                  name: str = "token_index",
                  m: "Manifest | None" = None) -> "tuple[list[int], int]":
    """Buckets whose current index file contains `token`, plus the
    stored bucket count — the SKIPPING read of the inverted index. Each
    bucket's file is scanned for its `token` column alone with a
    `token ==` parquet predicate, so the cost is index-sized, never
    table-sized. An index file is one row group at today's sizes
    (`write_run` keeps pyarrow's 1,048,576-row default), so the
    predicate filters decoded rows rather than skipping groups.

    Contract: the hit ids are in the layout of the index's LAST
    REFRESH. A caller pruning a snapshot read with them must compare
    that layout against the manifest it reads (as `search_tokens`
    does, pinning one manifest via `m` across the guard, the lookups
    and the read); after a rebucket migration the pair (old-layout
    ids, new bucket count) is not coherent for pruning."""
    view = GROUPED_MATVIEWS[name]
    state = TableState(cfg.table_dir)
    if m is None:
        m = state.load_latest()
    files = m.derived.get(view.derived_key, [])
    if not files:
        raise ValueError(
            f"index {name!r} has never been refreshed on this table; "
            f"run refresh_matview(cfg, {name!r}) first")
    hit = sorted(_file_bucket(f) for f in files if pq.read_table(
        os.path.join(state.runs_dir, f), columns=["token"],
        filters=[("token", "==", token)]).num_rows)
    return hit, m.num_buckets or cfg.num_buckets


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
    last = _last_refreshed(m, view.derived_key)
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
        pruning_ok = (state.load(last[0]).num_buckets
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
    their footer stats), and the candidates exact-rank by
    6-decimal-rounded cosine with (conv_id, turn_idx) tie-break.
    Same freshness contract as token search: the index serves its last
    refreshed state, which after a rebucket migration is still the
    old layout's file set until the next refresh."""
    import pyarrow.dataset as pads

    view = GROUPED_MATVIEWS[name]
    paths = TableState(cfg.table_dir).derived_paths(view.derived_key)
    if not paths:
        raise ValueError(
            f"index {name!r} has never been refreshed on this table; "
            f"run refresh_matview(cfg, {name!r}) first")
    probes = ann_probe_cells(query, nprobe)
    q = np.asarray(query, np.float64)
    qn = q / np.linalg.norm(q)
    ds = ray.data.read_parquet(
        paths, columns=["cell", "conv_id", "turn_idx", *ANN_EMB_COLS],
        filter=pads.field("cell").isin(probes))

    def score(t: pa.Table) -> pa.Table:
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
