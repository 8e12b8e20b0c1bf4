"""Named derived-view registry: N derived sinks fed by the SAME
consumed delta and committed in the SAME atomic manifest publish as the
main table, plus the one merge of associative partials that every view
with partial rows reads and compacts through.

Reference parity: the one-stream-two-sinks transaction
(``stream/Main.scala:16-19``) and named registered views
(``TopRestaurantsLast30Days.scala:38`` ``createOrReplaceView``): each
view here is a *named* additive aggregate over the change stream --
the apply task writes one partial file per view per batch, the manifest
APPENDS them to ``derived[view]``, and reading/compacting a view
merges its partials. Because every partial becomes visible only
through the manifest publish that also advances the stream offset, all
views and the table are transactionally consistent with each other.
These views count re-deliveries, so unlike the refreshed views of
:mod:`.matview` (whose refresh replaces one file per bucket) they
cannot be recomputed from the table: they stay append-model, and
compaction is the only thing that merges their files.

A view definition is two pieces:
  * ``partial(batch)``: raw change-record batch (before the fold) ->
    additive partial rows (vectorized Arrow group-by).
  * ``merge_spec``: (column, "sum"|"max"|"min") pairs merging partials
    associatively.

The merge (`merge_partials`, `merge_files`) serves these views and
:mod:`.matview`'s grouped views alike: a view with ``group_cols``,
``merge_spec`` and ``empty_result()``. A measured-small file set
merges in one task; a larger one is split by a hash of every group
column through `stages.exchange.split_by_route`, and each partition
merges in its own task. A grouped read returns those tasks' tables as
a Dataset; an additive compaction writes each partition's base in the
task that merges it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from .. import schemas
from ..stages.exchange import (split_by_route, split_fan_out, table_dataset,
                               tasks_dataset)
from ..stages.partition import _splitmix, hash_strings_arrow
from ..state.storage import write_run

DERIVED_CONV_STATS = "conv_stats"
DERIVED_ROLE_STATS = "role_stats"


def empty_partials(group_cols, merge_spec, group_types=()) -> pa.Table:
    """The typed empty table of a view's merged rows: group columns
    (`group_types`, default string) then int64 merge columns."""
    cols = {c: pa.array([], group_types[i] if i < len(group_types)
                        else pa.string())
            for i, c in enumerate(group_cols)}
    for c, _fn in merge_spec:
        cols[c] = pa.array([], pa.int64())
    return pa.table(cols)


@dataclass(frozen=True)
class DerivedView:
    name: str
    key: str
    partial: Callable[[pa.Table], pa.Table]
    #: (value_col, fn) with fn in {"sum", "max", "min"}
    merge_spec: tuple[tuple[str, str], ...]

    @property
    def group_cols(self) -> tuple[str, ...]:
        return (self.key,)

    def empty_result(self) -> pa.Table:
        return empty_partials(self.group_cols, self.merge_spec)


def merge_partials(view, tbl: pa.Table) -> pa.Table:
    """The one merge kernel: partial rows `tbl` merged per
    ``view.group_cols`` by ``view.merge_spec`` (a null group member is
    one group)."""
    agg = pa.TableGroupBy(tbl, list(view.group_cols)).aggregate(
        list(view.merge_spec))
    return agg.select(
        [*view.group_cols,
         *[f"{c}_{fn}" for c, fn in view.merge_spec]]).rename_columns(
        [*view.group_cols, *[c for c, _fn in view.merge_spec]])


def _conv_stats_partial(batch: pa.Table) -> pa.Table:
    """Per-conversation consumed-record counters (incl. redelivery)."""
    tbl = pa.table({"conv_id": batch["conv_id"],
                    "n_events": pa.array(np.ones(batch.num_rows, np.int64)),
                    "max_lsn": batch[schemas.LSN_COL]})
    return merge_partials(VIEWS[DERIVED_CONV_STATS], tbl)


def _role_stats_partial(batch: pa.Table) -> pa.Table:
    """Per-role event counters over change records that CARRY a role
    (deletes have no payload; partial updates may omit the column)."""
    keep = pc.and_(
        pc.invert(pc.equal(batch[schemas.OP_COL],
                           pa.scalar(schemas.OP_DELETE))),
        pc.is_valid(batch["role"]))
    role = batch["role"].filter(keep)
    tbl = pa.table({"role": role,
                    "n_events": pa.array(np.ones(len(role), np.int64)),
                    "max_lsn": batch[schemas.LSN_COL].filter(keep)})
    return merge_partials(VIEWS[DERIVED_ROLE_STATS], tbl)


VIEWS: dict[str, DerivedView] = {}
VIEWS[DERIVED_CONV_STATS] = DerivedView(
    name=DERIVED_CONV_STATS, key="conv_id",
    partial=_conv_stats_partial,
    merge_spec=(("n_events", "sum"), ("max_lsn", "max")))
VIEWS[DERIVED_ROLE_STATS] = DerivedView(
    name=DERIVED_ROLE_STATS, key="role",
    partial=_role_stats_partial,
    merge_spec=(("n_events", "sum"), ("max_lsn", "max")))


def resolve_views(names) -> list[DerivedView]:
    out = []
    for n in names or ():
        if n not in VIEWS:
            raise KeyError(f"unknown derived view {n!r}; registered: "
                           f"{sorted(VIEWS)}")
        out.append(VIEWS[n])
    return out


#: a view whose current files measure under this is read or merged in
#: ONE task -- a measured-size gate (mirrors stages/joins.py's
#: auto_join): a few-MB view never amortizes a task fan-out, while a
#: big one must never concat in a single process.
SMALL_VIEW_BYTES = 32 * 1024 * 1024

#: route hash of a null group member, whatever the column type
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)


def view_bytes(paths: "list[str]") -> int:
    return sum(os.stat(p).st_size for p in paths)


def _group_route(t: pa.Table, group_cols, n: int) -> np.ndarray:
    """Partition of each row, ``hash(group_cols) % n``: strings hash by
    `hash_strings_arrow`, integer and timestamp columns by value, and a
    null hashes to one constant, so every row of a group shares a
    partition."""
    h = np.zeros(t.num_rows, np.uint64)
    for c in group_cols:
        col = t[c]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            v = hash_strings_arrow(col)
        else:
            v = _splitmix(pc.fill_null(pc.cast(col, pa.int64()), 0)
                          .to_numpy().view(np.uint64))
        v[pc.is_null(col).to_numpy()] = _NULL_HASH
        h = _splitmix(h * np.uint64(31) + v)
    return h % np.uint64(n)


def _split_partials(path: str, n: int, group_cols) -> tuple[pa.Table, ...]:
    """Slices of one partial file by `_group_route` -- the map side of
    a merge past the size gate."""
    t = pq.read_table(path)
    return split_by_route(t, _group_route(t, group_cols, n), n)


def _merge(view, out: "tuple[str, str] | None", paths: list[str],
           *slices: pa.Table) -> "pa.Table | str | None":
    """Merge the partial rows of `paths` and `slices`, typed by the
    view's empty result. With ``out = (runs_dir, fname)`` the merged
    rows are written there and the file name returned (None when there
    are no rows); otherwise the table is returned."""
    empty = view.empty_result()
    tbl = pa.concat_tables([*(pq.read_table(p) for p in paths), *slices,
                            empty], promote_options="default")
    merged = merge_partials(view, tbl).cast(empty.schema) \
        if tbl.num_rows else empty
    if out is None:
        return merged
    if not merged.num_rows:
        return None
    write_run(merged, os.path.join(out[0], out[1]))
    return out[1]


#: `_merge` as a task: additive compaction, which writes the merged rows
_merge_task = ray.remote(_merge)


def merge_files(view, paths: "list[str]",
                out: "tuple[str, str] | None" = None) -> list[tuple]:
    """The merge of `view`'s partial files `paths`, as the `_merge`
    arguments of each of its tasks. Under SMALL_VIEW_BYTES one task
    reads and merges every file. Past it each file splits by
    `_group_route` into one slice per partition, and each partition --
    one per SMALL_VIEW_BYTES of input, 2 to 32 of them -- merges in its
    own task; partitions are group-exclusive, so the merge stays exact.
    `out = (runs_dir, stem)` writes each task's rows to
    ``<stem>.parquet`` (one task) or ``<stem>p<i>.parquet`` (partition
    i) instead of returning them."""
    size = view_bytes(paths)
    if size <= SMALL_VIEW_BYTES:
        return [(view, out and (out[0], f"{out[1]}.parquet"), paths)]
    n = int(max(2, min(32, -(-size // max(1, SMALL_VIEW_BYTES)))))
    return [(view, out and (out[0], f"{out[1]}p{i}.parquet"), [], *slices)
            for i, slices in enumerate(split_fan_out(
                _split_partials, paths, n, n, view.group_cols))]


def read_merged(view, paths: "list[str]") -> ray.data.Dataset:
    """Dataset of `view`'s current rows: its partial files merged
    (`merge_files`), one block per merge task, typed by the view's
    empty result."""
    if not paths:
        return table_dataset(view.empty_result())
    return tasks_dataset(_merge, merge_files(view, paths))


def compact_additive_files(runs_dir: str, view_name: str,
                           files: "list[str]", txn: str) -> "list[str]":
    """Compaction hook for ADDITIVE derived views (called from
    ingest._compact_derived): merge a view's partial files into a base
    set, one base per merge task (`merge_files`, `_merge_task`), written
    by that task.
    Readers are indifferent (`read_merged` merges whatever partials
    the manifest lists)."""
    paths = [os.path.join(runs_dir, f) for f in files]
    names = ray.get([_merge_task.remote(*args) for args in merge_files(
        VIEWS[view_name], paths,
        (runs_dir, f"derived-{view_name}-base-x{txn}"))])
    return [f for f in names if f is not None]
