"""Named derived-view registry: N derived sinks fed by the SAME
consumed delta and committed in the SAME atomic manifest publish as the
main table.

Reference parity: the one-stream-two-sinks transaction
(``stream/Main.scala:16-19``) and named registered views
(``TopRestaurantsLast30Days.scala:38`` ``createOrReplaceView``): each
view here is a *named* additive aggregate over the change stream --
the apply task writes one partial file per view per batch, the manifest
lists them under ``derived[view]``, and reading/compacting a view
sum-merges its partials. Because every partial becomes visible only
through the manifest publish that also advances the stream offset, all
views and the table are transactionally consistent with each other.

A view definition is two pieces:
  * ``partial(batch)``: raw change-record batch (before the fold) ->
    additive partial rows (vectorized Arrow group-by).
  * ``merge_spec``: (column, "sum"|"max"|"min") pairs merging partials
    associatively -- used identically by the reader's distributed
    groupby and by compaction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import ray

from .. import schemas
from ..state.storage import write_run

DERIVED_CONV_STATS = "conv_stats"
DERIVED_ROLE_STATS = "role_stats"


@dataclass(frozen=True)
class DerivedView:
    name: str
    key: str
    partial: Callable[[pa.Table], pa.Table]
    #: (value_col, fn) with fn in {"sum", "max", "min"}
    merge_spec: tuple[tuple[str, str], ...]

    def merge_table(self, tbl: pa.Table) -> pa.Table:
        """Associative merge of partial rows (used by compaction and by
        small in-task merges)."""
        agg = pa.TableGroupBy(tbl, self.key).aggregate(
            [(c, fn) for c, fn in self.merge_spec])
        names = [self.key] + [f"{c}_{fn}" for c, fn in self.merge_spec]
        return agg.select(names).rename_columns(
            [self.key] + [c for c, _ in self.merge_spec])


def _conv_stats_partial(batch: pa.Table) -> pa.Table:
    """Per-conversation consumed-record counters (incl. redelivery)."""
    tbl = pa.table({"conv_id": batch["conv_id"],
                    "n_events": pa.array(np.ones(batch.num_rows, np.int64)),
                    "max_lsn": batch[schemas.LSN_COL]})
    return VIEWS[DERIVED_CONV_STATS].merge_table(tbl)


def _role_stats_partial(batch: pa.Table) -> pa.Table:
    """Per-role event counters over change records that CARRY a role
    (deletes have no payload; partial updates may omit the column --
    and a null grouping key would also break the reader's distributed
    sort-based merge)."""
    import pyarrow.compute as pc
    keep = pc.and_(
        pc.invert(pc.equal(batch[schemas.OP_COL],
                           pa.scalar(schemas.OP_DELETE))),
        pc.is_valid(batch["role"]))
    role = batch["role"].filter(keep)
    tbl = pa.table({"role": role,
                    "n_events": pa.array(np.ones(len(role), np.int64)),
                    "max_lsn": batch[schemas.LSN_COL].filter(keep)})
    return VIEWS[DERIVED_ROLE_STATS].merge_table(tbl)


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


def _write_additive_base(tbl: pa.Table, runs_dir: str,
                         fname: str) -> str:
    write_run(tbl, os.path.join(runs_dir, fname))
    return fname


def compact_additive_files(runs_dir: str, view_name: str,
                           files: "list[str]", txn: str) -> "list[str]":
    """Compaction hook for ADDITIVE derived views (called from
    ingest._compact_derived): merge a view's partial files into a base
    set. Size-gated via matview.compact_view_sized (the shared driver):
    a measured-small view merges in-process; past SMALL_VIEW_BYTES the
    merge is a key-routed hash exchange writing one base per partition
    — a conv_id-keyed counter view over 10^9 conversations must never
    concat in a single process. Readers are indifferent (read_derived
    group-merges whatever partials the manifest lists), and
    per-partition bases are key-exclusive so the merge stays exact."""
    from .matview import compact_view_sized
    spec = VIEWS[view_name]

    def small(tbl: pa.Table) -> "list[str]":
        return [_write_additive_base(
            spec.merge_table(tbl), runs_dir,
            f"derived-{view_name}-base-x{txn}.parquet")]

    return compact_view_sized(
        runs_dir, files, spec.key, small,
        lambda i, slices: _merge_additive_part.remote(
            runs_dir, view_name,
            f"derived-{view_name}-base-x{txn}p{i}.parquet", *slices))


@ray.remote
def _merge_additive_part(runs_dir: str, view_name: str, fname: str,
                         *slices: pa.Table) -> "str | None":
    tbl = pa.concat_tables(slices, promote_options="default")
    if tbl.num_rows == 0:
        return None
    return _write_additive_base(VIEWS[view_name].merge_table(tbl),
                                runs_dir, fname)
