"""Named derived-view registry: N derived sinks fed by the SAME
consumed delta and committed in the SAME atomic manifest publish as the
main table.

Reference parity: the one-stream-two-sinks transaction
(``stream/Main.scala:16-19``) and named registered views
(``TopRestaurantsLast30Days.scala:38`` ``createOrReplaceView``): each
view here is a *named* additive aggregate over the change stream --
the apply task writes one partial file per view per batch, the manifest
APPENDS them to ``derived[view]``, and reading/compacting a view
sum-merges its partials. Because every partial becomes visible only
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
    associatively -- used identically by the reader's distributed
    groupby and by compaction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .. import schemas
from ..stages.exchange import split_by_route, split_fan_out
from ..stages.partition import hash_strings_arrow
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


#: a view whose current files measure under this is read (matview) or
#: compacted (here) in ONE task -- a measured-size gate (mirrors
#: stages/joins.py's auto_join): a few-MB view never amortizes a task
#: fan-out, while a big one must never concat in a single process.
SMALL_VIEW_BYTES = 32 * 1024 * 1024


def view_bytes(paths: "list[str]") -> int:
    return sum(os.stat(p).st_size for p in paths)


def _write_additive_base(tbl: pa.Table, runs_dir: str,
                         fname: str) -> str:
    write_run(tbl, os.path.join(runs_dir, fname))
    return fname


def compact_additive_files(runs_dir: str, view_name: str,
                           files: "list[str]", txn: str) -> "list[str]":
    """Compaction hook for ADDITIVE derived views (called from
    ingest._compact_derived): merge a view's partial files into a base
    set. A measured-small view (SMALL_VIEW_BYTES) merges in-process;
    past the gate the merge is a key-routed hash exchange, one task per
    file splitting it by hash(key) and one task per partition writing
    its base -- a conv_id-keyed counter view over 10^9 conversations
    must never concat in a single process. Readers are indifferent
    (read_derived group-merges whatever partials the manifest lists),
    and per-partition bases are key-exclusive so the merge stays
    exact."""
    spec = VIEWS[view_name]
    paths = [os.path.join(runs_dir, f) for f in files]
    size = view_bytes(paths)
    if size <= SMALL_VIEW_BYTES:
        tbl = pa.concat_tables([pq.read_table(p) for p in paths],
                               promote_options="default")
        return [_write_additive_base(
            spec.merge_table(tbl), runs_dir,
            f"derived-{view_name}-base-x{txn}.parquet")]
    # one reducer per SMALL_VIEW_BYTES of input, capped so the object
    # count stays bounded (tests force this path with a 0 gate)
    n = int(max(2, min(32, -(-size // max(1, SMALL_VIEW_BYTES)))))
    names = ray.get([
        _merge_additive_part.remote(
            runs_dir, view_name,
            f"derived-{view_name}-base-x{txn}p{i}.parquet", *slices)
        for i, slices in enumerate(split_fan_out(
            _split_view_file, paths, n, n, spec.key))])
    return [f for f in names if f is not None]


def _split_view_file(path: str, n: int, key: str) -> "tuple[pa.Table, ...]":
    """Slices of one view file routed by hash(key) % n -- the map side
    of the distributed view compaction."""
    t = pq.read_table(path)
    return split_by_route(t, hash_strings_arrow(t[key]) % np.uint64(n), n)


@ray.remote
def _merge_additive_part(runs_dir: str, view_name: str, fname: str,
                         *slices: pa.Table) -> "str | None":
    tbl = pa.concat_tables(slices, promote_options="default")
    if tbl.num_rows == 0:
        return None
    return _write_additive_base(VIEWS[view_name].merge_table(tbl),
                                runs_dir, fname)
