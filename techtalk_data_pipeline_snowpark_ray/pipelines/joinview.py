"""Cross-table JOIN materialized views: a per-key join of TWO
independently-ingesting CDC tables, maintained incrementally.

The reference chains tables by recomputing derived joins from scratch
every tick (`DQOrderPaidMoreThanPrice.scala:20-53` reads both sides
whole); here a join view is one more view of :mod:`.matview`'s one
refresh driver, ``refresh_matview(cfg_a, name, other=cfg_b)``, with
table A's buckets as the view's buckets:

  1. affected buckets = A's buckets of the distinct ``conv_id`` in the
     run files either table added since the view's last refreshed
     (versionA, versionB) pair (`matview._scan_affected`; B's keys are
     re-bucketed under A's bucket count);
  2. each affected bucket's fold task resolves that bucket of BOTH
     tables -- A's stored bucket, and B's rows re-routed to it by
     `_exchange_by_bucket(..., rebucket=True)` under A's bucket count,
     so the two tables may have different layouts -- and joins them
     (`JoinMatView.of_bucket`, FULL OUTER per key) into one file
     ``jmv-<name>-b<B>-sa<VA>-sb<VB>-x<txn>-...``, even an empty one;
  3. one manifest publish on the PRIMARY (A) table puts each new file
     in place of its bucket's entry in ``derived["jmv:<name>"]``.

The file names carry BOTH source versions, so the next refresh windows
each side separately; any non-delta-expressible event on either side
(first refresh, compaction, re-bucketing, rollback, erasure, control
ops) falls back to a full recompute of every bucket. Reads concatenate
the current files (`matview.read_view_files`): each bucket owns its
keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import EngineConfig
from ..state.manifest import TableState
from .matview import read_view_files

JMV_PREFIX = "jmv:"


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

    def of_bucket(self, a: pa.Table, b: pa.Table) -> pa.Table:
        """The view rows of one bucket's live resolved rows of both
        tables."""
        return self.join(a.select(["conv_id", *self.source_cols_a]),
                         b.select(["conv_id", *self.source_cols_b]))


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


def read_join_matview(cfg_a: EngineConfig, name: str) -> ray.data.Dataset:
    """Current rows of the join view: its per-bucket files
    concatenated (`matview.read_view_files`)."""
    view = JOIN_MATVIEWS[name]
    return read_view_files(
        TableState(cfg_a.table_dir).derived_paths(view.derived_key),
        view.empty_result())
