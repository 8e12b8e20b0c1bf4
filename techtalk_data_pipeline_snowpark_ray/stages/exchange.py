"""Generic raw-Ray hash exchange for routed per-partition reduces.

Half the query layer follows one shape: map_batches computes a
``part`` routing column (key-hash % P, every key wholly in one
partition), then needs each partition's rows co-located for ONE
vectorized reduce. ``Dataset.groupby(part).map_groups`` delivers that
via a sort-based all-to-all -- measured ~7x slower than the exchange
it actually needs (40s vs 5.5s at 27M rows; the global sort is pure
overhead when the reduce re-sorts or doesn't care). This module is the
exchange alone: split each materialized block by the part column
(vectorized argsort + searchsorted, one object-store entry per
(block, part)), then one task per partition concats its slices and
applies the reduce. Output is a Dataset again (from_arrow_refs), so
downstream stays lazy/streamed.

Scale notes: object count is blocks x partitions (keep P at O(cores));
peak object-store footprint equals the exchanged rows, same as any
shuffle, and spills normally. The same shape reads run FILES instead
of blocks in `pipelines.ingest._exchange_by_bucket`. On a cluster the
object count per exchange stays bounded because the INPUT is bounded:
compaction folds only the runs accumulated since the previous
compaction (cadence is the lever), and query reduces exchange
pre-combined partials, not raw rows. An exchange whose block count
genuinely explodes (months of uncompacted ingest) should compact in
waves of buckets instead -- trade G-fold re-reads for a G-fold object
cut.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data


def block_refs(ds: ray.data.Dataset) -> list:
    """Refs of `ds`'s executed blocks, in order, as they are: unlike
    `to_arrow_refs`, never re-run the plan under a `limit(1)` to fetch
    the schema -- cancelling that run's in-flight tasks can abort the
    Ray 2.49 driver on a core-worker reference-count check. A block may
    be a pandas DataFrame; the consuming task converts it with
    `BlockAccessor.for_block(b).to_arrow()`."""
    return [ref for bundle in ds.iter_internal_ref_bundles()
            for ref in bundle.block_refs]


@ray.remote
def _split_block(tbl: pa.Table, col: str, n: int):
    if isinstance(tbl, pd.DataFrame):
        # pandas blocks come from UDFs returning DataFrames, and Ray
        # passes EMPTY source blocks through map stages without calling
        # the UDF; normalize at the boundary with Ray's own conversion,
        # which types an all-null column as `null` so that its slices
        # still merge with typed slices of the same column
        from ray.data.block import BlockAccessor
        tbl = BlockAccessor.for_block(tbl).to_arrow()
    # strip dict-valued (pandas) schema metadata so every emitted slice
    # keeps a hashable schema -- Ray's block-schema dedup depends on it
    tbl = tbl.replace_schema_metadata(None)
    if tbl.num_rows == 0:
        # Ray emits SCHEMALESS empty blocks for empty upstream batches
        # (no part column to read); every partition gets an empty slice,
        # which _reduce_part's num_rows filter then drops
        return tuple([tbl] * n) if n > 1 else tbl
    vals = tbl[col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vals, kind="stable")
    tbl = tbl.take(pa.array(order))
    svals = vals[order]
    # groupby(part).map_groups processes ANY part value; this exchange
    # would silently drop out-of-range rows (searchsorted bounds cover
    # only [0, n)), so a mis-sized partition count must fail loudly
    if len(svals) and (svals[0] < 0 or svals[-1] >= n):
        raise ValueError(
            f"exchange part column {col!r} has values outside "
            f"[0, {n}): min={svals[0]}, max={svals[-1]}")
    bounds = np.searchsorted(svals, np.arange(n + 1))
    parts = tuple(tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
                  for i in range(n))
    return parts if n > 1 else parts[0]


@ray.remote(num_returns=2)
def _reduce_part(fn, drop_col: str, pandas: bool, *parts):
    """Returns (reduced table, result row count | None). The count
    travels as its own tiny object so the driver's empty-partition
    filter never fetches (or cross-node transfers) the reduced tables
    themselves. None means the partition had no input rows at all."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None, None
    tbl = pa.concat_tables(parts, promote_options="default")
    if drop_col:
        tbl = tbl.drop_columns([drop_col])
    if pandas:
        out = fn(tbl.to_pandas())
        res = pa.Table.from_pandas(out, preserve_index=False) \
            .replace_schema_metadata(None)
        if res.num_rows == 0:
            # an EMPTY reduce result loses its dtypes through pandas
            # (object columns infer as arrow `null`), and null-typed
            # blocks break schema unification downstream; restore the
            # types from the INPUT's same-named columns
            fields = [pa.field(f.name, tbl.schema.field(f.name).type)
                      if pa.types.is_null(f.type)
                      and tbl.schema.get_field_index(f.name) != -1
                      else f for f in res.schema]
            res = pa.schema(fields).empty_table()
        return res, res.num_rows
    out = fn(tbl)
    if isinstance(out, pa.Table):
        out = out.replace_schema_metadata(None)
    return out, out.num_rows


def exchange_map_groups(ds: ray.data.Dataset, part_col: str,
                        num_partitions: int, fn,
                        batch_format: str = "pandas",
                        keep_part_col: bool = False) -> ray.data.Dataset:
    """Co-locate rows by `part_col` (values 0..num_partitions-1) and
    apply `fn` once per partition. Drop-in replacement for
    ``ds.groupby(part_col, num_partitions=P).map_groups(fn)`` minus the
    global sort (and minus the part column, unless kept). Partitions
    with zero rows are skipped, matching map_groups semantics."""
    blocks = block_refs(ds)          # _split_block normalizes pandas ones
    if not blocks:
        return ds
    outs = [_split_block.options(num_returns=num_partitions)
            .remote(b, part_col, num_partitions) for b in blocks]
    if num_partitions == 1:
        outs = [[o] for o in outs]
    drop = "" if keep_part_col else part_col
    pairs = [_reduce_part.remote(fn, drop, batch_format == "pandas",
                                 *slices) for slices in zip(*outs)]
    # None results (empty partitions) must not reach from_arrow_refs;
    # only the tiny row counts are fetched, never the tables. Empty
    # REDUCE results (non-empty input, 0-row output) are dropped too --
    # an empty pandas result degrades untyped columns to arrow `null`,
    # and mixing null-typed and typed blocks trips the streaming
    # executor's schema-consistency check -- unless every partition
    # came back empty, in which case one empty table survives as the
    # downstream schema carrier.
    counts = ray.get([cnt for _, cnt in pairs])
    refs = [tbl for (tbl, _), c in zip(pairs, counts) if c]
    if not refs:
        refs = [tbl for (tbl, _), c in zip(pairs, counts)
                if c is not None][:1]
    if not refs:
        # every partition was input-empty: a schema-less empty dataset
        # (NOT ds.limit(0), whose schema still carries the part column
        # and lacks the reduce's output columns) unions/consumes cleanly
        # downstream, exactly like the all-empty-blocks case upstream
        return ray.data.from_arrow_refs([])
    return ray.data.from_arrow_refs(refs)
