"""Generic raw-Ray hash exchange for routed per-partition reduces.

Half the query layer follows one shape: map_batches computes a
``part`` routing column (key-hash % P, every key wholly in one
partition), then needs each partition's rows co-located for ONE
vectorized reduce. ``Dataset.groupby(part).map_groups`` delivers that
via a sort-based all-to-all -- measured ~7x slower than the exchange
it actually needs (40s vs 5.5s at 27M rows; the global sort is pure
overhead when the reduce re-sorts or doesn't care). This module is the
exchange alone: split each source by its route, one object-store entry
per (source, partition), then one task per partition concats its
slices and applies the reduce. Output is a Dataset again, built by
:func:`tasks_dataset` from the blocks and the metadata the reduce
tasks computed, so downstream stays lazy/streamed.

Every exchange in the engine splits through ONE kernel,
:func:`split_by_route`, fanned out by :func:`split_fan_out`: Dataset
blocks here, run files in `pipelines.ingest._exchange_by_bucket`
(snapshot reads, compaction, view refreshes), partial view files in
`pipelines.derived.merge_files` (the one merge of grouped and additive
views, for reads and additive compaction past its size gate) and
export blocks in `pipelines.sinks.write_partitioned`. No view merge
runs on Ray Data's sort-based groupby. A route that is
already non-decreasing is cut into zero-copy slices by `searchsorted`:
data partitioned by key group moves by range, never by a re-sort.
The stored-bucket exchange splits only the global (delta) runs, which
hold every bucket and are written sorted by bucket, so it neither
sorts nor gathers; a bucket's base runs hold that bucket alone and are
read by its fold task without crossing the split or the object store.
Any other route (hash routes of blocks and view files, a re-bucketing
migration's recomputed buckets, which re-route base runs too) is
stable-argsorted and gathered once, column by column, without
`ChunkedArray.take`.

Scale notes: object count is sources x partitions (keep P at
O(cores)); peak object-store footprint equals the exchanged rows, same
as any shuffle, and spills normally. On a cluster the object count per
exchange stays bounded because the INPUT is bounded: compaction folds
only the runs accumulated since the previous compaction (cadence is
the lever), and query reduces exchange pre-combined partials, not raw
rows. An exchange whose source count genuinely explodes (months of
uncompacted ingest) should compact in waves of buckets instead --
trade G-fold re-reads for a G-fold object cut.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .apply import _gather


def block_refs(ds: ray.data.Dataset) -> list:
    """Refs of `ds`'s executed blocks, in order, as they are: unlike
    `to_arrow_refs`, never re-run the plan under a `limit(1)` to fetch
    the schema -- cancelling that run's in-flight tasks can abort the
    Ray 2.49 driver on a core-worker reference-count check. A block may
    be a pandas DataFrame; `split_block` converts it."""
    return [ref for bundle in ds.iter_internal_ref_bundles()
            for ref in bundle.block_refs]


def split_by_route(tbl: pa.Table, route, n: int,
                   targets=None) -> tuple[pa.Table, ...]:
    """One slice of `tbl` per target id (default ``0..n-1``): the rows
    whose `route` value equals the target, in input order. A route
    value outside ``[0, n)`` raises -- ``groupby(part).map_groups``
    would process any value, so a mis-sized partition count must fail
    loudly instead of dropping rows -- while a target outside it just
    gets an empty slice. A non-decreasing route is sliced in place
    (zero-copy); any other is stable-argsorted and gathered once."""
    route = np.asarray(route).astype(np.int64, copy=False)
    if len(route) and (route.min() < 0 or route.max() >= n):
        raise ValueError(
            f"exchange route has values outside [0, {n}): "
            f"min={route.min()}, max={route.max()}")
    if np.any(np.diff(route) < 0):
        order = np.argsort(route, kind="stable")
        tbl, route = _gather(tbl, order), route[order]
    ids = np.arange(n) if targets is None \
        else np.asarray(targets, dtype=np.int64)
    lo = np.searchsorted(route, ids, side="left")
    hi = np.searchsorted(route, ids + 1, side="left")
    return tuple(tbl.slice(a, b - a) for a, b in zip(lo, hi))


def split_block(block, route_of, n: int,
                targets=None) -> tuple[pa.Table, ...]:
    """`split_by_route` of one Ray block by ``route_of(table)``. A
    pandas block (a UDF returned a DataFrame) converts with Ray's own
    rule, which types an all-null column as `null` so its slices still
    merge with typed slices of the same column. Dict-valued (pandas)
    schema metadata is stripped so every slice keeps a hashable schema
    -- Ray's block-schema dedup depends on it. An empty block may be
    SCHEMALESS (Ray emits those for empty upstream batches), so it is
    never routed: every target gets an empty slice, which the reduce
    side's row-count filter drops."""
    from ray.data.block import BlockAccessor
    tbl = BlockAccessor.for_block(block).to_arrow() \
        .replace_schema_metadata(None)
    route = route_of(tbl) if tbl.num_rows else np.zeros(0, np.int64)
    return split_by_route(tbl, route, n, targets)


@ray.remote
def _split_task(split, source, *args):
    parts = split(source, *args)
    return parts if len(parts) > 1 else parts[0]


def split_fan_out(split, sources: list, n_out: int, *args) -> list[tuple]:
    """Run ``split(source, *args)`` -- which returns `n_out` tables --
    as one Ray task per source, each table its own object; returns one
    tuple of refs per output (one ref per source, in source order)."""
    outs = [_split_task.options(num_returns=n_out).remote(split, s, *args)
            for s in sources]
    if n_out == 1:
        outs = [[o] for o in outs]
    return list(zip(*outs))


def _reduce_part(fn, drop_col: str, pandas: bool, *parts):
    """The reduce of one partition, or None when the partition had no
    input rows at all."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
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
        return res
    out = fn(tbl)
    if isinstance(out, pa.Table):
        out = out.replace_schema_metadata(None)
    return out


@ray.remote(num_returns=2)
def _block_task(fn, *args):
    """``fn(*args)`` and its block metadata (row count, size, schema),
    each its own object: the driver fetches only the metadata. A None
    result (no input) has no metadata."""
    from ray.data.block import BlockMetadataWithSchema
    block = fn(*args)
    if block is None:
        return None, None
    return block, BlockMetadataWithSchema.from_block(block)


def tasks_dataset(fn, calls: list, drop_empty: bool = False
                  ) -> ray.data.Dataset:
    """Dataset of one block per ``fn(*args)`` for `args` in `calls`,
    in order, each computed by its own task (`_block_task`) that also
    returns the block's metadata. The driver fetches only those small
    metadata objects and hands blocks and metadata to Ray Data as a
    Dataset that is already executed -- the steps of
    `Dataset.materialize()` -- so, unlike `ray.data.from_arrow_refs`,
    no metadata task runs per block and no streaming executor starts
    to list blocks already in hand. A failing task raises here.

    A None result is left out. With `drop_empty`, so are 0-row blocks
    -- a block that lost its column types (an empty pandas result)
    would break schema unification downstream -- unless every block
    is empty, in which case the first survives as the schema carrier.
    No block at all gives a schema-less empty Dataset.

    The Ray Data internals this needs (Ray 2.49) are imported here
    alone, so a Ray upgrade that moves them fails at this import."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import \
        InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    pairs = [_block_task.remote(fn, *args) for args in calls]
    metas = ray.get([meta for _, meta in pairs])
    blocks = [(ref, meta) for (ref, _), meta in zip(pairs, metas)
              if meta is not None]
    if drop_empty:
        blocks = [b for b in blocks if b[1].num_rows] or blocks[:1]
    context = DataContext.get_current().copy()
    plan = ExecutionPlan(
        DatasetStats(metadata={"FromTasks": [m for _, m in blocks]},
                     parent=None), context)
    ds = MaterializedDataset(plan, LogicalPlan(InputData(input_data=[
        RefBundle([(ref, meta)], owns_blocks=False, schema=meta.schema)
        for ref, meta in blocks]), context))
    ds._plan.execute()      # lists the bundles; marks the plan executed
    return ds


def _as_is(block):
    return block


def table_dataset(tbl: pa.Table) -> ray.data.Dataset:
    """`tbl` as a one-block Dataset built by `tasks_dataset`: one task,
    where `ray.data.from_arrow` adds a metadata task and a streaming
    executor run on first consumption."""
    return tasks_dataset(_as_is, [(tbl,)])


def exchange_map_groups(ds: ray.data.Dataset, part_col: str,
                        num_partitions: int, fn,
                        batch_format: str = "pandas",
                        keep_part_col: bool = False) -> ray.data.Dataset:
    """Co-locate rows by `part_col` (values 0..num_partitions-1) and
    apply `fn` once per partition. Drop-in replacement for
    ``ds.groupby(part_col, num_partitions=P).map_groups(fn)`` minus the
    global sort (and minus the part column, unless kept). Partitions
    with zero rows are skipped, matching map_groups semantics."""
    blocks = block_refs(ds)
    if not blocks:
        return ds
    per_part = split_fan_out(
        split_block, blocks, num_partitions,
        lambda t: t[part_col].to_numpy(zero_copy_only=False),
        num_partitions)
    drop = "" if keep_part_col else part_col
    # an input-empty partition yields no block; an empty REDUCE result
    # (non-empty input, 0-row output) is dropped too, unless every
    # partition's is (`drop_empty`). With no block at all the result
    # is a schema-less empty Dataset -- NOT ds.limit(0), whose schema
    # still carries the part column and lacks the reduce's output
    # columns -- which unions and consumes cleanly downstream
    return tasks_dataset(
        _reduce_part, [(fn, drop, batch_format == "pandas", *slices)
                       for slices in per_part], drop_empty=True)
