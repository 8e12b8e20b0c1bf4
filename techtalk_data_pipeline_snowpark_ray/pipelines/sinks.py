"""Resumable partitioned parquet output.

A 100-TB export must survive being killed halfway: output is split
into a FIXED set of key-hash bucket directories, each committed by an
atomic ``_SUCCESS`` marker written after its data files. Re-running
the same write:

  * lists finished buckets first (one readdir, no data reads);
  * drops their rows at the split (only the missing buckets get
    slices -- rows of finished buckets never enter the exchange);
  * writes only the missing buckets, each file durably through
    `state.storage` (hidden tmp file, fsync, rename, directory fsync),
    marker last.

Bucket membership is the portable md5 key hash (``md5_hash64``, DuckDB
``md5_number_lower`` parity), so the layout is deterministic across
runs, engines and cluster shapes -- the property resume depends on.
The exchange reuses the engine's raw hash-exchange shape (no global
sort); never one giant file.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..functions.textstats import md5_hash64_series
from ..stages.exchange import (block_refs, split_block, split_fan_out,
                               tasks_dataset)
from ..state.storage import DEFAULT_STORAGE, write_parquet

SUCCESS = "_SUCCESS"


def _bucket_dir(out_dir: str, b: int) -> str:
    return os.path.join(out_dir, f"bucket={b:05d}")


def finished_buckets(out_dir: str) -> set[int]:
    if not os.path.isdir(out_dir):
        return set()
    out = set()
    for name in os.listdir(out_dir):
        if name.startswith("bucket=") and \
                os.path.exists(os.path.join(out_dir, name, SUCCESS)):
            out.add(int(name.split("=", 1)[1]))
    return out


@ray.remote
def _write_bucket(out_dir: str, b: int, *parts: pa.Table) -> int:
    parts = [p for p in parts if p.num_rows]
    d = _bucket_dir(out_dir, b)
    os.makedirs(d, exist_ok=True)
    # clear leftovers of a CRASHED earlier attempt (no _SUCCESS, or we
    # would not be writing): part numbering restarts at 0 and empty
    # parts shift indices, so a retry writing fewer files would leave
    # stale higher-index parts that read_partitioned would then
    # double-count once this attempt's marker lands
    for name in os.listdir(d):
        if name.endswith(".parquet") or ".tmp" in name:
            os.remove(os.path.join(d, name))
    rows = 0
    for i, tbl in enumerate(parts):
        write_parquet(tbl.replace_schema_metadata(None),
                      os.path.join(d, f"part-{i:05d}.parquet"))
        rows += tbl.num_rows
    DEFAULT_STORAGE.write_atomic(os.path.join(d, SUCCESS), f"{rows}\n")
    return rows


def write_partitioned(ds: ray.data.Dataset, out_dir: str, key: str,
                      num_buckets: int = 64) -> dict[int, int]:
    """Write `ds` under ``out_dir/bucket=NNNNN/`` by key hash; skip
    buckets already marked complete. Returns rows written per bucket
    (only the buckets written THIS run).

    `bucket = H(key) % num_buckets` is a PERSISTED layout (the same
    contract as the lake's manifest `num_buckets`): a resume with a
    different count or key would silently mis-place or double-count
    rows, so the first run writes a layout marker and every resume
    validates against it."""
    import json
    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, "_export_meta.json")
    meta = {"key": key, "num_buckets": int(num_buckets)}
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            prev = json.load(f)
        if prev != meta:
            raise ValueError(
                f"export layout mismatch: {out_dir} was started with "
                f"{prev}, resume requested {meta}; finish with the "
                "original parameters or export to a fresh directory")
    else:
        DEFAULT_STORAGE.write_atomic(meta_path, json.dumps(meta))
    done = finished_buckets(out_dir)
    todo = [b for b in range(num_buckets) if b not in done]
    if not todo:
        return {}
    # raw hash exchange: one split task per input block, per-bucket
    # object returns, one writer task per missing bucket
    blocks = block_refs(ds)
    if not blocks:
        # a ZERO-BLOCK dataset (everything filtered upstream) is still
        # a successful export: mark every remaining bucket complete
        # (zero files) so the export reaches completion and resumes
        # are no-ops, instead of never writing a single _SUCCESS
        written = ray.get([_write_bucket.remote(out_dir, b)
                           for b in todo])
        return dict(zip(todo, written))

    def route(tbl: pa.Table) -> np.ndarray:
        # the persisted layout: md5 of the key as a string, mod the
        # bucket count (only the key column goes through pandas). The
        # route is unsorted, so the split gathers each block once; it
        # slices only the missing buckets, so rows of finished buckets
        # never enter the exchange
        keys = tbl[key].to_pandas().astype(str)
        return md5_hash64_series(keys) % np.uint64(num_buckets)

    per_bucket = split_fan_out(split_block, blocks, len(todo), route,
                               num_buckets, todo)
    written = ray.get([
        _write_bucket.remote(out_dir, b, *refs)
        for b, refs in zip(todo, per_bucket)])
    return dict(zip(todo, written))


def read_partitioned(out_dir: str) -> ray.data.Dataset:
    """Read back every COMPLETE bucket (incomplete ones are invisible,
    which is the resume contract). A finished export whose buckets are
    all EMPTY (0-row table exported) reads back as an empty dataset;
    only an export with no finished buckets at all raises."""
    done = finished_buckets(out_dir)
    if not done:
        raise FileNotFoundError(f"no complete buckets under {out_dir}")
    paths = []
    for b in sorted(done):
        d = _bucket_dir(out_dir, b)
        paths.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                     if f.endswith(".parquet"))
    if not paths:
        return tasks_dataset(None, [])
    # partitioning=None: the bucket id is layout, not data -- don't
    # hive-infer it back as a column
    return ray.data.read_parquet(paths, partitioning=None)
