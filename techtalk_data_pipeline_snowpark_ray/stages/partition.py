"""Hash partitioning of change events by conv_id.

The reference never partitions client-side (Snowflake micro-partitions
do it server-side); on Ray this is the correctness-critical design
point: every key (conv_id, turn_idx) must land in exactly one apply
group so last-writer-wins state is never split across workers.

Layout key:   bucket = H(conv_id) % num_buckets          (stable, stored)
Shard key:    shard  = bucket * salt_factor + salt
              salt   = H2(turn_idx) % salt_factor   for `hot_convs`
                     = 0                            otherwise

The apply stage calls this with salt_factor=1 and no hot set (so
shard == bucket); the salt branch survives only for callers that still
pass one. The salt depends only on key fields, so routing stays
key-exclusive, and the layout (manifest bookkeeping, compaction,
snapshot-read grouping) uses `bucket` only.

Hash: pandas' stable 64-bit sip-like hash (`pandas.util.hash_array`,
fixed default hash key -> deterministic across processes and nodes),
vectorized in C -- no Python loop per row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

BUCKET_COL = "bucket"
SHARD_COL = "shard"
KEY_HASH_COL = "_kh"


_FNV = np.uint64(0x100000001B3)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * _MIX1
    h = (h ^ (h >> np.uint64(27))) * _MIX2
    return h ^ (h >> np.uint64(31))


def hash_strings_arrow(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Vectorized, object-free uint64 hash of an Arrow string column,
    computed straight from the offsets/data buffers (no Python string
    materialization -- the allocation-free hot path).

    Algorithm "fnv-sample-v1" (FROZEN: bucket placement is persisted):
    FNV-style mix of (length, first 8 bytes, last 8 bytes). Strings
    differing only in interior bytes beyond both samples collide, which
    is harmless here: bucket placement needs stability+spread, not
    cryptographic quality, and the key-hash consumers treat equal
    hashes as "maybe equal" and re-check real keys.
    """
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out = np.empty(sum(len(c) for c in chunks), dtype=np.uint64)
    pos = 0
    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        # This hash decides PERSISTED bucket placement: a silently
        # misread offsets buffer (e.g. large_string arriving where
        # string was assumed) would split one key across two buckets
        # and corrupt LWW state -- so type drift must fail loudly.
        if pa.types.is_large_string(chunk.type):
            off = np.frombuffer(chunk.buffers()[1], dtype=np.int64,
                                count=n + 1, offset=chunk.offset * 8)
        elif pa.types.is_string(chunk.type):
            off = np.frombuffer(chunk.buffers()[1], dtype=np.int32,
                                count=n + 1, offset=chunk.offset * 4).astype(np.int64)
        else:
            raise TypeError(
                f"hash_strings_arrow needs a (large_)string column, got "
                f"{chunk.type}")
        buf = chunk.buffers()[2]
        # all-null / all-empty chunks may carry no data buffer; the
        # offsets are then all equal and every length is 0, so any
        # one-byte stand-in produces the same (length-only) hash
        data = (np.frombuffer(buf, dtype=np.uint8) if buf is not None
                and buf.size else np.zeros(1, dtype=np.uint8))
        starts, ends = off[:-1], off[1:]
        lens = (ends - starts)
        h = _splitmix(lens.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15))
        # Zero-length rows (null / "") have starts == ends, which for a
        # TRAILING such row equals len(data) -- clamp every gather index
        # into the buffer. Bit-compatible with the frozen algorithm: a
        # zero-length row's sampled bytes are zeroed by the (lens > k)
        # mask (length-only hash), and rows with lens > 0 always have
        # starts <= ends-1 <= len(data)-1, so their indices are
        # untouched by the clamp.
        last = np.int64(len(data) - 1)
        safe_start = np.minimum(starts, last)
        safe_end = np.minimum(np.maximum(ends - 1, starts), last)
        for k in range(8):
            # k-th byte from the front (clipped) and from the back
            bf = data[np.minimum(safe_start + k, safe_end)] * (lens > k)
            bb = data[np.maximum(ends - 1 - k, safe_start)] * (lens > k)
            h = (h ^ bf.astype(np.uint64)) * _FNV
            h = (h ^ (bb.astype(np.uint64) << np.uint64(8))) * _FNV
        out[pos:pos + n] = _splitmix(h)
        pos += n
    return out


def mix_key_hash(conv_hash: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """FROZEN 64-bit primary-key hash: conv-hash * FNV + turn_idx.
    Every consumer (partitioner key-hash column, fold collision guard,
    run-file sort keys) must use THIS mix -- a drift in any copy would
    silently split one key across fold groups."""
    return conv_hash * _FNV + turn.astype(np.uint64)


def key_hash(conv_col: "pa.ChunkedArray | pa.Array",
             turn: np.ndarray) -> np.ndarray:
    """`mix_key_hash` from the raw conv_id column."""
    return mix_key_hash(hash_strings_arrow(conv_col), turn)


def add_partition_cols(batch: pa.Table, num_buckets: int, salt_factor: int = 1,
                       hot_convs: frozenset[str] | None = None,
                       include_key_hash: bool = False) -> pa.Table:
    """Append bucket + shard columns (vectorized, object-free: the hash
    reads the Arrow string buffers directly). With `include_key_hash`,
    also appends a 64-bit hash of the full primary key (conv hash mixed
    with turn_idx), used by the direct applier's arrow fast path to
    detect within-batch key repeats without a pandas conversion."""
    ch = hash_strings_arrow(batch.column("conv_id"))
    bucket = (ch % np.uint64(num_buckets)).astype(np.int32)
    turn = batch.column("turn_idx").to_numpy(zero_copy_only=False).astype(np.uint64)
    if salt_factor > 1 and hot_convs:
        conv = batch.column("conv_id").to_numpy(zero_copy_only=False)
        hot = pd.Series(conv).isin(hot_convs).to_numpy()
        salt = np.where(hot,
                        ((turn * np.uint64(2654435761)) % np.uint64(salt_factor)).astype(np.int32),
                        np.int32(0))
    else:
        salt = np.zeros(len(ch), dtype=np.int32)
    shard = bucket * np.int32(salt_factor) + salt
    out = batch.append_column(BUCKET_COL, pa.array(bucket, type=pa.int32()))
    out = out.append_column(SHARD_COL, pa.array(shard, type=pa.int32()))
    if include_key_hash:
        out = out.append_column(KEY_HASH_COL,
                                pa.array(mix_key_hash(ch, turn),
                                         type=pa.uint64()))
    return out


class Partitioner:
    """map_batches callable adding bucket/shard columns. `hot_convs` is
    broadcast once via ray.put and fetched in __init__ (never re-shipped
    per batch)."""

    def __init__(self, num_buckets: int, salt_factor: int = 1, hot_convs_ref=None,
                 include_key_hash: bool = False):
        self.num_buckets = num_buckets
        self.salt_factor = salt_factor
        self.include_key_hash = include_key_hash
        if hot_convs_ref is not None:
            import ray
            self.hot_convs = frozenset(ray.get(hot_convs_ref))
        else:
            self.hot_convs = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        return add_partition_cols(batch, self.num_buckets, self.salt_factor,
                                  self.hot_convs, self.include_key_hash)
