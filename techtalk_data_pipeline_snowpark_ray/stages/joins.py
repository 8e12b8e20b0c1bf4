"""Join strategies.

Two shapes, chosen by side size (SURVEY.md §2.4 J1-J6):

* **Broadcast hash join** (small side = dimension table): the small
  side is `ray.put` into the object store ONCE; stateless map tasks
  fetch it once per worker process (module-level cache keyed by
  ObjectRef -- never re-shipped per batch) and do an Arrow-native
  acero hash join per batch (pandas merge as the fallback for types
  acero can't join). No shuffle, no actor-pool CPU reservation (a pool
  sized near the CPU count starves the upstream read and deadlocks the
  pipeline -- observed on a 4-CPU session). The scale-correct plan for
  dims like nation/customer (J3/J5 "broadcast small dim").

* **Partitioned hash join** (both sides large): `Dataset.join`
  (hash-partitioned, arrow acero per partition). CAVEAT pinned by
  tests: Ray 2.49's join raises ArrowInvalid when a hash partition
  receives zero rows from one side (an empty schema-less table reaches
  acero), so it is only safe when both key spaces densely cover the
  partitions; with sparse/filtered keys use the broadcast join.

`broadcast_semi_join` covers semi/anti joins: broadcast the key set
and filter inside map_batches.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .exchange import block_refs

#: per-worker-process cache of fetched broadcast objects (ObjectRef ->
#: value), bounded: worker processes outlive queries, so an unbounded
#: cache would accumulate every broadcast ever fetched (and pin its
#: plasma copy) until OOM. FIFO eviction; a query re-fetching an
#: evicted ref just pays one ray.get again.
_BROADCAST_CACHE: dict = {}
_BROADCAST_CACHE_MAX = 8


def _cache_put(key, val):
    """Insert into the per-worker broadcast cache under the FIFO bound
    (EVERY insert must go through here — an unbounded insert path would
    defeat the cap and pin broadcasts until worker OOM)."""
    while len(_BROADCAST_CACHE) >= _BROADCAST_CACHE_MAX:
        _BROADCAST_CACHE.pop(next(iter(_BROADCAST_CACHE)))
    _BROADCAST_CACHE[key] = val


def fetch_broadcast(ref):
    """ray.get(ref), memoized per worker process (bounded cache)."""
    val = _BROADCAST_CACHE.get(ref)
    if val is None:
        val = ray.get(ref)
        _cache_put(ref, val)
    return val


def broadcast_join(left: ray.data.Dataset, right: "ray.data.Dataset | pd.DataFrame",
                   on: list[str] | str, right_on: list[str] | str | None = None,
                   how: Literal["inner", "left"] = "inner",
                   batch_size: int | None = 65536) -> ray.data.Dataset:
    """Hash-join `left` (arbitrarily large, streamed) against a small
    `right` without any shuffle.

    The per-batch merge is Arrow-native (`pa.Table.join`, acero hash
    join -- measured ~3x faster than the former per-batch
    Arrow->pandas->Arrow round-trip on string-payload dims, and the big
    streaming side stays zero-copy). The broadcast carries the right
    side as an Arrow table; batches whose types acero cannot join
    (e.g. exotic payload columns) fall back to the pandas merge, whose
    right-side frame is derived once per worker from the same broadcast
    (no second ``ray.put``)."""
    if how not in ("inner", "left"):
        # A right/full outer join is NOT expressible as a stateless
        # per-batch map over the streamed left side: unmatched RIGHT
        # rows must be emitted exactly once globally, and a per-batch
        # merge would emit them once per batch. Fail loudly; auto_join
        # routes these to the partitioned hash join instead.
        raise ValueError(
            f"broadcast_join supports how='inner'/'left', got {how!r}; "
            f"use auto_join (partitioned path) for right/outer joins")
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    right_df = right.to_pandas() if isinstance(right, ray.data.Dataset) else right
    # SQL join semantics on BOTH merge paths: a null key never matches.
    # acero already guarantees that; pandas merge would match NaN==NaN,
    # silently diverging from the acero path (and from every oracle) on
    # whichever batches happen to take the fallback. Null-keyed right
    # rows can never contribute to an inner or left join's output, so
    # dropping them once up front makes the two paths agree.
    if len(right_df):
        right_df = right_df.dropna(subset=list(right_on))
    join_type = "left outer" if how == "left" else how
    try:
        rtbl = pa.Table.from_pandas(right_df, preserve_index=False) \
            .replace_schema_metadata(None)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
        rtbl = None
    drop = [c for c in right_on if c not in on]

    # ONE pandas merge shared by both fallback paths (acero-failed batch
    # and from_pandas-failed right side) so the join semantics -- suffix
    # handling, right-key drop, null-key rule -- can never diverge
    # between them
    def _pandas_merge(df: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        out = df.merge(rdf, how=how, left_on=on, right_on=right_on)
        return out.drop(columns=[c for c in drop if c in out.columns])

    if rtbl is not None:
        ref = ray.put(rtbl)

        def merge_batch(batch: pa.Table) -> pa.Table:
            rt = fetch_broadcast(ref)
            try:
                # right keys are coalesced into the left key columns
                # (acero drops `right_on` from the output), matching the
                # pandas path's explicit drop; _x/_y suffixes mirror
                # pandas merge on colliding non-key columns
                return batch.replace_schema_metadata(None).join(
                    rt, keys=on, right_keys=right_on, join_type=join_type,
                    left_suffix="_x", right_suffix="_y")
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError,
                    pa.ArrowTypeError):
                out = _pandas_merge(batch.to_pandas(),
                                    _broadcast_as_pandas(ref))
                return pa.Table.from_pandas(out, preserve_index=False) \
                    .replace_schema_metadata(None)

        return left.map_batches(merge_batch, batch_format="pyarrow",
                                batch_size=batch_size, zero_copy_batch=True)

    ref = ray.put(right_df)

    def merge_batch_pd(batch: pd.DataFrame) -> pd.DataFrame:
        return _pandas_merge(batch, fetch_broadcast(ref))

    return left.map_batches(merge_batch_pd, batch_format="pandas",
                            batch_size=batch_size)


def _broadcast_as_pandas(ref) -> pd.DataFrame:
    """Pandas view of a broadcast Arrow table, converted once per
    worker process (cached under a derived key, not re-shipped)."""
    key = (ref, "pandas")
    df = _BROADCAST_CACHE.get(key)
    if df is None:
        df = fetch_broadcast(ref).to_pandas()
        _cache_put(key, df)
    return df


#: right sides at or under this measured size are broadcast; larger
#: ones take the partitioned hash join. ~256MB of pandas-materialized
#: dim comfortably fits every worker heap while covering all genuine
#: dimension tables; sf-proportional tables (customer!) outgrow it and
#: switch paths instead of silently becoming a driver-memory bomb.
BROADCAST_THRESHOLD_BYTES = 256 * 1024 * 1024


def auto_join(left: ray.data.Dataset, right: ray.data.Dataset,
              on: "list[str] | str", right_on: "list[str] | str | None" = None,
              how: Literal["inner", "left", "right"] = "inner",
              num_partitions: int = 16,
              broadcast_threshold_bytes: int = BROADCAST_THRESHOLD_BYTES,
              ) -> ray.data.Dataset:
    """Size-gated join strategy chooser: measure the right side (it is
    materialized -- measuring the candidate small side IS the point),
    broadcast it when it fits, otherwise run the partitioned hash join.

    Partitioned-path guard for the Ray 2.49 empty-partition ArrowInvalid
    (a hash partition receiving zero rows from one side reaches acero as
    a schema-less table): partition count is clamped so the right side
    averages >=64 rows per partition, which keeps empties out of any
    densely-keyed join; genuinely sparse key spaces should stay on the
    broadcast path (raise the threshold) -- see module docstring."""
    right = right.materialize()
    rbytes = right.size_bytes() or 0
    # only inner/left can broadcast (see broadcast_join: a per-batch
    # right-outer would duplicate unmatched right rows per batch);
    # right/full outer joins always take the partitioned path
    if rbytes <= broadcast_threshold_bytes and how in ("inner", "left"):
        return broadcast_join(left, right, on, right_on, how)
    on_l = [on] if isinstance(on, str) else list(on)
    on_r = on_l if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    nparts = max(1, min(num_partitions, right.count() // 64 or 1))
    # Dataset.join spells outer joins "left_outer"/"right_outer"
    join_type = {"left": "left_outer", "right": "right_outer"}.get(how, how)
    return left.join(right, join_type=join_type, num_partitions=nparts,
                     on=tuple(on_l),
                     right_on=tuple(on_r) if on_r != on_l else None)


#: key sets at or under this measured count broadcast exactly; larger
#: ones take the Bloom-summary path (bloom_semi_join). 1M int64 keys as
#: a frozenset is ~50-100MB of broadcast -- comfortably per-worker; an
#: sf-proportional key set (urgent customers at 100 TB!) outgrows it and
#: switches to the ~1.2-bytes/key Bloom instead of a driver/worker bomb.
SEMI_BROADCAST_THRESHOLD_KEYS = 1_000_000

#: last strategy chosen by auto_semi_join ("broadcast" | "bloom"),
#: recorded for tests/observability
LAST_SEMI_JOIN_PATH: str | None = None


def auto_semi_join(left: ray.data.Dataset, right: ray.data.Dataset,
                   on: str, right_on: str | None = None,
                   anti: bool = False,
                   broadcast_threshold_keys: int = SEMI_BROADCAST_THRESHOLD_KEYS,
                   num_partitions: int = 16) -> ray.data.Dataset:
    """Size-gated semi/anti join chooser (the auto_join of membership
    joins): measure the right key set; broadcast it exactly when small,
    otherwise run the Bloom-summary path with its exact de-FP pass.
    Both paths are exact for both polarities."""
    global LAST_SEMI_JOIN_PATH
    right_on = right_on or on
    right = right.materialize()
    n_keys = right.count()
    if n_keys <= broadcast_threshold_keys:
        LAST_SEMI_JOIN_PATH = "broadcast"
        keys = frozenset(
            pd.concat([t[right_on] for t in
                       ray.get(right.to_pandas_refs())], ignore_index=True)
            if n_keys else pd.Series(dtype="int64"))
        return broadcast_semi_join(left, keys, on, anti=anti)
    LAST_SEMI_JOIN_PATH = "bloom"
    return bloom_semi_join(left, right, on, right_on,
                           num_partitions=num_partitions, anti=anti)


def _type_family(t: pa.DataType) -> str:
    """Coarse type family for semi-join key/column compatibility."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "string"
    if pa.types.is_integer(t) or pa.types.is_floating(t) \
            or pa.types.is_decimal(t):
        return "numeric"
    if pa.types.is_temporal(t):
        return "temporal"
    if pa.types.is_boolean(t):
        return "boolean"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "binary"
    return str(t)


def broadcast_semi_join(left: ray.data.Dataset, keys, on: str,
                        anti: bool = False) -> ray.data.Dataset:
    """Semi (keep matching) / anti (keep non-matching) join against a
    broadcast key set (use :func:`bloom_semi_join` when the key set is
    too large to broadcast exactly). Arrow-native: one `pc.is_in`
    against a per-worker cached value-set array, the batch never
    round-trips through pandas. SQL ``IN`` semantics: a null key never
    matches any row. A key set whose type FAMILY differs from the
    column's (int keys vs a string column, say) or that cannot be cast
    to the column's type fails LOUDLY (TypeError) — Arrow would happily
    cast 1 -> '1' and silently match numeric-looking strings where a
    type-strict membership test matches nothing."""
    import pyarrow.compute as pc
    ref = ray.put(frozenset(keys))

    def filter_batch(batch: pa.Table) -> pa.Table:
        col = batch[on]
        ckey = (ref, "valueset", str(col.type))
        vs = _BROADCAST_CACHE.get(ckey)
        if vs is None:
            try:
                # from_pandas=True maps NaN -> null (to_pandas_refs turns a
                # nullable int key column into float64-with-NaN upstream);
                # nulls are dropped BEFORE the cast -- SQL IN semantics say
                # they never match, and a NaN would otherwise make the
                # int cast raise on a key set the docstring promises to
                # accept
                raw = pa.array(list(fetch_broadcast(ref)),
                               from_pandas=True).drop_null()
                if len(raw) and _type_family(raw.type) != \
                        _type_family(col.type):
                    raise TypeError(
                        f"broadcast_semi_join: key set type {raw.type} "
                        f"and column {on!r} type {col.type} are "
                        f"different type families; a cast would change "
                        f"membership semantics — pass keys of the "
                        f"column's type")
                vs = raw.cast(col.type)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError,
                    pa.ArrowTypeError) as e:
                raise TypeError(
                    f"broadcast_semi_join: key set is not castable to "
                    f"column {on!r}'s type {col.type}; pass keys of the "
                    f"column's type") from e
            _cache_put(ckey, vs)
        mask = pc.is_in(col, value_set=vs)
        if anti:
            mask = pc.invert(mask)
        return batch.replace_schema_metadata(None).filter(mask)

    return left.map_batches(filter_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


class BloomFilter:
    """Vectorized numpy Bloom filter over int64 keys.

    `m` bits, `k` probes derived per key by splitmix64 remixing --
    membership tests are pure numpy over a batch, no Python loop. The
    bit array is the broadcastable summary of an arbitrarily large key
    set: ~1.2 bytes/key at k=7 for ~1% false positives, vs 8+ bytes/key
    (plus set overhead) for the exact frozenset."""

    _MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    _MIX2 = np.uint64(0x94D049BB133111EB)

    def __init__(self, m_bits: int, k: int = 7):
        self.m = int(m_bits)
        self.k = int(k)
        self.bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    @classmethod
    def sized_for(cls, n_keys: int, bits_per_key: int = 10) -> "BloomFilter":
        return cls(max(64, n_keys * bits_per_key))

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        h = keys.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        out = np.empty((self.k, len(keys)), dtype=np.int64)
        for i in range(self.k):
            h = (h ^ (h >> np.uint64(30))) * self._MIX1
            h = (h ^ (h >> np.uint64(27))) * self._MIX2
            h = h ^ (h >> np.uint64(31))
            out[i] = (h % np.uint64(self.m)).astype(np.int64)
        return out

    def add(self, keys: np.ndarray) -> None:
        pos = self._positions(np.asarray(keys))
        np.bitwise_or.at(self.bits, pos // 64,
                         np.uint64(1) << (pos % 64).astype(np.uint64))

    def might_contain(self, keys: np.ndarray) -> np.ndarray:
        pos = self._positions(np.asarray(keys))
        hit = (self.bits[pos // 64] >> (pos % 64).astype(np.uint64)) \
            & np.uint64(1)
        return (hit == 1).all(axis=0)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        assert self.m == other.m and self.k == other.k
        self.bits |= other.bits
        return self


def bloom_semi_join(left: ray.data.Dataset, right: ray.data.Dataset,
                    on: str, right_on: str | None = None,
                    bits_per_key: int = 10,
                    num_partitions: int = 16,
                    anti: bool = False) -> ray.data.Dataset:
    """Exact semi join whose broadcast side is a Bloom SUMMARY of the
    right key set, for key sets too large to broadcast exactly:

      1. each right batch builds a partial Bloom (vectorized); the
         driver OR-merges the fixed-size bit arrays (bytes ~ keys/7,
         independent of row width);
      2. the broadcast Bloom pre-filters left rows in place -- only
         matches + ~1% false positives survive;
      3. the survivors co-partition with the exact right keys by key
         hash and a per-partition vectorized isin removes the false
         positives, so the result is EXACT.

    The all-to-all only ever carries pre-filtered survivors, which is
    the point: at 100 TB the left side never ships non-matching rows.

    ``anti=True`` inverts the polarity EXACTLY: Bloom-NEGATIVE rows are
    provably non-members and stream straight to the output (a second
    streamed pass over `left`, no shuffle); only Bloom-positive rows
    (true members to drop + ~1% false positives to keep) transit the
    exchange, where the per-partition exact membership drops members.
    A Bloom alone could never implement anti (a false positive would
    wrongly drop a row); the exact pass is what makes it correct.

    Keys may be any integer width or (large_)string — string keys
    probe the Bloom via the frozen sampled hash (collisions only add
    false positives, which the exact pass removes); other families
    raise TypeError (use broadcast_semi_join). Null keys follow SQL
    IN semantics end-to-end: never a member (dropped for semi, kept
    for anti), and the whole path is Arrow-native, so nullable /
    full-range int64 payload columns survive bit-exact — no pandas
    float64 round-trip."""
    import pyarrow.compute as pc

    right_on = right_on or on
    right = right.materialize()     # consumed 3x below: count, bloom, route
    rt = _executed_type(right, right_on)
    if rt is None:
        raise KeyError(f"bloom_semi_join: missing key column {right_on!r}")
    n_keys = right.count()
    proto = BloomFilter.sized_for(n_keys, bits_per_key)

    def partial_bloom(b: pa.Table) -> pa.Table:
        bf = BloomFilter(proto.m, proto.k)
        if b.num_rows and right_on in b.column_names:
            k, valid = _bloom_key_i64(b[right_on])
            bf.add(k[valid])
        return pa.table({"bits": pa.array([bf.bits.tobytes()],
                                          pa.binary())})

    # tree OR-merge: tasks fold up to 16 partial bit arrays each, so
    # driver ingress is ~batches/16 x filter size, not batches x size
    # (each partial is full filter width -- linear fan-in would swamp
    # the driver exactly when the filter is large enough to matter)
    part_refs = block_refs(right.map_batches(partial_bloom,
                                             batch_format="pyarrow"))
    merged = BloomFilter(proto.m, proto.k)
    chunks = [part_refs[i:i + 16] for i in range(0, len(part_refs), 16)]
    for blob in ray.get([_or_bloom_parts.remote(*c) for c in chunks]):
        if blob is not None:
            merged.bits |= np.frombuffer(blob, dtype=np.uint64)
    bloom_ref = ray.put(merged)

    nparts = num_partitions

    def prefilter(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.replace_schema_metadata(None)
        bf = fetch_broadcast(bloom_ref)
        k, valid = _bloom_key_i64(b[on])
        keep = valid & bf.might_contain(k)   # null key: never a member
        out = b.filter(pa.array(keep)).replace_schema_metadata(None)
        part = (k[keep].astype(np.uint64) % np.uint64(nparts)) \
            .astype(np.int32)
        return out.append_column("_part", pa.array(part)) \
                  .append_column("_side", pa.array(
                      np.zeros(out.num_rows, np.int8)))

    # executed, so the left key type comes from its blocks: only the
    # Bloom-positive rows are held, which the exchange ships anyway
    lf = left.map_batches(prefilter, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    lt = _executed_type(lf, on)
    if lt is None:
        raise KeyError(f"bloom_semi_join: missing key column {on!r}")
    if _type_family(lt) != _type_family(rt):
        raise TypeError(
            f"bloom_semi_join: key columns {on!r} ({lt}) and "
            f"{right_on!r} ({rt}) are different type families")

    def right_route(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or right_on not in b.column_names:
            return pa.table({on: pa.array([], lt),
                             "_part": pa.array([], pa.int32()),
                             "_side": pa.array([], pa.int8())})
        k, valid = _bloom_key_i64(b[right_on])
        # ship the REAL key (cast to the left column's width) so the
        # per-partition membership test compares true values, not
        # hashes; null right keys and integer keys outside the left
        # type's range can never match and drop here, before the cast
        if pa.types.is_integer(lt):
            valid = valid & _fits_int_type(b[right_on], lt)
        keys = pc.cast(b[right_on].filter(pa.array(valid)), lt) \
            .combine_chunks()
        part = (k[valid].astype(np.uint64) % np.uint64(nparts)) \
            .astype(np.int32)
        return pa.table({on: keys, "_part": pa.array(part),
                         "_side": pa.array(
                             np.ones(len(keys), np.int8))})

    rk = right.map_batches(right_route, batch_format="pyarrow",
                           zero_copy_batch=True)

    def exact_part(g: pa.Table) -> pa.Table:
        # Arrow concat null-fills the right-route rows' missing left
        # columns WITHOUT touching left rows' types (unlike the pandas
        # union it replaces, which upcast int64 payloads to float64 —
        # crashing on nulls and corrupting values > 2^53)
        side = g["_side"].to_numpy(zero_copy_only=False)
        keys = pc.unique(g.filter(pa.array(side == 1))[on]
                         .combine_chunks())
        lg = g.filter(pa.array(side == 0))
        member = pc.fill_null(pc.is_in(lg[on], value_set=keys), False)
        mask = pc.invert(member) if anti else member
        return lg.filter(mask).drop_columns(["_part", "_side"])

    from .exchange import exchange_map_groups
    checked = exchange_map_groups(lf.union(rk), "_part", nparts,
                                  exact_part, batch_format="pyarrow",
                                  keep_part_col=True)
    if not anti:
        return checked
    # anti: Bloom-negatives are definite keeps -- second streamed pass,
    # no exchange hop for the (typically dominant) non-member mass.
    # Null keys match nothing, so anti KEEPS them (SQL IN semantics,
    # same as broadcast_semi_join).
    def passthrough(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.replace_schema_metadata(None)
        bf = fetch_broadcast(bloom_ref)
        k, valid = _bloom_key_i64(b[on])
        keep = ~valid | ~bf.might_contain(k)
        return b.filter(pa.array(keep)).replace_schema_metadata(None)

    neg = left.map_batches(passthrough, batch_format="pyarrow",
                           zero_copy_batch=True)
    return neg.union(checked)


def _executed_type(ds: ray.data.Dataset, col: str) -> pa.DataType | None:
    """Type of `col` in an EXECUTED (materialized) dataset, read from
    its blocks' metadata. `Dataset.schema()` on an unexecuted plan
    re-runs it under `limit(1)`, and cancelling that run's in-flight
    tasks can abort the Ray 2.49 driver on a core-worker
    reference-count check; ``fetch_if_missing=False`` never runs it."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        return None
    return dict(zip(schema.names, schema.types)).get(col)


def _fits_int_type(col: "pa.ChunkedArray | pa.Array",
                   t: pa.DataType) -> np.ndarray:
    """Mask of integer `col` values representable in integer type `t`
    (null -> False)."""
    import pyarrow.compute as pc

    ci = np.iinfo(col.type.to_pandas_dtype())
    ti = np.iinfo(t.to_pandas_dtype())
    lo = pa.scalar(max(int(ci.min), int(ti.min)), col.type)
    hi = pa.scalar(min(int(ci.max), int(ti.max)), col.type)
    fits = pc.and_(pc.greater_equal(col, lo), pc.less_equal(col, hi))
    return pc.fill_null(fits, False).to_numpy(zero_copy_only=False)


def _bloom_key_i64(col: "pa.ChunkedArray | pa.Array"
                   ) -> "tuple[np.ndarray, np.ndarray]":
    """(int64 key codes, validity mask) for Bloom probing and partition
    routing. Integer keys use their value (any width, null-filled with
    0 under the mask); string keys use the frozen sampled hash
    (`hash_strings_arrow` — interior-byte collisions are harmless
    because every consumer re-checks real keys). Other families raise:
    the Bloom path has no defined key code for them."""
    import pyarrow.compute as pc

    from .partition import hash_strings_arrow

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(arr.type):
        k = pc.fill_null(pc.cast(arr, pa.int64()), 0) \
            .to_numpy(zero_copy_only=False)
    elif pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        k = hash_strings_arrow(arr).view(np.int64)
    else:
        raise TypeError(
            f"bloom_semi_join: unsupported key type {arr.type}; "
            f"integer and string keys only (use broadcast_semi_join "
            f"for small key sets of other types)")
    return np.ascontiguousarray(k, dtype=np.int64), valid


@ray.remote
def _or_bloom_parts(*tbls):
    """OR-fold a chunk of partial-bloom blocks to one bit blob."""
    from ray.data.block import BlockAccessor
    acc = None
    for t in tbls:
        # an empty source block passes the map stage unconverted, so it
        # may still be pandas
        t = BlockAccessor.for_block(t).to_arrow()
        if "bits" not in t.schema.names:
            continue        # schema-less empty block (empty right side)
        for blob in t["bits"].to_pylist():
            arr = np.frombuffer(blob, dtype=np.uint64)
            acc = arr.copy() if acc is None else (acc | arr)
    return acc.tobytes() if acc is not None else None
