"""The merge-apply core: last-writer-wins fold over change events.

Reference parity: Snowflake ``merge`` whenMatched/whenNotMatched
(insert-only ``IngestOrdersFromRawToFlat.scala:73-89``; update+insert
``IngestRatingsFromRawToFlat.scala:74-103``, ``SampleCrud.scala:38-69``;
conditional update ``SampleCrud.scala:28-36``; conditional delete
``SampleCrud.scala:71-75``; generic wrapper
``SnowflakeUtilsOld.scala:84-109``). The whole CRUD op set
{insert, update(partial), delete} is applied by ONE associative,
vectorized fold, :func:`fold_table` (Arrow/numpy). Production calls
only it: the apply stage directly; compaction, snapshot and point
reads, views and queries through ``stages.controls.resolve_with_controls``.

:func:`collapse_events` and :func:`resolve_final` are the pandas
reference of the same fold, kept for the tests that pin
:func:`fold_table` to them (tests/test_property_fold.py).

Event semantics (in lsn order; ties = arrival order, for re-delivered
duplicates which are byte-identical):

  insert(row)      -> state := row                  (absolute)
  update(partial)  -> state := state <- non-null cols  (upsert if absent;
                      update after delete creates a fresh row)
  delete           -> state := tombstone

A delete seeds nothing: a later partial update never inherits a value
from it. The tombstone record itself keeps the delete event's own
values (a changefeed exports e.g. its ``ts``); snapshot reads drop it.

Collapsed-record ops are re-foldable: ``full`` acts like insert,
``partial`` like update, ``delete`` like delete. Tombstones survive
until a full-bucket compaction; dropping them there is safe because the
checkpoint offset guarantees no event with lsn <= committed can ever be
re-applied.

Gather rule: :func:`fold_table` picks ONE source row per output row and
column (the group's tail row, or for a payload column whose tail is
null the last non-null row of its final segment) and gathers each
column once, as a chunk-wise ``filter`` over a row mask -- the rows are
unique -- permuting the small result only where the rows are not
ascending. The apply stage hands it one chunk per WAL segment, and on
pyarrow 16 ``ChunkedArray.take`` concatenates every chunk on each call,
so a take there copies the whole column before gathering a fraction of
it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from .partition import key_hash

_OP_MAP_TO_COLLAPSED = {
    schemas.OP_INSERT: schemas.OP_FULL,
    schemas.OP_FULL: schemas.OP_FULL,
    schemas.OP_UPDATE: schemas.OP_PARTIAL,
    schemas.OP_PARTIAL: schemas.OP_PARTIAL,
    schemas.OP_DELETE: schemas.OP_DELETE,
}


def collapse_events(df: pd.DataFrame, payload_cols: list[str],
                    key_cols: tuple[str, ...] = schemas.KEY_COLS,
                    barriers: list[int] | None = None) -> pd.DataFrame:
    """Fold a set of change records to one record per key.

    Returns a DataFrame with the same columns, one row per key, where
    ``op`` is one of {full, partial, delete} and ``lsn`` is the highest
    lsn folded for that key. Associative: collapse(collapse(A) + B) ==
    collapse(A + B) for lsn-disjoint-or-duplicate inputs.

    ``barriers`` (sorted control-op lsns, see stages/controls.py) split
    the stream into epochs: the fold then keeps one record per
    (key, epoch) instead of per key, so a conditional op can still see
    each key's state as of its own position. An event at exactly a
    barrier lsn folds into the epoch AFTER it (controls apply first).

    Vectorized: one stable sort + a handful of cython groupby kernels;
    no Python loop over rows.
    """
    if df.empty:
        return df
    lsn, op = schemas.LSN_COL, schemas.OP_COL
    # exactly-once vs duplicate delivery: a re-delivered event is keyed
    # by (key, lsn) -> keep one. Equal-lsn records are NOT always byte
    # identical across runs: one run may hold the event collapsed with
    # its earlier history (full@L, payload merged) while another holds
    # the bare re-delivery (partial@L). Rank absolute records above
    # partial so the information-bearing one survives the dedup --
    # keeping the partial would silently null the merged-away columns.
    pr = np.where(df[op].isin((schemas.OP_PARTIAL, schemas.OP_UPDATE)),
                  np.int8(0), np.int8(1))
    df = df.assign(_pr=pr) \
           .sort_values([lsn, "_pr"], kind="stable", ignore_index=True)
    df = df.drop_duplicates(subset=[*key_cols, lsn], keep="last",
                            ignore_index=True).drop(columns="_pr")

    if barriers:
        epoch = np.searchsorted(np.asarray(barriers, dtype=np.int64),
                                df[lsn].to_numpy(), side="right")
        key_codes = df.groupby([*key_cols, pd.Series(epoch, index=df.index)],
                               sort=False, dropna=False).ngroup()
    else:
        key_codes = df.groupby(list(key_cols), sort=False, dropna=False).ngroup()
    if not key_codes.duplicated().any():
        # fast path: each key appears once -- nothing to fold
        out = df.copy()
        out[op] = out[op].map(_OP_MAP_TO_COLLAPSED)
        return out

    codes = key_codes.to_numpy()
    barrier = df[op].isin(schemas.BARRIER_OPS)
    seg = barrier.groupby(codes, sort=False).cumsum()
    last_seg = seg.groupby(codes, sort=False).transform("max")
    in_last = (seg == last_seg).to_numpy()

    d2 = df.loc[in_last].copy()
    codes2 = codes[in_last]
    had_barrier = (last_seg.to_numpy()[in_last] > 0)
    is_tail = ~pd.Series(codes2).duplicated(keep="last").to_numpy()
    # a delete seeds no later partial update (the sequential replay's
    # semantics); only a tombstone that ends its group keeps its values
    seed_del = (d2[op].to_numpy() == schemas.OP_DELETE) & ~is_tail
    for c in payload_cols:
        if d2.loc[seed_del, c].notna().any():
            d2[c] = d2[c].mask(seed_del)
    # forward-fill the payload within the final segment of each key
    # (partial updates inherit earlier values; the segment never crosses
    # a delete/insert barrier, so no stale resurrection)
    d2[payload_cols] = d2.groupby(codes2, sort=False)[payload_cols].ffill()

    out = d2.loc[is_tail].copy()
    tail_had_barrier = had_barrier[is_tail]
    out_op = np.where(
        out[schemas.OP_COL].to_numpy() == schemas.OP_DELETE,
        schemas.OP_DELETE,
        np.where(tail_had_barrier, schemas.OP_FULL, schemas.OP_PARTIAL),
    )
    out[schemas.OP_COL] = out_op
    return out.reset_index(drop=True)


def resolve_final(df: pd.DataFrame, payload_cols: list[str],
                  key_cols: tuple[str, ...] = schemas.KEY_COLS,
                  sort: bool = True) -> pd.DataFrame:
    """Collapse to final visible state: fold, drop tombstones, stable
    (conv_id, turn_idx) ordering (the BASELINE.json row invariant)."""
    out = collapse_events(df, payload_cols, key_cols)
    if not out.empty:
        out = out[out[schemas.OP_COL] != schemas.OP_DELETE]
    if sort and not out.empty:
        out = out.sort_values(list(key_cols), kind="stable", ignore_index=True)
    return out


# op codes: index into _ALL_OPS in, index into _COLLAPSED_OPS out
_ALL_OPS = pa.array([schemas.OP_INSERT, schemas.OP_UPDATE, schemas.OP_DELETE,
                     schemas.OP_FULL, schemas.OP_PARTIAL])
_COLLAPSED_OPS = pa.array([schemas.OP_FULL, schemas.OP_PARTIAL,
                           schemas.OP_DELETE])


def fold_table(batch: pa.Table, payload_cols: list[str],
               kh: np.ndarray | None = None,
               barriers: list[int] | None = None) -> pa.Table:
    """Arrow/numpy fold of a change-record table (columns: key cols,
    lsn, op, payload, any passthrough) to one collapsed record per key
    — the production fold, pinned row-for-row equal to the
    :func:`collapse_events` reference by tests/test_property_fold.py's
    hypothesis differential tests (incl. forced hash collisions and
    null keys) and tests/test_collapse.py's collision unit test.

    Shape (everything O(n log n) numpy + one arrow gather per column,
    no pandas): sort by (key-hash, lsn, absolute-rank), check the hash
    groups against the real keys, then run the segment-fold kernel
    (:func:`_fold_sorted`). Each output column is ONE chunk, gathered
    once by a chunk-wise filter over its unique source rows (the
    module's gather rule: on pyarrow 16 a ``ChunkedArray.take``
    concatenates every chunk on each call). Columns other than the
    key, lsn, op and payload columns (e.g. the partitioner's key hash)
    pass through from the tail row. Groups whose 64-bit key hashes
    collide on different REAL keys (vanishing probability, checked
    explicitly) are re-sorted by an exact dense code of the key and go
    through the same kernel.

    Same interval-partition precondition as collapse_events. With
    ``barriers`` (control-op epochs) the epoch is mixed into the
    group hash, so groups are (key, epoch) — the same grouping
    collapse_events builds from the raw lsns.
    """
    if batch.num_rows == 0:
        return batch
    if kh is None:
        kh = key_hash(batch["conv_id"],
                      batch["turn_idx"].to_numpy(zero_copy_only=False))
    lsn = batch[schemas.LSN_COL].to_numpy(zero_copy_only=False)
    epoch = None
    if barriers:
        # epoch barriers (control ops): same key, different epoch must
        # stay distinct groups -- mix the epoch into the key hash (same
        # key/epoch pairs keep identical hashes, so the collision guard
        # below still compares real keys soundly). Equal-lsn duplicates
        # always share an epoch, so the (group, lsn) dedup stays sound.
        epoch = np.searchsorted(np.asarray(barriers, dtype=np.int64),
                                lsn, side="right")
        kh = kh * np.uint64(0x9E3779B97F4A7C15) + epoch.astype(np.uint64)
    codes = pc.index_in(batch[schemas.OP_COL],
                        value_set=_ALL_OPS).to_numpy(zero_copy_only=False)
    is_rel = (codes == 1) | (codes == 4)        # update / partial
    # exactly-once vs duplicate delivery (same ranking as
    # collapse_events): among equal-(key, lsn) records the absolute one
    # must survive the dedup -- rank it last within the (group, lsn) run
    prn = np.where(is_rel, np.int8(0), np.int8(1))

    order = np.lexsort((prn, lsn, kh))   # stable: arrival breaks full ties
    new_grp = _run_starts(kh[order])
    coll = _collided_groups(batch, order, new_grp)
    if coll is not None:
        # the exact code cannot collide, so this pass needs no guard
        rows = np.sort(order[coll])
        code = _exact_key_code(batch, rows,
                               None if epoch is None else epoch[rows])
        perm = np.lexsort((prn[rows], lsn[rows], code))
        order = np.concatenate([order[~coll], rows[perm]])
        new_grp = np.concatenate([new_grp[~coll], _run_starts(code[perm])])
    return _fold_sorted(batch, payload_cols, order, np.cumsum(new_grp),
                        lsn, codes, is_rel)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal (sorted) keys starts."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def _collided_groups(batch: pa.Table, order: np.ndarray,
                     new_grp: np.ndarray) -> np.ndarray | None:
    """Hash-collision guard, run BEFORE the dedup (a collision could
    otherwise swallow a different key's record as a "duplicate"):
    within repeated-hash positions, compare the REAL key with the
    previous row. Returns the rows (ordered coords) of every hash group
    holding more than one real key, or None."""
    rep_pos = np.flatnonzero(~new_grp)
    if not len(rep_pos):
        return None
    cur, prev = order[rep_pos], order[rep_pos - 1]
    mask = np.zeros(batch.num_rows, dtype=bool)
    mask[cur] = True
    mask[prev] = True
    at = np.cumsum(mask) - 1              # row -> its place in the gather
    # dense conv_id code of those rows; a null conv_id encodes as a
    # value of its own, because collapse_events groups null keys
    # together (groupby dropna=False)
    conv = _gather(batch.select(["conv_id"]), np.flatnonzero(mask)) \
        .column(0).chunk(0).dictionary_encode(null_encoding="encode") \
        .indices.to_numpy(zero_copy_only=False)
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False)
    same_key = (conv[at[cur]] == conv[at[prev]]) & (turn[cur] == turn[prev])
    bad = rep_pos[~same_key]
    if not len(bad):
        return None
    grp = np.cumsum(new_grp) - 1
    collided = np.zeros(int(grp[-1]) + 1, dtype=bool)
    collided[grp[bad]] = True
    return collided[grp]


def _exact_key_code(batch: pa.Table, rows: np.ndarray,
                    epoch: np.ndarray | None) -> np.ndarray:
    """Dense int64 code of (conv_id, turn_idx[, epoch]) over `rows`:
    equal codes iff equal keys; a null conv_id is a value of its own."""
    conv = _gather(batch.select(["conv_id"]), rows).column(0)
    parts = [pc.index_in(conv, value_set=pc.unique(conv)).to_numpy(),
             batch["turn_idx"].to_numpy(zero_copy_only=False)[rows]]
    if epoch is not None:
        parts.append(epoch)
    code = np.zeros(len(rows), dtype=np.int64)
    for part in parts:
        _, part = np.unique(part, return_inverse=True)
        # both factors are < len(rows): the product stays exact
        _, code = np.unique(code * (int(part.max()) + 1) + part,
                            return_inverse=True)
    return code


def _gather(tbl: pa.Table, rows: np.ndarray) -> pa.Table:
    """``tbl`` at UNIQUE `rows`, every column one chunk: a chunk-wise
    filter over a row mask, then a permutation of the small result
    only when `rows` is not ascending. On pyarrow 16 a
    ``ChunkedArray.take`` concatenates every chunk on each call, so a
    take over a many-segment scan copies the whole column first
    (``Table.combine_chunks`` leaves a one-chunk column as it is).
    Rows covering the whole table are a permutation: nothing to filter,
    and the permutation is its own rank."""
    full = len(rows) == tbl.num_rows
    if full:
        out = tbl.combine_chunks()
    else:
        mask = np.zeros(tbl.num_rows, dtype=bool)
        mask[rows] = True
        out = tbl.filter(pa.array(mask)).combine_chunks()
    if len(rows) > 1 and bool(np.any(rows[1:] < rows[:-1])):
        rank = rows
        if not full:
            rank = np.empty(len(rows), dtype=np.int64)
            rank[np.argsort(rows, kind="stable")] = np.arange(len(rows))
        out = out.take(pa.array(rank))
    return out


def _fold_sorted(batch: pa.Table, payload_cols: list[str],
                 order: np.ndarray, gid: np.ndarray, lsn: np.ndarray,
                 codes: np.ndarray, is_rel: np.ndarray) -> pa.Table:
    """Segment-fold kernel. `order` lists the rows sorted by (group,
    lsn, absolute-rank); `gid` (same coords) is equal exactly within a
    group. Dedups re-delivered (group, lsn) duplicates keeping the
    information-bearing absolute record, finds each group's last
    barrier (insert/full/delete -- rows before it can never influence
    the fold), and emits the group's LAST row with each payload column
    overridden by its last non-null value inside that final segment
    (exactly what collapse_events' ffill-then-tail computes). A delete
    row supplies payload only to its own group's output, when it is
    the tail: no later partial update inherits from it.

    Output: one row per group in ascending tail-row order, every
    column gathered ONCE from one source row per output row (see
    :func:`_gather`)."""
    # dedup (group, lsn): keep the LAST of each run (highest
    # absolute-rank, then latest arrival -- the sort key)
    lsn_s = lsn[order]
    keep = np.ones(len(order), dtype=bool)
    keep[:-1] = (gid[1:] != gid[:-1]) | (lsn_s[1:] != lsn_s[:-1])
    o2 = order[keep]
    m = len(o2)
    ng = _run_starts(gid[keep])
    starts = np.flatnonzero(ng)
    grp = np.cumsum(ng) - 1
    idx = np.arange(m, dtype=np.int64)
    ends = np.append(starts[1:], m) - 1

    # final segment per group: from the LAST barrier row (insert/
    # full/delete resets state) to the group end; rows before it
    # cannot influence the folded record
    last_bar = np.maximum.reduceat(
        np.where(~is_rel[o2], idx, np.int64(-1)), starts)
    in_last = idx >= np.maximum(last_bar, starts)[grp]

    # emit groups in tail-row order, so the columns that come from
    # the tail row are one ascending gather; `sig` maps each output
    # row to its group
    is_tail = np.zeros(len(codes), dtype=bool)
    is_tail[o2[ends]] = True
    tail = np.flatnonzero(is_tail)
    group_of = np.empty(len(codes), dtype=np.int64)
    group_of[o2[ends]] = np.arange(len(ends))
    sig = group_of[tail]
    is_del = codes == 2
    # op: delete if the group's final record is a delete; full when
    # any barrier fixed the row's absolute state; else partial
    out_code = np.where(is_del[tail], np.int32(2),
                        np.where(last_bar[sig] >= 0, np.int32(0),
                                 np.int32(1)))
    own = {schemas.OP_COL: _COLLAPSED_OPS.take(pa.array(out_code))}
    # payload: last non-null value within the final segment (what
    # collapse_events' groupwise ffill leaves on the tail row). Its
    # source row differs from the tail only where the tail is null and
    # an earlier in-segment row is not (partial-update inheritance);
    # only such columns get a gather of their own. A delete seeds
    # nothing: it can only be its group's tail
    seeds = in_last & ~is_del[o2]
    seeds[ends] = True
    for name in payload_cols:
        col = batch.column(name)
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        if valid[tail].all():
            continue                     # the tail row is exact
        pos = np.where(valid[o2] & seeds, idx, np.int64(-1))
        lastv = np.maximum.reduceat(pos, starts)[sig]
        # lastv < 0: the whole segment is null, the tail row included
        src = np.where(lastv >= 0, o2[lastv], tail)
        if np.array_equal(src, tail):
            continue
        own[name] = _gather(batch.select([name]), src).column(0)
    names = batch.column_names
    rest = _gather(batch.select([c for c in names if c not in own]), tail)
    fields = [pa.field(c, own[c].type) if c in own
              else batch.schema.field(c) for c in names]
    return pa.Table.from_arrays(
        [own[c] if c in own else rest.column(c) for c in names],
        schema=pa.schema(fields, metadata=batch.schema.metadata))
