"""Deterministic synthetic change-event generator.

Reference parity: the reference's data sources are seeded generators --
server-side UDTF row generators (``udfs/package.scala:47-76``) and the
Scalatra provider service (``PipelineServlet.scala:8-55``,
``Generator.scala:11-39``). Both collapse here into one deterministic,
vectorized (numpy) change-event generator over the transcript schema:
no wall clock, no randomness outside a seeded counter-based scheme, so
any two runs (and any two chunkings) produce byte-identical WALs.

Determinism scheme: events are produced in fixed internal chunks of
``GEN_CHUNK`` rows; chunk *i* uses ``default_rng([seed, i])``. Content
therefore depends only on (seed, spec), not on how the caller batches.

Exercised failure modes (FIXTURES.md F2):
  * zipfian hot conversations (skewed bucket sizes)
  * out-of-order arrival within a bounded window (LWW by lsn must win)
  * duplicate delivery of the same lsn (exactly-once must dedup)
  * partial updates (column subset; null = "unchanged")
  * schema evolution mid-stream (v2 column add at `schema_add_at`,
    v3 widen at `schema_widen_at`)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pyarrow as pa

from .. import schemas
from .wal import Segment, WalWriter

GEN_CHUNK = 65536
BASE_TS_US = 1_735_689_600_000_000  # 2025-01-01T00:00:00Z in microseconds


@dataclass(frozen=True)
class GenSpec:
    n_events: int = 10_000
    n_conversations: int = 200
    max_turns: int = 50
    zipf_s: float = 1.1              # conversation-popularity skew exponent
    p_insert: float = 0.6
    p_update: float = 0.3
    p_delete: float = 0.1
    ooo_window: int = 0              # shuffle events within blocks of this size
    dup_fraction: float = 0.0        # re-deliver this fraction of events
    partial_update_fraction: float = 0.0  # updates carrying a column subset
    text_len: int = 64
    schema_add_at: int | None = None     # first lsn of v2 (adds `model`)
    schema_widen_at: int | None = None   # first lsn of v3 (widens turn_idx)
    seed: int = 42

    def version_of(self, lsn: int) -> int:
        if self.schema_widen_at is not None and lsn >= self.schema_widen_at:
            return 3
        if self.schema_add_at is not None and lsn >= self.schema_add_at:
            return 2
        return 1


def _conv_weights(spec: GenSpec) -> np.ndarray:
    ranks = np.arange(1, spec.n_conversations + 1, dtype=np.float64)
    w = ranks ** -spec.zipf_s
    return w / w.sum()


def _chunk_arrays(spec: GenSpec, chunk_idx: int, lo: int, hi: int) -> dict[str, np.ndarray]:
    """Generate raw (lsn-ordered) event arrays for lsns [lo, hi)."""
    n = hi - lo
    rng = np.random.default_rng([spec.seed, chunk_idx])
    lsn = np.arange(lo, hi, dtype=np.int64)

    conv = rng.choice(spec.n_conversations, size=n, p=_conv_weights(spec))
    turn = rng.integers(0, spec.max_turns, size=n, dtype=np.int64)
    op = rng.choice(
        np.array([schemas.OP_INSERT, schemas.OP_UPDATE, schemas.OP_DELETE], dtype=object),
        size=n,
        p=[spec.p_insert, spec.p_update, spec.p_delete],
    )
    role = rng.choice(np.array(["user", "assistant", "system", "tool"], dtype=object), size=n)

    # fixed-width unicode dtypes TRUNCATE silently (astype('U7') maps
    # conv 12345678 -> '1234567', colliding distinct conversations);
    # size the widths from the configured domains. zfill pads but never
    # truncates, so the conv-XXXXXXX format is unchanged for the
    # <= 10M-conversation configs every oracle uses.
    cw = max(7, len(str(max(spec.n_conversations - 1, 1))))
    tw = max(3, len(str(max(spec.max_turns - 1, 1))))
    # zfill width must be cw too: np.char.zfill ALSO truncates to its
    # width argument (width 7 chops 8-digit ids). cw == 7 for every
    # <= 10M-conversation config, so the frozen conv-XXXXXXX format is
    # unchanged there.
    conv_id = np.char.add("conv-", np.char.zfill(conv.astype(f"U{cw}"), cw)).astype(object)
    # unique, deterministic text padded to text_len (transcript bytes dominated by text)
    prefix = np.char.add(
        np.char.add("t", lsn.astype("U20")),
        np.char.add("-", np.char.add(conv.astype(f"U{cw}"),
                                     np.char.add(".", turn.astype(f"U{tw}")))),
    )
    # np.char.ljust TRUNCATES to the width (unlike str.ljust); pad to
    # max(text_len, longest prefix) so uniqueness is never destroyed by
    # a small text_len
    width = max(spec.text_len, int(prefix.dtype.itemsize // 4))
    text = np.char.ljust(prefix, width, "x").astype(object)

    tool = np.where(rng.random(n) < 0.3,
                    np.char.add("tool-", (lsn % 7).astype("U2")).astype(object),
                    None)
    ts = BASE_TS_US + lsn * 1_000_000 + (lsn * 2654435761 % 1_000_000)
    model = np.char.add("m-", (lsn % 5).astype("U2")).astype(object)

    is_delete = op == schemas.OP_DELETE
    is_update = op == schemas.OP_UPDATE
    # deletes carry only the key
    for arr in (role, text, tool, model):
        arr[is_delete] = None

    # a fraction of updates are partial: null columns mean "unchanged"
    if spec.partial_update_fraction > 0:
        part = is_update & (rng.random(n) < spec.partial_update_fraction)
        text_only = part & (rng.random(n) < 0.5)
        meta_only = part & ~text_only
        role[text_only] = None
        tool[text_only] = None
        model[text_only] = None
        text[meta_only] = None

    return {
        "lsn": lsn, "op": op, "conv_id": conv_id, "turn_idx": turn,
        "role": role, "text": text, "tool": tool, "ts": ts, "model": model,
    }


def _postprocess(spec: GenSpec, arrays: dict[str, np.ndarray], chunk_idx: int) -> dict[str, np.ndarray]:
    """Apply duplicate delivery and bounded out-of-order shuffling."""
    rng = np.random.default_rng([spec.seed, chunk_idx, 7])
    n = len(arrays["lsn"])
    idx = np.arange(n)
    if spec.dup_fraction > 0:
        k = int(n * spec.dup_fraction)
        if k:
            dup = rng.choice(n, size=k, replace=False)
            idx = np.concatenate([idx, dup])
            idx.sort(kind="stable")  # duplicate sits right after its original
    if spec.ooo_window > 1:
        w = spec.ooo_window
        out = idx.copy()
        for s in range(0, len(idx), w):
            blk = idx[s:s + w]
            out[s:s + w] = blk[rng.permutation(len(blk))]
        idx = out
    return {k: v[idx] for k, v in arrays.items()}


def _to_table(spec: GenSpec, arrays: dict[str, np.ndarray], version: int) -> pa.Table:
    turn_type = pa.int64() if version >= 3 else pa.int32()
    cols: dict[str, pa.Array] = {
        "lsn": pa.array(arrays["lsn"], type=pa.int64()),
        "op": pa.array(arrays["op"], type=pa.string()),
        "schema_version": pa.array(np.full(len(arrays["lsn"]), version, dtype=np.int32)),
        "conv_id": pa.array(arrays["conv_id"], type=pa.string()),
        "turn_idx": pa.array(arrays["turn_idx"], type=turn_type),
        "role": pa.array(arrays["role"], type=pa.string()),
        "text": pa.array(arrays["text"], type=pa.string()),
        "tool": pa.array(arrays["tool"], type=pa.string()),
        "ts": pa.array(arrays["ts"], type=pa.timestamp("us")),
    }
    if version >= 2:
        cols["model"] = pa.array(arrays["model"], type=pa.string())
    return pa.table(cols)


def generate_chunks(spec: GenSpec) -> Iterator[tuple[pa.Table, int]]:
    """Yield (change-record table, schema_version) covering all lsns in
    [0, n_events), in arrival order (lsn order modulo ooo/dups).
    Delegates to _gen_chunk_tables (the version-split logic lives in
    exactly one place)."""
    for chunk_idx in range(0, -(-spec.n_events // GEN_CHUNK)):
        yield from _gen_chunk_tables(spec, chunk_idx)


def write_wal(spec: GenSpec, wal_dir: str, segment_rows: int = 100_000) -> list[Segment]:
    """Materialize the full change stream as WAL segments (the analogue
    of the provider service feeding staged files, utils/package.scala:14-40)."""
    w = WalWriter(wal_dir, segment_rows=segment_rows,
                  reorder_slack=max(2 * spec.ooo_window, 64))
    for table, version in generate_chunks(spec):
        w.append(table, version)
    return w.close()


def _gen_chunk_tables(spec: GenSpec, chunk_idx: int) -> list[tuple[pa.Table, int]]:
    """Tables (split by schema version, arrival order) for one chunk."""
    lo = chunk_idx * GEN_CHUNK
    hi = min(lo + GEN_CHUNK, spec.n_events)
    arrays = _postprocess(spec, _chunk_arrays(spec, chunk_idx, lo, hi), chunk_idx)
    if spec.version_of(lo) == spec.version_of(hi - 1):
        v = spec.version_of(lo)
        return [(_to_table(spec, arrays, v), v)]
    row_ver = np.full(len(arrays["lsn"]), 1, dtype=np.int64)
    if spec.schema_add_at is not None:
        row_ver[arrays["lsn"] >= spec.schema_add_at] = 2
    if spec.schema_widen_at is not None:
        row_ver[arrays["lsn"] >= spec.schema_widen_at] = 3
    out = []
    for v in sorted(set(row_ver.tolist())):
        mask = row_ver == v
        sub = {k: a[mask] for k, a in arrays.items()}
        if len(sub["lsn"]):
            out.append((_to_table(spec, sub, int(v)), int(v)))
    return out


def write_wal_parallel(spec: GenSpec, wal_dir: str) -> None:
    """Ray-parallel WAL materialization: chunks are counter-seeded and
    lsn-disjoint, so each becomes its own segment(s) independently
    (seq = chunk_idx * 4 + i keeps publication order; gaps are fine --
    tailing orders by seq, it does not require density). Byte-identical
    content to :func:`write_wal` with segment_rows=GEN_CHUNK, modulo
    segment framing. Requires an initialized Ray session."""
    import pyarrow.compute as _pc

    import ray

    from .wal import write_segment

    @ray.remote
    def gen_one(chunk_idx: int) -> int:
        n = 0
        for i, (table, version) in enumerate(_gen_chunk_tables(spec, chunk_idx)):
            table = table.take(_pc.sort_indices(table, sort_keys=[("lsn", "ascending")]))
            write_segment(table, wal_dir, seq=chunk_idx * 4 + i,
                          schema_version=version)
            n += table.num_rows
        return n

    n_chunks = (spec.n_events + GEN_CHUNK - 1) // GEN_CHUNK
    ray.get([gen_one.remote(i) for i in range(n_chunks)])
