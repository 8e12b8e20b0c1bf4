"""WAL / binlog segment layout: the engine's change stream.

Reference parity: a Snowflake *stream* exposes only rows changed since
the last consumed offset (``SnowflakeUtils.scala:46-66``); a *stage
stream* exposes newly arrived files (``IngestPaymentsStreamFromStage
.scala:54-59``). Our analogue is an append-only directory of Parquet
segments named::

    wal-{seq:010d}-{lo:020d}-{hi:020d}-v{schema_version}.parquet

* ``seq`` is a strictly-increasing publication number: "read the
  stream" = list files with seq > committed_seq (no data is opened for
  consumed segments, no row filtering is ever needed), and "consume" =
  the commit step advancing committed_seq in the table manifest.
* ``lo``/``hi`` are the segment's lsn range, used for metrics (lag) and
  for range predicate pushdown by analytics readers.

INTERVAL CONTRACT (correctness-critical). Change events may arrive at
the writer out of order within a bounded window; the writer keeps a
reorder buffer, sorts by lsn, and only cuts a segment when at least
``reorder_slack`` later rows are buffered, so published segments are
*disjoint, non-decreasing lsn ranges* (shared endpoints are allowed
for re-delivered duplicate events, which are byte-identical). Every
downstream fold (combiner batch, shard group, compaction) therefore
operates on unions of lsn-intervals, which is exactly the condition
under which the last-writer-wins fold in stages/apply.py is
associative. A disorder burst larger than the buffer raises instead of
silently corrupting.

Segments are homogeneous in schema version (a schema change cuts a
segment). Producers publish through `state.storage.write_durable`
(hidden tmp file, fsync, rename, directory fsync), so a concurrent
tailer never sees a half-written segment (the stage PUT + REFRESH
analogue, ``SnowflakeUtils.scala:100-115``).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

from ..state.storage import write_parquet

_SEG_RE = re.compile(r"^wal-(\d{10})-(\d{20})-(\d{20})-v(\d+)\.parquet$")


@dataclass(frozen=True)
class Segment:
    path: str
    seq: int
    lo: int          # lowest lsn in the segment (inclusive)
    hi: int          # highest lsn in the segment (inclusive)
    schema_version: int

    @property
    def name(self) -> str:
        return os.path.basename(self.path)


def segment_name(seq: int, lo: int, hi: int, schema_version: int) -> str:
    return f"wal-{seq:010d}-{lo:020d}-{hi:020d}-v{schema_version}.parquet"


def parse_segment_name(name: str) -> tuple[int, int, int, int] | None:
    m = _SEG_RE.match(name)
    if not m:
        return None
    return tuple(int(g) for g in m.group(1, 2, 3)) + (int(m.group(4)),)


def write_segment(table: pa.Table, wal_dir: str, seq: int, schema_version: int,
                  row_group_size: int = 128 * 1024) -> Segment:
    """Atomically publish one WAL segment (rows must be lsn-sorted)."""
    if table.num_rows == 0:
        raise ValueError("refusing to write an empty WAL segment")
    lo = table["lsn"][0].as_py()
    hi = table["lsn"][table.num_rows - 1].as_py()
    os.makedirs(wal_dir, exist_ok=True)
    final = os.path.join(wal_dir, segment_name(seq, lo, hi, schema_version))
    write_parquet(table, final, row_group_size=row_group_size)
    return Segment(final, seq, lo, hi, schema_version)


def list_segments(wal_dir: str, after_seq: int = -1) -> list[Segment]:
    """Unconsumed stream tail: all segments with seq > after_seq,
    ordered by seq."""
    if not os.path.isdir(wal_dir):
        return []
    out: list[Segment] = []
    for name in os.listdir(wal_dir):
        parsed = parse_segment_name(name)
        if parsed is None:
            continue  # temp files, foreign files
        seq, lo, hi, sv = parsed
        if seq > after_seq:
            out.append(Segment(os.path.join(wal_dir, name), seq, lo, hi, sv))
    out.sort(key=lambda s: s.seq)
    return out


def high_watermark(wal_dir: str) -> int:
    """Highest lsn present in the log (-1 when empty)."""
    segs = list_segments(wal_dir)
    return max((s.hi for s in segs), default=-1)


class WalWriter:
    """Reorder-buffering segment writer (see INTERVAL CONTRACT above).

    Accepts change-record tables in approximate lsn order (bounded
    disorder <= reorder_slack rows), sorts, and cuts segments of
    ``segment_rows`` rows. Used by the generator and by the staged
    ingest source; a multi-node deployment runs one writer per log
    (or coordinates seq allocation), exactly like any binlog.
    """

    def __init__(self, wal_dir: str, segment_rows: int = 100_000,
                 reorder_slack: int | None = None):
        self.wal_dir = wal_dir
        self.segment_rows = segment_rows
        self.reorder_slack = segment_rows if reorder_slack is None else reorder_slack
        existing = list_segments(wal_dir)
        self._seq = max((s.seq for s in existing), default=-1) + 1
        self._last_hi = max((s.hi for s in existing), default=-1)
        self._buf: list[pa.Table] = []
        self._buf_rows = 0
        self._buf_sorted = False
        self._buf_version: int | None = None
        self.segments: list[Segment] = []

    def append(self, table: pa.Table, schema_version: int) -> None:
        if self._buf_version is not None and schema_version != self._buf_version:
            self.flush()
        self._buf_version = schema_version
        self._buf.append(table)
        self._buf_sorted = False
        self._buf_rows += table.num_rows
        while self._buf_rows >= self.segment_rows + self.reorder_slack:
            self._cut(self.segment_rows)

    def _cut(self, nrows: int) -> None:
        combined = pa.concat_tables(self._buf, promote_options="default")
        if not self._buf_sorted:
            # the tail left by a previous cut is already sorted; only a
            # buffer with fresh appends needs the sort. Without this, a
            # single large append pays O(buffer) sort work PER segment
            # cut (quadratic over the backlog) instead of once.
            combined = combined.take(pc.sort_indices(
                combined, sort_keys=[("lsn", "ascending")]))
        head, tail = combined.slice(0, nrows), combined.slice(nrows)
        lo = head["lsn"][0].as_py()
        if lo < self._last_hi:
            raise RuntimeError(
                f"WAL interval contract violated: segment would start at lsn {lo} "
                f"< previous segment hi {self._last_hi}; disorder exceeded "
                f"reorder_slack={self.reorder_slack}"
            )
        seg = write_segment(head, self.wal_dir, self._seq, self._buf_version)
        self._seq += 1
        self._last_hi = seg.hi
        self.segments.append(seg)
        self._buf = [tail] if tail.num_rows else []
        self._buf_sorted = True
        self._buf_rows = tail.num_rows

    def flush(self) -> None:
        if self._buf_rows:
            self._cut(self._buf_rows)
        self._buf, self._buf_rows = [], 0

    def close(self) -> list[Segment]:
        self.flush()
        return self.segments
