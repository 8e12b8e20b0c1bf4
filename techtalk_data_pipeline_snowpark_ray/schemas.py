"""Arrow schema registry for the transcript lake table.

Reference parity: each entity in the reference carries an explicit
target schema (``Order.scala:82-107``, ``Types.scala:19-35``) and raw
data is projected onto it field-by-field with case-insensitive lookup +
cast (``snowpark/Implicits.scala:13-26``). Here the registry is a set of
versioned ``pyarrow.Schema`` constants; the normalize stage projects any
incoming batch onto the requested version (column add -> null-fill,
widen -> cast).

Schema evolution cases mandated by BASELINE.json:
  v1 -> v2: column add (``model: string``)
  v2 -> v3: widen (``turn_idx`` int32 -> int64)
"""

from __future__ import annotations

import pyarrow as pa

# primary key of the lake table
KEY_COLS = ("conv_id", "turn_idx")

# change-log bookkeeping columns carried by every WAL record
LSN_COL = "lsn"
OP_COL = "op"
SCHEMA_VERSION_COL = "schema_version"

#: ops as they appear in the WAL (reference CRUD set, SampleCrud.scala:9-75)
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"
#: ops of *collapsed* records (see stages.apply.fold_table):
#:   full    = absolute row (does not depend on prior state)
#:   partial = column-subset update (merged onto prior state at read time)
OP_FULL = "full"
OP_PARTIAL = "partial"
#: barrier ops start a new fold segment: anything absolute or destructive
BARRIER_OPS = (OP_INSERT, OP_DELETE, OP_FULL)

#: string columns whose values are (nearly) all distinct: run files
#: store them plain, not dictionary-encoded (state.storage.write_run)
FREE_TEXT_COLS = ("text",)

TRANSCRIPT_V1 = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

# v2: column add
TRANSCRIPT_V2 = TRANSCRIPT_V1.append(pa.field("model", pa.string()))

# v3: widen turn_idx int32 -> int64
TRANSCRIPT_V3 = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int64()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
        pa.field("model", pa.string()),
    ]
)

REGISTRY: dict[int, pa.Schema] = {1: TRANSCRIPT_V1, 2: TRANSCRIPT_V2, 3: TRANSCRIPT_V3}
CURRENT_VERSION = 3


def table_schema(version: int = CURRENT_VERSION) -> pa.Schema:
    return REGISTRY[version]


def payload_cols(version: int = CURRENT_VERSION) -> list[str]:
    """Non-key payload columns of the lake table at `version`."""
    return [n for n in REGISTRY[version].names if n not in KEY_COLS]


def change_schema(version: int = CURRENT_VERSION) -> pa.Schema:
    """Schema of WAL change records at a given table-schema version:
    bookkeeping columns + the full table payload."""
    fields = [
        pa.field(LSN_COL, pa.int64()),
        pa.field(OP_COL, pa.string()),
        pa.field(SCHEMA_VERSION_COL, pa.int32()),
    ]
    fields.extend(REGISTRY[version])
    return pa.schema(fields)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()
