"""Semi-structured JSON operators: parse_json + array explode + typed
projection, with dead-letter routing for malformed payloads.

Reference parity:
  * ``parse_json`` of a raw response string column
    (``IngestOrdersFromRawToFlat.scala:39-43``) -- T1;
  * ``jsonArrayToExplodedFields``: lateral flatten of a JSON
    array-of-objects into one row per element with typed fields
    (``snowpark/Implicits.scala:27-38``) -- T3;
  * the typed projection reuses :func:`normalize_batch` (jsonToFields,
    T2), so added/missing/widened fields follow the same
    schema-evolution rules as the CDC normalize stage.

Scale shape: one ``json.loads`` call per PAYLOAD (each payload is an
array of many records, so the per-record cost is amortized); the
exploded records become one Arrow table per batch via
``pa.Table.from_pylist`` and every downstream cast is an Arrow kernel.
A per-record Python loop never touches individual fields.

Dead letters: with a ``quarantine_dir``, a payload that fails to parse
(bad JSON, non-array shape) or to project (uncastable field values) is
durably appended to the quarantine as ``{"payload", "error"}``
NDJSON instead of failing the whole pipeline -- each task writes its
own quarantine file, nothing funnels through the driver. The typed
fast path is unchanged: the batch projects as ONE table, and only a
failing batch is re-projected per payload to isolate the offenders.
Without a quarantine_dir errors raise (strict mode).
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa

from ..state.storage import DEFAULT_STORAGE
from .normalize import normalize_batch

_PARSE_ERRORS = (ValueError, AttributeError, TypeError)
# ArrowNotImplementedError: a nested object/array where a scalar is
# expected infers struct/list and the cast raises NotImplemented, not
# Invalid -- it must dead-letter like any other malformed payload
_CAST_ERRORS = (pa.ArrowInvalid, pa.ArrowTypeError,
                pa.ArrowNotImplementedError)


def _quarantine_write(bad: list[tuple[str, str]], quarantine_dir: str) -> str:
    """Durably publish one dead-letter NDJSON file, named by a digest
    of its content (as `validate` and `stage_put` name theirs): a
    re-executed batch rewrites its file instead of duplicating it."""
    os.makedirs(quarantine_dir, exist_ok=True)
    text = "".join(json.dumps({"payload": payload, "error": err}) + "\n"
                   for payload, err in bad)
    digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
    final = os.path.join(quarantine_dir, f"dead-{digest}.json")
    DEFAULT_STORAGE.write_atomic(final, text)
    return final


def explode_json_array(batch: pa.Table, column: str, target: pa.Schema,
                       quarantine_dir: str | None = None) -> pa.Table:
    """Parse a string column of JSON arrays-of-objects and explode to
    one typed row per element, projected onto `target` (case-insensitive
    field match, cast, null-fill -- T1+T3+T2 in one stage). Malformed
    payloads raise, or divert to `quarantine_dir` when given.

    Usable directly inside ``map_batches(..., batch_format="pyarrow")``
    via :class:`JsonArrayExploder`.
    """
    records: list[dict] = []
    slices: list[tuple[int, int, str]] = []   # per-payload [lo, hi) + raw
    bad: list[tuple[str, str]] = []
    for payload in batch[column].to_pylist():
        if payload is None:
            # SQL NULL: no payload, nothing to parse. An EMPTY STRING
            # is different — a truncated upload is malformed JSON and
            # must hit json.loads so the quarantine contract captures
            # it instead of the row silently vanishing.
            continue
        try:
            parsed = json.loads(payload)
            if isinstance(parsed, dict):  # a single object is a 1-array
                parsed = [parsed]
            if not isinstance(parsed, list):
                raise ValueError(
                    f"payload is {type(parsed).__name__}, not an array")
            # fold case variants of a key into ONE column here (from_pylist
            # would otherwise keep `a` and `A` as distinct columns and the
            # case-insensitive projection could only pick one of them)
            recs = [{k.lower(): v for k, v in r.items()} for r in parsed]
        except _PARSE_ERRORS as e:
            if quarantine_dir is None:
                raise
            bad.append((payload, f"{type(e).__name__}: {e}"))
            continue
        slices.append((len(records), len(records) + len(recs), payload))
        records.extend(recs)

    if records:
        try:
            raw = pa.Table.from_pylist(records)
            if raw.num_columns == 0:
                # all-empty objects: from_pylist loses the row count;
                # the null-fill contract says they become all-null rows
                raw = pa.table({"_": pa.nulls(len(records))})
            tbl = normalize_batch(raw, target)
        except _CAST_ERRORS:
            if quarantine_dir is None:
                raise
            # isolate offenders: re-project payload by payload
            parts = []
            for lo, hi, payload in slices:
                try:
                    sub = pa.Table.from_pylist(records[lo:hi])
                    if sub.num_columns == 0 and hi > lo:
                        sub = pa.table({"_": pa.nulls(hi - lo)})
                    parts.append(normalize_batch(sub, target))
                except _CAST_ERRORS as pe:
                    bad.append((payload, f"{type(pe).__name__}: {pe}"))
            tbl = pa.concat_tables(parts) if parts else target.empty_table()
    else:
        tbl = target.empty_table()
    if bad and quarantine_dir is not None:
        _quarantine_write(bad, quarantine_dir)
    return tbl


class JsonArrayExploder:
    """map_batches callable: raw JSON-array column -> exploded typed
    rows. Stateless; a class so the target schema resolves once."""

    def __init__(self, column: str, target: pa.Schema,
                 quarantine_dir: str | None = None):
        self.column = column
        self.target = target
        self.quarantine_dir = quarantine_dir

    def __call__(self, batch: pa.Table) -> pa.Table:
        return explode_json_array(batch, self.column, self.target,
                                  self.quarantine_dir)
