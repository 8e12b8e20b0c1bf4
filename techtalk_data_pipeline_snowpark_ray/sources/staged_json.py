"""Staged-JSON file source: JSON files land in a stage directory, a
stream of NEW files is discovered by marker, and each file's raw
payload strings parse + explode into typed rows.

Reference parity (the reference's entire ingest boundary is JSON):
  * stage create / PUT + atomic visibility  -- S4/S5
    (``SnowflakeUtils.scala:100-115``): one durable write through
    `state.storage` (hidden tmp file, fsync, rename, directory fsync);
    a concurrent lister never sees a partial file;
  * stage stream = "files newer than the consumed marker" -- S9
    (``IngestPaymentsStreamFromStage.scala:54-59``): names embed a
    sortable key; "read the stream" = list names > marker, "consume" =
    advance the marker (exactly the cloud-stage LIST ... AFTER shape,
    no file content is opened for consumed files);
  * JSON file reader -- S10: ``ray.data.read_json`` over the new files.

Layout: each staged file is NDJSON; every line is one *raw payload
record* ``{"n": <count>, "payload": "<JSON array-of-objects string>"}``
-- mirroring the REST-response-body-in-a-column shape the reference
stages (``IngestOrdersFromRawToFlat.scala:39-50``), so the read side
must exercise real parse_json + lateral flatten (stages/jsonops.py).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa

import ray.data

from ..state.storage import DEFAULT_STORAGE

#: records per JSON-array payload (one NDJSON line)
PAYLOAD_RECORDS = 512

_TS_FMT = "%Y-%m-%dT%H:%M:%S.%f"   # microseconds: lossless for timestamp[us]


@dataclass(frozen=True)
class StagedFile:
    path: str
    key: str      # sortable discovery key (embedded in the name)

    @property
    def name(self) -> str:
        return os.path.basename(self.path)


def stage_put(lines: list[str], stage_dir: str, key: str,
              publish: bool = True) -> str:
    """Durably publish one NDJSON file into the stage (PUT+REFRESH
    parity; the discovery key is part of the name). The name suffix
    is a CONTENT digest, not a random id: a retried producer task (Ray
    re-executes side-effecting tasks after worker loss) republishes
    the identical file under the identical name -- the rename makes
    that a no-op instead of a duplicate delivery.

    ``publish=False`` lands the file at a HIDDEN ``.pending-`` name
    (invisible to list_staged_files) for two-phase producers: parallel
    tasks write pending files in any order, then one coordinator
    renames them to visible names in nondecreasing key order — the
    marker contract made true for concurrent tailers."""
    import hashlib
    os.makedirs(stage_dir, exist_ok=True)
    digest = hashlib.blake2b("\n".join(lines).encode(),
                             digest_size=4).hexdigest()
    base = f"staged-{key}-{digest}.json"
    final = os.path.join(
        stage_dir, base if publish else f".pending-{base}")
    DEFAULT_STORAGE.write_atomic(final, "\n".join(lines) + "\n")
    return final


def list_staged_files(stage_dir: str, after: str = "") -> list[StagedFile]:
    """The stage stream: files whose embedded key sorts AFTER the
    consumed marker, in key order. Consuming = remembering the last
    key; no consumed file is ever re-opened.

    MARKER CONTRACT: correctness requires producers to publish in
    nondecreasing key order, or staging to be quiesced before each
    read -- a file published with a key <= an already-consumed marker
    is invisible forever (the lexical marker cannot distinguish it
    from a consumed file). Producers that cannot guarantee ordered
    publication should write to the WAL instead, whose seq-interval
    contract enforces exactly this."""
    if not os.path.isdir(stage_dir):
        return []
    out = []
    for name in sorted(os.listdir(stage_dir)):
        if not (name.startswith("staged-") and name.endswith(".json")):
            continue  # temp files, foreign files
        key = name[len("staged-"):-len(".json")]
        if key > after:
            out.append(StagedFile(os.path.join(stage_dir, name), key))
    # names share a constant prefix/suffix, so the sorted() listing IS
    # key order -- no re-sort needed
    return out


def stage_events_as_json(sf_dir: str, stage_dir: str) -> int:
    """Deterministic distributed producer: serialize the events table
    into staged JSON files (PAYLOAD_RECORDS-record JSON-array payloads,
    one NDJSON line each). Each map task writes its own batch as a
    HIDDEN pending file -- the write fans out with the read, nothing is
    collected to the driver -- then the driver renames the pending set
    to visible names in key order (two-phase publish: parallel tasks
    land files in arbitrary TIME order, and the marker contract in
    `list_staged_files` requires nondecreasing KEY order for any
    concurrent tailer; the renames are O(files) metadata ops, each
    with a directory fsync). Returns the number of staged files."""

    def stage_batch(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame({"file": pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64")})
        batch = batch.sort_values("event_id", ignore_index=True)
        ts_iso = batch["ts"].dt.strftime(_TS_FMT)
        lines = []
        for lo in range(0, len(batch), PAYLOAD_RECORDS):
            chunk = batch.iloc[lo:lo + PAYLOAD_RECORDS]
            recs = [
                {"event_id": int(e), "user_id": int(u), "event_type": et,
                 "value": float(v), "ts": t}
                for e, u, et, v, t in zip(
                    chunk["event_id"], chunk["user_id"], chunk["event_type"],
                    chunk["value"], ts_iso.iloc[lo:lo + PAYLOAD_RECORDS])
            ]
            lines.append(json.dumps({"n": len(recs),
                                     "payload": json.dumps(recs)}))
        key = f"{int(batch['event_id'].iloc[0]):012d}"
        path = stage_put(lines, stage_dir, key, publish=False)
        return pd.DataFrame([{"file": os.path.basename(path),
                              "n": len(batch)}])

    from .tables import read_table
    ev = read_table(sf_dir, "events",
                    ["event_id", "user_id", "event_type", "value", "ts"])
    metrics = ev.map_batches(stage_batch, batch_format="pandas",
                             batch_size=8192).to_pandas()
    if "file" not in metrics.columns:            # zero-block source
        return 0
    pending = sorted(metrics["file"].dropna())   # name sort == key sort
    for name in pending:
        src = os.path.join(stage_dir, name)
        if os.path.exists(src):                  # retried task: no-op
            DEFAULT_STORAGE.replace_into(src, os.path.join(
                stage_dir, name[len(".pending-"):]))
    return len(pending)


#: the declared schema the raw JSON is projected onto (jsonToFields);
#: ts arrives as an ISO string and is cast by the projection
STAGED_EVENT_SCHEMA = pa.schema([
    pa.field("event_id", pa.int64()),
    pa.field("user_id", pa.int64()),
    pa.field("event_type", pa.string()),
    pa.field("value", pa.float64()),
    pa.field("ts", pa.timestamp("us")),
])


#: dead-letter subdirectory inside the stage ("_"-prefixed so the
#: staged-file lister never picks it up)
QUARANTINE_SUBDIR = "_quarantine"


def read_staged_json(stage_dir: str, after: str = "",
                     quarantine: bool = True,
                     ) -> tuple[ray.data.Dataset | None, str]:
    """One stage-stream read: discover files after the marker, read the
    raw NDJSON (S10: ray.data.read_json), parse + explode + project the
    payloads to typed rows. Returns (dataset, new_marker); dataset is
    None when no new files exist (marker unchanged).

    With `quarantine` (default), malformed payloads divert to
    ``<stage>/_quarantine/`` as dead-letter records instead of failing
    the pipeline (each read task writes its own file; see
    stages/jsonops.py). Consumed stage files are never re-read, so a
    payload is quarantined at most once. `quarantine=False` = strict
    mode: any malformed payload raises."""
    from ..stages.jsonops import JsonArrayExploder

    files = list_staged_files(stage_dir, after)
    if not files:
        return None, after
    qdir = os.path.join(stage_dir, QUARANTINE_SUBDIR) if quarantine else None
    raw = ray.data.read_json([f.path for f in files])
    ds = raw.map_batches(JsonArrayExploder("payload", STAGED_EVENT_SCHEMA,
                                           quarantine_dir=qdir),
                         batch_format="pyarrow", zero_copy_batch=True)
    return ds, files[-1].key


def read_quarantine(stage_dir: str) -> ray.data.Dataset | None:
    """Dataset over the stage's dead-letter records ({payload, error}
    rows), or None when nothing was quarantined."""
    qdir = os.path.join(stage_dir, QUARANTINE_SUBDIR)
    if not os.path.isdir(qdir):
        return None
    paths = [os.path.join(qdir, n) for n in sorted(os.listdir(qdir))
             if n.startswith("dead-")]
    if not paths:
        return None
    return ray.data.read_json(paths)
