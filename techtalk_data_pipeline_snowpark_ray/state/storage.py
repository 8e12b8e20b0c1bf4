"""Storage shim: the commit protocol's filesystem contract, stated as
an interface so the atomicity story holds off-POSIX (S3-style object
stores) as well as on the local disk the sandbox runs on.

The engine's exactly-once commit needs exactly four primitives beyond
plain read/list/delete:

  ``write_atomic(path, data)``
      Readers see the old bytes or the new bytes, never a torn write.
      Local: tmp file + fsync + ``os.replace`` (atomic rename within a
      filesystem). Cloud: a single PUT -- object stores are atomic per
      object by construction (no partial objects are ever visible).

  ``create_exclusive(path, data)``
      Exactly ONE of N concurrent creators of the same path succeeds;
      losers raise FileExistsError. This is what makes manifest-version
      commit (optimistic concurrency) safe with multiple committers.
      Local: write tmp + ``os.link`` to the final name (link fails
      atomically if the target exists). Cloud: conditional PUT --
      ``If-None-Match: *`` on S3 (supported since 2024-08) / GCS
      ``ifGenerationMatch=0`` / Azure ``If-None-Match: *``; on stores
      without conditional PUT, a coordination object (e.g. DynamoDB
      conditional write) provides the same contract.

  ``replace_into(src_path, dst_path)``
      Publish a finished local scratch file under its final name
      (WAL segment / run-file landing). Local: ``os.replace``. Cloud:
      PUT of the scratch bytes to the final key (single-object
      atomicity again); multipart upload completes atomically too.

  ``mtime(path)``
      Ordering hint for GC grace windows. Cloud: LastModified.

Everything else (read_text, exists, list, remove, makedirs) maps to
GET / HEAD / LIST-prefix / DELETE / no-op.

`LocalStorage` is the (only) in-repo implementation; `TableState`
routes every manifest/commit/GC operation through it, so a cloud
deployment swaps one object. Every parquet file the engine writes into
a table's ``runs_dir`` goes through `write_run` below.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from ..schemas import FREE_TEXT_COLS


class LocalStorage:
    """POSIX implementation of the storage contract (see module doc)."""

    # -- read side ----------------------------------------------------------
    def read_text(self, path: str) -> str:
        with open(path) as f:
            return f.read()

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def list(self, dir_path: str) -> "list[str]":
        return os.listdir(dir_path)

    def mtime(self, path: str) -> float:
        return os.path.getmtime(path)

    # -- write side ---------------------------------------------------------
    def makedirs(self, dir_path: str) -> None:
        os.makedirs(dir_path, exist_ok=True)

    @staticmethod
    def _fsync_dir(path: str) -> None:
        """Persist the DIRECTORY ENTRY of a just-renamed/linked file.
        Without it, power loss can durably keep a later write (LATEST)
        while losing an earlier one (v{n}.json) — the kernel orders
        data fsyncs, not directory updates — leaving LATEST pointing
        forever at a manifest that does not exist."""
        dfd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)

    def write_atomic(self, path: str, data: str) -> None:
        tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        self._fsync_dir(path)

    def create_exclusive(self, path: str, data: str) -> None:
        """Atomically create `path` with `data`; FileExistsError if it
        already exists (exactly-one-winner semantics)."""
        tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        try:
            os.link(tmp, path)      # atomic, fails if path exists
        finally:
            os.unlink(tmp)
        self._fsync_dir(path)

    def replace_into(self, src_path: str, dst_path: str) -> None:
        os.replace(src_path, dst_path)

    def link_or_copy(self, src_path: str, dst_path: str) -> None:
        """Zero-copy share of an IMMUTABLE object under a second name
        (table clone). Local: ``os.link`` — the two names are
        independent references to one inode, so deleting either (GC on
        one table) never affects the other; falls back to a byte copy
        across filesystems. Cloud: server-side COPY (S3 CopyObject /
        GCS rewrite), which is metadata-only within a region on most
        stores. Idempotent: an existing destination is left in place —
        run-file names embed their txn id, so same name = same bytes
        (a retried clone must be able to re-walk its file list)."""
        if os.path.exists(dst_path):
            return
        try:
            os.link(src_path, dst_path)
        except FileExistsError:
            return                      # lost a benign race with a retry
        except OSError:
            import shutil
            shutil.copy2(src_path, dst_path)

    def remove(self, path: str) -> None:
        os.remove(path)


def write_run(table: pa.Table, path: str) -> None:
    """Write one run file (delta, base, erasure rewrite, view or derived
    partial) under a unique tmp name, then ``os.replace`` it to `path`
    (GC sweeps ``*.tmp*`` leftovers). Encoding follows the columns:
    integer and timestamp columns are ``DELTA_BINARY_PACKED`` (sorted
    keys, lsns and times shrink to bit-packed deltas), free-text columns
    (`schemas.FREE_TEXT_COLS`) stay plain because every value is
    unique and a dictionary only adds a page, and every other column,
    low-cardinality strings included, keeps pyarrow's default
    dictionary encoding. Readers need nothing: compression, row
    groups, statistics and schema are pyarrow's zstd defaults."""
    delta, dictionary = {}, []
    for f in table.schema:
        if pa.types.is_integer(f.type) or pa.types.is_timestamp(f.type):
            delta[f.name] = "DELTA_BINARY_PACKED"
        elif f.name not in FREE_TEXT_COLS:
            dictionary.append(f.name)
    tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp, compression="zstd",
                   use_dictionary=dictionary, column_encoding=delta)
    os.replace(tmp, path)


#: process-default storage; a cloud deployment swaps this (or passes
#: its own into TableState)
DEFAULT_STORAGE = LocalStorage()
