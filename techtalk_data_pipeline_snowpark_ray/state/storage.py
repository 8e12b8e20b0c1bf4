"""Storage shim: the commit protocol's filesystem contract, stated as
an interface so the atomicity story holds off-POSIX (S3-style object
stores) as well as on the local disk the sandbox runs on.

Every file the engine publishes (manifests, LATEST, run files, WAL
segments, quarantine, stage and export files) goes through ONE call:

  ``write_durable(path, write, exclusive=False)``
      `write(tmp)` fills a hidden tmp file next to `path`; it is
      fsynced, then renamed over `path` (readers see the old or the
      new bytes, never a torn write) or, `exclusive`, linked into
      place (exactly ONE of N concurrent creators wins, the others
      raise FileExistsError: manifest-version commit). Then the
      directory is fsynced, so the name survives a power loss before
      any later commit names it (Delta Lake's rule: data files are
      durable before the log entry that adds them). A failed `write`
      leaves `path` untouched. Cloud: a single PUT; exclusive is a
      conditional PUT (``If-None-Match: *`` on S3 and Azure, GCS
      ``ifGenerationMatch=0``, or a coordination object such as a
      DynamoDB conditional write).

Its thin uses are `write_atomic` and `create_exclusive` (text),
`write_parquet` and `write_run` (parquet). Besides it,
``replace_into`` renames an already-durable file (a staged file's
pending -> visible step; cloud: COPY + DELETE), ``link_or_copy``
shares an immutable file under a second name (table clone), and
``mtime`` orders GC grace windows (cloud: LastModified). Everything
else (read_text, exists, list, remove, makedirs) maps to GET / HEAD /
LIST-prefix / DELETE / no-op.

`LocalStorage` is the (only) in-repo implementation; `TableState`
routes every manifest/commit/GC operation through it, and every other
writer through `DEFAULT_STORAGE`, so a cloud deployment swaps one
object.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import uuid
from typing import Callable

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

    def write_durable(self, path: str, write: "Callable[[str], object]",
                      exclusive: bool = False) -> None:
        """Publish the file `write(tmp)` produces at `path` (module doc)."""
        tmp = tmp_name(path)
        try:
            write(tmp)
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            if exclusive:
                os.link(tmp, path)      # atomic, fails if path exists
                os.unlink(tmp)
            else:
                os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        self._fsync_dir(path)

    def write_atomic(self, path: str, data: str) -> None:
        self.write_durable(path, lambda tmp: _write_text(tmp, data))

    def create_exclusive(self, path: str, data: str) -> None:
        """Atomically create `path` with `data`; FileExistsError if it
        already exists (exactly-one-winner semantics)."""
        self.write_durable(path, lambda tmp: _write_text(tmp, data),
                           exclusive=True)

    def replace_into(self, src_path: str, dst_path: str) -> None:
        os.replace(src_path, dst_path)
        self._fsync_dir(dst_path)

    def link_or_copy(self, src_path: str, dst_path: str) -> None:
        """Zero-copy share of an IMMUTABLE object under a second name
        (table clone). Local: ``os.link`` — the two names are
        independent references to one inode, so deleting either (GC on
        one table) never affects the other; falls back to a durable
        byte copy across filesystems. Cloud: server-side COPY (S3
        CopyObject / GCS rewrite), which is metadata-only within a
        region on most stores. Idempotent: an existing destination is
        left in place — run-file names embed their txn id, so same
        name = same bytes (a retried clone must be able to re-walk its
        file list)."""
        if os.path.exists(dst_path):
            return
        try:
            os.link(src_path, dst_path)
        except FileExistsError:
            return                      # lost a benign race with a retry
        except OSError:
            self.write_durable(
                dst_path, lambda tmp: shutil.copy2(src_path, tmp))
            return
        self._fsync_dir(dst_path)

    def remove(self, path: str) -> None:
        os.remove(path)


def tmp_name(path: str) -> str:
    """A fresh tmp name next to `path`: hidden from every lister (dot
    prefix), swept by GC and the export's retry cleanup (``.tmp``)."""
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.tmp-{uuid.uuid4().hex[:8]}")


def _write_text(path: str, data: str) -> None:
    with open(path, "w") as f:
        f.write(data)


def write_parquet(table: pa.Table, path: str, **options) -> None:
    """Publish `table` as one zstd parquet file at `path` through
    `write_durable`; `options` pass through to ``pq.write_table``."""
    options.setdefault("compression", "zstd")
    DEFAULT_STORAGE.write_durable(
        path, lambda tmp: pq.write_table(table, tmp, **options))


def write_run(table: pa.Table, path: str) -> None:
    """Write one run file (delta, base, erasure rewrite, view or derived
    partial) through `write_parquet`. Encoding follows the columns:
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
    write_parquet(table, path, use_dictionary=dictionary,
                  column_encoding=delta)


#: process-default storage; a cloud deployment swaps this (or passes
#: its own into TableState)
DEFAULT_STORAGE = LocalStorage()
