"""Atomic snapshot commit: manifests, checkpoints, lineage, GC.

Reference parity: ``executeInTransaction`` (``SnowflakeUtils.scala:
36-45,68-81``) makes "consume stream delta + apply merge + write"
atomic -- commit advances the stream offset, rollback leaves it
unconsumed so the next run re-reads the same delta. Our analogue
(Delta-Lake-style, per PAPERS.md):

  * apply tasks write run files under ``runs/`` with txn-deterministic
    names, each durable (fsynced, directory too) before its task
    returns; the files are INVISIBLE until referenced by a manifest
    (readers only follow manifests), so a retried/failed task can
    overwrite its own file idempotently;
  * publishing = the driver creating manifest ``v{n}.json``
    exclusively (tmp file linked to the final name, see `publish`),
    listing, per bucket, the exact run files plus the consumed WAL
    offset, schema version, per-partition metrics and the parent
    version (lineage);
  * the ``LATEST`` pointer file is then replaced as a read cache.

Crash anywhere before the version file exists -> the old manifest
still rules, the WAL offset is unchanged, replay is duplicate-free
(exactly-once).
Orphan run files are swept by :func:`gc_orphan_runs`.

All filesystem operations go through the storage shim
(:mod:`.storage`): the commit protocol's atomicity requirements
(atomic single-object write, exactly-one-winner exclusive create) are
stated there as an interface with a documented cloud mapping, so the
exactly-once story survives the move from POSIX to an S3-style object
store by swapping one object.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field, asdict

from .storage import DEFAULT_STORAGE, LocalStorage


@dataclass
class Manifest:
    version: int = 0
    txn_id: str = ""
    #: highest WAL segment seq consumed (the stream offset; tailing
    #: resumes at seq > committed_seq)
    committed_seq: int = -1
    #: highest WAL lsn whose effects are included in this snapshot
    #: (metrics/lag; lsn ordering is handled by the LWW fold, not here)
    committed_lsn: int = -1
    #: lake-table schema version of this snapshot
    schema_version: int = 1
    #: bucket count the table's run files were written with. `bucket =
    #: H(conv_id) % num_buckets` is a PERSISTED layout key: changing the
    #: count between ticks would route the same key to a different stored
    #: bucket and silently split its LWW state across compaction groups,
    #: so writers must validate against this (0 = unknown / pre-upgrade).
    num_buckets: int = 0
    #: bucket -> ordered list of run files (relative to runs/)
    buckets: dict[str, list[str]] = field(default_factory=dict)
    #: delta runs NOT yet bucket-partitioned (direct apply mode); each
    #: is internally collapsed per key and carries the bucket column;
    #: compaction folds them into per-bucket bases
    global_runs: list[str] = field(default_factory=list)
    #: derived sinks fed by the SAME consumed delta and committed in the
    #: SAME manifest publish (the reference's one-stream-two-sinks
    #: transaction, stream/Main.scala:16-19): view name -> run files of
    #: additive partials (reader/compaction sum-merges them)
    derived: dict[str, list[str]] = field(default_factory=dict)
    #: pending conditional table ops (stages/controls.py ControlOp
    #: dicts, lsn-sorted): committed with the data, applied by snapshot
    #: read/compaction at their lsn positions, dropped by the first
    #: compaction whose committed_lsn covers them
    control_ops: list[dict] = field(default_factory=list)
    #: WAL segment file names consumed by the txn that produced this
    wal_consumed: list[str] = field(default_factory=list)
    #: per-bucket + global metrics of the producing txn (U3 parity:
    #: MergeResult.rowsInserted/rowsUpdated printing)
    metrics: dict = field(default_factory=dict)
    parent: int | None = None

    def table_run_files(self) -> list[str]:
        """Run files of the MAIN table only (snapshot read/compaction)."""
        return [f for runs in self.buckets.values() for f in runs] \
            + list(self.global_runs)

    def run_files(self) -> list[str]:
        """Every referenced file, derived sinks included (GC roots)."""
        return (self.table_run_files()
                + [f for runs in self.derived.values() for f in runs])

    @property
    def rewrite(self) -> str | None:
        """The history rewrite this version committed ("erasure",
        "rollback", "compaction"), or None: its file diff is not a
        change stream."""
        if self.metrics.get("erasure") is not None:
            return "erasure"
        if self.metrics.get("rollback_to") is not None:
            return "rollback"
        if self.metrics.get("compaction"):
            return "compaction"
        return None


_UNSET = object()


class CommitConflict(RuntimeError):
    """A concurrent transaction committed the version this one was
    racing for; the loser's runs are unreferenced (GC-able) and the
    caller must reload table state and rebuild."""


class TableState:
    """Manifest bookkeeping for one lake table directory."""

    def __init__(self, table_dir: str, storage: "LocalStorage | None" = None):
        self.table_dir = table_dir
        self.storage = storage or DEFAULT_STORAGE
        self.manifest_dir = os.path.join(table_dir, "_manifest")
        self.runs_dir = os.path.join(table_dir, "runs")
        self.storage.makedirs(self.manifest_dir)
        self.storage.makedirs(self.runs_dir)

    # -- read side ---------------------------------------------------------
    def _latest_path(self) -> str:
        return os.path.join(self.manifest_dir, "LATEST")

    def latest_version(self) -> int | None:
        """Committed version. LATEST is an advisory cache: committers
        race to update it after the exclusive-create commit (see
        `publish`), so a reader probes FORWARD from the cached value --
        a version file's existence, not the pointer, is the truth."""
        try:
            v = int(self.storage.read_text(self._latest_path()).strip())
        except FileNotFoundError:
            if not self.storage.exists(os.path.join(self.manifest_dir,
                                                    "v0.json")):
                return None
            v = 0
        while self.storage.exists(os.path.join(self.manifest_dir,
                                               f"v{v + 1}.json")):
            v += 1
        return v

    def load(self, version: int) -> Manifest:
        data = self.storage.read_text(
            os.path.join(self.manifest_dir, f"v{version}.json"))
        return Manifest(**json.loads(data))

    def load_latest(self) -> Manifest:
        """The committed snapshot (empty manifest when none published)."""
        v = self.latest_version()
        if v is None:
            return Manifest()
        return self.load(v)

    def load_latest_versioned(self) -> "tuple[int | None, Manifest]":
        """(version, manifest) read consistently -- the version to pass
        as `publish(expected_parent=...)` so a transaction built on
        this state conflicts rather than committing over a concurrent
        writer's version."""
        v = self.latest_version()
        return v, (Manifest() if v is None else self.load(v))

    @property
    def committed_lsn(self) -> int:
        return self.load_latest().committed_lsn

    def run_paths(self, manifest: Manifest | None = None) -> list[str]:
        """Main-table run paths (derived-sink files excluded)."""
        m = manifest or self.load_latest()
        return [os.path.join(self.runs_dir, f) for f in m.table_run_files()]

    def derived_paths(self, view: str, manifest: Manifest | None = None) -> list[str]:
        m = manifest or self.load_latest()
        return [os.path.join(self.runs_dir, f) for f in m.derived.get(view, [])]

    def lineage(self) -> list[Manifest]:
        """Walk parent pointers from LATEST back to the first commit."""
        out: list[Manifest] = []
        v = self.latest_version()
        while v is not None:
            m = self.load(v)
            out.append(m)
            v = m.parent
        return out

    # -- write side --------------------------------------------------------
    def new_txn(self) -> str:
        return uuid.uuid4().hex[:12]

    def publish(self, manifest: Manifest,
                expected_parent: "int | None | object" = _UNSET) -> Manifest:
        """Atomically commit a new manifest version. This is the single
        commit point of the whole engine (COMMIT in the reference).

        Optimistic concurrency: the version file is created with
        link-exclusive semantics (write tmp, `os.link` to the final
        name -- fails atomically if it exists), so of two committers
        racing for the same successor version exactly one wins; the
        loser gets :class:`CommitConflict`, its runs stay unreferenced
        (GC-able, same as crash-before-commit) and it must re-read the
        table state and rebuild its transaction. `expected_parent` is
        the version the transaction's inputs were computed against
        (capture `latest_version()` at load time); a commit whose
        expectation is stale conflicts instead of silently building
        v(N+2) on data derived from v(N). Default (unset) re-reads
        latest -- correct for single-writer callers."""
        if expected_parent is _UNSET:
            expected_parent = self.latest_version()
        manifest.parent = expected_parent
        manifest.version = 0 if expected_parent is None \
            else expected_parent + 1
        final = os.path.join(self.manifest_dir, f"v{manifest.version}.json")
        try:
            # exactly-one-winner create (storage shim: os.link locally,
            # conditional PUT on object stores)
            self.storage.create_exclusive(
                final, json.dumps(asdict(manifest), indent=1))
        except FileExistsError:
            raise CommitConflict(
                f"manifest v{manifest.version} already committed by a "
                f"concurrent transaction (expected parent "
                f"{expected_parent}); reload table state and retry")
        # advisory fast-path pointer; stale values are healed by the
        # probe-forward in latest_version()
        self.storage.write_atomic(self._latest_path(), str(manifest.version))
        return manifest

    def gc_orphan_runs(self, keep_versions: int = 2,
                       min_age_s: float = 0.0) -> list[str]:
        """Delete run files not referenced by the last `keep_versions`
        manifests (aborted txns, superseded compactions).

        `min_age_s` spares files younger than that (by mtime): an
        unreferenced-but-fresh file may belong to a concurrent
        IN-FLIGHT transaction that has written its runs but not yet
        published -- sweeping it would let that commit succeed while
        naming deleted files. A deployment running GC alongside
        possible concurrent committers must set this well above the
        longest write-to-publish gap (run_loop uses
        `cfg.gc_min_age_s`); 0 keeps the single-writer behavior."""
        import time
        latest = self.latest_version()
        referenced: set[str] = set()
        if latest is not None:
            v: int | None = latest
            for _ in range(keep_versions):
                if v is None:
                    break
                m = self.load(v)
                referenced.update(m.run_files())
                v = m.parent
        removed = []
        cutoff = time.time() - min_age_s
        for name in self.storage.list(self.runs_dir):
            stale_tmp = ".tmp" in name
            if (name.endswith(".parquet") or stale_tmp) \
                    and name not in referenced:
                path = os.path.join(self.runs_dir, name)
                try:
                    if min_age_s and self.storage.mtime(path) > cutoff:
                        continue
                    self.storage.remove(path)
                except FileNotFoundError:
                    continue              # lost a race with another GC
                removed.append(name)
        return removed
