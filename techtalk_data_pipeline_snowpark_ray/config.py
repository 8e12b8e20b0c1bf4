"""Engine configuration.

Reference parity: the reference indirects every object name through a
YAML config (``ConfigUtils.scala:24-84``, ``conf.yml:8-42``). We keep a
single dataclass (optionally loadable from YAML-ish dict) holding
directories, partitioning parameters and tuning knobs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict


@dataclass
class EngineConfig:
    # --- layout -----------------------------------------------------------
    #: root directory of the lake table (runs/ + _manifest/ live under it)
    table_dir: str = "/tmp/ttdps/table"
    #: directory of WAL/binlog segments (append-only parquet files)
    wal_dir: str = "/tmp/ttdps/wal"

    # --- partitioning -----------------------------------------------------
    #: number of hash buckets over conv_id. The unit of key-exclusive apply
    #: and of compaction (one fold task per bucket). On a real cluster size
    #: this to ~2-4x total cores so stragglers rebalance; a bucket's live
    #: rows must fit one worker's heap.
    num_buckets: int = 32

    # --- execution --------------------------------------------------------
    #: rows per fold/write unit in direct apply mode. Ray's parquet read
    #: can emit many small blocks (one per row group); coalescing them to
    #: ~256k rows (~65MB of transcript) per applier call cuts run-file
    #: count ~20x, improves the within-task fold ratio, and measured
    #: 3.8x faster compaction at 96M events -- while one batch x workers
    #: still fits comfortably in worker heaps. Size DOWN for fat rows.
    direct_batch_rows: int = 262144
    #: target schema version to normalize to (see schemas.REGISTRY).
    schema_version: int = 3
    #: apply strategy; "direct" is the only accepted value (each task
    #: folds its lsn-interval batch and writes a sorted delta run
    #: straight to storage; cross-run resolution is left to compaction
    #: and snapshot reads). The field stays because callers still set it.
    apply_mode: str = "direct"
    #: NAMED derived views maintained alongside the table (see
    #: pipelines/derived.py registry, e.g. "conv_stats") -- all fed by
    #: the same consumed delta, all committed in the same atomic
    #: manifest publish as the main table (the reference's
    #: one-stream-two-sinks transaction, stream/Main.scala).
    derived_views: tuple = ()
    #: MATERIALIZED aggregate views over the RESOLVED table state
    #: (pipelines/matview.py registry), refreshed delta-proportionally
    #: by run_loop after every tick (retraction-aware; each refresh is
    #: its own manifest commit pinned to the tick's version).
    matviews: tuple = ()

    #: bad-record policy for WAL change records (stages/validate.py):
    #: "none" trusts the producer (zero hot-path cost; the engine's own
    #: WalWriter is schema-checked), "fail" raises loudly on the first
    #: malformed record (tick rolls back, WAL unconsumed), "quarantine"
    #: diverts malformed rows to <table_dir>/_quarantine and proceeds.
    bad_record_policy: str = "none"

    #: compact automatically when the committed table's run-file count
    #: exceeds this (0 disables). The production trigger: backlog-based,
    #: so compaction cost tracks ingest volume instead of tick count
    #: (run_loop's `compact_every` remains the simpler cadence knob).
    auto_compact_runs: int = 0

    #: optimistic-concurrency retry budget of the one commit driver
    #: (state/commit.py): when a commit loses the version race
    #: (state/manifest.py CommitConflict) and every winner COMMUTES
    #: with it by the driver's conflict table (a tick or replication
    #: window vs a compaction or another replication window, a
    #: compaction vs appends), the loser's actions are re-applied to
    #: the new latest and re-published up to this many times, reusing
    #: its already-written run files. An erasure (and a view refresh
    #: in run_loop) recomputes instead, within the same budget.
    #: Non-commutable conflicts (two ticks consuming the same WAL
    #: window, competing compactions, layout migrations) raise
    #: regardless. 0 restores raise-on-first-conflict.
    commit_retries: int = 3

    #: minimum age (seconds, by mtime) before the GC may delete an
    #: unreferenced run file. Protects a concurrent committer's
    #: written-but-not-yet-published runs from being swept; size it
    #: above the longest write-to-publish gap. 0 = single-writer mode.
    gc_min_age_s: float = 0.0

    #: manifest versions whose run files the post-compaction GC keeps
    #: (time-travel / in-flight-reader retention window). Orphans from
    #: aborted txns and superseded compactions older than this are
    #: deleted by run_loop after each compaction.
    gc_keep_versions: int = 2

    # --- generator / determinism -----------------------------------------
    seed: int = 42

    # --- misc -------------------------------------------------------------
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.apply_mode != "direct":
            raise ValueError(
                f"apply_mode={self.apply_mode!r}: only 'direct' is "
                "supported (shuffle mode was removed)")

    @property
    def runs_dir(self) -> str:
        return os.path.join(self.table_dir, "runs")

    @property
    def manifest_dir(self) -> str:
        return os.path.join(self.table_dir, "_manifest")

    @property
    def tmp_dir(self) -> str:
        # staging area for uncommitted writes (the `_tmp/<txn>` of the
        # commit protocol; analogue of autocommit-off DML before COMMIT).
        return os.path.join(self.table_dir, "_tmp")

    def ensure_dirs(self) -> None:
        for d in (self.table_dir, self.wal_dir, self.runs_dir,
                  self.manifest_dir, self.tmp_dir):
            os.makedirs(d, exist_ok=True)

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=str)

    @classmethod
    def from_yaml(cls, path: str) -> "EngineConfig":
        """Load a config file — the reference's core ergonomic of
        indirecting every table/stage name and knob through one
        editable YAML (``ConfigUtils.scala:24-84``, ``conf.yml:8-42``).

        Accepts kebab-case or snake_case keys (the reference uses
        kebab-case), coerces YAML lists to the tuples the dataclass
        declares, and fails loudly on unknown keys, so a typo'd knob
        can't silently run with the default. Ships with
        `conf.example.yml` at the repo root."""
        import yaml
        with open(path) as f:
            raw = yaml.safe_load(f) or {}
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: top level must be a mapping, "
                             f"got {type(raw).__name__}")
        d = {str(k).replace("-", "_"): v for k, v in raw.items()}
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(
                f"{path}: unknown config key(s) {unknown}; "
                f"known: {sorted(known)}")
        for k in ("derived_views", "matviews"):
            v = d.get(k)
            if isinstance(v, str):       # scalar for a one-view list
                d[k] = (v,)
            elif isinstance(v, list):
                d[k] = tuple(v)
            elif k in d and v is None:
                # explicit empty YAML value ("derived_views:") means
                # no views — leaving None would crash run_loop later
                # with a bare TypeError instead of loading cleanly
                d[k] = ()
            elif v is not None and not isinstance(v, tuple):
                raise ValueError(
                    f"{path}: {k} must be a list of view names, "
                    f"got {type(v).__name__}")
        return cls(**d)
