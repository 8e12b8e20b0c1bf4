"""The workloads, and the read-back every run ends with.

Both drive the engine through its public functions, from one
driver thread, the way `run_loop` does: `apply_tick` -> refresh of
`conv_live_stats` -> `compact` every K ticks. They differ in how the
WAL arrives and what the client does between writes:

* bulk_replay: closed batch. The whole WAL is due at once on an empty
  table; one tick folds it, the view refreshes in full, the table is
  compacted, read in full and read back with point lookups and a
  projected scan. Repeated on fresh tables until time is up.
* live_tail: open loop. Fixed-size segments fall due on a fixed
  schedule below the loop's capacity; each is timed from its due time.
  After the loop, the table is read back over a fixed number of delta
  runs: point lookups, projected scans, a compaction, full reads.

Every read result is checked against the oracle.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.sources.generate import GEN_CHUNK
from techtalk_data_pipeline_snowpark_ray.stages.partition import \
    hash_strings_arrow
from techtalk_data_pipeline_snowpark_ray.state.manifest import (Manifest,
                                                                 TableState)

from .inputs import (CANON_SCHEMA, KERNEL_ROWS, InputCache, Phase, canonical,
                     conv_rows, digest)

VIEW = "conv_live_stats"
#: ~4x the one core the benchmark is sized for, as EngineConfig advises;
#: more buckets on one core mostly add per-task overhead
NUM_BUCKETS = 4
SCAN_COLS = ["role", "tool"]
clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses; `full` is the benchmark, `smoke`
    the self-test. Chunks are generator chunks of GEN_CHUNK events."""
    bulk_chunks: int = 2
    bulk_segment_rows: int = 16_384
    base_chunks: int = 1            # the compacted start state
    base_segment_rows: int = 16_384
    tail_segment_rows: int = 256
    tail_period_s: float = 0.05     # one tail segment due every period
    compact_every: int = 8
    readback_ticks: int = 4     # delta runs live_tail's read-back reads over
    lookups: int = 100          # live_tail's read-back lookups
    scans: int = 3              # live_tail's read-back projected scans
    full_reads: int = 2         # live_tail's read-back snapshot reads
    rep_lookups: int = 20       # bulk_replay's lookups per rep


SIZES = {
    "full": Sizes(),
    "smoke": Sizes(bulk_chunks=1, tail_segment_rows=1_024, tail_period_s=0.2,
                   compact_every=3, readback_ticks=2, lookups=10, scans=1,
                   full_reads=1, rep_lookups=5),
}


def phases(workload: str, z: Sizes, seconds: float, trace: bool
           ) -> list[Phase]:
    """The workload's WAL, phase by phase. A traced run measures twice
    (untraced, then traced), so its tail is twice as long, and extends
    the stream with an unpublished `kernel` phase until it holds the
    stage-kernel batch; what the workload publishes is unchanged."""
    if workload == "bulk_replay":
        out = [Phase("all", z.bulk_chunks, z.bulk_segment_rows)]
    else:
        tail_events = ((2 if trace else 1) * int(seconds / z.tail_period_s)
                       + z.readback_ticks) * z.tail_segment_rows
        out = [Phase("base", z.base_chunks, z.base_segment_rows),
               Phase("tail", -(-tail_events // GEN_CHUNK), z.tail_segment_rows)]
    have = sum(p.chunks for p in out)
    need = -(-KERNEL_ROWS // GEN_CHUNK)
    if trace and have < need:
        out.append(Phase("kernel", need - have, z.base_segment_rows))
    return out


def engine_config(table_dir: str, wal_dir: str) -> EngineConfig:
    # direct apply set explicitly: EngineConfig's default is the
    # shuffle path, which the benchmark does not measure
    return EngineConfig(table_dir=table_dir, wal_dir=wal_dir,
                        num_buckets=NUM_BUCKETS, apply_mode="direct")


@dataclass
class Recorder:
    """Samples, counts and failure accounting of one measured phase."""
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def call(self, fn, *args, **kwargs):
        """One engine operation: (ok, result); an exception is a
        failed operation, reported on stderr."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:               # noqa: BLE001 -- counted, reported
            self.failed += 1
            traceback.print_exc()
            return False, None

    def check(self, ok: bool, what: str) -> None:
        """A result that disagrees with the oracle fails its operation."""
        if not ok:
            self.failed += 1
            print(f"perfbench: MISMATCH {what}", flush=True, file=sys.stderr)


@dataclass
class Run:
    """What a workload needs: its inputs, its work dir, the
    conversations its point lookups read, its tracer."""
    sizes: Sizes
    cache: InputCache
    work: str
    convs: list[str]
    tracer: object = None        # tracing.Tracer in a traced phase

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)


# -- engine operations shared by the workloads ---------------------------

def publish(run: Run, wal_dir: str, name: str) -> None:
    """Make one generated segment visible in a WAL dir (a hard link:
    one atomic directory entry, like a writer's rename)."""
    os.link(run.cache.segment_path(name), os.path.join(wal_dir, name))


def tick(rec: Recorder, cfg: EngineConfig):
    """apply_tick; records its wall time and events. Returns
    (commit time, result) or (None, None) on failure/idle."""
    t0 = clock()
    ok, res = rec.call(ingest.apply_tick, cfg)
    t1 = clock()
    if not ok or res is None:
        return None, None
    rec.count("ticks")
    rec.count("events", res.events_applied)
    rec.count("tick_s", t1 - t0)
    return t1, res


def refresh(rec: Recorder, cfg: EngineConfig):
    """Refresh the view; returns the time it became fresh, or None."""
    t0 = clock()
    ok, m = rec.call(matview.refresh_matview, cfg, VIEW)
    t1 = clock()
    if not ok:
        return None
    rec.add("refresh_s", t1 - t0)
    if m is not None:
        stats = m.metrics.get("matview_refresh", {})
        rec.count("refresh_" + stats.get("mode", "none"))
        if stats.get("mode") == "incremental":
            rec.add("affected_keys", stats.get("affected_keys", 0))
    return t1


def compact(rec: Recorder, cfg: EngineConfig, gc: bool) -> None:
    """Compaction (plus the orphan sweep `run_loop` does after it)."""
    before = set(TableState(cfg.table_dir).load_latest().table_run_files())
    t0 = clock()
    ok, m = rec.call(ingest.compact, cfg)
    t1 = clock()
    if not ok or m is None:
        return
    rec.add("compact_s", t1 - t0)
    rec.add("compact_rows_out", m.metrics.get("live_rows", 0))
    runs_dir = TableState(cfg.table_dir).runs_dir
    rec.add("compact_bytes", sum(
        os.path.getsize(os.path.join(runs_dir, f))
        for f in m.table_run_files() if f not in before))
    if gc:
        rec.call(TableState(cfg.table_dir).gc_orphan_runs,
                 keep_versions=cfg.gc_keep_versions,
                 min_age_s=cfg.gc_min_age_s)


def materialize(ds) -> pa.Table:
    import ray
    return pa.concat_tables(ray.get(ds.to_arrow_refs()),
                            promote_options="default")


def read_full(run: Run, rec: Recorder, cfg: EngineConfig):
    t0 = clock()
    with run.span("ingest.read_snapshot"):
        ok, snap = rec.call(lambda: materialize(ingest.read_snapshot(cfg)))
    if ok:
        rec.add("snapshot_read_s", clock() - t0)
    return snap


def read_scan(run: Run, rec: Recorder, cfg: EngineConfig):
    t0 = clock()
    with run.span("ingest.read_snapshot", columns=len(SCAN_COLS)):
        ok, snap = rec.call(lambda: materialize(
            ingest.read_snapshot(cfg, columns=SCAN_COLS)))
    if ok:
        rec.add("scan_s", clock() - t0)
    return snap


def lookup(run: Run, rec: Recorder, cfg: EngineConfig, conv: str,
           manifest: Manifest | None):
    if run.tracer is not None and manifest is not None:
        rec.add("lookup_files", files_for(manifest, conv))
    t0 = clock()
    ok, df = rec.call(ingest.read_conversation, cfg, conv)
    if ok:
        rec.add("lookup_s", clock() - t0)
    return df if ok else None


def bucket_of(conv: str) -> int:
    """The stored bucket of a conversation (the engine's layout key)."""
    return int(hash_strings_arrow(pa.array([conv]))[0]
               % np.uint64(NUM_BUCKETS))


def files_for(m: Manifest, conv: str) -> int:
    """Run files a point lookup of `conv` scans under manifest `m`."""
    return len(m.buckets.get(str(bucket_of(conv)), [])) + len(m.global_runs)


def table_stats(cfg: EngineConfig) -> dict:
    st = TableState(cfg.table_dir)
    v, m = st.load_latest_versioned()
    live = m.table_run_files()
    return {"versions": (v or 0) + 1,
            "manifest_bytes": os.path.getsize(
                os.path.join(st.manifest_dir, f"v{v}.json")),
            "live_files": len(live), "global_runs": len(m.global_runs),
            "table_bytes": sum(os.path.getsize(os.path.join(st.runs_dir, f))
                               for f in live)}


# -- checks against the oracle -------------------------------------------

def same_rows(actual: pa.Table, expected: pa.Table, cols: list[str]) -> bool:
    keys = list(schemas.KEY_COLS)
    want = pa.schema([CANON_SCHEMA.field(c) for c in keys + cols])
    a = actual.select(want.names).cast(want) \
        .sort_by([(k, "ascending") for k in keys]).combine_chunks()
    return a.equals(expected.select(want.names).combine_chunks())


def view_rows(t: pa.Table) -> pa.Table:
    want = matview.MATVIEWS[VIEW].empty_result().schema
    return t.select(want.names).cast(want).sort_by("conv_id").combine_chunks()


@dataclass
class ReadBack:
    """Results of the read-back, held until the oracle is at hand."""
    lookups: list = field(default_factory=list)    # (conv, frame)
    scans: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    view: pa.Table | None = None


def read_back(run: Run, rec: Recorder, cfg: EngineConfig) -> ReadBack:
    """live_tail's read-back: lookups and projected scans over a
    compacted base plus delta runs, then a compaction, full snapshot
    reads and the view."""
    z, out = run.sizes, ReadBack()
    m = TableState(cfg.table_dir).load_latest()
    for conv in run.convs[:z.lookups]:
        out.lookups.append((conv, lookup(run, rec, cfg, conv, m)))
    for _ in range(z.scans):
        out.scans.append(read_scan(run, rec, cfg))
    compact(rec, cfg, gc=True)
    for _ in range(z.full_reads):
        out.snapshots.append(read_full(run, rec, cfg))
    out.view = read_view(rec, cfg)
    record_bytes_per_row(rec, cfg, out.snapshots[-1])
    return out


def read_view(rec: Recorder, cfg: EngineConfig) -> pa.Table | None:
    ok, v = rec.call(lambda: materialize(matview.read_matview(cfg, VIEW)))
    return v if ok else None


def record_bytes_per_row(rec: Recorder, cfg: EngineConfig,
                         snap: pa.Table | None) -> None:
    """Bytes of the (compacted) table's live run files per live row."""
    if snap is None or not snap.num_rows:
        return
    st = TableState(cfg.table_dir)
    rec.add("bytes_per_row", sum(
        os.path.getsize(os.path.join(st.runs_dir, f))
        for f in st.load_latest().table_run_files()) / snap.num_rows)


def verify(rec: Recorder, rb: ReadBack, expected: pa.Table, want: str) -> None:
    """Check every read-back result against the oracle's final table."""
    for snap in rb.snapshots:
        if snap is not None:
            rec.check(digest(canonical(snap)) == want,
                      "full snapshot differs from the oracle")
    for s in rb.scans:
        if s is not None:
            check_scan(rec, s, expected)
    check_lookups(rec, rb.lookups, expected)
    if rb.view is not None:
        rec.check(view_rows(rb.view).equals(
            view_rows(matview.MATVIEWS[VIEW].agg(expected))),
            f"{VIEW} differs from a full recompute over the oracle")


def check_scan(rec: Recorder, scan: pa.Table, expected: pa.Table) -> None:
    rec.check(same_rows(scan, expected.select([*schemas.KEY_COLS, *SCAN_COLS]),
                        SCAN_COLS), "projected scan differs from the oracle")


def check_lookups(rec: Recorder, lookups, expected: pa.Table) -> None:
    where = conv_rows(expected)
    payload = [c for c in CANON_SCHEMA.names if c not in schemas.KEY_COLS]
    for conv, df in lookups:
        if df is None:
            continue
        off, n = where.get(conv, (0, 0))
        got = pa.Table.from_pandas(df, schema=CANON_SCHEMA,
                                   preserve_index=False)
        rec.check(same_rows(got, expected.slice(off, n), payload),
                  f"lookup of {conv} differs from the oracle")


# -- prepared start states -----------------------------------------------

def prepared_table(run: Run, phase: str) -> str:
    """A table built untimed from one phase of the WAL: replayed,
    compacted, its view refreshed. Cached with the inputs; runs copy
    it."""
    dest = os.path.join(run.cache.dir, "prepared")
    if os.path.exists(os.path.join(dest, "_complete")):
        return dest
    tmp = dest + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    cfg = engine_config(os.path.join(tmp, "table"), os.path.join(tmp, "wal"))
    cfg.ensure_dirs()
    for name in run.cache.segments()[phase]:
        publish(run, cfg.wal_dir, name)
    while ingest.apply_tick(cfg) is not None:
        pass
    ingest.compact(cfg)
    matview.refresh_matview(cfg, VIEW)
    TableState(cfg.table_dir).gc_orphan_runs(keep_versions=1)
    shutil.rmtree(cfg.wal_dir)
    with open(os.path.join(tmp, "_complete"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(dest, ignore_errors=True)
    os.replace(tmp, dest)
    return dest


def fresh_copy(run: Run, prepared: str, tag: str) -> EngineConfig:
    d = os.path.join(run.work, tag)
    shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(os.path.join(prepared, "table"), os.path.join(d, "table"))
    cfg = engine_config(os.path.join(d, "table"), os.path.join(d, "wal"))
    cfg.ensure_dirs()
    return cfg


# -- bulk_replay -----------------------------------------------------------

class BulkReplay:
    """Closed batch: reps of replay -> view -> compact -> full read, each
    on a fresh table over the whole WAL, until time is up."""

    def __init__(self, run: Run):
        self.run = run
        self.names = run.cache.segments()["all"]
        self.expected, self.digest = run.cache.expected(self.names)
        self.reps = 0
        self.cfg: EngineConfig | None = None

    def prepare(self) -> None:
        # the replayed WAL: this phase's segments only (a traced run's
        # stream holds more, for the stage kernels)
        self.wal_dir = os.path.join(self.run.work, "wal")
        os.makedirs(self.wal_dir)
        for name in self.names:
            publish(self.run, self.wal_dir, name)

    def main(self, rec: Recorder, seconds: float) -> None:
        end = clock() + seconds
        while True:
            self.rep(rec)
            if clock() >= end:
                break

    def rep(self, rec: Recorder) -> None:
        run = self.run
        self.reps += 1
        d = os.path.join(run.work, f"rep{self.reps}")
        cfg = engine_config(os.path.join(d, "table"), self.wal_dir)
        cfg.ensure_dirs()
        self.cfg = cfg
        rec.high("backlog_segments", len(self.names))
        due = clock()               # the whole WAL is due at once
        committed = 0
        while True:
            t_commit, res = tick(rec, cfg)
            if res is None:
                break
            for _ in range(res.segments_consumed):
                rec.add("commit_s", t_commit - due)
            committed += res.segments_consumed
            t_view = refresh(rec, cfg)
            if t_view is not None:
                for _ in range(res.segments_consumed):
                    rec.add("view_s", t_view - due)
        rec.check(committed == len(self.names),
                  f"replay consumed {committed} of {len(self.names)} segments")
        compact(rec, cfg, gc=False)
        snap = read_full(run, rec, cfg)
        if snap is not None:
            rec.check(digest(canonical(snap)) == self.digest,
                      "replayed snapshot differs from the oracle")
        record_bytes_per_row(rec, cfg, snap)
        # the rep's read-back, checked at once (the oracle is cached);
        # spread over the reps, reads sample the whole run
        z, m = run.sizes, TableState(cfg.table_dir).load_latest()
        first = (self.reps - 1) * z.rep_lookups
        lookups = [(c, lookup(run, rec, cfg, c, m))
                   for c in run.convs[first:first + z.rep_lookups]]
        check_lookups(rec, lookups, self.expected)
        scan = read_scan(run, rec, cfg)
        if scan is not None:
            check_scan(rec, scan, self.expected)
        if self.reps > 1:           # keep only the latest rep's table
            shutil.rmtree(os.path.join(run.work, f"rep{self.reps - 1}"),
                          ignore_errors=True)

    def read_back(self, rec: Recorder) -> ReadBack:
        # every rep already read its table back; only the view is left
        return ReadBack(view=read_view(rec, self.cfg))

    def final_expected(self) -> tuple[pa.Table, str]:
        return self.expected, self.digest


# -- live_tail -------------------------------------------------------------

class LiveTail:
    """Open loop: tail segment i falls due at t0 + i * period; each loop
    iteration publishes every due segment, ticks, refreshes the view,
    and compacts every K ticks. Latency is timed from due time."""

    def __init__(self, run: Run):
        self.run = run
        segs = run.cache.segments()
        self.base, self.tail = segs["base"], segs["tail"]
        self.next = 0               # first tail segment not yet published
        self.ticks = 0

    def prepare(self) -> None:
        prepared = prepared_table(self.run, "base")
        self.cfg = fresh_copy(self.run, prepared, "table")

    def main(self, rec: Recorder, seconds: float) -> None:
        run, cfg, z = self.run, self.cfg, self.run.sizes
        n_due = int(seconds / z.tail_period_s)
        first = self.next
        if first + n_due > len(self.tail):
            raise RuntimeError(
                f"tail pool holds {len(self.tail)} segments; "
                f"{first + n_due} needed")
        t0 = clock() + z.tail_period_s
        due = [t0 + i * z.tail_period_s for i in range(n_due)]
        published = consumed = failures = 0
        while consumed < n_due:
            now = clock()
            while published < n_due and due[published] <= now:
                publish(run, cfg.wal_dir, self.tail[first + published])
                rec.high("generator_lag_s", clock() - due[published])
                published += 1
            if published == consumed:
                time.sleep(max(0.0, due[published] - clock()))
                continue
            rec.high("backlog_segments", published - consumed)
            t_commit, res = tick(rec, cfg)
            if res is None:         # failed: the next tick retries it
                failures += 1
                if failures == 3:
                    raise RuntimeError("three ticks in a row failed")
                continue
            failures = 0
            done = range(consumed, consumed + res.segments_consumed)
            for i in done:
                rec.add("commit_s", t_commit - due[i])
            consumed += res.segments_consumed
            t_view = refresh(rec, cfg)
            if t_view is not None:
                for i in done:
                    rec.add("view_s", t_view - due[i])
            self.ticks += 1
            if self.ticks % z.compact_every == 0:
                compact(rec, cfg, gc=True)
        self.next = first + n_due

    def read_back(self, rec: Recorder) -> ReadBack:
        # a read state that does not depend on where the loop stopped:
        # its leftover deltas compacted, then `readback_ticks` delta runs
        # of one segment each (these operations are not timed)
        run, cfg, z = self.run, self.cfg, self.run.sizes
        rec.call(ingest.compact, cfg)
        for name in self.tail[self.next:self.next + z.readback_ticks]:
            publish(run, cfg.wal_dir, name)
            rec.call(ingest.apply_tick, cfg)
        self.next += z.readback_ticks
        rec.call(matview.refresh_matview, cfg, VIEW)
        return read_back(run, rec, cfg)

    def final_expected(self) -> tuple[pa.Table, str]:
        return self.run.cache.expected(self.base + self.tail[:self.next])


WORKLOADS = {"bulk_replay": BulkReplay, "live_tail": LiveTail}
