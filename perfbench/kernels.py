"""Single-process CPU time of the `stages` kernels.

The ingest kernels run in Ray workers, out of the driver's sight, so
the traced run times them here, in the driver, on one fixed batch: the
first `KERNEL_ROWS` change records of the workload's WAL, scanned the
way a direct-apply task scans its segments. The read-side resolve runs
on one bucket's run rows (the bucket of the hottest conversation).

Each kernel runs `REPEATS` times; the median CPU time (all threads of
the process, `time.process_time`) is reported.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.pipelines.ingest import (
    RUN_COLS_FIXED, DirectApplier)
from techtalk_data_pipeline_snowpark_ray.stages.apply import (fold_table,
                                                              resolve_final)
from techtalk_data_pipeline_snowpark_ray.stages.normalize import \
    SchemaNormalizer
from techtalk_data_pipeline_snowpark_ray.stages.partition import (
    BUCKET_COL, KEY_HASH_COL, Partitioner, key_hash)
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState

from .inputs import KERNEL_ROWS
from .workloads import bucket_of

REPEATS = 3
VERSION = schemas.CURRENT_VERSION
PAYLOAD = schemas.payload_cols(VERSION)


def cpu_ms(fn, *args):
    """(median CPU ms over REPEATS calls, last result)."""
    times, out = [], None
    for _ in range(REPEATS):
        t0 = time.process_time()
        out = fn(*args)
        times.append((time.process_time() - t0) * 1e3)
    return statistics.median(times), out


def kernel_batch(paths: list[str]) -> pa.Table:
    """The first KERNEL_ROWS records of the WAL, read like
    `DirectApplier`'s per-task scan."""
    tables, rows = [], 0
    for p in paths:
        t = pads.dataset([p], format="parquet",
                         schema=schemas.change_schema(VERSION)) \
            .to_table(use_threads=False)
        tables.append(t)
        rows += t.num_rows
        if rows >= KERNEL_ROWS:
            break
    return pa.concat_tables(tables).slice(0, KERNEL_ROWS).combine_chunks()


def run_order(out: pa.Table) -> pa.Table:
    """The run ordering `DirectApplier` applies to a folded batch
    before writing it: (bucket, key hash, lsn)."""
    okh = key_hash(out["conv_id"], out["turn_idx"].to_numpy(
        zero_copy_only=False))
    return out.take(pa.array(np.lexsort((
        out[schemas.LSN_COL].to_numpy(zero_copy_only=False), okh,
        out[BUCKET_COL].to_numpy(zero_copy_only=False)))))


def ingest_kernels(paths: list[str], num_buckets: int, scratch: str) -> dict:
    raw = kernel_batch(paths)
    normalizer = SchemaNormalizer(schemas.table_schema(VERSION),
                                  keep_extra=(schemas.LSN_COL, schemas.OP_COL))
    partitioner = Partitioner(num_buckets, 1, None, include_key_hash=True)
    out = {}
    out["normalize"], norm = cpu_ms(normalizer, raw)
    out["partition"], part = cpu_ms(partitioner, norm)
    turn = part["turn_idx"].to_numpy(zero_copy_only=False)
    out["key_hash"], _ = cpu_ms(key_hash, part["conv_id"], turn)
    kh = part[KEY_HASH_COL].to_numpy(zero_copy_only=False)
    out["fold_table"], folded = cpu_ms(
        fold_table, part.select(RUN_COLS_FIXED + PAYLOAD), PAYLOAD, kh)
    out["run_order"], ordered = cpu_ms(run_order, folded)
    path = os.path.join(scratch, "kernel-run.parquet")
    out["parquet_write"], _ = cpu_ms(
        lambda: pq.write_table(ordered, path, compression="zstd"))
    os.makedirs(os.path.join(scratch, "kernel-runs"), exist_ok=True)
    applier = DirectApplier(os.path.join(scratch, "kernel-runs"), "kernel",
                            PAYLOAD, pre_stages=(normalizer, partitioner))
    out["apply_one"], _ = cpu_ms(applier, raw)
    out["fold_ratio"] = folded.num_rows / raw.num_rows
    return out


def bucket_runs(table_dir: str) -> pa.Table:
    """Every run row of the hottest conversation's bucket in the
    committed table: its bucket files plus its slice of delta runs."""
    st = TableState(table_dir)
    m = st.load_latest()
    b = bucket_of("conv-0000000")
    files = list(m.buckets.get(str(b), [])) + list(m.global_runs)
    cols = [*RUN_COLS_FIXED, *PAYLOAD]
    return pa.concat_tables(
        [pq.read_table(os.path.join(st.runs_dir, f), columns=cols,
                       filters=[(BUCKET_COL, "=", b)]) for f in files],
        promote_options="default")


def resolve_kernel(runs: pa.Table) -> float:
    """CPU ms of the read path's per-bucket resolve: to pandas, LWW
    fold and tombstone drop (`resolve_final`), back to Arrow."""
    final_cols = [*schemas.KEY_COLS, *PAYLOAD]

    def resolve():
        out = resolve_final(runs.to_pandas(), PAYLOAD)
        return pa.Table.from_pandas(out[final_cols], preserve_index=False)

    ms, _ = cpu_ms(resolve)
    return ms
