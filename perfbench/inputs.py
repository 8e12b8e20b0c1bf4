"""Seeded benchmark inputs: the workload's WAL, its oracle expectation,
and the on-disk cache that keeps both across runs.

Every workload's WAL is one `sources.generate` stream with the
`bench.py` spec shape (zipf 1.2 over conversations, 256-event disorder
window, 1% duplicates, 20% partial updates, 200-char text, v1 -> v2 ->
v3 schema change), cut into phases of different segment sizes. Phases
start on generator chunk boundaries (`GEN_CHUNK` events), so a phase's
events never straddle a segment of the next phase, and the content of
chunk *i* depends only on (seed, i).

Expectations come from `state/oracle.py` (the naive dict replay),
never from engine code. Tables are compared in a canonical form:
v3 columns in order, fixed types, sorted by (conv_id, turn_idx).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GEN_CHUNK, GenSpec, generate_chunks)
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.stages.normalize import normalize_batch
from techtalk_data_pipeline_snowpark_ray.state.oracle import apply_events_oracle

#: rows of the single-process stage-kernel batch (the engine's
#: `direct_batch_rows` unit); every workload's WAL holds at least this
KERNEL_ROWS = 262_144
N_CONVERSATIONS = 50_000
ZIPF_S = 1.2
PAYLOAD = schemas.payload_cols(schemas.CURRENT_VERSION)
CANON_SCHEMA = schemas.table_schema(schemas.CURRENT_VERSION)
COMPLETE = "_complete"


@dataclass(frozen=True)
class Phase:
    """A run of generator chunks written with one segment size."""
    name: str
    chunks: int
    segment_rows: int


def bench_spec(n_events: int, schema_span: int, seed: int) -> GenSpec:
    """`bench.py`'s spec shape; the v2 column add and the v3 widen fall
    at 30% and 70% of the first `schema_span` events."""
    return GenSpec(
        n_events=n_events, n_conversations=N_CONVERSATIONS, max_turns=100,
        zipf_s=ZIPF_S, ooo_window=256, dup_fraction=0.01,
        partial_update_fraction=0.2, text_len=200,
        schema_add_at=int(schema_span * 0.3),
        schema_widen_at=int(schema_span * 0.7), seed=seed)


def write_phased_wal(wal_dir: str, phases: list[Phase], seed: int
                     ) -> dict[str, list[str]]:
    """Generate the stream and write each phase with its own segment
    size. Returns phase name -> segment file names in seq order."""
    n_chunks = sum(p.chunks for p in phases)
    spec = bench_spec(n_chunks * GEN_CHUNK, phases[0].chunks * GEN_CHUNK, seed)
    owner = [p for p in phases for _ in range(p.chunks)]
    w = WalWriter(wal_dir, segment_rows=phases[0].segment_rows,
                  reorder_slack=max(2 * spec.ooo_window, 64))
    names: dict[str, list[str]] = {}
    current, first = phases[0], 0
    for table, version in generate_chunks(spec):
        phase = owner[int(table["lsn"][0].as_py()) // GEN_CHUNK]
        if phase is not current:
            # chunk boundary: every event of earlier chunks precedes
            # every event of this one, so the cut keeps the WAL's
            # disjoint-interval contract
            w.flush()
            names[current.name] = [s.name for s in w.segments[first:]]
            current, first = phase, len(w.segments)
            w.segment_rows = phase.segment_rows
        w.append(table, version)
    w.close()
    names[current.name] = [s.name for s in w.segments[first:]]
    return names


def read_events(paths: list[str]) -> pa.Table:
    """WAL segments as change records normalized to the current schema."""
    target = schemas.table_schema(schemas.CURRENT_VERSION)
    return pa.concat_tables([
        normalize_batch(pq.read_table(p), target,
                        keep_extra=(schemas.LSN_COL, schemas.OP_COL))
        for p in paths])


def canonical(table: pa.Table) -> pa.Table:
    """Fixed column order and types, sorted by (conv_id, turn_idx)."""
    t = table.select(CANON_SCHEMA.names).cast(CANON_SCHEMA)
    return t.sort_by([("conv_id", "ascending"),
                      ("turn_idx", "ascending")]).combine_chunks()


def oracle_table(paths: list[str]) -> pa.Table:
    """The oracle's final table after replaying `paths`, canonical."""
    df = apply_events_oracle(read_events(paths), PAYLOAD)
    return canonical(pa.Table.from_pandas(df, schema=CANON_SCHEMA,
                                          preserve_index=False))


def digest(table: pa.Table) -> str:
    """Order-sensitive content digest of a canonical table."""
    rows = pd.util.hash_pandas_object(table.to_pandas(), index=False)
    h = hashlib.sha256(str(table.num_rows).encode())
    h.update(rows.to_numpy().tobytes())
    return h.hexdigest()


def conv_rows(expected: pa.Table) -> dict[str, tuple[int, int]]:
    """conv_id -> (offset, length) of its rows in a canonical table."""
    conv = expected["conv_id"].to_numpy(zero_copy_only=False)
    if not len(conv):
        return {}
    starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
    ends = np.r_[starts[1:], len(conv)]
    return {conv[s]: (int(s), int(e - s)) for s, e in zip(starts, ends)}


def zipf_conv_ids(seed: int, n: int) -> list[str]:
    """`n` conversation ids drawn with the generator's popularity law
    (rank r has weight r^-1.2), so hot conversations are read most."""
    w = np.arange(1, N_CONVERSATIONS + 1, dtype=np.float64) ** -ZIPF_S
    idx = np.random.default_rng([seed, 0x5EED]).choice(
        N_CONVERSATIONS, size=n, p=w / w.sum())
    # the generator's id format for <= 10M conversations
    return [f"conv-{i:07d}" for i in idx]


class InputCache:
    """One cache entry per (workload, seed, size) under `root`. An
    entry is valid only once its `_complete` marker exists; anything
    else there is a leftover of an interrupted build and is rebuilt."""

    def __init__(self, root: str, key: str):
        self.dir = os.path.join(root, key)
        self.wal_dir = os.path.join(self.dir, "wal")

    @property
    def complete(self) -> bool:
        return os.path.exists(os.path.join(self.dir, COMPLETE))

    def build(self, phases: list[Phase], seed: int,
              expect_phases: tuple[str, ...]) -> None:
        """Write the WAL and the oracle expectation over the segments
        of `expect_phases` (leading phases of the WAL)."""
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.wal_dir)
        index = write_phased_wal(self.wal_dir, phases, seed)
        self._write_json("segments.json", index)
        if expect_phases:
            self.write_expected([n for p in expect_phases for n in index[p]])
        self._write_json(COMPLETE, {"seed": seed})

    def segments(self) -> dict[str, list[str]]:
        with open(os.path.join(self.dir, "segments.json")) as f:
            return json.load(f)

    def segment_path(self, name: str) -> str:
        return os.path.join(self.wal_dir, name)

    def expected_files(self, n_segments: int) -> tuple[str, str]:
        """(metadata json with digest and rows, canonical table parquet)
        of the expectation over the first `n_segments` WAL segments."""
        stem = os.path.join(self.dir, f"expected-{n_segments}")
        return stem + ".json", stem + ".parquet"

    def write_expected(self, names: list[str]) -> None:
        meta, data = self.expected_files(len(names))
        exp = oracle_table([self.segment_path(n) for n in names])
        pq.write_table(exp, data + ".tmp")
        os.replace(data + ".tmp", data)
        self._write_json(os.path.basename(meta),
                         {"digest": digest(exp), "rows": exp.num_rows})

    def expected(self, names: list[str]) -> tuple[pa.Table, str]:
        """(canonical table, digest) of the oracle over `names`, a
        seq-order prefix of the WAL, computed on first use. The
        recorded digest is what a snapshot must match."""
        meta, data = self.expected_files(len(names))
        if not os.path.exists(meta):
            self.write_expected(names)
        with open(meta) as f:
            return pq.read_table(data), json.load(f)["digest"]

    def _write_json(self, name: str, obj) -> None:
        tmp = os.path.join(self.dir, f".{name}.tmp")
        with open(tmp, "w") as f:
            json.dump(obj, f)
        os.replace(tmp, os.path.join(self.dir, name))


if __name__ == "__main__":
    # python -m perfbench.inputs '<json spec>': build one cache entry in
    # its own process, so the driver's peak RSS excludes generation and
    # the oracle
    import sys
    spec = json.loads(sys.argv[1])
    cache = InputCache(os.path.dirname(spec["dir"]),
                       os.path.basename(spec["dir"]))
    cache.build([Phase(**p) for p in spec["phases"]], spec["seed"],
                tuple(spec["expect"]))
