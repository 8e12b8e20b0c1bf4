"""Run-file writer tests: `state.storage.write_run`'s round trip and
column encodings, tables that mix runs written with pyarrow's default
encodings and `write_run`'s, and the one-writer guard."""

import ast
import glob
import os
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import techtalk_data_pipeline_snowpark_ray as pkg
from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, generate_chunks, write_wal)
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState
from techtalk_data_pipeline_snowpark_ray.state.storage import write_run

from test_engine_e2e import TINY, assert_matches_oracle
from test_matview import MV, assert_view_matches


def _run_table(version: int, n: int) -> pa.Table:
    """A delta-run-shaped table at schema `version`: bookkeeping
    columns plus the payload, with nulls in every payload column and
    `tool` all null."""
    rng = np.random.default_rng(version)
    cols = {"bucket": pa.array(rng.integers(0, 4, n), pa.int32()),
            schemas.LSN_COL: pa.array(np.arange(n) * 3, pa.int64()),
            schemas.OP_COL: pa.array(rng.choice(["full", "partial"], n))}
    for f in schemas.table_schema(version):
        if f.name == "tool":
            cols[f.name] = pa.nulls(n, f.type)
        elif pa.types.is_string(f.type):
            vals = [None if i % 5 == 0 else f"{f.name}-{i % 7}-{i}"
                    if f.name == "text" else f"{f.name}-{i % 3}"
                    for i in range(n)]
            cols[f.name] = pa.array(vals, f.type)
        elif pa.types.is_timestamp(f.type):
            cols[f.name] = pa.array(
                [None if i % 4 == 0 else 1_700_000_000_000_000 + i
                 for i in range(n)], f.type)
        else:
            cols[f.name] = pa.array(
                [None if i % 6 == 0 else i % 50 for i in range(n)], f.type)
    return pa.table(cols)


def _encodings(path: str) -> dict[str, set[str]]:
    md = pq.ParquetFile(path).metadata
    out: dict[str, set[str]] = {}
    for rg in range(md.num_row_groups):
        for i in range(md.num_columns):
            c = md.row_group(rg).column(i)
            out.setdefault(c.path_in_schema, set()).update(c.encodings)
    return out


@pytest.mark.parametrize("version", [1, 2])
def test_write_run_round_trip_and_encodings(tmp_path, version):
    t = _run_table(version, 500)
    path = str(tmp_path / "delta-x1-a.parquet")
    write_run(t, path)
    assert os.listdir(tmp_path) == ["delta-x1-a.parquet"]   # no tmp left
    back = pq.read_table(path)
    assert back.schema == t.schema
    assert back.equals(t)
    enc = _encodings(path)
    for f in t.schema:
        if pa.types.is_integer(f.type) or pa.types.is_timestamp(f.type):
            assert "DELTA_BINARY_PACKED" in enc[f.name], f.name
            assert "RLE_DICTIONARY" not in enc[f.name], f.name
        elif f.name in schemas.FREE_TEXT_COLS:
            assert enc[f.name] & {"RLE_DICTIONARY", "PLAIN_DICTIONARY"} \
                == set(), f.name
        else:                      # low-cardinality and all-null strings
            assert "RLE_DICTIONARY" in enc[f.name], f.name
    # compression and row-group layout are pyarrow's zstd defaults
    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups == 1
    assert md.row_group(0).column(0).compression == "ZSTD"
    assert md.row_group(0).column(0).statistics is not None


def test_write_run_empty_table(tmp_path):
    t = _run_table(2, 10).slice(0, 0)
    path = str(tmp_path / "e.parquet")
    write_run(t, path)
    back = pq.read_table(path)
    assert back.num_rows == 0 and back.schema == t.schema


def _rewrite_default_encoding(runs_dir: str) -> int:
    """Rewrite every run file in place with pyarrow's default encodings
    (dictionary everywhere, no delta coding): runs as written before
    `write_run` existed."""
    paths = glob.glob(os.path.join(runs_dir, "*.parquet"))
    for p in paths:
        pq.write_table(pq.read_table(p), p, compression="zstd")
    return len(paths)


def test_mixed_encoding_runs_match_oracle(tmp_engine):
    """A table whose delta runs, view file and derived partials were
    written with the default encodings keeps serving after new runs
    land beside them: snapshot, point lookups, view and compaction all
    equal the oracle."""
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=500)
    ingest.apply_tick(cfg)
    matview.refresh_matview(cfg, MV)
    state = TableState(cfg.table_dir)
    assert _rewrite_default_encoding(state.runs_dir) >= 2
    old = state.run_paths(state.load_latest())
    assert "RLE_DICTIONARY" in _encodings(old[0])[schemas.LSN_COL]

    w = WalWriter(cfg.wal_dir, segment_rows=300)
    base = 10_000_000
    for t, v in generate_chunks(GenSpec(n_events=600, n_conversations=50,
                                        partial_update_fraction=0.3,
                                        seed=43)):
        t = t.set_column(t.schema.get_field_index("lsn"), "lsn",
                         pa.compute.add(t["lsn"], base))
        w.append(t, v)
    w.close()
    ingest.apply_tick(cfg)
    matview.refresh_matview(cfg, MV)
    new = [p for p in state.run_paths(state.load_latest()) if p not in old]
    assert new and all("DELTA_BINARY_PACKED" in _encodings(p)[
        schemas.LSN_COL] for p in new)

    def check():
        assert_matches_oracle(cfg)
        assert_view_matches(cfg)
        snap = ingest.snapshot_to_pandas(cfg)
        for cid in snap["conv_id"].drop_duplicates().iloc[[0, 9, 31]]:
            got = ingest.read_conversation(cfg, cid)
            want = snap[snap["conv_id"] == cid].reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want[got.columns],
                                          check_dtype=False)

    check()
    ingest.compact(cfg)
    check()


def test_runs_dir_parquet_goes_through_write_run():
    """No module under pipelines/ calls pq.write_table: run files go
    through `write_run`, and the files outside a table's runs_dir
    (sinks' bucket-partitioned export, the erasure's WAL-segment
    scrub) through `state.storage.write_parquet`."""
    root = pathlib.Path(pkg.__file__).parent / "pipelines"
    calls = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in ("write_table",
                                               "ParquetWriter"):
                    calls.add((path.name, fn.name))
    assert calls == set()

