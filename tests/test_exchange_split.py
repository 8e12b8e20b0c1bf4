"""The one exchange split kernel (`stages.exchange.split_by_route`):
a property test against `Table.filter`, zero Arrow allocation on
sorted routes, loud failure on out-of-range routes (run files
included), and the guard that every split fan-out goes through
`split_fan_out`."""

import ast
import os
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

import techtalk_data_pipeline_snowpark_ray as pkg
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest
from techtalk_data_pipeline_snowpark_ray.sources.generate import write_wal
from techtalk_data_pipeline_snowpark_ray.stages.exchange import split_by_route
from techtalk_data_pipeline_snowpark_ray.stages.partition import (
    BUCKET_COL, hash_strings_arrow)
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState
from techtalk_data_pipeline_snowpark_ray.state.storage import write_run

from test_engine_e2e import TINY


def _chunked(n: int, cuts: list[int], offset: bool) -> pa.Table:
    """`n` rows (`v` = row id, `s` = a string with nulls) in chunks cut
    at `cuts` (repeated cuts give empty chunks); with `offset` every
    chunk is a slice at offset 1 of a longer array."""
    bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
    v_chunks, s_chunks = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        v = np.arange(a, b, dtype=np.int64)
        s = [None if i % 3 == 0 else f"s{i}" for i in range(a, b)]
        if offset:
            v_chunks.append(pa.array(np.r_[-1, v])[1:])
            s_chunks.append(pa.array(["pad", *s], pa.string())[1:])
        else:
            v_chunks.append(pa.array(v))
            s_chunks.append(pa.array(s, pa.string()))
    return pa.table({"v": pa.chunked_array(v_chunks, pa.int64()),
                     "s": pa.chunked_array(s_chunks, pa.string())})


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n_rows=st.integers(0, 60), n=st.integers(1, 6),
       cuts=st.lists(st.integers(0, 60), max_size=5), offset=st.booleans(),
       sort=st.booleans(), subset=st.booleans())
def test_split_by_route_equals_filter(data, n_rows, n, cuts, offset, sort,
                                      subset):
    tbl = _chunked(n_rows, cuts, offset)
    route = np.asarray(data.draw(st.lists(st.integers(0, n - 1),
                                          min_size=n_rows, max_size=n_rows)),
                       dtype=np.int64)
    if sort:
        route = np.sort(route)
    # a target outside [0, n) is allowed and gets an empty slice
    targets = data.draw(st.lists(st.integers(-1, n + 1), max_size=n + 2)) \
        if subset else None
    before = pa.total_allocated_bytes()
    parts = split_by_route(tbl, route, n, targets)
    if sort:
        assert pa.total_allocated_bytes() == before
    ids = range(n) if targets is None else targets
    assert len(parts) == len(ids)
    for t, part in zip(ids, parts):
        want = tbl.filter(pa.array(route == t))
        assert part.schema == tbl.schema
        assert part.equals(want), (t, part.to_pydict(), want.to_pydict())

    if n_rows:
        bad = route.copy()
        bad[data.draw(st.integers(0, n_rows - 1))] = \
            data.draw(st.sampled_from([-1, n, n + 7]))
        with pytest.raises(ValueError, match="outside"):
            split_by_route(tbl, bad, n, targets)


def test_split_fan_out_is_the_only_num_returns():
    """Every split fan-out goes through `stages.exchange.split_fan_out`:
    no other package module passes `num_returns`."""
    root = pathlib.Path(pkg.__file__).parent
    offenders = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and node.arg == "num_returns":
                offenders.add(rel)
    assert offenders <= {"stages/exchange.py"}


def _conv_bucket(conv: str, nb: int) -> int:
    return int(hash_strings_arrow(pa.array([conv]))[0] % np.uint64(nb))


def test_out_of_range_stored_bucket_raises(tmp_engine):
    """A run-file row whose stored bucket is outside [0, num_buckets)
    fails a snapshot read and a compaction instead of vanishing; a
    bucket-subset read still drops the rows outside its subset at the
    scan, so it neither sees nor trips on that row."""
    cfg = tmp_engine
    write_wal(TINY, cfg.wal_dir, segment_rows=400)
    ingest.apply_tick(cfg)
    before = ingest.snapshot_to_pandas(cfg)
    nb = cfg.num_buckets

    state = TableState(cfg.table_dir)
    run = os.path.join(state.runs_dir, state.load_latest().global_runs[0])
    t = pq.read_table(run)
    b = t[BUCKET_COL].to_numpy().copy()
    assert (np.diff(b) >= 0).all()          # runs are sorted by bucket
    hit = int(b[-1])
    b[-1] = nb                              # still sorted, out of range
    os.remove(run)
    write_run(t.set_column(t.schema.get_field_index(BUCKET_COL), BUCKET_COL,
                           pa.array(b, pa.int32())), run)

    with pytest.raises(ValueError, match="outside"):
        ingest.read_snapshot(cfg).materialize()
    with pytest.raises(ValueError, match="outside"):
        ingest.compact(cfg)

    keep = [x for x in range(nb) if x != hit]
    got = ingest.read_snapshot(cfg, buckets=keep).to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    in_keep = before["conv_id"].map(lambda c: _conv_bucket(c, nb) in keep)
    want = before[in_keep].reset_index(drop=True)
    assert len(got) == len(want) > 0
    assert got[["conv_id", "turn_idx"]].equals(want[["conv_id", "turn_idx"]])
