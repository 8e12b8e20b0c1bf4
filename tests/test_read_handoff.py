"""Reads hand their blocks to Ray Data with the metadata their own tasks
computed (`stages.exchange.tasks_dataset`): every read site answers
like `ray.data.from_arrow_refs` over the same block refs, from a plan
that is already executed, and the guards keep Ray Data's internals in
that one helper."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

import techtalk_data_pipeline_snowpark_ray as pkg
from techtalk_data_pipeline_snowpark_ray.pipelines import (derived, ingest,
                                                           matview)
from techtalk_data_pipeline_snowpark_ray.stages.exchange import (
    block_refs, exchange_map_groups, tasks_dataset)
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState

from test_base_reads import (BASE_ONLY, KEYS, TWO_BASES,  # noqa: F401
                             WITH_DELTA, mixed_table)

#: the buckets of `mixed_table` with live rows (bucket EMPTY has none)
LIVE = {BASE_ONLY, WITH_DELTA, TWO_BASES}


def _arrow(ds) -> "pa.Table | None":
    refs = block_refs(ds)
    return pa.concat_tables(ray.get(refs), promote_options="default") \
        if refs else None


def assert_handoff(ds, n_blocks: int, sort_key=None) -> pa.Table:
    """`ds` is executed, and it and what is built on it answer as
    `from_arrow_refs` over its own block refs does. Returns its rows."""
    assert ds._plan.has_computed_output()
    refs = block_refs(ds)
    oracle = ray.data.from_arrow_refs(refs)
    assert ds.num_blocks() == oracle.num_blocks() == len(refs) == n_blocks
    assert ds.count() == oracle.count()
    got, want = ds.schema(), oracle.schema()
    assert (got is None) == (want is None)
    if got is not None:
        assert got.base_schema.equals(want.base_schema)
    assert ds._plan.has_computed_output()

    pd.testing.assert_frame_equal(ds.to_pandas(), oracle.to_pandas())
    assert ds.union(oracle).count() == 2 * oracle.count()
    if got is None:
        return None
    rows = _arrow(ds)
    assert rows.equals(_arrow(oracle))

    def batches(d):
        return [b.to_pydict() for b in d.iter_batches(batch_format="pyarrow")]

    assert batches(ds) == batches(oracle)
    same = ds.map_batches(lambda b: b, batch_format="pyarrow")
    assert _arrow(same).equals(_arrow(oracle.map_batches(
        lambda b: b, batch_format="pyarrow")))
    pd.testing.assert_frame_equal(ds.union(oracle).to_pandas(),
                                  pd.concat([oracle.to_pandas()] * 2,
                                            ignore_index=True))
    if sort_key is not None:
        pd.testing.assert_frame_equal(ds.sort(sort_key).to_pandas(),
                                      oracle.sort(sort_key).to_pandas())
    return rows


def test_snapshot_reads_hand_off(mixed_table):  # noqa: F811
    """Full, projected, bucket-subset, raw and empty-subset reads of a
    table with one-base, base-plus-delta, empty and two-base buckets;
    every bucket with live rows is one block, and the empty one none."""
    cfg, _ = mixed_table
    full = assert_handoff(ingest.read_snapshot(cfg), len(LIVE), KEYS)
    assert full.num_rows and full.column_names[:2] == KEYS
    scan = assert_handoff(ingest.read_snapshot(cfg, columns=["role"]),
                          len(LIVE), KEYS)
    assert scan.column_names == KEYS + ["role"]
    assert scan.equals(full.select(KEYS + ["role"]))
    sub = assert_handoff(ingest.read_snapshot(cfg, buckets=[1, 2]),
                         len(LIVE & {1, 2}), KEYS)
    assert 0 < sub.num_rows < full.num_rows
    raw = assert_handoff(ingest.read_snapshot(cfg, final_only=False),
                         len(LIVE), KEYS)
    assert raw.num_rows == full.num_rows
    none = assert_handoff(ingest.read_snapshot(cfg, buckets=[]), 1, KEYS)
    assert none.num_rows == 0 and none.schema.equals(full.schema)


def test_time_travel_and_empty_table_hand_off(mixed_table, tmp_engine):  # noqa: F811,E501
    cfg, _ = mixed_table
    m = TableState(cfg.table_dir).load_latest()
    then = assert_handoff(ingest.read_snapshot_as_of(cfg, m.version - 1),
                          len(LIVE), KEYS)
    now = _arrow(ingest.read_snapshot(cfg))
    assert then.num_rows and not then.equals(now)

    empty = assert_handoff(ingest.read_snapshot(tmp_engine), 1, KEYS)
    assert empty.num_rows == 0 and empty.column_names[:2] == KEYS


@pytest.mark.parametrize("gate", [None, 0])
def test_view_reads_hand_off(mixed_table, monkeypatch, gate):  # noqa: F811
    """A keyed view's files (`read_view_files`) and a grouped view's
    merge (`read_merged`), read in one task and, past a zero size gate,
    in one task per file or partition."""
    cfg, _ = mixed_table
    for name in ("conv_live_stats", "role_live_stats"):
        matview.refresh_matview(cfg, name)
    if gate is not None:
        monkeypatch.setattr(derived, "SMALL_VIEW_BYTES", gate)
    state = TableState(cfg.table_dir)
    keyed = matview._view("conv_live_stats")
    files = state.derived_paths(keyed.derived_key)
    # past the gate, one block per file with rows: a bucket without
    # live rows still has its (empty) view file
    with_rows = sum(pq.read_metadata(f).num_rows > 0 for f in files)
    assert with_rows < len(files)
    rows = assert_handoff(matview.read_matview(cfg, "conv_live_stats"),
                          1 if gate is None else with_rows, ["conv_id"])
    assert rows.num_rows and rows.schema.equals(keyed.empty_result().schema)

    grouped = matview.GROUPED_MATVIEWS["role_live_stats"]
    ds = matview.read_grouped_matview(cfg, "role_live_stats")
    n = len(derived.merge_files(
        grouped, state.derived_paths(grouped.derived_key)))
    assert n == 1 if gate is None else n > 1
    rows = assert_handoff(ds, n, list(grouped.group_cols))
    assert rows.num_rows
    assert rows.schema.equals(grouped.empty_result().schema)


def test_empty_view_reads_hand_off():
    view = matview.GROUPED_MATVIEWS["role_live_stats"]
    for ds in (derived.read_merged(view, []),
               matview.read_view_files([], view.empty_result())):
        rows = assert_handoff(ds, 1)
        assert rows.num_rows == 0
        assert rows.schema.equals(view.empty_result().schema)


# a lambda pickles by value: workers cannot import this test module
_sum_by_k = lambda g: g.groupby("k", as_index=False)["v"].sum()  # noqa: E731


def test_exchange_hands_off_non_empty_partitions():
    """Input-empty partitions give no block; the others one each."""
    rng = np.random.default_rng(3)
    k = rng.integers(0, 20, 400)
    df = pd.DataFrame({"k": k, "v": rng.integers(0, 100, 400),
                       "part": np.where(k % 2 == 0, 0, 2)})
    ds = ray.data.from_pandas([df.iloc[:150], df.iloc[150:]])
    out = exchange_map_groups(ds, "part", 4, _sum_by_k)
    rows = assert_handoff(out, 2, "k")
    want = _sum_by_k(df).sort_values("k", ignore_index=True)
    got = rows.to_pandas().sort_values("k", ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_exchange_keeps_one_typed_empty_block():
    """When every partition's reduce is empty, one typed empty block
    survives as the schema carrier; with no input at all the result is
    schema-less."""
    df = pd.DataFrame({"k": np.arange(8), "v": np.arange(8),
                       "part": np.arange(8) % 4})
    out = exchange_map_groups(ray.data.from_pandas(df), "part", 4,
                              lambda g: g.iloc[0:0])
    rows = assert_handoff(out, 1)
    assert rows.num_rows == 0
    assert rows.schema.field("k").type == pa.int64()

    empty = ray.data.from_pandas(df.iloc[0:0])
    assert_handoff(exchange_map_groups(empty, "part", 4, _sum_by_k), 0)


def test_failing_task_raises_at_the_read():
    def boom(x):
        raise ValueError(f"task failed on {x}")

    with pytest.raises(ValueError, match="task failed on 2"):
        tasks_dataset(boom, [(2,)])


def _scopes(tree: ast.Module):
    for node in tree.body:
        yield getattr(node, "name", "<module>"), node


def test_ray_data_internals_stay_in_tasks_dataset():
    """No package module calls or imports `from_arrow_refs`, and only
    `stages.exchange.tasks_dataset` imports `ray.data._internal`."""
    root = pathlib.Path(pkg.__file__).parent
    calls, internal = set(), set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for scope, node in _scopes(ast.parse(path.read_text())):
            for n in ast.walk(node):
                if isinstance(n, ast.Attribute) and n.attr == "from_arrow_refs" \
                        or isinstance(n, ast.Name) and n.id == "from_arrow_refs":
                    calls.add(rel)
                mods = [a.name for a in n.names] \
                    if isinstance(n, ast.Import) else \
                    [n.module or "", *(f"{n.module}.{a.name}"
                                       for a in n.names)] \
                    if isinstance(n, ast.ImportFrom) else []
                if any(m.startswith("ray.data._internal") for m in mods):
                    internal.add((rel, scope))
                if any(m.endswith(".from_arrow_refs") for m in mods):
                    calls.add(rel)
    assert calls == set()
    assert internal == {("stages/exchange.py", "tasks_dataset")}


def test_empty_buckets_give_no_block_and_no_schema_warning(tmp_engine):
    """Five conversations in 64 buckets: the snapshot read hands Ray
    Data one block per bucket with rows, so a pandas `map_batches` over
    it never meets a 0-row block (whose schema-less output makes Ray
    Data log "Operator produced a RefBundle with a different schema"),
    and every row still arrives."""
    import logging
    from dataclasses import replace

    from techtalk_data_pipeline_snowpark_ray.sources.generate import (
        GenSpec, write_wal)

    cfg = replace(tmp_engine, num_buckets=64)
    write_wal(GenSpec(n_events=300, n_conversations=5, max_turns=40,
                      seed=3), cfg.wal_dir, segment_rows=100)
    assert ingest.apply_tick(cfg) is not None
    seen = []

    class Catch(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    handler = Catch(level=logging.WARNING)
    log.addHandler(handler)
    try:
        ds = ingest.read_snapshot(cfg)
        m = TableState(cfg.table_dir).load_latest()
        live = len({b for f in m.global_runs for b in pq.read_table(
            f"{cfg.table_dir}/runs/{f}", columns=["bucket"])
            ["bucket"].to_pylist()})
        assert 1 < live < 64
        assert ds.num_blocks() == live
        got = ds.map_batches(lambda df: df, batch_format="pandas") \
            .to_pandas()
    finally:
        log.removeHandler(handler)
    assert not [s for s in seen if "different schema" in s], seen
    want = ingest.snapshot_to_pandas(cfg)
    pd.testing.assert_frame_equal(
        got.sort_values(KEYS, ignore_index=True), want)
