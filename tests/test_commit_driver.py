"""The one commit driver (`state.commit`): only `commit` calls
`TableState.publish` (AST guard), its kinds are the conflict table's
rows, every winner since the read version is checked (not just the
tip), and a bootstrap is a table's first commit."""

import ast
import os
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import techtalk_data_pipeline_snowpark_ray as pkg
from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest
from techtalk_data_pipeline_snowpark_ray.stages.controls import ControlOp
from techtalk_data_pipeline_snowpark_ray.state import commit as driver
from techtalk_data_pipeline_snowpark_ray.state.manifest import (
    CommitConflict, Manifest, TableState)

from test_conflict_table import KINDS


def _publish_calls(source: str) -> list[str]:
    """``<function>:<line>`` of every ``<x>.publish(...)`` call in
    `source`, named by the top-level function or class around it."""
    out = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "publish":
                out.append(f"{getattr(top, 'name', '<module>')}:"
                           f"{node.lineno}")
    return out


def test_only_the_driver_publishes():
    """No package module outside `state.commit.commit` calls
    `TableState.publish`: every commit path goes through the one
    driver."""
    root = pathlib.Path(pkg.__file__).parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        hits = _publish_calls(path.read_text())
        if hits:
            found[path.relative_to(root).as_posix()] = [
                h.split(":")[0] for h in hits]
    assert found == {"state/commit.py": ["commit"]}


def test_guard_sees_a_publish():
    src = ("def rollback(cfg):\n"
           "    return state.publish(m, expected_parent=v)\n")
    assert _publish_calls(src) == ["rollback:2"]
    assert _publish_calls("publish(run, d, name)\n") == []


def test_driver_kinds_are_the_table_rows():
    assert tuple(driver.READS) == KINDS


def _cfg(tmp_path, **kw) -> EngineConfig:
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4, **kw)
    cfg.ensure_dirs()
    return cfg


def test_every_winner_is_checked_not_only_the_tip(tmp_path):
    """A compaction read v0; v1 rewrote its global runs and v2 restored
    them. The tip's lists extend v0's, but v1 still conflicts."""
    cfg = _cfg(tmp_path)
    st = TableState(cfg.table_dir)
    base = st.publish(Manifest(txn_id="t0", num_buckets=4,
                               global_runs=["a", "b"]))
    st.publish(Manifest(txn_id="er", num_buckets=4,
                        global_runs=["a2", "b"],
                        metrics={"erasure": {}}))
    st.publish(Manifest(txn_id="rb", num_buckets=4,
                        global_runs=["a", "b"],
                        metrics={"rollback_to": 0,
                                 "rollback_mode": "restore"}))
    txn = driver.Txn("compact", "c", {"compaction": True},
                     buckets={"0": ["base-0"]}, global_runs=[],
                     num_buckets=4)
    with pytest.raises(CommitConflict, match="rewrote run lists"):
        driver.commit(st, cfg, 0, base, txn)
    assert st.latest_version() == 2


def test_append_rebases_over_appends_keeping_every_file(tmp_path):
    """A replication window read v0 and lost to two appends: it lands
    on v2 with every winner's files before its own."""
    cfg = _cfg(tmp_path)
    st = TableState(cfg.table_dir)
    base = st.publish(Manifest(txn_id="t0", num_buckets=4,
                               global_runs=["a"]))
    st.publish(Manifest(txn_id="t1", num_buckets=4, committed_seq=3,
                        global_runs=["a", "b"]))
    st.publish(Manifest(txn_id="t2", num_buckets=4, committed_seq=5,
                        global_runs=["a", "b", "c"]))
    m = driver.commit(st, cfg, 0, base, driver.Txn(
        "replicate", "r", {}, add_global=["r1"], num_buckets=4))
    assert (m.version, m.parent) == (3, 2)
    assert m.global_runs == ["a", "b", "c", "r1"]
    assert m.committed_seq == 5 and m.metrics["rebased_onto"] == 2


def test_bootstrap_refuses_a_table_with_only_control_ops(tmp_path):
    """A control-only tick committed v0 with a pending DELETE. A
    bootstrap is a table's first commit: it raises before writing any
    file, and the op stays committed (it used to commit v1 without the
    op, and the imported rows the op deletes stayed visible)."""
    cfg = _cfg(tmp_path)
    op = ControlOp(lsn=5, kind="delete",
                   predicate={"col": "role", "fn": "eq", "value": "secret"})
    res = ingest.apply_tick(cfg, control_ops=[op])
    assert res.manifest.version == 0 and res.manifest.control_ops
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"conv_id": ["c1", "c2"],
                             "turn_idx": pa.array([0, 0], pa.int32()),
                             "role": ["secret", "user"],
                             "text": ["hidden", "shown"]}), src)
    runs = TableState(cfg.table_dir).runs_dir
    with pytest.raises(ValueError, match="empty table"):
        ingest.bootstrap_import(cfg, src)
    assert os.listdir(runs) == []
    st = TableState(cfg.table_dir)
    assert st.latest_version() == 0
    assert st.load_latest().control_ops == [op.to_dict()]
