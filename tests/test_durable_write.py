"""The one durable file write: `state.storage.LocalStorage.write_durable`
and its thin uses. Every file the engine publishes goes through it
(AST guard), each write fsyncs the file and its directory, a failed
write leaves the target as it was, and the hidden tmp names stay
invisible to every lister."""

import ast
import json
import os
import pathlib
import stat
from dataclasses import asdict
from unittest import mock

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import techtalk_data_pipeline_snowpark_ray as pkg
from techtalk_data_pipeline_snowpark_ray.pipelines import sinks
from techtalk_data_pipeline_snowpark_ray.sources import staged_json as sj
from techtalk_data_pipeline_snowpark_ray.sources.wal import (list_segments,
                                                             write_segment)
from techtalk_data_pipeline_snowpark_ray.stages.validate import (
    QUARANTINE_SUBDIR, read_wal_quarantine)
from techtalk_data_pipeline_snowpark_ray.state.manifest import (Manifest,
                                                                TableState)
from techtalk_data_pipeline_snowpark_ray.state.storage import (
    LocalStorage, tmp_name, write_parquet, write_run)

_MOVES = {("os", "replace"), ("os", "rename"), ("os", "link")}
_WRITERS = {"write_table", "ParquetWriter", "write_text", "write_bytes"}


def _durable_write_bypasses(source: str) -> list[str]:
    """Calls in `source` that publish a file without `write_durable`:
    a rename or link, a shutil copy, a parquet write, a
    ``Path.write_text``/``write_bytes``, or an open() in a write mode."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute):
            owner = f.value.id if isinstance(f.value, ast.Name) else None
            if (owner, f.attr) in _MOVES or f.attr in _WRITERS \
                    or owner == "shutil" and f.attr.startswith("copy"):
                out.append(f"{owner}.{f.attr}:{node.lineno}")
        elif isinstance(f, ast.Name) and f.id in ("ParquetWriter",
                                                  "write_table"):
            out.append(f"{f.id}:{node.lineno}")
        elif isinstance(f, ast.Name) and f.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and set(str(mode.value)) <= set("rbt")):
                out.append(f"open:{node.lineno}")
    return out


def test_every_durable_write_goes_through_storage():
    """No module of the package outside state/storage.py renames,
    links, copies or writes a file itself."""
    root = pathlib.Path(pkg.__file__).parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "state/storage.py":
            continue
        hits = _durable_write_bypasses(path.read_text())
        if hits:
            found[rel] = hits
    assert found == {}


def test_guard_sees_each_bypass():
    """The guard's own cases: each bypass shape is caught, a read-mode
    open is not."""
    for src in ("os.replace(a, b)", "os.rename(a, b)", "os.link(a, b)",
                "shutil.copy2(a, b)", "shutil.copyfile(a, b)",
                "pq.write_table(t, p)", "pq.ParquetWriter(p, s)",
                "path.write_text(s)",
                "open(p, 'w')", "open(p, mode='ab')", "open(p, m)"):
        assert _durable_write_bypasses(src), src
    assert not _durable_write_bypasses("open(p)\nopen(p, 'rb')")


def _count_fsyncs():
    """Patch os.fsync to record whether each fd is a directory."""
    seen = []
    real = os.fsync

    def fsync(fd):
        seen.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                    else "file")
        real(fd)
    return seen, mock.patch.object(os, "fsync", fsync)


@pytest.mark.parametrize("how", ["text", "exclusive", "parquet", "run"])
def test_each_write_fsyncs_file_then_directory(tmp_path, how):
    t = pa.table({"k": pa.array([1, 2], pa.int64()),
                  "s": pa.array(["a", "b"])})
    path = str(tmp_path / "out")
    st = LocalStorage()
    write = {"text": lambda: st.write_atomic(path, "x"),
             "exclusive": lambda: st.create_exclusive(path, "x"),
             "parquet": lambda: write_parquet(t, path),
             "run": lambda: write_run(t, path)}[how]
    seen, patch = _count_fsyncs()
    with patch:
        write()
    assert seen == ["file", "dir"]
    assert os.listdir(tmp_path) == ["out"]          # no tmp left behind
    if how in ("parquet", "run"):
        assert pq.read_table(path).equals(t)


def test_failed_write_leaves_target_unchanged(tmp_path):
    st = LocalStorage()
    path = str(tmp_path / "f.txt")
    st.write_atomic(path, "old")

    def half_then_fail(tmp):
        with open(tmp, "w") as f:
            f.write("torn")
        raise RuntimeError("writer died")

    for exclusive in (False, True):
        with pytest.raises(RuntimeError, match="writer died"):
            st.write_durable(path, half_then_fail, exclusive=exclusive)
        assert st.read_text(path) == "old"
        assert os.listdir(tmp_path) == ["f.txt"]
    with pytest.raises(FileExistsError):
        st.create_exclusive(path, "new")
    assert st.read_text(path) == "old"
    assert os.listdir(tmp_path) == ["f.txt"]


def test_link_or_copy_fsyncs_destination_directory(tmp_path):
    st = LocalStorage()
    src = str(tmp_path / "a")
    st.write_atomic(src, "bytes")
    os.makedirs(tmp_path / "d")
    seen, patch = _count_fsyncs()
    with patch:
        st.link_or_copy(src, str(tmp_path / "d" / "a"))
    assert seen == ["dir"]
    # the copy fallback (a cross-filesystem link) is a durable write
    seen, patch = _count_fsyncs()
    with patch, mock.patch.object(os, "link",
                                  side_effect=OSError("EXDEV")):
        st.link_or_copy(src, str(tmp_path / "d" / "b"))
    assert seen == ["file", "dir"]
    assert st.read_text(str(tmp_path / "d" / "b")) == "bytes"
    assert sorted(os.listdir(tmp_path / "d")) == ["a", "b"]


def test_tmp_names_are_invisible_to_every_lister(tmp_path, ray_session):
    """A crashed write's tmp file (the name `write_durable` uses) is
    never listed as data, and the sweeps remove it."""
    seg = pa.table({"lsn": pa.array([1, 2], pa.int64())})
    wal_dir = str(tmp_path / "wal")
    s = write_segment(seg, wal_dir, 0, 1)
    open(tmp_name(s.path), "w").close()
    assert [x.name for x in list_segments(wal_dir)] == [s.name]

    stage = str(tmp_path / "stage")
    staged = sj.stage_put(["{}"], stage, "000001")
    open(tmp_name(staged), "w").close()
    assert [f.path for f in sj.list_staged_files(stage)] == [staged]
    qdir = os.path.join(stage, sj.QUARANTINE_SUBDIR)
    os.makedirs(qdir)
    open(tmp_name(os.path.join(qdir, "dead-x.json")), "w").close()
    assert sj.read_quarantine(stage) is None

    table_dir = str(tmp_path / "table")
    wq = os.path.join(table_dir, QUARANTINE_SUBDIR)
    os.makedirs(wq)
    open(tmp_name(os.path.join(wq, "dead-x1-1-ab.parquet")), "w").close()
    assert read_wal_quarantine(table_dir) is None

    state = TableState(table_dir)
    leftover = tmp_name(os.path.join(state.runs_dir, "delta-x1.parquet"))
    open(leftover, "w").close()
    assert state.gc_orphan_runs() == [os.path.basename(leftover)]

    out = str(tmp_path / "export")
    d = os.path.join(out, "bucket=00000")
    os.makedirs(d)
    for name in ("part-00000.parquet", sinks.SUCCESS):
        open(tmp_name(os.path.join(d, name)), "w").close()
    assert sinks.finished_buckets(out) == set()
    import ray
    ray.get(sinks._write_bucket.remote(out, 0, seg))
    assert sorted(os.listdir(d)) == ["_SUCCESS", "part-00000.parquet"]
    assert sinks.read_partitioned(out).count() == 2


def test_json_dead_letters_are_written_once(tmp_path, ray_session):
    """A Dataset from `read_staged_json` consumed twice re-executes its
    explode stage; the dead letters land once, not once per run."""
    good = json.dumps([{"event_id": 1, "user_id": 7, "event_type": "view",
                        "value": 1.5, "ts": "2024-01-01T00:00:00.000000"}])
    stage = str(tmp_path / "stage")
    sj.stage_put([json.dumps({"n": 1, "payload": good}),
                  json.dumps({"n": 1, "payload": "{broken json"}),
                  json.dumps({"n": 1, "payload": "[1, 2"})], stage, "000001")
    ds, _ = sj.read_staged_json(stage)
    assert ds.to_pandas()["event_id"].tolist() == [1]
    assert ds.to_pandas()["event_id"].tolist() == [1]
    dead = sj.read_quarantine(stage).to_pandas()
    assert sorted(dead["payload"]) == ["[1, 2", "{broken json"]


def test_history_rewrite_kind_is_not_serialized():
    """`Manifest.rewrite` names the rewrite a version committed, and
    the manifest JSON stays exactly its fields."""
    cases = {None: {"events_applied": 3},
             "compaction": {"compaction": True},
             "rollback": {"rollback_to": 0, "rollback_mode": "restore"},
             "erasure": {"erasure": {"conv_ids": ["c"]}}}
    for kind, metrics in cases.items():
        m = Manifest(metrics=metrics)
        assert m.rewrite == kind
        assert "rewrite" not in json.loads(json.dumps(asdict(m)))
