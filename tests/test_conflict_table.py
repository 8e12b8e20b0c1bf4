"""The commit conflict table, enumerated through the public API.

Each row is a transaction kind, each column the kind of a WINNER that
commits between the row's read of the table and its publish. A cell
says what the row's transaction does then: "commute" -- it still
commits, on top of the winner (appends and compactions rebase their
already-written files; an erasure recomputes on the new state) -- or
"raise" -- it raises CommitConflict and the winner's state rules.

A `None` cell is a pair that cannot race: a clone or a bootstrap only
commits as a table's FIRST version, while a compaction, erasure,
rollback or refresh needs committed data (on an empty table they
commit nothing or raise ValueError before any write), so one of the
two never reaches its publish.

Every racing pair runs on a copy of a small prepared table: the row's
transaction is started, the winner commits from inside the row's
first `TableState.publish` call, and the outcome is compared with the
cell."""

import os
import shutil
from dataclasses import replace
from unittest import mock

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, generate_chunks, write_wal)
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.stages.controls import ControlOp
from techtalk_data_pipeline_snowpark_ray.state.manifest import (
    CommitConflict, TableState)

KINDS = ("tick", "control", "replicate", "compact", "rebucket", "erase",
         "rollback", "clone", "bootstrap", "refresh")
C, R = "commute", "raise"

#: row: the transaction that loses the version race; column: the winner
TABLE = {
    "tick": dict(tick=R, control=R, replicate=C, compact=C, rebucket=R,
                 erase=R, rollback=R, clone=R, bootstrap=C, refresh=C),
    "control": dict(tick=R, control=R, replicate=C, compact=C, rebucket=R,
                    erase=R, rollback=R, clone=R, bootstrap=C, refresh=C),
    "replicate": dict(tick=C, control=R, replicate=C, compact=C,
                      rebucket=R, erase=R, rollback=R, clone=C,
                      bootstrap=C, refresh=C),
    "compact": dict(tick=C, control=C, replicate=C, compact=R, rebucket=R,
                    erase=R, rollback=R, clone=None, bootstrap=None,
                    refresh=C),
    "rebucket": dict(tick=R, control=R, replicate=R, compact=R, rebucket=R,
                     erase=R, rollback=R, clone=None, bootstrap=None,
                     refresh=R),
    "erase": dict(tick=C, control=C, replicate=C, compact=C, rebucket=C,
                  erase=C, rollback=C, clone=None, bootstrap=None,
                  refresh=C),
    "rollback": dict(tick=R, control=R, replicate=R, compact=R, rebucket=R,
                     erase=R, rollback=R, clone=None, bootstrap=None,
                     refresh=R),
    "clone": dict(tick=R, control=R, replicate=R, compact=None,
                  rebucket=None, erase=None, rollback=None, clone=R,
                  bootstrap=R, refresh=None),
    "bootstrap": dict(tick=R, control=R, replicate=R, compact=None,
                      rebucket=None, erase=None, rollback=None, clone=R,
                      bootstrap=R, refresh=None),
    "refresh": dict(tick=R, control=R, replicate=R, compact=R, rebucket=R,
                    erase=R, rollback=R, clone=None, bootstrap=None,
                    refresh=R),
}

#: kinds that only commit as a table's first version
_FIRST_COMMIT = {"clone", "bootstrap"}

_SPEC = GenSpec(n_events=360, n_conversations=8, max_turns=8, zipf_s=1.2,
                ooo_window=8, dup_fraction=0.02,
                partial_update_fraction=0.25, schema_add_at=100,
                schema_widen_at=250, seed=5)
_SRC_SPEC = replace(_SPEC, n_events=200, seed=9)


def test_table_enumerates_every_pair():
    assert tuple(TABLE) == KINDS
    for row, cells in TABLE.items():
        assert tuple(cells) == KINDS, row
        for col, cell in cells.items():
            # a pair cannot race exactly when one side commits only
            # first versions and the other only on committed data
            racing = (row in _FIRST_COMMIT) == (col in _FIRST_COMMIT) \
                or {row, col} & {"tick", "control", "replicate"}
            assert (cell is not None) == bool(racing), (row, col)
            assert cell in (C, R, None)


def _cfg(root: str, name: str, wal: str, **kw) -> EngineConfig:
    return EngineConfig(table_dir=os.path.join(root, name),
                        wal_dir=os.path.join(root, wal), num_buckets=4,
                        derived_views=("conv_stats",), **kw)


def _move(src_dir: str, dst_dir: str) -> None:
    os.makedirs(dst_dir, exist_ok=True)
    for f in sorted(os.listdir(src_dir)):
        os.rename(os.path.join(src_dir, f), os.path.join(dst_dir, f))


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    """Two prepared tables, copied per pair: "empty" (no commit; its
    WAL phases 1a+1b pending) and "full" (v0 ticked phase 1a, v1 phase
    1b). Both keep WAL phase 2 aside in `wal2`, for a tick to consume.
    A source table (`src`, one tick) feeds replication and clones, and
    a parquet file feeds bootstraps."""
    root = str(tmp_path_factory.mktemp("conflict-table"))
    empty = os.path.join(root, "empty")
    chunks = list(generate_chunks(_SPEC))
    a, b = len(chunks) // 3, 2 * len(chunks) // 3
    w = WalWriter(os.path.join(empty, "wal"), segment_rows=60,
                  reorder_slack=8)
    for t, v in chunks[:a]:
        w.append(t, v)
    w.flush()
    seg_1a = set(os.listdir(os.path.join(empty, "wal")))
    for t, v in chunks[a:b]:
        w.append(t, v)
    w.flush()
    seg_1 = set(os.listdir(os.path.join(empty, "wal")))
    for t, v in chunks[b:]:
        w.append(t, v)
    w.close()
    os.makedirs(os.path.join(empty, "wal2"))
    os.makedirs(os.path.join(empty, "wal1b"))
    os.makedirs(os.path.join(empty, "nowal"))
    for f in os.listdir(os.path.join(empty, "wal")):
        if f not in seg_1:
            os.rename(os.path.join(empty, "wal", f),
                      os.path.join(empty, "wal2", f))

    full = os.path.join(root, "full")
    shutil.copytree(empty, full)
    for f in seg_1 - seg_1a:
        os.rename(os.path.join(full, "wal", f),
                  os.path.join(full, "wal1b", f))
    cfg = _cfg(full, "table", "wal")
    cfg.ensure_dirs()
    assert ingest.apply_tick(cfg) is not None                   # v0
    _move(os.path.join(full, "wal1b"), os.path.join(full, "wal"))
    assert ingest.apply_tick(cfg) is not None                   # v1
    victim = ingest.snapshot_to_pandas(cfg)["conv_id"] \
        .value_counts().idxmax()

    src = _cfg(root, "src", "src-wal")
    src.ensure_dirs()
    write_wal(_SRC_SPEC, src.wal_dir, segment_rows=100)
    assert ingest.apply_tick(src) is not None
    boot = os.path.join(root, "boot.parquet")
    pq.write_table(pa.Table.from_pandas(ingest.snapshot_to_pandas(src),
                                        preserve_index=False), boot)
    return {"empty": empty, "full": full, "src": src, "boot": boot,
            "victim": victim}


class _Pair:
    """One racing pair's copy of a template and its operations."""

    def __init__(self, templates, tmp_path, empty: bool):
        root = str(tmp_path / "t")
        shutil.copytree(templates["empty" if empty else "full"], root)
        self.root = root
        self.cfg = _cfg(root, "table", "wal")
        self.cfg.ensure_dirs()
        self.src = templates["src"]
        self.boot = templates["boot"]
        self.victim = templates["victim"]

    def run(self, kind: str):
        cfg = self.cfg
        if kind == "tick":
            _move(os.path.join(self.root, "wal2"), cfg.wal_dir)
            return ingest.apply_tick(cfg)
        if kind == "control":
            lsn = TableState(cfg.table_dir).load_latest().committed_lsn + 1
            op = ControlOp(lsn=lsn, kind="delete",
                           predicate={"col": "role", "fn": "eq",
                                      "value": "__nobody__"})
            return ingest.apply_tick(
                replace(cfg, wal_dir=os.path.join(self.root, "nowal")),
                control_ops=[op])
        if kind == "replicate":
            return ingest.replicate_delta(self.src, cfg, from_version=-1)
        if kind == "compact":
            return ingest.compact(cfg)
        if kind == "rebucket":
            return ingest.compact(replace(cfg, num_buckets=8),
                                  rebucket=True)
        if kind == "erase":
            return ingest.erase_conversation(cfg, self.victim)
        if kind == "rollback":
            return ingest.rollback(cfg, 0)
        if kind == "clone":
            return ingest.clone_table(self.src, cfg)
        if kind == "bootstrap":
            return ingest.bootstrap_import(cfg, self.boot)
        if kind == "refresh":
            return matview.refresh_matview(cfg, "conv_live_stats")
        raise AssertionError(kind)


_RACING = [(row, col) for row in KINDS for col in KINDS
           if TABLE[row][col] is not None]


@pytest.mark.parametrize("row,col", _RACING,
                         ids=[f"{r}-vs-{c}" for r, c in _RACING])
def test_conflict_table(templates, tmp_path, row, col):
    pair = _Pair(templates, tmp_path,
                 empty=bool({row, col} & _FIRST_COMMIT))
    st = TableState(pair.cfg.table_dir)
    orig = TableState.publish
    won = {}

    def race(self, manifest, expected_parent=None, **kw):
        if not won:
            before = st.latest_version()
            won["v"] = None
            pair.run(col)
            won["v"] = st.latest_version()
            assert won["v"] is not None and won["v"] != before, \
                f"winner {col} committed nothing"
        return orig(self, manifest, expected_parent=expected_parent)

    with mock.patch.object(TableState, "publish", race):
        try:
            res = pair.run(row)
            outcome = C
        except CommitConflict:
            res, outcome = None, R
    assert won, f"{row} never reached its publish"
    assert outcome == TABLE[row][col], (row, col)
    latest = st.load_latest()
    if outcome == R:
        assert st.latest_version() == won["v"]
    else:
        m = getattr(res, "manifest", res)
        assert st.latest_version() == won["v"] + 1
        assert m.version == won["v"] + 1 and m.parent == won["v"]
        assert latest.txn_id == m.txn_id
