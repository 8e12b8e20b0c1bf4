"""The refreshed-view file model: a view is one file per bucket, and a
refresh replaces the affected buckets' files (every file on a full
fallback). Pinned here:

* a seeded differential run over random sequences of ticks, control
  ops, compactions (plain and rebucket), erasures, rollbacks and
  clones: after every step each registered view (keyed, grouped,
  index and join) equals its recompute from `read_snapshot` and the
  pandas oracles, holds exactly one file per bucket, and reports the
  one `matview_refresh` metrics shape;
* a refresh that commits between a compaction's read and its publish
  is kept, and the compaction rebases over it;
* a view whose rows were all deleted keeps its watermark, because
  every refreshed bucket writes its file even when empty.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.pipelines.joinview import (
    JOIN_MATVIEWS, read_join_matview)
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, generate_chunks)
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter
from techtalk_data_pipeline_snowpark_ray.stages.controls import ControlOp
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState

from test_matview import (GMV, MV, gmv_oracle, hmv_oracle, read_gview,
                          read_hview, read_view, view_buckets, view_oracle)

JOIN = "conv_drift"
STATS_KEYS = {"view", "source_version", "mode", "affected_buckets",
              "affected_keys"}


def _mk(tmp_path, name, nb) -> EngineConfig:
    cfg = EngineConfig(table_dir=str(tmp_path / name),
                       wal_dir=str(tmp_path / f"w-{name}"), num_buckets=nb)
    cfg.ensure_dirs()
    return cfg


def _arrow(ds, empty: pa.Table) -> pa.Table:
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return empty
    return pa.concat_tables(tables, promote_options="default")


def _canon(t: pa.Table, empty: pa.Table) -> pa.Table:
    t = t.select(empty.column_names).cast(empty.schema)
    return t.sort_by([(c, "ascending") for c in t.column_names]) \
        .combine_chunks()


def _snapshot(cfg) -> pa.Table:
    return _arrow(ingest.read_snapshot(cfg),
                  pa.table({"conv_id": pa.array([], pa.string())}))


def _recompute(name, snap: pa.Table) -> pa.Table:
    """The view over the whole table, from `read_snapshot`: a keyed
    aggregate or a grouped partial over every live row (buckets
    partition conversations, so the partial of the whole table is the
    merged view)."""
    view = matview.GROUPED_MATVIEWS.get(name) or matview.MATVIEWS[name]
    return view.of_bucket(snap) if snap.num_rows else view.empty_result()


def _read(cfg, name) -> pa.Table:
    if name in matview.MATVIEWS:
        view = matview.MATVIEWS[name]
        return _arrow(matview.read_matview(cfg, name), view.empty_result())
    view = matview.GROUPED_MATVIEWS[name]
    return _arrow(matview.read_grouped_matview(cfg, name),
                  view.empty_result())


def _check_stats(m) -> dict:
    st = m.metrics["matview_refresh"]
    want = STATS_KEYS | ({"reason"} if st["mode"] == "full" else set())
    assert set(st) - {"source_b"} == want, st
    assert "tombstones" not in st
    if st["mode"] == "incremental":
        assert st["affected_keys"] >= st["affected_buckets"] >= 1
    return st


def _check_views(cfg_a, cfg_b) -> set:
    """Refresh every registered view and compare it with its
    recompute from read_snapshot and with the pandas oracles; returns
    the refresh modes seen."""
    nb = TableState(cfg_a.table_dir).load_latest().num_buckets
    modes = set()
    for name in [*matview.MATVIEWS, *matview.GROUPED_MATVIEWS]:
        m = matview.refresh_matview(cfg_a, name)
        if m is not None:
            modes.add(_check_stats(m)["mode"])
        view = matview.GROUPED_MATVIEWS.get(name) or matview.MATVIEWS[name]
        assert view_buckets(cfg_a, view.derived_key) == list(range(nb))
    m = matview.refresh_matview(cfg_a, JOIN, other=cfg_b)
    if m is not None:
        modes.add(_check_stats(m)["mode"])
    jv = JOIN_MATVIEWS[JOIN]
    assert view_buckets(cfg_a, jv.derived_key) == list(range(nb))

    snap_a = _snapshot(cfg_a)
    for name in [*matview.MATVIEWS, *matview.GROUPED_MATVIEWS]:
        view = matview.GROUPED_MATVIEWS.get(name) or matview.MATVIEWS[name]
        empty = view.empty_result()
        assert _canon(_read(cfg_a, name), empty).equals(
            _canon(_recompute(name, snap_a), empty)), name
    snap_b = _snapshot(cfg_b)
    cols = ["conv_id", "text"]
    want = jv.join(snap_a.select(cols) if snap_a.num_rows else
                   pa.table({c: pa.array([], pa.string()) for c in cols}),
                   snap_b.select(cols) if snap_b.num_rows else
                   pa.table({c: pa.array([], pa.string()) for c in cols}))
    assert _canon(_arrow(read_join_matview(cfg_a, JOIN), jv.empty_result()),
                  jv.empty_result()).equals(
        _canon(want, jv.empty_result())), JOIN

    pd.testing.assert_frame_equal(read_view(cfg_a), view_oracle(cfg_a),
                                  check_dtype=False)
    pd.testing.assert_frame_equal(read_gview(cfg_a), gmv_oracle(cfg_a),
                                  check_dtype=False)
    pd.testing.assert_frame_equal(read_hview(cfg_a), hmv_oracle(cfg_a),
                                  check_dtype=False)
    return modes


def _stream(seed: int) -> list:
    """(lsn-sorted change table, schema version) pieces of one seeded
    stream with partial updates, deletes and duplicate deliveries."""
    spec = GenSpec(n_events=2400, n_conversations=40, max_turns=8,
                   zipf_s=1.1, dup_fraction=0.03,
                   partial_update_fraction=0.3, text_len=24,
                   schema_add_at=900, seed=seed)
    return [(t.sort_by("lsn"), v) for t, v in generate_chunks(spec)]


def _publish(writer: WalWriter, pieces, lo: int, hi: int,
             keep=None) -> None:
    for t, v in pieces:
        part = t.filter(pc.and_(pc.greater_equal(t["lsn"], lo),
                                pc.less(t["lsn"], hi)))
        if keep is not None:
            part = part.filter(keep(part))
        if part.num_rows:
            writer.append(part, v)
    writer.flush()


@pytest.mark.parametrize("seed", [15, 16])
def test_differential_view_refresh(tmp_path, seed):
    """Seeded random steps over a 4-bucket table A and a 3-bucket table
    B (B ingests A's stream's even lsns); after each step every view
    equals its recompute."""
    rng = np.random.default_rng(seed)
    pieces = _stream(seed)
    a = _mk(tmp_path, "a", 4)
    b = _mk(tmp_path, "b", 3)
    wa = WalWriter(a.wal_dir, segment_rows=10_000, reorder_slack=0)
    wb = WalWriter(b.wal_dir, segment_rows=10_000, reorder_slack=0)
    even = lambda t: pc.equal(pc.bit_wise_and(t["lsn"], 1), 0)  # noqa: E731
    lsn = 0
    erased_at = 0                # an erasure is a rollback floor
    clones = 0

    def tick():
        nonlocal lsn
        hi = lsn + int(rng.integers(60, 300))
        _publish(wa, pieces, lsn, hi)
        _publish(wb, pieces, lsn, hi, keep=even)
        lsn = hi
        ingest.apply_tick(a)
        ingest.apply_tick(b)

    tick()
    modes = _check_views(a, b)
    ops = ["tick", "control", "compact", "rebucket", "erase", "rollback",
           "clone"] + list(rng.choice(["tick", "tick", "compact", "erase",
                                       "rollback", "control"], size=6))
    rng.shuffle(ops)
    seen = []
    for op in ops:
        state = TableState(a.table_dir)
        if op == "tick":
            tick()
        elif op == "control":
            pred = ({"col": "role", "fn": "eq", "value": "system"}
                    if rng.random() < 0.5 else
                    {"col": "tool", "fn": "eq", "value": "tool-3"})
            kind = "update" if rng.random() < 0.5 else "delete"
            ingest.apply_tick(a, control_ops=[ControlOp(
                lsn=state.committed_lsn + 1, kind=kind, predicate=pred,
                assignments={"text": {"fn": "set", "value": "redacted"}}
                if kind == "update" else {})])
        elif op == "compact":
            ingest.compact(a)
            ingest.compact(b)
        elif op == "rebucket":
            a.num_buckets = 6 if a.num_buckets == 4 else 4
            ingest.compact(a, rebucket=True)
        elif op == "erase":
            live = sorted(set(_snapshot(a)["conv_id"].to_pylist()))
            if live:
                pick = rng.choice(len(live), size=min(2, len(live)),
                                  replace=False)
                ingest.erase_conversations(a, [live[i] for i in pick])
                erased_at = state.latest_version()
        elif op == "rollback":
            cur = state.latest_version()
            if cur > erased_at:
                ingest.rollback(a, int(rng.integers(erased_at, cur)),
                                rewind_stream=bool(rng.random() < 0.3))
                # the restored layout is the one later ticks write in
                a.num_buckets = state.load_latest().num_buckets
        elif op == "clone":
            clones += 1
            c = EngineConfig(table_dir=str(tmp_path / f"clone{clones}"),
                             wal_dir=a.wal_dir, num_buckets=a.num_buckets)
            ingest.clone_table(a, c)
            a, erased_at = c, 0
        seen.append(op)
        modes |= _check_views(a, b)
    assert {"tick", "control", "compact", "rebucket", "erase", "rollback",
            "clone"} <= set(seen)
    assert modes == {"full", "incremental"}


def _rows(conv, turns, op, lsn0, text="hello world"):
    n = len(turns)
    live = op != "delete"
    return pa.table({
        "lsn": pa.array(range(lsn0, lsn0 + n), pa.int64()),
        "op": pa.array([op] * n, pa.string()),
        "conv_id": pa.array([conv] * n, pa.string()),
        "turn_idx": pa.array(turns, pa.int64()),
        "role": pa.array(["user" if live else None] * n, pa.string()),
        "text": pa.array([text if live else None] * n, pa.string()),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([np.datetime64("2026-01-01", "us")] * n,
                       pa.timestamp("us")),
        "model": pa.array([None] * n, pa.string()),
    })


def _tick(cfg, table):
    w = WalWriter(cfg.wal_dir, segment_rows=100, reorder_slack=0)
    w.append(table, 3)
    w.close()
    assert ingest.apply_tick(cfg) is not None


@pytest.mark.parametrize("kind", ["keyed", "grouped", "join"])
def test_watermark_survives_empty_buckets(tmp_path, kind):
    """Every key deleted: each refreshed bucket still writes its (empty)
    file, so the view reads empty, keeps its stamp, and the next
    refresh is a no-op -- after an incremental refresh and after a full
    one over the empty table."""
    a = _mk(tmp_path, "a", 4)
    b = _mk(tmp_path, "b", 3)
    convs = ["c1", "c2", "c3"]
    for i, c in enumerate(convs):
        _tick(a, _rows(c, [0, 1], "insert", 10 * i))
        _tick(b, _rows(c, [0], "insert", 10 * i))
    if kind == "join":
        key = JOIN_MATVIEWS[JOIN].derived_key

        def refresh():
            return matview.refresh_matview(a, JOIN, other=b)

        def read():
            return read_join_matview(a, JOIN).count()
    else:
        name = MV if kind == "keyed" else GMV
        view = (matview.MATVIEWS.get(name)
                or matview.GROUPED_MATVIEWS[name])
        key = view.derived_key

        def refresh():
            return matview.refresh_matview(a, name)

        def read():
            return _read(a, name).num_rows
    assert _check_stats(refresh())["mode"] == "full"
    assert read() > 0

    for i, c in enumerate(convs):
        _tick(a, _rows(c, [0, 1], "delete", 100 + 10 * i))
        _tick(b, _rows(c, [0], "delete", 100 + 10 * i))
    st = _check_stats(refresh())
    assert st["mode"] == "incremental"
    assert read() == 0
    assert view_buckets(a, key) == [0, 1, 2, 3]
    assert refresh() is None

    # a compaction over an unrefreshed tick forces a full refresh over
    # the (again) empty table: it stamps every bucket with empty files
    _tick(a, _rows("c9", [0], "insert", 200))
    _tick(a, _rows("c9", [0], "delete", 201))
    ingest.compact(a)
    st = _check_stats(refresh())
    assert st["mode"] == "full" and st["reason"] == "compaction"
    assert read() == 0
    assert view_buckets(a, key) == [0, 1, 2, 3]
    assert refresh() is None


def test_compaction_rebases_over_refresh(tmp_path, monkeypatch):
    """Keyed, grouped and join refreshes that commit between a
    compaction's read and its publish are kept: the compaction rebases
    over them, carrying their replaced view lists as they are, and
    every view still equals its oracle."""
    a = _mk(tmp_path, "a", 4)
    b = _mk(tmp_path, "b", 3)
    pieces = _stream(3)
    wa = WalWriter(a.wal_dir, segment_rows=10_000, reorder_slack=0)
    wb = WalWriter(b.wal_dir, segment_rows=10_000, reorder_slack=0)
    _publish(wa, pieces, 0, 800)
    _publish(wb, pieces, 0, 800)
    ingest.apply_tick(a)
    ingest.apply_tick(b)
    _check_views(a, b)
    _publish(wa, pieces, 800, 1200)
    ingest.apply_tick(a)              # a delta no view has folded yet

    state = TableState(a.table_dir)
    orig = TableState.publish
    winners = {}

    def racing(self, manifest, *args, **kw):
        if manifest.metrics.get("compaction") and not winners:
            winners["refreshes"] = [
                matview.refresh_matview(a, MV),
                matview.refresh_matview(a, GMV),
                matview.refresh_matview(a, JOIN, other=b)]
            winners["lists"] = dict(state.load_latest().derived)
        return orig(self, manifest, *args, **kw)

    monkeypatch.setattr(TableState, "publish", racing)
    m = ingest.compact(a)
    monkeypatch.setattr(TableState, "publish", orig)
    assert all(r is not None and r.metrics["matview_refresh"]["mode"]
               == "incremental" for r in winners["refreshes"])
    assert m.metrics["compaction"] is True
    assert m.metrics["rebased_onto"] == winners["refreshes"][-1].version
    for k in (matview.MV_PREFIX + MV, matview.GMV_PREFIX + GMV,
              JOIN_MATVIEWS[JOIN].derived_key):
        assert m.derived[k] == winners["lists"][k]
    # the compaction preserved the refreshed state: nothing to refresh
    assert matview.refresh_matview(a, MV) is None
    assert matview.refresh_matview(a, GMV) is None
    assert matview.refresh_matview(a, JOIN, other=b) is None
    _check_views(a, b)


def test_pre_bucket_view_list_refreshes_full(tmp_path):
    """A view list written before views were one file per bucket (old
    ``mv-<name>-s<V>-x...`` / ``gmv-...`` names, no ``-b<B>-``) is
    refreshed as a first refresh: full, replacing every entry, even
    though its stamp names the current version. Anything else that
    needs a file's bucket still refuses the old name."""
    import dataclasses

    from techtalk_data_pipeline_snowpark_ray.state.storage import write_run

    a = _mk(tmp_path, "a", 4)
    for i, c in enumerate(["c1", "c2", "c3"]):
        _tick(a, _rows(c, [0, 1], "insert", 10 * i))
    state = TableState(a.table_dir)
    cur, m = state.load_latest_versioned()
    old = {}
    for name, prefix in ((MV, "mv"), (GMV, "gmv")):
        view = matview.MATVIEWS.get(name) or matview.GROUPED_MATVIEWS[name]
        ghost = pa.table({c: pa.array(["ghost"] if i == 0 else [1],
                                      f.type)
                          for i, (c, f) in enumerate(zip(
                              view.empty_result().column_names,
                              view.empty_result().schema))})
        fname = f"{prefix}-{name}-s{cur}-x{state.new_txn()}-0.parquet"
        write_run(ghost, f"{state.runs_dir}/{fname}")
        old[view.derived_key] = [fname]
    state.publish(expected_parent=cur, manifest=dataclasses.replace(
        m, txn_id=state.new_txn(), derived={**m.derived, **old},
        wal_consumed=[], metrics={}))
    for key, (fname,) in old.items():
        with pytest.raises(ValueError, match="unparseable view file"):
            matview._file_bucket(fname)

    for name in (MV, GMV):
        st = _check_stats(matview.refresh_matview(a, name))
        assert (st["mode"], st["reason"]) == ("full", "first-refresh")
        view = matview.MATVIEWS.get(name) or matview.GROUPED_MATVIEWS[name]
        assert view_buckets(a, view.derived_key) == [0, 1, 2, 3]
        got = _read(a, name)
        assert "ghost" not in got.column(0).to_pylist()
        empty = view.empty_result()
        assert _canon(got, empty).equals(
            _canon(_recompute(name, _snapshot(a)), empty))
        assert matview.refresh_matview(a, name) is None
