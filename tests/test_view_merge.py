"""The one partial merge (`derived.merge_files`): every grouped matview
and both additive derived views read -- and the additive views compact
-- through it. Its one-task path and its exchange path (forced by a 0
`derived.SMALL_VIEW_BYTES` gate, split by a hash of every group
column) both equal pandas oracles over the resolved snapshot or the
consumed WAL, with the view's exact Arrow types. The cases include
`role_tool_stats`' null `tool` group and `hourly_activity`'s
`timestamp[us]` group."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import (derived, ingest,
                                                           matview)
from techtalk_data_pipeline_snowpark_ray.sources.generate import write_wal
from techtalk_data_pipeline_snowpark_ray.stages.normalize import (
    normalize_batch)
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState

from test_matview import TINY


def _role_live_stats(snap: pd.DataFrame) -> pd.DataFrame:
    s = snap[snap["role"].notna()]
    g = s.groupby("role")
    return pd.DataFrame({
        "n_turns": g.size(),
        "text_chars": g["text"].apply(lambda x: x.fillna("").str.len().sum()),
        "max_turn_idx": g["turn_idx"].max()}).reset_index()


def _role_tool_stats(snap: pd.DataFrame) -> pd.DataFrame:
    s = snap[snap["role"].notna()]
    return s.groupby(["role", "tool"], dropna=False).size() \
        .rename("n_turns").reset_index()


def _hourly_activity(snap: pd.DataFrame) -> pd.DataFrame:
    s = snap[snap["ts"].notna()].assign(
        window_start=lambda d: d["ts"].dt.floor("h"))
    g = s.groupby("window_start")
    return pd.DataFrame({"n_convs": g["conv_id"].nunique(),
                         "n_turns": g.size(),
                         "max_turn_idx": g["turn_idx"].max()}).reset_index()


def _token_index(snap: pd.DataFrame) -> pd.DataFrame:
    s = snap[snap["text"].notna()]
    tok = s.assign(token=s["text"].str.lower().str.split(
        matview.TOKEN_SPLIT_RE, regex=True)).explode("token")
    tok = tok[tok["token"] != ""]
    g = tok.groupby("token")
    return pd.DataFrame({"n_hits": g.size(),
                         "n_convs": g["conv_id"].nunique()}).reset_index()


def _ivf_index(snap: pd.DataFrame) -> pd.DataFrame:
    s = snap[snap["text"].notna()]
    E = np.stack([s["text"].str.count(str(d)).to_numpy()
                  for d in range(matview.ANN_DIMS)], axis=1).astype(np.int64)
    keep = E.sum(axis=1) > 0
    s, E = s[keep], E[keep]
    C = matview.ann_centroids()
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    out = pd.DataFrame({"cell": np.argmax(np.round(En @ Cn.T, 6), axis=1),
                        "conv_id": s["conv_id"].to_numpy(),
                        "turn_idx": s["turn_idx"].to_numpy()})
    for i, c in enumerate(matview.ANN_EMB_COLS):
        out[c] = E[:, i]
    return out


GROUPED = {"role_live_stats": _role_live_stats,
           "role_tool_stats": _role_tool_stats,
           "hourly_activity": _hourly_activity,
           "token_index": _token_index,
           "ivf_index": _ivf_index}


def _additive(events: pd.DataFrame, name: str) -> pd.DataFrame:
    if name == "role_stats":
        events = events[(events["op"] != "delete") & events["role"].notna()]
    key = derived.VIEWS[name].key
    return events.groupby(key, as_index=False).agg(
        n_events=("lsn", "size"), max_lsn=("lsn", "max"))


def _read(ds: ray.data.Dataset, empty: pa.Table) -> "tuple[pa.Table, int]":
    """(the Dataset's rows, its block count); every block carries the
    view's exact schema."""
    blocks = ray.get(ds.to_arrow_refs())
    for b in blocks:
        assert b.schema == empty.schema, (b.schema, empty.schema)
    return pa.concat_tables([empty, *blocks]), len(blocks)


def _assert_equals_oracle(got: pa.Table, want: pd.DataFrame,
                          empty: pa.Table) -> None:
    want = pa.Table.from_pandas(want[empty.column_names],
                                schema=empty.schema, preserve_index=False)
    keys = [(c, "ascending") for c in empty.column_names]
    assert got.num_rows == want.num_rows > 0
    assert got.sort_by(keys).equals(want.sort_by(keys))


@pytest.mark.parametrize("path", ["one_task", "exchange"])
def test_merge_paths_equal_oracles(tmp_path, monkeypatch, path):
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"), num_buckets=4,
                       derived_views=tuple(derived.VIEWS),
                       direct_batch_rows=300)
    cfg.ensure_dirs()
    write_wal(TINY, cfg.wal_dir, segment_rows=300)
    ingest.apply_tick(cfg)
    for name in GROUPED:
        matview.refresh_matview(cfg, name)
    if path == "exchange":
        monkeypatch.setattr(derived, "SMALL_VIEW_BYTES", 0)

    snap = ingest.snapshot_to_pandas(cfg)
    assert snap["tool"].isna().any() and snap["role"].notna().any()
    for name, oracle in GROUPED.items():
        empty = matview.GROUPED_MATVIEWS[name].empty_result()
        got, n_blocks = _read(matview.read_grouped_matview(cfg, name), empty)
        assert (n_blocks > 1) == (path == "exchange"), name
        _assert_equals_oracle(got, oracle(snap), empty)

    events = pa.concat_tables(
        [normalize_batch(pq.read_table(p), schemas.table_schema(3),
                         keep_extra=("lsn", "op"))
         for p in sorted(glob.glob(os.path.join(cfg.wal_dir, "*.parquet")))
         ]).to_pandas()
    m = TableState(cfg.table_dir).load_latest()
    assert all(len(m.derived[n]) > 1 for n in derived.VIEWS)
    for compacted in (False, True):
        if compacted:
            assert ingest.compact(cfg) is not None
            m = TableState(cfg.table_dir).load_latest()
            n_bases = {n: len(m.derived[n]) for n in derived.VIEWS}
            assert all((k > 1) == (path == "exchange")
                       for k in n_bases.values()), n_bases
        for name in derived.VIEWS:
            empty = derived.VIEWS[name].empty_result()
            got, _n = _read(ingest.read_derived(cfg, name), empty)
            _assert_equals_oracle(got, _additive(events, name), empty)
