"""IVF vector index (grouped matview `ivf_index`) + probe-pruned ANN
search (`matview.search_ann`). Parity oracle: brute-force embedding +
cell assignment + exact cosine rank over the resolved snapshot."""

import numpy as np
import pandas as pd
import pytest

from techtalk_data_pipeline_snowpark_ray.config import EngineConfig
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest, matview
from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
    ANN_QUERY, ann_centroids, ann_probe_cells, read_grouped_matview,
    refresh_matview, search_ann)
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, generate_chunks)
from techtalk_data_pipeline_snowpark_ray.sources.wal import WalWriter

SPEC = GenSpec(n_events=3000, n_conversations=60, max_turns=10,
               zipf_s=1.2, ooo_window=16, dup_fraction=0.02,
               partial_update_fraction=0.2, schema_add_at=1000,
               schema_widen_at=2000, seed=11)


def _mk_cfg(tmp_path):
    cfg = EngineConfig(table_dir=str(tmp_path / "t"),
                       wal_dir=str(tmp_path / "w"),
                       num_buckets=8, apply_mode="direct")
    cfg.ensure_dirs()
    return cfg


def _build_two_phase(cfg):
    chunks = list(generate_chunks(SPEC))
    mid = len(chunks) // 2 or 1
    w = WalWriter(cfg.wal_dir, segment_rows=600, reorder_slack=64)
    for t, v in chunks[:mid]:
        w.append(t, v)
    w.flush()
    assert ingest.apply_tick(cfg) is not None
    m1 = refresh_matview(cfg, "ivf_index")
    assert m1.metrics["matview_refresh"]["mode"] == "full"
    for t, v in chunks[mid:]:
        w.append(t, v)
    w.close()
    assert ingest.apply_tick(cfg) is not None
    m2 = refresh_matview(cfg, "ivf_index")
    assert m2.metrics["matview_refresh"]["mode"] == "incremental"


def _embed_py(texts: pd.Series) -> np.ndarray:
    return np.stack([texts.str.count(str(d)).to_numpy()
                     for d in range(10)], axis=1).astype(np.float64)


def _brute(snap: pd.DataFrame, query, k=10, nprobe=4):
    """Reference: embed the live snapshot, assign cells, probe, rank."""
    snap = snap[snap["text"].notna()].copy()
    E = _embed_py(snap["text"])
    keep = E.sum(axis=1) > 0
    snap, E = snap[keep], E[keep]
    C = ann_centroids()
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    cells = np.argmax(np.round(En @ Cn.T, 6), axis=1)
    probes = set(ann_probe_cells(query, nprobe))
    inprobe = np.array([c in probes for c in cells])
    cand = snap[inprobe].copy()
    Ec = E[inprobe]
    q = np.asarray(query, float)
    cand["sim"] = np.round(
        Ec @ (q / np.linalg.norm(q)) / np.linalg.norm(Ec, axis=1), 6)
    cand = cand.sort_values(["sim", "conv_id", "turn_idx"],
                            ascending=[False, True, True]).head(k)
    return cand[["conv_id", "turn_idx"]].astype(
        {"turn_idx": "int64"}).sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)


def _search_df(cfg, **kw) -> pd.DataFrame:
    return search_ann(cfg, ANN_QUERY, **kw).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)


def test_ann_search_matches_brute_force_after_incremental(tmp_path):
    cfg = _mk_cfg(tmp_path)
    _build_two_phase(cfg)
    snap = ingest.snapshot_to_pandas(cfg)
    want = _brute(snap, ANN_QUERY)
    got = _search_df(cfg)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # retraction check: the index holds exactly the embeddable live
    # rows (updates/deletes re-derived their buckets' postings)
    idx = read_grouped_matview(cfg, "ivf_index").to_pandas()
    live = snap[snap["text"].notna()]
    live = live[_embed_py(live["text"]).sum(axis=1) > 0]
    assert len(idx) == len(live)


def test_ann_search_survives_compaction_and_requires_refresh(tmp_path):
    cfg0 = EngineConfig(table_dir=str(tmp_path / "t0"),
                        wal_dir=str(tmp_path / "w0"), num_buckets=8,
                        apply_mode="direct")
    cfg0.ensure_dirs()
    with pytest.raises(ValueError, match="never been refreshed"):
        _build_and_search_unrefreshed(cfg0)
    cfg = _mk_cfg(tmp_path)
    _build_two_phase(cfg)
    before = _search_df(cfg)
    ingest.compact(cfg)
    pd.testing.assert_frame_equal(_search_df(cfg), before)


def _build_and_search_unrefreshed(cfg):
    chunks = list(generate_chunks(SPEC))
    w = WalWriter(cfg.wal_dir, segment_rows=600, reorder_slack=64)
    for t, v in chunks[: len(chunks) // 2 or 1]:
        w.append(t, v)
    w.close()
    ingest.apply_tick(cfg)
    return search_ann(cfg, ANN_QUERY)


def test_probe_read_is_cell_pruned(tmp_path):
    """The search scan touches only the probed cells' posting rows —
    asserted via the same parquet predicate the read uses."""
    import pyarrow.dataset as pads

    from techtalk_data_pipeline_snowpark_ray.state.manifest import \
        TableState

    cfg = _mk_cfg(tmp_path)
    _build_two_phase(cfg)
    state = TableState(cfg.table_dir)
    paths = state.derived_paths(
        matview.GROUPED_MATVIEWS["ivf_index"].derived_key,
        state.load_latest())
    probes = ann_probe_cells(ANN_QUERY, 4)
    idx = pads.dataset(paths, format="parquet")
    n_probe = idx.count_rows(filter=pads.field("cell").isin(probes))
    # substantive: posting rows OUTSIDE the probed cells exist and were
    # skipped (a total-rows comparison is vacuous — marker rows and
    # superseded generations never match the isin filter anyway)
    n_skipped = idx.count_rows(
        filter=~pads.field("cell").isin(probes)
        & ~pads.field("cell").is_null())
    assert n_probe > 0 and n_skipped > 0


def test_zero_norm_query_rejected(tmp_path):
    with pytest.raises(ValueError, match="zero norm"):
        matview.ann_probe_cells([0.0] * 10, 4)


def test_hybrid_search_token_filter_then_vector_rank(tmp_path):
    """search_hybrid = search_tokens candidates ranked by cosine —
    checked against a pandas recomputation on the resolved snapshot."""
    import re as _re

    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
        TOKEN_SPLIT_RE, refresh_matview as _refresh, search_hybrid)

    cfg = _mk_cfg(tmp_path)
    _build_two_phase(cfg)
    _refresh(cfg, "token_index")
    snap = ingest.snapshot_to_pandas(cfg)
    toks = snap["text"].dropna().str.lower() \
        .str.split(_re.compile(TOKEN_SPLIT_RE).pattern).explode()
    tok = toks[toks.str.len() > 0].value_counts().index[0]

    got = search_hybrid(cfg, ANN_QUERY, k=5, all_of=(tok,)) \
        .to_pandas().sort_values(["conv_id", "turn_idx"],
                                 ignore_index=True)
    # brute: rows containing tok, ranked by rounded cosine
    has = snap["text"].notna() & snap["text"].str.lower() \
        .str.split(_re.compile(TOKEN_SPLIT_RE).pattern) \
        .map(lambda t: isinstance(t, list) and tok in t)
    cand = snap[has].copy()
    E = _embed_py(cand["text"])
    keep = np.linalg.norm(E, axis=1) > 0
    cand, E = cand[keep], E[keep]
    q = np.asarray(ANN_QUERY, float)
    cand["sim"] = np.round(
        E @ (q / np.linalg.norm(q)) / np.linalg.norm(E, axis=1), 6)
    want = cand.sort_values(["sim", "conv_id", "turn_idx"],
                            ascending=[False, True, True]).head(5) \
        .drop(columns=["sim"]).sort_values(["conv_id", "turn_idx"],
                                           ignore_index=True)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True)[want.columns.tolist()], want,
        check_dtype=False)
    with pytest.raises(ValueError, match="zero norm"):
        search_hybrid(cfg, [0.0] * 10, all_of=(tok,))


def test_search_serves_stale_index_across_rebucket(tmp_path):
    """A rebucket migration between refresh and search: ANN search
    keeps serving the last refreshed state (postings carry keys
    directly; old-layout bucket ids only gate epochs), and token
    search falls back to the full verified scan because its pruning
    ids refer to the OLD layout — results must equal the pre-migration
    truth in both cases, and re-refreshing restores pruning."""
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
        refresh_matview as _refresh, search_token)

    cfg = _mk_cfg(tmp_path)
    _build_two_phase(cfg)
    _refresh(cfg, "token_index")
    snap = ingest.snapshot_to_pandas(cfg)
    tok = snap["text"].dropna().str.lower().str.split(r"[^a-z0-9]+") \
        .explode().value_counts().index[0]
    ann_before = _search_df(cfg)
    tok_before = search_token(cfg, tok).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    assert len(tok_before) > 0

    cfg.num_buckets = 4                    # migrate 8 -> 4 buckets
    ingest.compact(cfg, rebucket=True)
    pd.testing.assert_frame_equal(_search_df(cfg), ann_before)
    tok_after = search_token(cfg, tok).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(tok_after, tok_before)

    _refresh(cfg, "ivf_index")             # forced-full under new layout
    _refresh(cfg, "token_index")
    pd.testing.assert_frame_equal(_search_df(cfg), ann_before)
    tok_re = search_token(cfg, tok).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(tok_re, tok_before)


def test_search_on_clone_serves_unpruned(tmp_path):
    """A clone keeps the source's derived index files (whose names
    embed SOURCE version numbers) over a fresh v0-only manifest
    lineage: the layout guard must treat the refresh layout as
    unknowable and fall back to the full verified scan — never crash,
    and results must equal the source's."""
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import (
        refresh_matview as _refresh, search_token)

    cfg = _mk_cfg(tmp_path)
    _build_two_phase(cfg)
    ingest.compact(cfg)                  # source version advances past 0
    _refresh(cfg, "token_index")
    snap = ingest.snapshot_to_pandas(cfg)
    tok = snap["text"].dropna().str.lower().str.split(r"[^a-z0-9]+") \
        .explode().value_counts().index[0]
    want = search_token(cfg, tok).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    assert len(want) > 0

    cfg2 = EngineConfig(table_dir=str(tmp_path / "t2"),
                        wal_dir=str(tmp_path / "w2"), num_buckets=8,
                        apply_mode="direct")
    cfg2.ensure_dirs()
    ingest.clone_table(cfg, cfg2)
    got = search_token(cfg2, tok).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(got, want)


def test_exhaustive_probe_equals_brute_force(tmp_path):
    """nprobe=ANN_CELLS (probe every cell) must return the exact
    brute-force top-k — and exercises the per-batch local top-k prune
    in front of the global sort (candidate set = every embeddable row,
    far larger than k, so pruned batches feed the sort exchange)."""
    from techtalk_data_pipeline_snowpark_ray.pipelines.matview import ANN_CELLS
    cfg = _mk_cfg(tmp_path)
    _build_two_phase(cfg)
    snap = ingest.snapshot_to_pandas(cfg)
    for k in (3, 10):
        want = _brute(snap, ANN_QUERY, k=k, nprobe=ANN_CELLS)
        got = _search_df(cfg, k=k, nprobe=ANN_CELLS)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
