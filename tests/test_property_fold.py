"""Property-based tests (hypothesis) for the LWW fold: engine vs naive
oracle equality and interval associativity over randomized seeded op
sequences (SURVEY.md §5 item 5, 'property-based-lite'). Pure pandas."""

import numpy as np
import pandas as pd
from hypothesis import given, settings, strategies as st

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.stages.apply import (
    collapse_events, resolve_final)
from techtalk_data_pipeline_snowpark_ray.state.oracle import apply_events_oracle

PAYLOAD = ["role", "text", "tool", "ts", "model"]


def _stream(seed: int, n: int, n_keys: int, p_partial: float) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    ops = rng.choice(["insert", "update", "delete"], size=n, p=[0.45, 0.4, 0.15])
    df = pd.DataFrame({
        "lsn": np.arange(n, dtype=np.int64),
        "op": ops,
        "conv_id": [f"c{i}" for i in rng.integers(0, max(n_keys // 3, 1), n)],
        "turn_idx": rng.integers(0, 3, n).astype(np.int64),
        "role": np.where(ops == "delete", None, "user"),
        "text": np.where(ops == "delete", None,
                         np.array([f"t{i}" for i in range(n)], dtype=object)),
        "tool": None, "ts": None, "model": None,
    })
    # some updates carry only a column subset (null = unchanged)
    part = (ops == "update") & (rng.random(n) < p_partial)
    df.loc[part, "role"] = None
    return df


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 300),
       n_keys=st.integers(1, 40), p_partial=st.floats(0, 0.8))
def test_fold_equals_oracle(seed, n, n_keys, p_partial):
    df = _stream(seed, n, n_keys, p_partial)
    engine = resolve_final(df, PAYLOAD)[["conv_id", "turn_idx", *PAYLOAD]] \
        .reset_index(drop=True)
    oracle = apply_events_oracle(df, PAYLOAD)
    pd.testing.assert_frame_equal(_nullnorm(engine), _nullnorm(oracle),
                                  check_dtype=False)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 300),
       n_cuts=st.integers(1, 6))
def test_fold_interval_associativity(seed, n, n_cuts):
    """collapse(chunks) then collapse == collapse(everything), for any
    partition into lsn intervals."""
    df = _stream(seed, n, 12, 0.3)
    rng = np.random.default_rng(seed + 1)
    cuts = sorted(set(rng.integers(1, n, size=min(n_cuts, n - 1)).tolist()))
    bounds = [0, *cuts, len(df)]
    chunks = [df.iloc[a:b] for a, b in zip(bounds, bounds[1:])]
    refold = pd.concat([collapse_events(c, PAYLOAD) for c in chunks if len(c)])
    whole = resolve_final(df, PAYLOAD).reset_index(drop=True)
    again = resolve_final(refold, PAYLOAD).reset_index(drop=True)
    pd.testing.assert_frame_equal(_nullnorm(again[whole.columns]),
                                  _nullnorm(whole), check_dtype=False)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), w=st.integers(2, 24),
       data=st.data())
def test_window_formula_coverage_and_no_subset(n, w, data):
    """The shared chunking/turn-window rule (packing.chunk_documents,
    cdc_queries.cdc_turn_windows): n_win = max(1, ceil((n - overlap) /
    stride)) with windows [k*stride, min(k*stride + w, n)). Invariants
    for every (n, w, stride): full coverage of [0, n), no window is a
    subset of its predecessor, consecutive windows overlap by exactly
    `overlap` (except a shorter trailing window), and window count is
    minimal (dropping the last window loses coverage when n > w)."""
    stride = data.draw(st.integers(1, w - 1))
    overlap = w - stride
    n_win = max(1, -((n - overlap) // -stride))
    wins = [(k * stride, min(k * stride + w, n)) for k in range(n_win)]
    # coverage
    covered = set()
    for lo, hi in wins:
        covered.update(range(lo, hi))
    assert covered == set(range(n))
    # no subset windows; minimality
    for (alo, ahi), (blo, bhi) in zip(wins, wins[1:]):
        assert not (alo <= blo and bhi <= ahi)
        assert blo < ahi          # consecutive windows do overlap
    if n > w:
        partial_cover = set()
        for lo, hi in wins[:-1]:
            partial_cover.update(range(lo, hi))
        assert partial_cover != set(range(n))   # last window is needed


# ---- fold_table (vectorized) vs collapse_events (pandas) differential ----

def _chaos_stream(seed: int, n: int, n_convs: int, n_turns: int,
                  p_dup: float) -> pd.DataFrame:
    """Randomized change stream with every hard case for the vectorized
    fold: re-delivered duplicates (same key+lsn, sometimes as a bare
    partial next to its collapsed full), already-collapsed ops mixed
    with raw ones, null payload columns, and multi-row keys."""
    rng = np.random.default_rng(seed)
    ops = rng.choice(["insert", "update", "delete", "full", "partial"],
                     size=n, p=[0.3, 0.3, 0.1, 0.15, 0.15])
    lsn = np.sort(rng.choice(np.arange(n * 2), size=n, replace=False))
    df = pd.DataFrame({
        "lsn": lsn.astype(np.int64),
        "op": ops,
        "conv_id": [f"c{i}" for i in rng.integers(0, n_convs, n)],
        "turn_idx": rng.integers(0, n_turns, n).astype(np.int64),
        "role": np.where(rng.random(n) < 0.3, None, "user"),
        "text": np.where(ops == "delete", None,
                         np.array([f"t{i}" for i in range(n)], dtype=object)),
        "tool": np.where(rng.random(n) < 0.7, None, "search"),
        "ts": None,
        "model": np.where(rng.random(n) < 0.5, None, "m1"),
    })
    # duplicate re-deliveries: clone random rows at the SAME (key, lsn);
    # half the clones of absolute rows are degraded to a bare partial
    # (the collapsed-vs-bare equal-lsn shape collapse_events ranks)
    dup = df.sample(frac=p_dup, random_state=seed)
    bare = dup.sample(frac=0.5, random_state=seed + 1).index
    dup.loc[bare, "op"] = "partial"
    dup.loc[bare, ["tool", "model"]] = None
    return pd.concat([df, dup], ignore_index=True) \
        .sample(frac=1, random_state=seed + 2, ignore_index=True)


def _nullnorm(df: pd.DataFrame) -> pd.DataFrame:
    """Round-trip through Arrow so every null-like is the same object:
    fold_table output arrives arrow-sourced (nulls -> None) while
    collapse_events stays pandas-native (nulls -> NaN); comparing the
    two mixed forms relies on assert_frame_equal leniency that pandas
    has deprecated (FutureWarning: 'Mismatched null-like values None
    and nan ... will raise')."""
    import pyarrow as pa
    return pa.Table.from_pandas(df, preserve_index=False).to_pandas()


def _fold_both(df: pd.DataFrame, barriers=None):
    import pyarrow as pa
    from techtalk_data_pipeline_snowpark_ray.stages.apply import fold_table
    tbl = pa.Table.from_pandas(df, preserve_index=False) \
        .replace_schema_metadata(None)
    vec = fold_table(tbl, PAYLOAD, barriers=barriers).to_pandas()
    ref = collapse_events(df, PAYLOAD, barriers=barriers)
    key = ["conv_id", "turn_idx"]
    vec = _nullnorm(vec.sort_values(key, ignore_index=True)[ref.columns])
    ref = _nullnorm(ref.sort_values(key, ignore_index=True)
                    .reset_index(drop=True))
    return vec, ref


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 400),
       n_convs=st.integers(1, 25), n_turns=st.integers(1, 4),
       p_dup=st.floats(0, 0.4))
def test_fold_table_equals_collapse_events(seed, n, n_convs, n_turns, p_dup):
    vec, ref = _fold_both(_chaos_stream(seed, n, n_convs, n_turns, p_dup))
    pd.testing.assert_frame_equal(vec, ref, check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 300),
       n_barriers=st.integers(1, 4))
def test_fold_table_equals_collapse_events_with_barriers(seed, n, n_barriers):
    df = _chaos_stream(seed, n, 10, 3, 0.2)
    hi = int(df["lsn"].max())
    rng = np.random.default_rng(seed + 7)
    barriers = sorted(set(rng.integers(0, hi + 1,
                                       size=n_barriers).tolist()))
    vec, ref = _fold_both(df, barriers=barriers)
    # barriers keep one record per (key, epoch): compare on (key, lsn)
    key = ["conv_id", "turn_idx", "lsn"]
    vec = vec.sort_values(key, ignore_index=True)
    ref = ref.sort_values(key, ignore_index=True)
    pd.testing.assert_frame_equal(vec, ref, check_dtype=False)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 300),
       n_hash_buckets=st.integers(1, 8), p_dup=st.floats(0, 0.4),
       with_barriers=st.booleans())
def test_fold_table_collision_demotion_differential(seed, n, n_hash_buckets,
                                                    p_dup, with_barriers):
    """Force 64-bit key-hash collisions (kh reduced mod n_hash_buckets,
    so DIFFERENT real keys share a hash in nearly every example) and
    run the full chaos stream through the collision-demotion branch --
    the coordinate re-filtering (order/kh_s/lsn_s) that the main
    differential never reaches, because its real hashes never collide.
    Combined with duplicate delivery, relative ops and barriers."""
    import pyarrow as pa
    from techtalk_data_pipeline_snowpark_ray.stages.apply import fold_table
    from techtalk_data_pipeline_snowpark_ray.stages.partition import key_hash

    df = _chaos_stream(seed, n, 12, 3, p_dup)
    barriers = None
    if with_barriers:
        hi = int(df["lsn"].max())
        rng = np.random.default_rng(seed + 7)
        barriers = sorted(set(rng.integers(0, hi + 1, size=2).tolist()))
    tbl = pa.Table.from_pandas(df, preserve_index=False) \
        .replace_schema_metadata(None)
    kh = key_hash(tbl["conv_id"],
                  tbl["turn_idx"].to_numpy(zero_copy_only=False))
    kh = (kh % np.uint64(n_hash_buckets)).astype(np.uint64)
    vec = fold_table(tbl, PAYLOAD, kh=kh, barriers=barriers).to_pandas()
    ref = collapse_events(df, PAYLOAD, barriers=barriers)
    key = ["conv_id", "turn_idx", "lsn"]
    vec = _nullnorm(vec.sort_values(key, ignore_index=True)[ref.columns])
    ref = _nullnorm(ref.sort_values(key, ignore_index=True)
                    .reset_index(drop=True))
    pd.testing.assert_frame_equal(vec, ref, check_dtype=False)


def test_fold_table_null_keys_match_collapse_events():
    """Null conv_id rows group as ONE key (collapse_events uses groupby
    dropna=False); the fold's hash-collision guard must compare null
    keys null-safely instead of crashing on pc.equal's null result
    (null keys always share a hash, so they always reach the guard)."""
    df = _chaos_stream(3, 120, 6, 2, 0.3)
    df.loc[df.sample(frac=0.3, random_state=9).index, "conv_id"] = None
    vec, ref = _fold_both(df)
    pd.testing.assert_frame_equal(vec, ref, check_dtype=False)


def test_fold_table_trailing_null_or_empty_key():
    """A batch whose LAST row carries a null or empty conv_id must fold,
    not crash: the string-hash kernel samples key bytes by offset, and a
    trailing zero-length key's start offset equals the data-buffer
    length (out of bounds before the gather clamp)."""
    df = _chaos_stream(5, 60, 6, 2, 0.2)
    for sentinel in (None, ""):
        d = df.copy()
        d.loc[d.index[0], "conv_id"] = sentinel
        d.loc[d.index[-1], "conv_id"] = sentinel
        vec, ref = _fold_both(d)
        pd.testing.assert_frame_equal(vec, ref, check_dtype=False)


def _rechunk(tbl, rng):
    """`tbl` cut into chunks at random boundaries, with empty chunks
    and chunks that are slices of a larger array at a nonzero offset --
    the shapes a multi-segment scan hands the fold."""
    import pyarrow as pa
    n = tbl.num_rows
    cuts = sorted(set(rng.integers(0, n + 1, size=rng.integers(1, 8))
                      .tolist()) | {0, n})
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        if rng.random() < 0.3:
            pieces.append(tbl.slice(a, 0))
        lo = max(a - 1, 0)                      # offset 1 when a > 0
        pieces.append(tbl.slice(lo, b - lo).combine_chunks()
                      .slice(a - lo))
    pieces.append(tbl.slice(n, 0))
    return pa.concat_tables(pieces)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 300),
       p_dup=st.floats(0, 0.4), n_hash_buckets=st.sampled_from([0, 1, 3]),
       with_barriers=st.booleans(), all_null=st.booleans())
def test_fold_table_chunked_equals_one_chunk(seed, n, p_dup, n_hash_buckets,
                                             with_barriers, all_null):
    """The fold gathers each column chunk by chunk: one chaos stream
    folded as one chunk and as many chunks gives equal tables, both
    equal collapse_events, and every output column is one chunk. Covers
    forced key-hash collisions (kh mod n_hash_buckets; 0 = the real
    hash), barriers and an all-null payload column."""
    import pyarrow as pa
    from techtalk_data_pipeline_snowpark_ray.stages.apply import fold_table
    from techtalk_data_pipeline_snowpark_ray.stages.partition import key_hash

    df = _chaos_stream(seed, n, 12, 3, p_dup)
    if all_null:
        df["tool"] = None
    rng = np.random.default_rng(seed + 3)
    barriers = None
    if with_barriers:
        barriers = sorted(set(rng.integers(
            0, int(df["lsn"].max()) + 1, size=2).tolist()))
    schema = pa.schema([("lsn", pa.int64()), ("op", pa.string()),
                        *schemas.table_schema(3)])
    one = pa.Table.from_pandas(df[schema.names], schema=schema,
                               preserve_index=False) \
        .replace_schema_metadata(None)
    kh = key_hash(one["conv_id"], one["turn_idx"].to_numpy())
    if n_hash_buckets:
        kh = kh % np.uint64(n_hash_buckets)
    many = _rechunk(one, rng)
    assert many.equals(one)
    got_one = fold_table(one, PAYLOAD, kh=kh, barriers=barriers)
    got_many = fold_table(many, PAYLOAD, kh=kh, barriers=barriers)
    assert got_many.equals(got_one)
    assert all(c.num_chunks == 1 for c in got_many.columns)
    key = [(c, "ascending") for c in ("conv_id", "turn_idx", "lsn")]
    ref = pa.Table.from_pandas(
        collapse_events(df[schema.names], PAYLOAD, barriers=barriers),
        schema=schema, preserve_index=False).replace_schema_metadata(None)
    assert got_many.sort_by(key).equals(ref.sort_by(key))


# ---- control ops: resolve_with_controls vs the sequential oracle ----

_CONTROL_PREDICATES = [
    {"col": "role", "fn": "eq", "value": "user"},
    {"col": "tool", "fn": "ne", "value": "search"},
    {"col": "turn_idx", "fn": "gt", "value": 0},
    {"col": "text", "fn": "contains", "value": "1"},
]
_CONTROL_ASSIGNMENTS = [
    {"tool": {"fn": "set", "value": "calc"}},
    {"text": {"fn": "upper", "col": "text"}},
    {"role": {"fn": "set", "value": "system"},
     "model": {"fn": "concat", "col": "model", "value": "-x"}},
]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 300),
       p_dup=st.floats(0, 0.3), data=st.data())
def test_resolve_with_controls_equals_sequential_oracle(seed, n, p_dup, data):
    """Control ops interleaved with a chaos stream (duplicates, mixed
    raw/collapsed ops, partial updates): the epoch fold of
    resolve_with_controls must equal replaying events and controls one
    at a time. Some controls sit exactly on an event's lsn, where the
    control applies first."""
    import pyarrow as pa
    from techtalk_data_pipeline_snowpark_ray.stages.controls import (
        ControlOp, resolve_with_controls)

    df = _chaos_stream(seed, n, 8, 3, p_dup)
    # the oracle's input contract: equal-(key, lsn) records without an
    # absolute one are byte-identical re-deliveries (the chaos stream
    # also degrades clones of relative records; keep their first copy).
    # Deletes keep their random payload, which must seed nothing.
    key_lsn = ["conv_id", "turn_idx", "lsn"]
    rel = df["op"].isin(["update", "partial"])
    has_abs = (~rel).groupby([df[c] for c in key_lsn]).transform("any")
    df = df[~(rel & ~has_abs & df.duplicated(key_lsn))]
    lsns = sorted(int(v) for v in df["lsn"].unique())
    ops = []
    for _ in range(data.draw(st.integers(1, 3))):
        lsn = data.draw(st.sampled_from(lsns)
                        | st.integers(0, lsns[-1] + 2))
        kind = data.draw(st.sampled_from(["update", "delete"]))
        ops.append(ControlOp(
            lsn=lsn, kind=kind,
            predicate=data.draw(st.sampled_from(_CONTROL_PREDICATES)),
            assignments=data.draw(st.sampled_from(_CONTROL_ASSIGNMENTS))
            if kind == "update" else {}))
    # typed like a run file: a control may set a column that is all
    # null in the input
    table_schema = schemas.table_schema(3)
    tbl = pa.Table.from_pandas(df, schema=pa.schema(
        [("lsn", pa.int64()), ("op", pa.string()), *table_schema]),
        preserve_index=False)
    got = resolve_with_controls(tbl, PAYLOAD, ops) \
        .select(table_schema.names).to_pandas()
    want = pa.Table.from_pandas(
        apply_events_oracle(df, PAYLOAD, control_ops=ops),
        schema=table_schema, preserve_index=False).to_pandas()
    pd.testing.assert_frame_equal(got, want)
