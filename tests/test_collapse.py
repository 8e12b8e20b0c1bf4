"""Unit tests for the LWW fold (stages/apply.py) -- the merge operator
(U1-U7 of SURVEY.md §2.5) -- against hand-written cases and the naive
dict oracle. Pure pandas; no Ray needed."""

import numpy as np
import pandas as pd
import pytest

from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.stages.apply import (
    collapse_events, resolve_final)
from techtalk_data_pipeline_snowpark_ray.state.oracle import apply_events_oracle

PAYLOAD = ["role", "text", "tool", "ts", "model"]
COLS = ["lsn", "op", "conv_id", "turn_idx", *PAYLOAD]


def ev(lsn, op, conv="c1", turn=0, role=None, text=None, tool=None, ts=None, model=None):
    return dict(lsn=lsn, op=op, conv_id=conv, turn_idx=turn, role=role,
                text=text, tool=tool, ts=ts, model=model)


def frame(*events):
    return pd.DataFrame(list(events), columns=COLS)


def test_insert_then_full_update():
    df = frame(ev(1, "insert", role="user", text="a"),
               ev(2, "update", role="user", text="b", tool="t"))
    out = collapse_events(df, PAYLOAD)
    assert len(out) == 1
    r = out.iloc[0]
    assert r["op"] == schemas.OP_FULL and r["text"] == "b" and r["tool"] == "t"
    assert r["lsn"] == 2


def test_partial_update_inherits_earlier_values():
    df = frame(ev(1, "insert", role="user", text="a", tool="t0"),
               ev(2, "update", text="b"))          # partial: only text
    out = collapse_events(df, PAYLOAD)
    r = out.iloc[0]
    assert r["op"] == schemas.OP_FULL
    assert r["text"] == "b" and r["role"] == "user" and r["tool"] == "t0"


def test_delete_wins_when_last():
    df = frame(ev(1, "insert", text="a"), ev(2, "delete"))
    out = collapse_events(df, PAYLOAD)
    assert out.iloc[0]["op"] == schemas.OP_DELETE
    assert resolve_final(df, PAYLOAD).empty


def test_update_after_delete_does_not_resurrect():
    df = frame(ev(1, "insert", role="user", text="a", tool="t0"),
               ev(2, "delete"),
               ev(3, "update", text="b"))
    out = collapse_events(df, PAYLOAD)
    r = out.iloc[0]
    # fresh row from the update's columns only: no tool/role resurrection
    assert r["op"] == schemas.OP_FULL
    assert r["text"] == "b" and pd.isna(r["role"]) and pd.isna(r["tool"])


def test_delete_payload_never_seeds_a_later_partial():
    """A later partial update after a delete starts from an empty row,
    as in the sequential oracle (and as after a control tombstone): the
    delete's payload seeds nothing. A tombstone that ends its key keeps
    the delete event's own values, which a changefeed exports."""
    import pyarrow as pa
    from techtalk_data_pipeline_snowpark_ray.stages.apply import fold_table

    df = frame(ev(1, "insert", text="a", tool="t0"),
               ev(2, "delete", text="b"),
               ev(3, "update", role="r"))
    want = apply_events_oracle(df, PAYLOAD).iloc[0]
    assert want["role"] == "r" and want["text"] is None
    tomb = frame(ev(1, "insert", text="a"), ev(2, "delete", text="b"))
    for fold in (lambda d: collapse_events(d, PAYLOAD),
                 lambda d: fold_table(pa.Table.from_pandas(
                     d, preserve_index=False), PAYLOAD).to_pandas()):
        r = fold(df).iloc[0]
        assert r["op"] == schemas.OP_FULL and r["role"] == "r"
        assert pd.isna(r["text"]) and pd.isna(r["tool"])
        r = fold(tomb).iloc[0]
        assert r["op"] == schemas.OP_DELETE and r["text"] == "b"


def test_out_of_order_lsn_lww():
    df = frame(ev(3, "update", text="late-wins"),
               ev(1, "insert", text="a"),
               ev(2, "update", text="mid"))
    out = collapse_events(df, PAYLOAD)
    assert out.iloc[0]["text"] == "late-wins" and out.iloc[0]["lsn"] == 3


def test_duplicate_delivery_same_lsn_is_deduped():
    e = ev(5, "insert", text="x")
    df = frame(e, e, e)
    out = collapse_events(df, PAYLOAD)
    assert len(out) == 1 and out.iloc[0]["op"] == schemas.OP_FULL


def test_updates_only_stay_partial():
    df = frame(ev(1, "update", text="a"), ev(2, "update", tool="t"))
    out = collapse_events(df, PAYLOAD)
    r = out.iloc[0]
    assert r["op"] == schemas.OP_PARTIAL
    assert r["text"] == "a" and r["tool"] == "t"   # merged relative record


def test_refold_of_collapsed_records():
    # interval 1: insert+update -> full; interval 2: delete -> delete
    a = collapse_events(frame(ev(1, "insert", text="a"), ev(2, "update", text="b")), PAYLOAD)
    b = collapse_events(frame(ev(3, "delete")), PAYLOAD)
    out = collapse_events(pd.concat([a, b]), PAYLOAD)
    assert out.iloc[0]["op"] == schemas.OP_DELETE


def test_multiple_keys_independent():
    df = frame(ev(1, "insert", conv="c1", turn=0, text="a"),
               ev(2, "insert", conv="c1", turn=1, text="b"),
               ev(3, "delete", conv="c1", turn=0),
               ev(4, "insert", conv="c2", turn=0, text="c"))
    out = resolve_final(df, PAYLOAD)
    assert list(map(tuple, out[["conv_id", "turn_idx"]].to_numpy())) == [("c1", 1), ("c2", 0)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_stream_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 600
    ops = rng.choice(["insert", "update", "delete"], size=n, p=[0.5, 0.35, 0.15])
    df = pd.DataFrame({
        "lsn": np.arange(n, dtype=np.int64),
        "op": ops,
        "conv_id": [f"c{int(i)}" for i in rng.integers(0, 12, n)],
        "turn_idx": rng.integers(0, 5, n).astype(np.int64),
        "role": np.where(ops == "delete", None,
                         np.where(rng.random(n) < 0.3, None, "user")),
        "text": np.where(ops == "delete", None,
                         np.array([f"t{i}" for i in range(n)], dtype=object)),
        "tool": None, "ts": None, "model": None,
    })
    engine = resolve_final(df, PAYLOAD)[["conv_id", "turn_idx", *PAYLOAD]].reset_index(drop=True)
    oracle = apply_events_oracle(df, PAYLOAD)
    pd.testing.assert_frame_equal(engine, oracle, check_dtype=False)


@pytest.mark.parametrize("seed", [10, 11])
def test_interval_associativity(seed):
    """Folding lsn-interval chunks then re-folding == folding everything
    at once (the combiner/apply/compaction soundness condition)."""
    rng = np.random.default_rng(seed)
    n = 400
    ops = rng.choice(["insert", "update", "delete"], size=n, p=[0.4, 0.45, 0.15])
    df = pd.DataFrame({
        "lsn": np.arange(n, dtype=np.int64), "op": ops,
        "conv_id": [f"c{int(i)}" for i in rng.integers(0, 8, n)],
        "turn_idx": rng.integers(0, 4, n).astype(np.int64),
        "role": "user", "text": [f"t{i}" for i in range(n)],
        "tool": None, "ts": None, "model": None,
    })
    whole = resolve_final(df, PAYLOAD).reset_index(drop=True)
    cuts = sorted(rng.choice(np.arange(1, n), size=5, replace=False))
    chunks = np.split(df, cuts)
    refold = pd.concat([collapse_events(c, PAYLOAD) for c in chunks if len(c)])
    again = resolve_final(refold, PAYLOAD).reset_index(drop=True)
    pd.testing.assert_frame_equal(again[whole.columns], whole, check_dtype=False)


def test_fold_table_hash_collision_safe():
    """Two distinct conv_ids engineered to collide in the sampled key
    hash (same length, first-8 and last-8 bytes) must remain distinct
    keys through the arrow fast-path fold."""
    import pyarrow as pa
    from techtalk_data_pipeline_snowpark_ray.stages.apply import fold_table
    from techtalk_data_pipeline_snowpark_ray.stages.partition import hash_strings_arrow

    a = "conv-AAAAAAAAXMIDDLEAAAAAAAA"
    b = "conv-AAAAAAAAYMIDDLEAAAAAAAA"
    assert hash_strings_arrow(pa.array([a]))[0] == hash_strings_arrow(pa.array([b]))[0]
    batch = pa.table({
        "bucket": pa.array([0, 0, 0, 0], pa.int32()),
        "conv_id": [a, b, a, b],
        "turn_idx": pa.array([1, 1, 1, 1], pa.int64()),
        "lsn": pa.array([1, 2, 3, 4], pa.int64()),
        "op": ["insert", "insert", "insert", "delete"],
        "role": ["user"] * 3 + [None], "text": ["x1", "x2", "x3", None],
        "tool": [None] * 4,
        "ts": pa.array([None] * 4, pa.timestamp("us")),
        "model": [None] * 4,
    })
    out = fold_table(batch, PAYLOAD).to_pandas()
    out = out.sort_values("conv_id", ignore_index=True)
    assert len(out) == 2
    ra = out[out["conv_id"] == a].iloc[0]
    rb = out[out["conv_id"] == b].iloc[0]
    assert ra["op"] == "full" and ra["text"] == "x3"     # lsn 3 wins for a
    assert rb["op"] == "delete"                          # lsn 4 delete wins for b


def test_hash_strings_arrow_trailing_zero_length():
    """Frozen-hash kernel (fnv-sample-v1): a TRAILING null/empty string
    (whose start offset equals the data-buffer length) must hash without
    reading past the buffer; zero-length keys hash identically wherever
    they sit; non-empty keys' hashes are independent of their neighbors.
    Golden values pin the persisted bucket placement."""
    import pyarrow as pa
    from techtalk_data_pipeline_snowpark_ray.stages.partition import (
        hash_strings_arrow)

    EMPTY_H = 13375643620678262563          # hash of "" / null (length-only)
    ABC_H = 16252155359719068514            # hash of "abc"
    h = hash_strings_arrow(pa.array(["abc", None], pa.string()))
    assert h[0] == ABC_H and h[1] == EMPTY_H
    h = hash_strings_arrow(pa.array(["abc", ""], pa.string()))
    assert h[0] == ABC_H and h[1] == EMPTY_H
    h = hash_strings_arrow(pa.array(["x" * 100, "y", ""], pa.string()))
    assert h[2] == EMPTY_H
    # position-independence: each element hashes the same standalone
    big = pa.array(["abc", None, "", "x" * 200, "y"], pa.large_string())
    hb = hash_strings_arrow(big)
    for i, v in enumerate(["abc", None, "", "x" * 200, "y"]):
        assert hb[i] == hash_strings_arrow(pa.array([v], pa.string()))[0]
    # sliced chunk (nonzero chunk offset) agrees with the full array
    assert (hash_strings_arrow(big.slice(1, 3)) == hb[1:4]).all()


def _referenced_names(node) -> set[str]:
    """Every identifier `node` references: names, attributes, imports."""
    import ast
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def test_one_production_fold():
    """The pandas fold is the test oracle only: no package module but
    stages/apply.py (which defines it) references collapse_events or
    resolve_final, and fold_table -- with every helper it calls in
    that module -- touches neither them nor pandas."""
    import ast
    import pathlib

    import techtalk_data_pipeline_snowpark_ray as pkg

    root = pathlib.Path(pkg.__file__).parent
    reference = {"collapse_events", "resolve_final"}
    offenders = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "stages/apply.py":
            continue
        used = _referenced_names(ast.parse(path.read_text())) & reference
        if used:
            offenders[rel] = sorted(used)
    assert offenders == {}

    tree = ast.parse((root / "stages" / "apply.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached, todo = set(), ["fold_table"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_referenced_names(funcs[name]) & funcs.keys())
    assert not reached & reference
    for name in reached:
        used = _referenced_names(funcs[name]) & {"pd", "to_pandas",
                                                 "from_pandas"}
        assert not used, (name, used)
