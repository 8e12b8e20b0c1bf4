"""The engine core is Arrow-only: the control-op DSL's pyarrow.compute
kernels against the oracle's pandas DSL, the type-family check that
keeps a mistyped op from committing, and an AST guard on where the
core modules may still touch pandas."""

import ast
import pathlib

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

import techtalk_data_pipeline_snowpark_ray as pkg
from techtalk_data_pipeline_snowpark_ray import schemas
from techtalk_data_pipeline_snowpark_ray.pipelines import ingest
from techtalk_data_pipeline_snowpark_ray.sources.generate import (
    GenSpec, write_wal)
from techtalk_data_pipeline_snowpark_ray.stages.controls import (
    ControlOp, apply_control, resolve_with_controls)
from techtalk_data_pipeline_snowpark_ray.state.manifest import TableState
from techtalk_data_pipeline_snowpark_ray.state.oracle import (
    apply_events_oracle)

# ---- differential: Arrow kernels vs the oracle's pandas DSL ----------

STATE_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int64()),
    ("lsn", pa.int64()), ("op", pa.string()),
    ("role", pa.string()), ("text", pa.string()), ("tool", pa.string()),
    ("score", pa.int64())])
PAYLOAD = ["role", "text", "tool", "score"]
STRING_COLS = ["role", "text", "tool"]
INT_COLS = ["turn_idx", "score"]
# Arrow maps case one code point to one ("ß" -> "ẞ", Python: "SS"), so
# the alphabet keeps to letters whose case maps agree
WORDS = ["", "a", "ab", "Ab", "b", "ba", "é", "Éa", "x1", "user"]

_words = st.sampled_from(WORDS)
_ints = st.integers(-3, 3)


@st.composite
def _state(draw):
    n = draw(st.integers(0, 12))
    cols = {
        "conv_id": [f"c{i}" for i in range(n)],
        "turn_idx": draw(st.lists(_ints, min_size=n, max_size=n)),
        "lsn": list(range(n)),
        "op": draw(st.lists(st.sampled_from(["full", "partial", "delete"]),
                            min_size=n, max_size=n)),
    }
    for c in STRING_COLS:
        cols[c] = draw(st.lists(st.none() | _words, min_size=n, max_size=n))
    cols["score"] = draw(st.lists(st.none() | _ints, min_size=n, max_size=n))
    tbl = pa.table(cols, schema=STATE_SCHEMA)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    bounds = [0, *cuts, n]
    # multi-chunk state, empty chunks included
    return pa.concat_tables([tbl.slice(a, b - a)
                             for a, b in zip(bounds, bounds[1:])])


_predicate = st.one_of(
    st.builds(lambda fn, col, v: {"col": col, "fn": fn, "value": v},
              st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
              st.sampled_from(STRING_COLS), _words),
    st.builds(lambda fn, col, v: {"col": col, "fn": fn, "value": v},
              st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
              st.sampled_from(INT_COLS),
              _ints | st.sampled_from([-0.5, 1.5])),
    st.builds(lambda fn, col, v: {"col": col, "fn": fn, "value": v},
              st.sampled_from(["contains", "startswith",
                               "startswith_lower"]),
              st.sampled_from(STRING_COLS), _words),
)

_assignment = st.one_of(
    st.tuples(st.sampled_from(STRING_COLS),
              st.builds(lambda v: {"fn": "set", "value": v},
                        st.none() | _words)),
    st.tuples(st.just("score"),
              st.builds(lambda v: {"fn": "set", "value": v},
                        st.none() | _ints)),
    st.tuples(st.sampled_from(STRING_COLS),
              st.builds(lambda fn, col: {"fn": fn, "col": col},
                        st.sampled_from(["upper", "lower"]),
                        st.sampled_from(STRING_COLS))),
    st.tuples(st.sampled_from(STRING_COLS),
              st.builds(lambda col, v: {"fn": "concat", "col": col,
                                        "value": v},
                        st.sampled_from(STRING_COLS), _words)),
    st.tuples(st.just("score"),
              st.builds(lambda fn, col, v: {"fn": fn, "col": col,
                                            "value": v},
                        st.sampled_from(["mul", "add"]),
                        st.sampled_from(INT_COLS), _ints)),
)

_op = st.builds(
    lambda kind, pred, assigns: ControlOp(
        lsn=1000, kind=kind, predicate=pred,
        assignments=dict(assigns) if kind == "update" else {}),
    st.sampled_from(["update", "delete"]), _predicate,
    st.lists(_assignment, min_size=1, max_size=3))


VISIBLE = ["conv_id", "turn_idx", *PAYLOAD]


def _oracle_side(state: pa.Table, ops: list) -> pa.Table:
    """The oracle's pandas DSL, one row at a time: the state's live rows
    replayed as inserts, then every op after them in order."""
    live = state.filter(pc.not_equal(state["op"], "delete")).to_pandas()
    live["op"] = "insert"
    out = apply_events_oracle(live, PAYLOAD, control_ops=ops)
    schema = pa.schema([STATE_SCHEMA.field(c) for c in VISIBLE])
    return pa.Table.from_pandas(out, schema=schema, preserve_index=False) \
        .replace_schema_metadata(None)


@settings(max_examples=300, deadline=None)
@given(state=_state(), ops=st.lists(_op, min_size=1, max_size=3))
def test_control_kernels_equal_pandas_dsl(state, ops):
    """Every predicate and assignment fn, null-valued rows, multi-chunk
    states and ops in sequence (a delete followed by updates that must
    not see its rows): the visible rows the Arrow kernels leave equal
    the oracle's."""
    got = state
    for op in ops:
        op.check(STATE_SCHEMA)
        got = apply_control(got, op, PAYLOAD)
        assert got.schema == STATE_SCHEMA
    got = got.filter(pc.not_equal(got["op"], "delete")).select(VISIBLE) \
        .sort_by([(k, "ascending") for k in ("conv_id", "turn_idx")])
    want = _oracle_side(state, ops)
    assert got.equals(want), (ops, got.to_pydict(), want.to_pydict())


def test_control_zero_match_and_assignment_order():
    """A zero-match mask returns the state untouched; every assignment
    reads the pre-update row, including one writing its own source."""
    state = pa.concat_tables([
        pa.table({"conv_id": ["a"], "turn_idx": [0], "lsn": [1],
                  "op": ["full"], "role": ["user"], "text": ["hi"],
                  "tool": [None], "score": [2]}, schema=STATE_SCHEMA),
        pa.table({"conv_id": ["b"], "turn_idx": [1], "lsn": [2],
                  "op": ["full"], "role": ["bot"], "text": [None],
                  "tool": ["calc"], "score": [None]}, schema=STATE_SCHEMA)])
    none = ControlOp(lsn=9, kind="delete",
                     predicate={"col": "role", "fn": "eq", "value": "x"})
    assert apply_control(state, none, PAYLOAD) is state
    swap = ControlOp(lsn=9, kind="update",
                     predicate={"col": "turn_idx", "fn": "ge", "value": 0},
                     assignments={"text": {"fn": "upper", "col": "role"},
                                  "role": {"fn": "concat", "col": "text",
                                           "value": "!"},
                                  "score": {"fn": "mul", "col": "score",
                                            "value": 3}})
    out = apply_control(state, swap, PAYLOAD)
    assert out.column("text").to_pylist() == ["USER", "BOT"]
    assert out.column("role").to_pylist() == ["hi!", None]
    assert out.column("score").to_pylist() == [6, None]
    assert out.column("lsn").to_pylist() == [8, 8]
    assert out.schema == STATE_SCHEMA


def test_control_delete_then_partial_update_matches_oracle():
    """A control delete tombstones and nulls the row; a later keyed
    partial update re-creates it from its own columns only -- nothing
    behind the delete comes back."""
    schema = pa.schema([("lsn", pa.int64()), ("op", pa.string()),
                        *schemas.table_schema(3)])
    payload = schemas.payload_cols(3)

    def rec(lsn, op, conv, turn, **vals):
        row = {f.name: None for f in schema}
        row.update(lsn=lsn, op=op, conv_id=conv, turn_idx=turn, **vals)
        return row

    events = pa.Table.from_pylist([
        rec(1, "insert", "a", 0, role="user", text="t0", tool="calc"),
        rec(2, "insert", "b", 0, role="bot", text="t1", tool="x"),
        rec(6, "update", "a", 0, text="new"),
        rec(7, "update", "b", 0, model="m"),
    ], schema=schema)
    ops = [ControlOp(lsn=5, kind="delete",
                     predicate={"col": "tool", "fn": "eq", "value": "calc"}),
           ControlOp(lsn=8, kind="update",
                     predicate={"col": "text", "fn": "startswith",
                                "value": "n"},
                     assignments={"tool": {"fn": "set", "value": "late"}})]
    got = resolve_with_controls(events, payload, ops) \
        .select(schemas.table_schema(3).names)
    want = pa.Table.from_pandas(
        apply_events_oracle(events, payload, control_ops=ops),
        schema=schemas.table_schema(3), preserve_index=False) \
        .replace_schema_metadata(None)
    assert got.equals(want), (got.to_pylist(), want.to_pylist())
    a = got.filter(pc.equal(got["conv_id"], "a")).to_pylist()[0]
    assert (a["role"], a["text"], a["tool"]) == (None, "new", "late")


@pytest.mark.parametrize("pred, assigns", [
    ({"col": "turn_idx", "fn": "gt", "value": "3"}, {}),
    ({"col": "role", "fn": "eq", "value": 3}, {}),
    ({"col": "turn_idx", "fn": "contains", "value": "1"}, {}),
    ({"col": "role", "fn": "eq", "value": "user"},
     {"turn_idx": {"fn": "set", "value": 2.5}}),
    ({"col": "role", "fn": "eq", "value": "user"},
     {"tool": {"fn": "add", "col": "turn_idx", "value": 1}}),
    ({"col": "role", "fn": "eq", "value": "user"},
     {"role": {"fn": "upper", "col": "ts"}}),
    ({"col": "nope", "fn": "eq", "value": "user"}, {}),
])
def test_mistyped_control_raises_before_publish(tmp_engine, pred, assigns):
    """A value or column whose type family does not match raises
    ValueError in apply_tick, before anything commits: LATEST stays,
    and the pending WAL is still consumed by the next tick."""
    # a control-only tick commits the first version
    ingest.apply_tick(tmp_engine, control_ops=[ControlOp(
        lsn=0, kind="delete",
        predicate={"col": "role", "fn": "eq", "value": "nobody"})])
    write_wal(GenSpec(n_events=600, n_conversations=20, seed=3),
              tmp_engine.wal_dir, segment_rows=300)
    state = TableState(tmp_engine.table_dir)
    before = state.latest_version()
    assert before is not None
    lsn = state.committed_lsn + 1
    bad = ControlOp(lsn=lsn, kind="update" if assigns else "delete",
                    predicate=pred, assignments=assigns)
    with pytest.raises(ValueError, match="control op"):
        ingest.apply_tick(tmp_engine, control_ops=[bad])
    assert state.latest_version() == before
    assert ingest.apply_tick(tmp_engine).segments_consumed == 2


# ---- guard: where the engine core may still touch pandas -------------

CORE = ["stages/*.py", "state/*.py", "pipelines/ingest.py",
        "pipelines/matview.py", "pipelines/joinview.py",
        "pipelines/derived.py"]
#: core-directory modules that are not engine core
NOT_CORE = {
    "stages/joins.py": "query-layer joins (broadcast/partitioned)",
    "stages/pairverify.py": "query-layer candidate-pair verification",
    "state/oracle.py": "the test oracle, pandas by design",
}
_PUBLIC = "public function that returns pandas; converts at the return"
_DIR1 = "perfbench still calls it; ROADMAP direction 1 deletes it"
#: (module, top-level function or Class.method) -> why it may use pandas
PANDAS_ALLOWED = {
    ("pipelines/ingest.py", "read_conversation"): _PUBLIC,
    ("pipelines/ingest.py", "snapshot_to_pandas"): _PUBLIC,
    ("pipelines/ingest.py", "metrics_history"): _PUBLIC,
    ("pipelines/ingest.py", "snapshot_diff"):
        "query-layer reduce through the exchange's pandas mode",
    ("stages/exchange.py", "exchange_map_groups"):
        "the pandas reduce mode of query-layer reduces",
    ("stages/exchange.py", "_reduce_part"):
        "the pandas reduce mode of query-layer reduces",
    ("stages/apply.py", "collapse_events"): "pandas reference fold; " + _DIR1,
    ("stages/apply.py", "resolve_final"): "pandas reference fold; " + _DIR1,
    ("stages/partition.py", "add_partition_cols"):
        "the Partitioner's hot-key salting branch; " + _DIR1,
}


def _pandas_uses(node) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in ("pd", "pandas"):
            return True
        if isinstance(n, ast.Attribute) and n.attr in (
                "to_pandas", "from_pandas", "to_pandas_refs"):
            return True
        if isinstance(n, ast.Constant) and n.value == "pandas":
            return True
    return False


def _scopes(tree: ast.Module):
    """(scope name, node) of every top-level statement; a class's
    methods are scopes of their own. Imports are not uses."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                name = sub.name if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""
                yield f"{node.name}.{name}".rstrip("."), sub
        else:
            yield "<module>", node


def test_engine_core_is_arrow_only():
    """In stages/, state/ and pipelines/{ingest,matview,joinview,
    derived}, pandas is used only by the allowlisted functions, each
    with its reason, and every allowlisted function still uses it.
    Replication and bootstrap build no Ray Data plan."""
    root = pathlib.Path(pkg.__file__).parent
    used = set()
    for pattern in CORE:
        for path in sorted(root.glob(pattern)):
            rel = path.relative_to(root).as_posix()
            if rel in NOT_CORE:
                continue
            tree = ast.parse(path.read_text())
            used |= {(rel, name) for name, node in _scopes(tree)
                     if _pandas_uses(node)}
    assert used - PANDAS_ALLOWED.keys() == set()
    assert PANDAS_ALLOWED.keys() - used == set()

    tree = ast.parse((root / "pipelines" / "ingest.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in (
                "replicate_delta", "bootstrap_import"):
            attrs = {n.attr for n in ast.walk(node)
                     if isinstance(n, ast.Attribute)}
            assert not attrs & {"map_batches", "to_pandas"}, node.name


def test_view_merges_stay_on_split_by_route():
    """No engine-core module imports `ray.data.aggregate` or calls a Ray
    Dataset `groupby`, so every view merge runs through
    `derived.merge_files`, whose exchange splits by `split_by_route`.
    A pandas `groupby` is allowed only where pandas is
    (PANDAS_ALLOWED)."""
    root = pathlib.Path(pkg.__file__).parent
    for pattern in CORE:
        for path in sorted(root.glob(pattern)):
            rel = path.relative_to(root).as_posix()
            if rel in NOT_CORE:
                continue
            tree = ast.parse(path.read_text())
            for n in ast.walk(tree):
                mods = [a.name for a in n.names] \
                    if isinstance(n, ast.Import) else \
                    [f"{n.module}.{a.name}" for a in n.names] \
                    if isinstance(n, ast.ImportFrom) else []
                assert not [m for m in mods
                            if m.startswith("ray.data.aggregate")], rel
            for name, node in _scopes(tree):
                calls = {n.func.attr for n in ast.walk(node)
                         if isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Attribute)}
                if "groupby" in calls:
                    assert (rel, name) in PANDAS_ALLOWED, (rel, name)
    merge = ast.parse((root / "pipelines" / "derived.py").read_text())
    assert "split_by_route" in {n.id for n in ast.walk(merge)
                                if isinstance(n, ast.Name)}
