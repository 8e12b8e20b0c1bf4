"""Apply-time conditional operations ("control ops"): table-wide
UPDATE ... WHERE / DELETE ... WHERE evaluated against the CURRENT table
state at a specific position (lsn) in the change stream.

Reference parity: ``SampleCrud.scala:28-36`` (conditional update with
computed assignments), ``SampleCrud.scala:71-75`` (conditional delete),
wrapper ``SnowflakeUtilsOld.scala:66-82``. Unlike keyed change events,
these ops have no key: they apply to every row whose current state
matches a predicate, so they must interleave with keyed events in lsn
order.

Mechanics (see also stages/apply.py):

  * a control op at lsn L is an *epoch barrier*: folds must never
    collapse a key's events across L, because the op has to see the
    state as of L (``fold_table(..., barriers=...)`` keeps one
    collapsed record per (key, epoch));
  * resolution (:func:`resolve_with_controls`, the one resolve every
    read, view, query and compaction path calls) folds epoch 0, applies
    the first control to the folded state (vectorized mask + assignment
    kernels), LWW-merges epoch 1 on top, applies the second control,
    ...; modified rows advance their lsn to the control's lsn. The one
    input it is skipped for is a bucket that is one compacted base
    alone with no op pending (:func:`resolve_stored`): compaction
    already wrote that base as its resolve;
  * ops are committed in the table manifest (same atomic publish as the
    data) and absorbed -- then dropped -- by the first compaction whose
    committed_lsn covers them.

Predicates and assignments are a small declarative, JSON-serializable
DSL (no pickled lambdas in the manifest) run by `pyarrow.compute` on
the folded Arrow state: a predicate is a mask where a null compare is
False (SQL, also for ``ne``); assignments read the PRE-update columns
and write back with ``if_else``. :meth:`ControlOp.check` rejects a
value outside its column's type family before the op commits. Case
maps are Arrow's one code point to one (``"ß"`` upper-cases to
``"ẞ"``, not ``"SS"``). The pandas form of the DSL is the test
oracle's (`state.oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from .apply import fold_table

_PREDICATES = {
    "eq": pc.equal,
    "ne": pc.not_equal,
    "lt": pc.less,
    "le": pc.less_equal,
    "gt": pc.greater,
    "ge": pc.greater_equal,
    "contains": pc.match_substring,
    "startswith": pc.starts_with,
    "startswith_lower": lambda c, v: pc.starts_with(pc.utf8_lower(c), v),
}
_STRING_PREDICATES = ("contains", "startswith", "startswith_lower")

_ASSIGNMENTS = {
    # set a literal
    "set": lambda t, spec: spec["value"],
    # string transforms of a (possibly different) column
    "upper": lambda t, spec: pc.utf8_upper(t[spec["col"]]),
    "lower": lambda t, spec: pc.utf8_lower(t[spec["col"]]),
    "concat": lambda t, spec: pc.binary_join_element_wise(
        t[spec["col"]], spec["value"], ""),
    # arithmetic on a column (overflow raises)
    "mul": lambda t, spec: pc.multiply_checked(t[spec["col"]], spec["value"]),
    "add": lambda t, spec: pc.add_checked(t[spec["col"]], spec["value"]),
}


_NUMBERS = {"int", "float"}


def _family(t: pa.DataType) -> str:
    """"string", "int", "float", or the type's own name (bool, null,
    timestamp[us], ...)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "string"
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_floating(t):
        return "float"
    return str(t)


@dataclass(frozen=True)
class ControlOp:
    """One conditional table op, positioned at `lsn` in the stream.

    kind: "update" (apply `assignments` to matching rows) or "delete"
    (tombstone matching rows). `predicate` = {"col", "fn", "value"};
    `assignments` = {out_col: {"fn", ...spec}} (see module DSL maps).
    """
    lsn: int
    kind: str                                   # "update" | "delete"
    predicate: dict
    assignments: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("update", "delete"):
            raise ValueError(f"unknown control kind {self.kind!r}")
        if self.predicate["fn"] not in _PREDICATES:
            raise ValueError(f"unknown predicate fn {self.predicate['fn']!r}")
        for col, spec in self.assignments.items():
            if spec["fn"] not in _ASSIGNMENTS:
                raise ValueError(f"unknown assignment fn {spec['fn']!r}")

    def check(self, schema: pa.Schema) -> None:
        """Raise ValueError unless every column the op names is in
        `schema` and every value fits its column's type family: a
        compare takes any number for a number column, and an int may be
        written into a float column. A literal's family is inferred
        (``pa.scalar(v).type``), never cast: a cast parses ``"3"`` into
        an int."""
        def fam(col: str) -> str:
            if schema.get_field_index(col) == -1:
                raise ValueError(f"control op at lsn {self.lsn}: unknown "
                                 f"column {col!r}")
            return _family(schema.field(col).type)

        def lit(v) -> str:
            return _family(pa.scalar(v).type)

        def require(ok: bool, what: str, col: str) -> None:
            if not ok:
                raise ValueError(f"control op at lsn {self.lsn}: {what} "
                                 f"does not fit column {col!r} ({fam(col)})")

        p = self.predicate
        col, val = fam(p["col"]), lit(p["value"])
        require((col == val or {col, val} <= _NUMBERS)
                and (p["fn"] not in _STRING_PREDICATES or col == "string"),
                f"{p['fn']} {p['value']!r}", p["col"])
        for out, spec in self.assignments.items():
            if spec["fn"] == "set":
                got = lit(spec["value"])            # "null" fits any column
            elif spec["fn"] in ("mul", "add"):
                pair = {fam(spec["col"]), lit(spec["value"])}
                got = "int" if pair == {"int"} \
                    else "float" if pair <= _NUMBERS else None
            else:                                   # upper, lower, concat
                got = "string" if fam(spec["col"]) == "string" \
                    and lit(spec.get("value", "")) == "string" else None
            require(got in (fam(out), "null")
                    or (got, fam(out)) == ("int", "float"),
                    f"{spec['fn']} {spec!r}", out)

    def to_dict(self) -> dict:
        return {"lsn": self.lsn, "kind": self.kind,
                "predicate": dict(self.predicate),
                "assignments": {k: dict(v) for k, v in self.assignments.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "ControlOp":
        return cls(lsn=int(d["lsn"]), kind=d["kind"],
                   predicate=d["predicate"],
                   assignments=d.get("assignments", {}))


def sorted_controls(controls) -> list[ControlOp]:
    ops = [c if isinstance(c, ControlOp) else ControlOp.from_dict(c)
           for c in (controls or [])]
    return sorted(ops, key=lambda c: c.lsn)


def apply_control(state: pa.Table, op: ControlOp,
                  payload_cols: list[str] | None = None) -> pa.Table:
    """Apply one control op to a folded state table.

    Tombstoned rows are invisible to the predicate; modified rows take
    lsn = op.lsn - 1 -- strictly AFTER everything the control read
    (state folds events with lsn < op.lsn) but strictly BEFORE a keyed
    event at exactly op.lsn, which by the barrier rule applies after
    the control: giving modified rows op.lsn itself would make them
    (key, lsn)-collide with that event and the dedup would silently
    drop one of the two. Control tombstones null their payload like
    WAL delete events do -- a later partial update's forward-fill must
    find nothing to resurrect behind the delete barrier. Every
    assignment is computed from the PRE-update columns (SQL UPDATE
    semantics): a later assignment never sees an earlier one's
    result."""
    if not state.num_rows:
        return state
    pred = op.predicate
    mask = pc.and_(
        pc.fill_null(_PREDICATES[pred["fn"]](state[pred["col"]],
                                             pred["value"]), False),
        pc.not_equal(state[schemas.OP_COL], schemas.OP_DELETE))
    if not pc.any(mask).as_py():
        return state
    names = state.column_names
    if op.kind == "delete":
        wipe = payload_cols if payload_cols is not None else [
            c for c in names
            if c not in (*schemas.KEY_COLS, schemas.LSN_COL, schemas.OP_COL)]
        new = {c: None for c in wipe if c in names}
        new[schemas.OP_COL] = schemas.OP_DELETE
    else:
        new = {col: _ASSIGNMENTS[spec["fn"]](state, spec)
               for col, spec in op.assignments.items() if col in names}
    new[schemas.LSN_COL] = op.lsn - 1
    for col, val in new.items():
        i = state.schema.get_field_index(col)
        old = state.column(i)
        # a literal is broadcast to a column first: pyarrow 16's if_else
        # of a string SCALAR over a sliced string chunk writes wrong bytes
        val = pc.cast(val, old.type) \
            if isinstance(val, (pa.Array, pa.ChunkedArray)) \
            else pa.repeat(pa.scalar(val, old.type), len(old))
        state = state.set_column(i, state.schema.field(i),
                                 pc.if_else(mask, val, old))
    return state


def resolve_with_controls(tbl: pa.Table, payload_cols: list[str],
                          controls: list[ControlOp],
                          sort: bool = True) -> pa.Table:
    """Collapse change records to the final visible state -- the one
    resolve of every read, view and query path, and of compaction.

    Folds with :func:`fold_table` (epoch 0 first when `controls` is
    non-empty), applies each control op to the folded state and
    LWW-merges the next epoch on top; then drops tombstones and, with
    `sort`, orders rows by (conv_id, turn_idx). Columns and types are
    those of `tbl`."""
    controls = sorted_controls(controls)
    if not controls:
        state = fold_table(tbl, payload_cols)
    else:
        barriers = [c.lsn for c in controls]
        folded = fold_table(tbl, payload_cols, barriers=barriers)
        epoch = np.searchsorted(
            barriers, folded[schemas.LSN_COL].to_numpy(zero_copy_only=False),
            side="right")
        epochs = [folded.filter(pa.array(epoch == i))
                  for i in range(len(controls) + 1)]
        # The merges below fold WITHOUT barriers: everything merged
        # after control i lies at-or-before control i+1's position, so
        # the per-key records MUST fold into one current record for the
        # next control to see (and for partials to inherit across
        # epochs). Barriers only protect the initial fold of raw
        # records from folding across a control position.
        state = epochs[0]
        for op, nxt in zip(controls, epochs[1:]):
            state = apply_control(state, op, payload_cols)
            if nxt.num_rows:
                state = fold_table(pa.concat_tables([state, nxt]),
                                   payload_cols)
    state = state.filter(pc.not_equal(state[schemas.OP_COL],
                                      schemas.OP_DELETE))
    if sort:
        state = state.take(pc.sort_indices(state, sort_keys=[
            (k, "ascending") for k in schemas.KEY_COLS]))
    return state


def resolve_stored(tbl: pa.Table, payload_cols: list[str],
                   controls: list[ControlOp], lone_base: bool,
                   sort: bool = True) -> pa.Table:
    """:func:`resolve_with_controls` of one bucket's stored input. With
    `lone_base` -- the bucket's only rows are those of one compacted
    base run -- and no control op to apply, `tbl` is returned as read:
    compaction wrote the base as its own resolve (one row per key, no
    tombstone, sorted by (conv_id, turn_idx)), so a fold would return
    the same rows."""
    if lone_base and not controls:
        return tbl
    return resolve_with_controls(tbl, payload_cols, controls, sort=sort)
