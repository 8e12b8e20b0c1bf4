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
    ...; modified rows advance their lsn to the control's lsn;
  * ops are committed in the table manifest (same atomic publish as the
    data) and absorbed -- then dropped -- by the first compaction whose
    committed_lsn covers them.

Predicates and assignments are a small declarative, JSON-serializable
DSL (no pickled lambdas in the manifest): every function is a
vectorized pandas kernel. The fold itself is Arrow; the state goes
through pandas only while a control op is applied to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from .apply import fold_table

def _cmp(fn):
    """Comparison kernel tolerant of object columns holding None (a
    payload column wiped by a control delete, or never set by partial
    updates): on TypeError the column is coerced to the value's family
    (numeric or string) and nulls compare False, matching SQL.

    The explicit notna() AND is what enforces the SQL rule for ``ne``:
    pandas evaluates ``NULL != v`` to True (so fillna never fires),
    while SQL's three-valued logic excludes NULL rows from EVERY
    comparison — without the mask a ``ne`` control would wrongly
    update/delete all null-valued rows."""
    def kernel(s, v):
        cmp_s = s
        try:
            out = fn(cmp_s, v)
        except TypeError:
            cmp_s = pd.to_numeric(s, errors="coerce") \
                if isinstance(v, (int, float, np.number)) \
                else s.astype("string")
            out = fn(cmp_s, v)
        return pd.Series(out).fillna(False) & cmp_s.notna()
    return kernel


_PREDICATES = {
    "eq": _cmp(lambda s, v: s == v),
    "ne": _cmp(lambda s, v: s != v),
    "lt": _cmp(lambda s, v: s < v),
    "le": _cmp(lambda s, v: s <= v),
    "gt": _cmp(lambda s, v: s > v),
    "ge": _cmp(lambda s, v: s >= v),
    "contains": lambda s, v: s.astype("string").str.contains(v, regex=False).fillna(False),
    "startswith": lambda s, v: s.astype("string").str.startswith(v).fillna(False),
    "startswith_lower": lambda s, v: s.astype("string").str.lower().str.startswith(v).fillna(False),
}

_ASSIGNMENTS = {
    # set a literal
    "set": lambda df, spec: spec["value"],
    # string transforms of a (possibly different) column
    "upper": lambda df, spec: df[spec["col"]].astype("string").str.upper(),
    "lower": lambda df, spec: df[spec["col"]].astype("string").str.lower(),
    "concat": lambda df, spec: df[spec["col"]].astype("string") + spec["value"],
    # arithmetic on a column
    "mul": lambda df, spec: df[spec["col"]] * spec["value"],
    "add": lambda df, spec: df[spec["col"]] + spec["value"],
}


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


def apply_control(state: pd.DataFrame, op: ControlOp,
                  payload_cols: list[str] | None = None) -> pd.DataFrame:
    """Apply one control op to a folded state frame (vectorized).

    Tombstoned rows are invisible to the predicate; modified rows take
    lsn = op.lsn - 1 -- strictly AFTER everything the control read
    (state folds events with lsn < op.lsn) but strictly BEFORE a keyed
    event at exactly op.lsn, which by the barrier rule applies after
    the control: giving modified rows op.lsn itself would make them
    (key, lsn)-collide with that event and the dedup would silently
    drop one of the two. Control tombstones null their payload like
    WAL delete events do -- a later partial update's forward-fill must
    find nothing to resurrect behind the delete barrier."""
    if state.empty:
        return state
    live = state[schemas.OP_COL].to_numpy() != schemas.OP_DELETE
    pred = op.predicate
    mask = _PREDICATES[pred["fn"]](state[pred["col"]], pred["value"])
    mask = np.asarray(mask, dtype=bool) & live
    if not mask.any():
        return state
    state = state.copy()
    if op.kind == "delete":
        state.loc[mask, schemas.OP_COL] = schemas.OP_DELETE
        wipe = payload_cols if payload_cols is not None else [
            c for c in state.columns
            if c not in (*schemas.KEY_COLS, schemas.LSN_COL, schemas.OP_COL)]
        state.loc[mask, list(wipe)] = None
    else:
        # every RHS evaluates against the PRE-update row (SQL UPDATE
        # semantics): compute all values first, then assign -- a later
        # assignment must not see an earlier one's result. RHS kernels
        # run over the MATCHED rows only (the RHS never reads an
        # unmatched row), so a narrow predicate over a wide bucket
        # costs O(matches), not O(rows), per assignment.
        sub = state.loc[mask]
        vals = {col: _ASSIGNMENTS[spec["fn"]](sub, spec)
                for col, spec in op.assignments.items()}
        for col, val in vals.items():
            # Series values carry sub's index, so .loc aligns exactly
            state.loc[mask, col] = val
    state.loc[mask, schemas.LSN_COL] = np.int64(op.lsn - 1)
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
            if state.num_rows:
                # the control DSL kernels are pandas: convert around
                # them only, and back to the state's exact schema
                out = apply_control(state.to_pandas(), op, payload_cols)
                state = pa.Table.from_pandas(
                    out, schema=state.schema, preserve_index=False) \
                    .replace_schema_metadata(state.schema.metadata)
            if nxt.num_rows:
                state = fold_table(pa.concat_tables([state, nxt]),
                                   payload_cols)
    state = state.filter(pc.not_equal(state[schemas.OP_COL],
                                      schemas.OP_DELETE))
    if sort:
        state = state.take(pc.sort_indices(state, sort_keys=[
            (k, "ascending") for k in schemas.KEY_COLS]))
    return state
