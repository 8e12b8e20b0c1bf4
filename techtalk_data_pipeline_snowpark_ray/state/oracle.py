"""Single-threaded reference implementation (test oracle).

FIXTURES.md F3: a plain Python dict ``{(conv_id, turn_idx): (lsn, row)}``
applying change events in lsn order. The Ray engine's committed
snapshot after full replay must equal the oracle row-by-row (per-turn
text equality under stable (conv_id, turn_idx) ordering).

Deliberately naive and independent of the engine's fold code. It
also carries the control-op DSL's pandas reference kernels
(`PREDICATES`, `ASSIGNMENTS`), against which the engine's Arrow
kernels (`stages.controls`) are checked.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .. import schemas


def _compare(fn):
    """SQL comparison kernel: the column is read in the value's family
    (string for a str value, numeric otherwise) and a null compares
    False -- also for ``ne``, where pandas alone says ``NULL != v``."""
    def kernel(s, v):
        s = s.astype("string") if isinstance(v, str) else pd.to_numeric(s)
        return (pd.Series(fn(s, v)).fillna(False) & s.notna()).astype(bool)
    return kernel


PREDICATES = {
    "eq": _compare(lambda s, v: s == v),
    "ne": _compare(lambda s, v: s != v),
    "lt": _compare(lambda s, v: s < v),
    "le": _compare(lambda s, v: s <= v),
    "gt": _compare(lambda s, v: s > v),
    "ge": _compare(lambda s, v: s >= v),
    "contains": lambda s, v: s.astype("string").str.contains(v, regex=False).fillna(False),
    "startswith": lambda s, v: s.astype("string").str.startswith(v).fillna(False),
    "startswith_lower": lambda s, v: s.astype("string").str.lower().str.startswith(v).fillna(False),
}

ASSIGNMENTS = {
    "set": lambda df, spec: spec["value"],
    "upper": lambda df, spec: df[spec["col"]].astype("string").str.upper(),
    "lower": lambda df, spec: df[spec["col"]].astype("string").str.lower(),
    "concat": lambda df, spec: df[spec["col"]].astype("string") + spec["value"],
    "mul": lambda df, spec: pd.to_numeric(df[spec["col"]]) * spec["value"],
    "add": lambda df, spec: pd.to_numeric(df[spec["col"]]) + spec["value"],
}


def apply_events_oracle(events: pa.Table | pd.DataFrame,
                        payload_cols: list[str],
                        control_ops: list | None = None) -> pd.DataFrame:
    """Apply change records (columns: lsn, op, key cols, payload) and
    return the final visible table sorted by (conv_id, turn_idx).

    `control_ops` (stages/controls.py ControlOp) are interleaved at
    their lsn positions: each is applied, one row at a time, to the
    whole state exactly when the replay reaches its lsn (a control at
    lsn L runs before an event at the same lsn) -- the naive sequential
    definition the engine's epoch fold must reproduce."""
    from ..stages.controls import sorted_controls

    if isinstance(events, pa.Table):
        df = events.to_pandas()
    else:
        df = events.copy()
    df = df.sort_values(schemas.LSN_COL, kind="stable")
    pending = list(sorted_controls(control_ops))

    def run_control(op, state):
        pred = op.predicate
        for key in list(state.keys()):
            # key columns are part of the visible row: predicates and
            # assignments may reference them (the engine's state frame
            # carries them too)
            row1 = pd.DataFrame([{**dict(zip(schemas.KEY_COLS, key)),
                                  **state[key]}])
            if not bool(PREDICATES[pred["fn"]](row1[pred["col"]],
                                                pred["value"]).iloc[0]):
                continue
            if op.kind == "delete":
                del state[key]
            else:
                for col, spec in op.assignments.items():
                    v = ASSIGNMENTS[spec["fn"]](row1, spec)
                    state[key][col] = v.iloc[0] if isinstance(v, pd.Series) else v

    state: dict[tuple, dict] = {}
    seen: dict[tuple, int] = {}
    for rec in df.to_dict("records"):
        key = tuple(rec[k] for k in schemas.KEY_COLS)
        lsn = rec[schemas.LSN_COL]
        op = rec[schemas.OP_COL]
        while pending and pending[0].lsn <= lsn:
            run_control(pending.pop(0), state)
        absolute = op in (schemas.OP_INSERT, schemas.OP_FULL,
                          schemas.OP_DELETE)
        prev = seen.get(key)
        if prev is not None and prev[0] == lsn:
            # duplicate delivery of the same event. Equal-lsn records
            # are not always byte-identical across sources: one may be
            # the event collapsed with its history (full), another the
            # bare re-delivery (partial). Like the engine's fold, the
            # absolute record wins the tie; otherwise skip.
            if not (absolute and not prev[1]):
                continue
        seen[key] = (lsn, absolute)
        payload = {c: rec.get(c) for c in payload_cols}
        if op in (schemas.OP_DELETE,):
            state.pop(key, None)
        elif op in (schemas.OP_INSERT, schemas.OP_FULL):
            state[key] = payload
        else:  # update / partial: merge non-null cols; upsert when absent
            cur = state.get(key)
            if cur is None:
                cur = {c: None for c in payload_cols}
            merged = dict(cur)
            for c, v in payload.items():
                if not pd.isna(v):
                    merged[c] = v
            state[key] = merged
    while pending:
        run_control(pending.pop(0), state)

    rows = []
    for key in sorted(state.keys()):
        row = dict(zip(schemas.KEY_COLS, key))
        row.update(state[key])
        rows.append(row)
    cols = [*schemas.KEY_COLS, *payload_cols]
    out = pd.DataFrame(rows, columns=cols)
    return out.reset_index(drop=True)
