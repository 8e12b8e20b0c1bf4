"""Change-record validation: the WAL-side bad-record policy.

A malformed change record (null/empty key columns, unknown op,
negative or null lsn) must never reach the partitioner: a null
conv_id hashes to SOME bucket and silently becomes a persisted junk
key, and an unknown op corrupts the fold's barrier logic. Two
policies, mirroring the staged-JSON dead-letter
(`sources/staged_json.py`):

  * ``fail`` (default): the tick raises on the first invalid record,
    naming the violated rule -- corruption is loud, the transaction
    rolls back (no manifest publish), the WAL stays unconsumed.
  * ``quarantine``: invalid rows divert to
    ``<table_dir>/_quarantine/dead-x<txn>-*.parquet`` (one durable
    write per task, tagged with the violated rule) and the tick
    proceeds with the valid rows; per-tick counts surface in the
    manifest metrics (``events_rejected``).

The checks are vectorized Arrow kernels; the stage costs one boolean
mask per batch on the ingest hot path.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..state.storage import write_parquet

QUARANTINE_SUBDIR = "_quarantine"

#: raw WAL ops plus the collapsed forms -- replicated streams
#: (`ingest.replicate_delta`) legitimately carry full/partial records
_VALID_OPS = pa.array([schemas.OP_INSERT, schemas.OP_UPDATE,
                       schemas.OP_DELETE, schemas.OP_FULL,
                       schemas.OP_PARTIAL])


def _violations(batch: pa.Table) -> tuple[pa.Array, list[tuple[str, pa.Array]]]:
    """(valid_mask, [(rule_name, violated_mask), ...])."""
    conv = batch[schemas.KEY_COLS[0]]
    turn = batch[schemas.KEY_COLS[1]]
    op = batch[schemas.OP_COL]
    lsn = batch[schemas.LSN_COL]
    rules = [
        ("null_or_empty_conv_id",
         pc.or_kleene(pc.is_null(conv),
                      pc.equal(conv, "")).combine_chunks()),
        ("null_turn_idx", pc.is_null(turn).combine_chunks()),
        ("unknown_op",
         pc.fill_null(pc.invert(pc.is_in(op, value_set=_VALID_OPS)),
                      True).combine_chunks()),
        ("invalid_lsn",
         pc.fill_null(pc.less(lsn, 0), True).combine_chunks()),
    ]
    bad = rules[0][1]
    for _, m in rules[1:]:
        bad = pc.or_(bad, m)
    return pc.invert(bad), rules


class ChangeValidator:
    """map_batches stage enforcing the bad-record policy. Sits between
    schema normalization and partitioning (it needs typed columns; the
    partitioner needs its guarantee)."""

    def __init__(self, policy: str, quarantine_dir: str | None = None,
                 txn_id: str = ""):
        if policy not in ("fail", "quarantine"):
            raise ValueError(f"unknown bad_record_policy {policy!r}")
        if policy == "quarantine" and not quarantine_dir:
            raise ValueError("quarantine policy needs a quarantine_dir")
        self.policy = policy
        self.quarantine_dir = quarantine_dir
        self.txn_id = txn_id

    def __call__(self, batch: pa.Table) -> pa.Table:
        valid, rules = _violations(batch)
        n_bad = batch.num_rows - pc.sum(valid).as_py()
        if not n_bad:
            return batch
        if self.policy == "fail":
            for name, mask in rules:
                n = pc.sum(mask).as_py()
                if n:
                    raise ValueError(
                        f"invalid change record(s): {n} row(s) violate "
                        f"'{name}' (bad_record_policy='fail'; use "
                        "'quarantine' to divert instead)")
        # quarantine: tag each bad row with the FIRST violated rule
        bad_mask = pc.invert(valid)
        bad = batch.filter(bad_mask)
        rule_col = pa.nulls(bad.num_rows, pa.string())
        for name, mask in reversed(rules):
            sub = mask.filter(bad_mask)
            rule_col = pc.if_else(sub, name, rule_col)
        bad = bad.append_column("_rule", rule_col)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        # deterministic (content-derived) name: a re-executed plan
        # (schema probes re-run map stages) or a retried task rewrites
        # the SAME file instead of duplicating dead letters -- the
        # quarantine honors the engine's exactly-once rule too
        import hashlib
        h = hashlib.blake2b(digest_size=8)
        h.update(bad[schemas.LSN_COL].to_numpy(zero_copy_only=False)
                 .tobytes())
        # lsn bytes alone collide (every null lsn is the same NaN);
        # fold in EVERY column's content so distinct bad batches never
        # share a name (a partial column set — say key+op+rule — still
        # collided on batches differing only in turn_idx or payload,
        # and the rename would silently discard one batch's dead
        # letters). Bad rows are rare, so the Python stringify is cheap.
        for col in bad.column_names:
            h.update(col.encode())
            h.update("\x00".join(
                "" if v is None else str(v)
                for v in bad[col].to_pylist()).encode())
        fname = f"dead-x{self.txn_id}-{bad.num_rows}-{h.hexdigest()}.parquet"
        write_parquet(bad, os.path.join(self.quarantine_dir, fname))
        return batch.filter(valid)


def read_wal_quarantine(table_dir: str):
    """Dataset over every quarantined change record (with the `_rule`
    tag), or None when nothing was ever quarantined."""
    import glob

    import ray.data

    qdir = os.path.join(table_dir, QUARANTINE_SUBDIR)
    files = sorted(glob.glob(os.path.join(qdir, "dead-*.parquet")))
    if not files:
        return None
    return ray.data.read_parquet(files)
