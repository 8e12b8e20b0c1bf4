"""The one commit driver: a transaction is a set of manifest actions
plus a read set, and one conflict table checks it against the versions
that beat it.

Reference parity: ``executeInTransaction`` (``SnowflakeUtils.scala:
36-45,68-81``) -- consume the stream delta and apply it atomically.
Under concurrency this is Delta Lake's optimistic rule (VLDB 2020): a
writer that loses the race checks the winners' actions against what it
read, then retries on the new version or aborts.

:func:`commit` is the only caller of `TableState.publish`. It publishes
the :class:`Txn`'s actions applied to the version it read. On a lost
race it loads EVERY winner since then (a later tick can hide an
erasure two versions back) and checks each with :func:`conflict`; then
it re-applies the actions to the new tip, or recomputes through the
txn's rebuild callback, or raises `CommitConflict` with the table's
reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable

from ..stages.controls import sorted_controls
from .manifest import CommitConflict, Manifest, TableState

#: read-set items: the WAL window after the read committed_seq; the
#: control ops its folds used as epoch barriers; the bucket count it
#: routed rows by; the history its rows derive from (no erasure or
#: rollback may rewrite it); the lists it replaces and the ops it
#: carries; the exact version it read
WAL, BARRIERS, LAYOUT, HISTORY, LISTS, VERSION = (
    "wal", "barriers", "layout", "history", "lists", "version")

#: each transaction kind's read set; its keys are every kind of commit
READS = {
    "tick": {WAL, BARRIERS, LAYOUT, HISTORY},
    "control": {WAL, BARRIERS, LAYOUT, HISTORY},
    "replicate": {BARRIERS, LAYOUT, HISTORY},
    "compact": {LISTS, LAYOUT},
    "rebucket": {VERSION},
    "erase": {VERSION},
    "rollback": {VERSION},
    "clone": {VERSION},
    "bootstrap": {VERSION},
    "refresh": {VERSION},
}


@dataclass
class Txn:
    """One transaction: its kind (which names its read set, `READS`)
    and its actions on the manifest. An unset action leaves that part
    of the manifest as the version it commits on has it."""
    kind: str
    txn_id: str
    metrics: dict
    #: the whole content restored from this manifest
    restore: Manifest | None = None
    #: the bucket map replaced
    buckets: dict | None = None
    #: the global run list replaced
    global_runs: list | None = None
    #: view lists replaced (None drops the list)
    views: dict = field(default_factory=dict)
    #: files appended to the global runs / to view lists
    add_global: list = field(default_factory=list)
    add_views: dict = field(default_factory=dict)
    #: watermarks advanced to at least these
    seq: int | None = None
    lsn: int | None = None
    schema_version: int | None = None
    #: the bucket count rows were routed by: set as the layout by a txn
    #: that replaces the bucket map, else the layout is raised to it
    num_buckets: int | None = None
    #: control-op dicts added / absorbed
    add_ops: list = field(default_factory=list)
    absorb_ops: list = field(default_factory=list)
    wal_consumed: list = field(default_factory=list)


def _op_keys(ops) -> set:
    return {json.dumps(d, sort_keys=True) for d in (ops or [])}


def _is_prefix(a: list, b: list) -> bool:
    return len(a) <= len(b) and list(b[:len(a)]) == list(a)


def _advance(have: int, to: int | None) -> int:
    return have if to is None else max(have, to)


def apply(t: Txn, base: Manifest, tip: Manifest) -> Manifest:
    """`t`'s actions applied to `tip`. `base` is the version `t` read:
    files a winner appended to a list `t` replaces after `base` ride on
    top of `t`'s own."""
    def carry(mine: list, read: list, now: list) -> list:
        return list(mine) + list(now[len(read):])

    src = t.restore or tip
    buckets = {b: list(f) for b, f in src.buckets.items()}
    if t.buckets is not None:
        buckets = {b: list(f) for b, f in t.buckets.items()}
        for b, runs in tip.buckets.items():
            if runs[len(base.buckets.get(b, [])):]:
                buckets[b] = carry(buckets.get(b, []),
                                   base.buckets.get(b, []), runs)
    global_runs = list(src.global_runs) if t.global_runs is None else \
        carry(t.global_runs, base.global_runs, tip.global_runs)
    derived = {k: list(f) for k, f in src.derived.items()
               if k not in t.views or t.views[k] is not None}
    for k, files in t.views.items():
        if files is not None:
            derived[k] = carry(files, base.derived.get(k, []),
                               tip.derived.get(k, []))
    global_runs += t.add_global
    for k, files in t.add_views.items():
        derived.setdefault(k, []).extend(files)
    ops = src.control_ops
    if t.add_ops or t.absorb_ops:
        gone = _op_keys(t.absorb_ops)
        ops = [c.to_dict() for c in sorted_controls(
            [d for d in ops if json.dumps(d, sort_keys=True) not in gone]
            + list(t.add_ops))]
    return Manifest(
        txn_id=t.txn_id,
        committed_seq=_advance(src.committed_seq, t.seq),
        committed_lsn=_advance(src.committed_lsn, t.lsn),
        schema_version=_advance(src.schema_version, t.schema_version),
        num_buckets=src.num_buckets if t.num_buckets is None
        else t.num_buckets if t.buckets is not None
        else max(src.num_buckets, t.num_buckets),
        buckets=buckets, global_runs=global_runs, derived=derived,
        control_ops=list(ops), wal_consumed=list(t.wal_consumed),
        metrics=t.metrics)


def _replaced_lists(t: Txn, m: Manifest) -> dict:
    """The lists of `m` that `t` replaces, by name."""
    out = {("view", k): m.derived.get(k, []) for k in t.views}
    if t.global_runs is not None:
        out["global"] = m.global_runs
    if t.buckets is not None:
        out.update({("bucket", b): f for b, f in m.buckets.items()})
    return out


# Why a rebase is sound: the layout separates content from position.
# Delta runs are per-key LWW-collapsed records of their OWN WAL window
# (they never read the parent snapshot), and compacted bases fold a
# frozen run list, so the parent manifest contributes bookkeeping (file
# lists, watermarks), not data. What can NOT commute, and raises:
#   * two WAL-consuming ticks (both tails started at the same
#     committed_seq, so their windows overlap: duplicate application);
#   * a winner that ADDED control ops vs a tick whose folds collapsed
#     without those barriers (epoch assignment would differ);
#   * competing compactions (both rewrite the run lists: detected as a
#     non-prefix change) and bucket-layout migrations (the routing key
#     changes under the loser's feet);
#   * an erasure or a rollback vs an append: the append's files may hold
#     erased rows, and its watermark max() would undo a rewind;
#   * anything vs a transaction pinned to the exact version it read: a
#     rollback, clone or bootstrap (strict CAS: an administrative commit
#     racing a live writer fails loudly), a rebucketing compaction (the
#     routing key itself changes), an erasure (it recomputes instead), a
#     view refresh (its file names stamp the version it read; it
#     recomputes only when asked to).
# A view refresh replaces only its view's list, which compaction never
# rewrites, so a compaction carries the winner's list as it is.


def conflict(t: Txn, parent: Manifest, w: Manifest, v: int) -> str | None:
    """THE conflict table: why winner `w` (version `v`, committed on
    `parent`) does not commute with `t`, or None when `t` can rebase
    over it."""
    reads = READS[t.kind]
    if VERSION in reads:
        return (f"{t.kind} txn {t.txn_id} is pinned to the version it "
                f"read; v{v} committed after it")
    if WAL in reads and w.committed_seq != parent.committed_seq:
        return (f"concurrent transaction advanced committed_seq "
                f"{parent.committed_seq} -> {w.committed_seq} while txn "
                f"{t.txn_id} consumed the same WAL window (it would "
                "apply twice)")
    if BARRIERS in reads \
            and _op_keys(w.control_ops) - _op_keys(parent.control_ops):
        return (f"concurrent transaction added control ops; txn "
                f"{t.txn_id}'s folds collapsed without those barriers")
    # a layout of 0 is unknown (a manifest from before the field); one
    # a winner left as it was does not conflict
    if LAYOUT in reads and w.num_buckets != t.num_buckets and (
            w.num_buckets or w.num_buckets != parent.num_buckets):
        return "concurrent bucket-layout migration"
    if LISTS in reads:
        mine, theirs = _replaced_lists(t, parent), _replaced_lists(t, w)
        if any(not _is_prefix(f, theirs.get(k, [])) for k, f in mine.items()):
            return ("concurrent transaction rewrote run lists this "
                    "compaction folded (competing compaction or migration)")
        if _op_keys(parent.control_ops) - _op_keys(w.control_ops):
            return ("concurrent transaction removed control ops this "
                    "compaction still carries")
    if HISTORY in reads and w.rewrite == "erasure":
        return (f"concurrent physical erasure at v{v} (the txn's run "
                "files may hold pre-erasure rows)")
    if HISTORY in reads and w.rewrite == "rollback":
        return (f"concurrent rollback at v{v} (mode="
                f"{w.metrics.get('rollback_mode')}: watermarks rewound)")
    return None


def commit(state: TableState, cfg, base_version: int | None,
           base: Manifest, txn: Txn,
           rebuild: "Callable[[], tuple | None] | None" = None
           ) -> Manifest | None:
    """Publish `txn`, read at `base_version` (`base`; None and an empty
    manifest for a table's first commit). After a lost race, winners
    that all commute get the actions re-applied on the new tip
    (``metrics["rebased_onto"]``); otherwise `rebuild`, when given,
    recomputes on the current state and returns ``(base_version, base,
    txn)`` -- or None, nothing left to commit -- and without it
    `CommitConflict` raises. ``cfg.commit_retries`` publishes at most
    follow the first; the last loss raises."""
    tip_version, tip = base_version, base
    for attempt in range(max(0, cfg.commit_retries) + 1):
        try:
            return state.publish(apply(txn, base, tip),
                                 expected_parent=tip_version)
        except CommitConflict:
            if attempt >= cfg.commit_retries:
                raise
        parent, reason = tip, None
        new_version = state.latest_version()
        for v in range(0 if tip_version is None else tip_version + 1,
                       new_version + 1):
            w = state.load(v)
            reason = conflict(txn, parent, w, v)
            if reason:
                break
            parent = w
        if reason is None:
            tip_version, tip = new_version, parent
            txn = replace(txn, metrics={**txn.metrics,
                                        "rebased_onto": new_version})
        elif rebuild is None:
            raise CommitConflict(f"{reason}; not rebasable -- reload "
                                 f"table state and re-run the {txn.kind}")
        else:
            built = rebuild()
            if built is None:
                return None
            base_version, base, txn = built
            tip_version, tip = base_version, base
    raise AssertionError("unreachable")
