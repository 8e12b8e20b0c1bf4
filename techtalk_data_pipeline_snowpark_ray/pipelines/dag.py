"""Multi-table DAG runner: the user-facing orchestration surface for
pipelines spanning several tables and derived steps.

Reference parity (`tt-dps-common/.../pipeline/package.scala:5-74`,
`Operation.scala:6-32`, `Pipeline.scala:6-24`): `Node`/`>>` become
`Step(depends_on=...)`; `DAG.flatten` + `maxDeptPerNode`
(dedup-by-deepest: a step shared by several branches runs ONCE, after
ALL of its upstreams) become longest-path depth ordering; `evaluate`
runs the steps sequentially in depth order; `Pipeline.asContinuous`
becomes `run_continuous` (with the reference's ms/s sleep bug fixed by
construction -- the interval is seconds, period).

The heavy lifting stays inside each step (Ray Data pipelines,
`ingest.apply_tick`, derived queries); the runner is deliberately a
thin, deterministic sequencer -- per SURVEY X1-X3, Ray Data already
provides the dataflow DAG within a step, so the orchestrator only
needs order, fan-in and the idle contract.

Step contract: ``fn(ctx: DagContext, **params) -> result | None``.
``None`` means "no new work" (the idle signal -- e.g. apply_tick on a
drained WAL); `run_continuous(stop_when_idle=True)` exits after a full
pass where EVERY step reports idle, which is the bounded-replay shape
tests and backfills use. Results land in ``ctx.results[name]`` so
downstream steps (analytics over freshly-committed tables) can consume
upstream outputs without a side channel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Step:
    """One named pipeline operation (`Operation.scala:6-32` parity)."""
    name: str
    fn: Callable[..., Any]
    depends_on: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


class DagContext:
    """Mutable per-run context handed to every step: prior results by
    step name plus a free-form shared dict (configs, dirs)."""

    def __init__(self, shared: dict | None = None):
        self.shared = shared or {}
        self.results: dict[str, Any] = {}


class DagRunner:
    """Deterministic topo-ordered sequencer with dedup-by-deepest
    semantics: every step runs exactly once per evaluation, at depth
    1 + max(depth of its dependencies), ties broken by declaration
    order -- so a step downstream of several branches runs after all
    of them (`pipeline/package.scala:62-67`)."""

    def __init__(self, steps: "list[Step]"):
        names = [s.name for s in steps]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate step name(s): {dup}")
        by_name = {s.name: s for s in steps}
        for s in steps:
            missing = [d for d in s.depends_on if d not in by_name]
            if missing:
                raise ValueError(
                    f"step {s.name!r} depends on unknown step(s) {missing}")
        self.steps = steps
        self._order = self._depth_order(steps, by_name)

    @staticmethod
    def _depth_order(steps: "list[Step]", by_name: dict) -> "list[Step]":
        depth: dict[str, int] = {}

        def walk(name: str, stack: tuple = ()) -> int:
            if name in stack:
                cyc = " -> ".join((*stack, name))
                raise ValueError(f"dependency cycle: {cyc}")
            if name in depth:
                return depth[name]
            s = by_name[name]
            d = 1 + max((walk(p, (*stack, name)) for p in s.depends_on),
                        default=-1)
            depth[name] = d
            return d

        for s in steps:
            walk(s.name)
        idx = {s.name: i for i, s in enumerate(steps)}
        return sorted(steps, key=lambda s: (depth[s.name], idx[s.name]))

    def order(self) -> "list[str]":
        return [s.name for s in self._order]

    def evaluate(self, ctx: DagContext | None = None) -> DagContext:
        """One full sequential pass in depth order (`DAG.evaluate`,
        `pipeline/package.scala:69-71`)."""
        ctx = ctx or DagContext()
        for s in self._order:
            ctx.results[s.name] = s.fn(ctx, **s.params)
        return ctx

    def run_continuous(self, interval_s: float = 0.2,
                       max_ticks: int | None = None,
                       stop_when_idle: bool = False,
                       shared: dict | None = None) -> "list[DagContext]":
        """Re-evaluate the whole DAG on an interval
        (`Pipeline.asContinuous`, `Pipeline.scala:14-19`). With
        ``stop_when_idle``, exits after a pass where every step
        returned None -- the bounded-replay termination tests use."""
        out: list[DagContext] = []
        ticks = 0
        while max_ticks is None or ticks < max_ticks:
            ctx = self.evaluate(DagContext(shared=shared))
            out.append(ctx)
            ticks += 1
            if stop_when_idle and all(v is None
                                      for v in ctx.results.values()):
                break
            if max_ticks is None or ticks < max_ticks:
                time.sleep(interval_s)
        return out


def ingest_step(name: str, cfg, depends_on: tuple = ()) -> Step:
    """Convenience: a CDC ingest tick over one table as a DAG step
    (poll WAL -> apply -> commit; None when drained)."""
    from .ingest import apply_tick

    def run(ctx: DagContext):
        return apply_tick(cfg)

    return Step(name=name, fn=run, depends_on=tuple(depends_on))


def matview_step(name: str, cfg, view: str, other=None,
                 depends_on: tuple = ()) -> Step:
    """Convenience: keep a materialized view (keyed, grouped, windowed
    or, with `other` naming its second table, a cross-table join) fresh
    as a DAG step downstream of its tables' ingests -- the reference's
    ingest >> derived-view chain (`SamplePipeline.scala:19-31`) and
    two-ingest fan-in (`stream/Main.scala:16-19`), with incremental
    refresh instead of per-tick recompute. Returns None when already
    fresh (the DAG idle contract), so `run_continuous(stop_when_idle=
    True)` drains ingest + views together."""
    from .matview import refresh_matview

    def run(ctx: DagContext):
        return refresh_matview(cfg, view, other)

    return Step(name=name, fn=run, depends_on=tuple(depends_on))
