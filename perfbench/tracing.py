"""In-memory spans and counts recorded around calls into the engine.

A span has a name, start and end (wall, `perf_counter`), the driver's
CPU time over the same interval (`process_time`), the span that caused
it and the id of the operation it belongs to (every span under one
root shares that root's id). Spans stay in memory and are written out
once, when the run ends.

`Tracer.patch` wraps a function or method attribute of an engine
module for the life of a `with` block, so calls the engine makes
internally (the tick's segment listing, the refresh's exchange) are
timed too, all from the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    root: int
    start: float
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._kids: dict[int, list[Span]] = {}

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(id=len(self.spans), name=name,
                 parent=None if parent is None else parent.id,
                 root=len(self.spans) if parent is None else parent.root,
                 start=time.perf_counter(), attrs=dict(attrs))
        cpu0 = time.process_time()
        self.spans.append(s)
        if parent is not None:
            self._kids.setdefault(parent.id, []).append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException as e:
            s.error = type(e).__name__
            raise
        finally:
            self._stack.pop()
            s.cpu = time.process_time() - cpu0
            s.end = time.perf_counter()

    @contextlib.contextmanager
    def patch(self, owner, attr: str, name: str, attrs_of=None):
        """Trace every call of `owner.attr` inside the block. `attrs_of`
        maps the call's (args, kwargs) to span attributes."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            extra = attrs_of(args, kwargs) if attrs_of else {}
            with self.span(name, **extra):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return self._kids.get(span.id, [])

    def descendants(self, span: Span) -> list[Span]:
        out, todo = [], list(self.children(span))
        while todo:
            s = todo.pop()
            out.append(s)
            todo += self.children(s)
        return out

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered, cur_start, cur_end = 0.0, None, None
        for c in sorted(self.children(span), key=lambda c: c.start):
            lo, hi = c.start, c.end
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        return span.duration - covered

    def nesting_errors(self) -> list[str]:
        """Children that leave their parent's interval, and spans whose
        self time is negative; empty when the trace is well formed."""
        by_id = {s.id: s for s in self.spans}
        errs = []
        for s in self.spans:
            if s.parent is not None:
                p = by_id[s.parent]
                if s.start < p.start or s.end > p.end:
                    errs.append(f"span {s.id} {s.name} leaves parent {p.id}")
            if self.self_time(s) < 0:
                errs.append(f"span {s.id} {s.name} has negative self time")
        return errs

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([{**s.__dict__, "self": self.self_time(s)}
                       for s in self.spans], f)
