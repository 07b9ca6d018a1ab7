"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into the package's
public functions; nothing inside the package is edited or patched.  A span
holds its name, start, end, parent span, operation id, whether the call
raised, and free-form attributes.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    sid: int
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, op, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s.sid)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and not s.error]

    def self_times(self) -> dict[int, float]:
        """Duration minus the part of it covered by child spans."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, edge = 0.0, s.start
            for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.sid] = s.duration - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "op": s.op,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "error": s.error,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )
