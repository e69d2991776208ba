"""Spans recorded at layer boundaries, kept in memory and written out at the end.

Spans come only from the benchmark's own calls into the program and from
wrappers it installs around the names ``kaoneraser.cli`` imports, so the
package itself carries no instrumentation.  A disabled tracer records nothing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: Names that ``kaoneraser.cli`` imports from its child layers, and the span
#: each call is recorded under.  Wrapping them splits CLI self time from the
#: time spent in the layers below it.
CLI_CHILDREN = {
    "run_experiment": "sim.run_experiment",
    "write_events": "eventfile.write_events",
    "read_events": "eventfile.read_events",
    "estimate_probs": "sim.estimate_probs",
    "fit_visibility": "sim.fit_visibility",
    "run_all": "verify.run_all",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    kind: str | None = None   # experiment kind, inherited from the parent
    calls: int = 0            # scalar calls the span covers, for per-call costs


class Tracer:
    def __init__(self):
        self.enabled = False
        self.run_id = 0
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, kind: str | None = None, calls: int = 0):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        if kind is None and parent is not None:
            kind = parent.kind
        s = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                 None if parent is None else parent.id, self.run_id, kind, calls)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, module, names: dict[str, str]):
        """Replace ``module.<attr>`` by a traced wrapper for each attr in
        ``names`` (attr -> span name); the originals come back on exit."""
        saved = {attr: getattr(module, attr) for attr in names}
        for attr, span_name in names.items():
            setattr(module, attr, self.wrap(saved[attr], span_name))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def totals(self) -> dict[int, dict[str, float]]:
        """Per run id: summed seconds under ``name`` and ``name.<kind>``,
        summed self time (duration minus child spans) under ``name.self``
        and summed scalar calls under ``name.calls``."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            t = out[s.run_id]
            dur = s.end - s.start
            t[s.name] += dur
            t[s.name + ".self"] += dur - child[s.id]
            t[s.name + ".calls"] += s.calls
            if s.kind is not None:
                t[f"{s.name}.{s.kind}"] += dur
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
