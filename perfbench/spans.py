"""In-memory span recorder for the traced benchmark pass.

A span is (name, start, end, parent, packet id, detector kind). Spans of
one packet in the latency loop share the packet id. Nothing is written
until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_NAME, _START, _END, _PARENT, _PKT, _KIND, _CHILDREN = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, pkt: int | None = None,
             kind: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, pkt, kind, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[_END] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][_CHILDREN] += rec[_END] - rec[_START]

    def _select(self, name, kind, packets):
        return (s for s in self.spans
                if s[_NAME] == name
                and (kind is None or s[_KIND] == kind)
                and (packets is None or (s[_PKT] is not None) == packets))

    def busy(self, name: str, kind: str | None = None,
             packets: bool | None = None) -> float:
        """Summed self time of the spans called `name`: each span's
        duration minus the time its child spans cover. Children never
        overlap because the pass is single-threaded. `packets` selects
        spans inside (True) or outside (False) the per-packet loop."""
        return sum(s[_END] - s[_START] - s[_CHILDREN]
                   for s in self._select(name, kind, packets))

    def total(self, name: str, kind: str | None = None,
              packets: bool | None = None) -> float:
        """Summed duration of the spans called `name`, children included."""
        return sum(s[_END] - s[_START]
                   for s in self._select(name, kind, packets))

    def write(self, path: str) -> None:
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "packet", "kind"],
                       "spans": [[s[_NAME], s[_START] - t0, s[_END] - t0,
                                  s[_PARENT], s[_PKT], s[_KIND]]
                                 for s in self.spans]}, fh)
