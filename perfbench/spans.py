"""In-memory spans around calls into quadpreim's layers.

A span is (name, start, end, parent), parent being the index of the span
that was open when it started (-1 at top level).  Spans are wrapped around
module attributes that the program calls through, so nothing inside the
package changes; `patch` swaps the wrappers in and `restore` swaps the
originals back.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def wrap_generator(self, fn, name: str):
        """One span per resumption, so the consumer's work between items
        stays outside the generator's spans."""
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, module, attr: str, name: str, generator: bool = False):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        wrapper = self.wrap_generator if generator else self.wrap
        setattr(module, attr, wrapper(original, name))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per name: span count, total and self seconds, and durations.
        Self time is a span's duration minus its direct children's."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"count": 0, "total": 0.0, "self": 0.0, "durations": []}
               for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["count"] += 1
            entry["total"] += dur[i]
            entry["self"] += dur[i] - child[i]
            entry["durations"].append(dur[i])
        return out

    def dump(self, path: str):
        payload = {"fields": ["name", "start", "end", "parent"],
                   "names": self.names, "name": self.name.tolist(),
                   "start": self.start.tolist(), "end": self.end.tolist(),
                   "parent": self.parent.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
