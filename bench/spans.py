"""In-process tracer for the per-layer table.

Spans are recorded from the benchmark's own code: each public function of
interest is wrapped under the name its caller looks it up by. Several modules
bind functions with ``from ... import`` (``optim`` binds ``forward`` and
``backward``, ``predict`` binds ``decode_image`` and ``resize_bilinear``,
``cli`` binds ``evaluate`` and ``argmax``), so those are wrapped in the
calling module, not in their home module. Spans stay in memory and are
written out once, after the run.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float
    info: dict = field(default_factory=dict)

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


class Tracer:
    """Wraps module attributes, records one Span per call, and undoes it all."""

    def __init__(self):
        self.spans = []
        self.fired = {}
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patched = []

    def _open(self):
        sid = next(self._ids)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid, start, name, info=None):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, self._stack[-1], name, start, end, info or {}))
        self.fired[name] = self.fired.get(name, 0) + 1

    def wrap(self, module, attr, name, info=None):
        """Replace ``module.attr`` with a timing wrapper recording span ``name``.

        ``info(args, kwargs, result)`` may return a dict stored on the span.
        """
        orig = getattr(module, attr)
        self.fired[name] = 0

        def wrapper(*args, **kwargs):
            sid, start = self._open()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self._close(sid, start, name + ".error")
                raise
            self._close(sid, start, name, info(args, kwargs, result) if info else None)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def wrap_iterator(self, module, attr, name, item_name):
        """Wrap a generator function so each ``next`` records span ``item_name``."""
        self.fired[item_name] = 0

        def timed(iterator):
            while True:
                sid, start = self._open()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._stack.pop()
                    return
                self._close(sid, start, item_name)
                yield item

        self.wrap(module, attr, name)
        traced = getattr(module, attr)
        setattr(module, attr, lambda *a, **k: timed(traced(*a, **k)))

    def restore(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def unfired(self, expected):
        """Names in ``expected`` whose wrapper never ran."""
        return sorted(n for n in expected if self.fired.get(n, 0) == 0)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fired": self.fired,
                       "spans": [[s.sid, s.parent, s.name, s.start, s.end, s.info]
                                 for s in self.spans]}, fh)

    @classmethod
    def load(cls, paths):
        """One Tracer holding the spans of several dumps; span ids are renumbered."""
        merged = cls()
        offset = 0
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                dumped = json.load(fh)
            for name, count in dumped["fired"].items():
                merged.fired[name] = merged.fired.get(name, 0) + count
            for sid, parent, name, start, end, info in dumped["spans"]:
                merged.spans.append(Span(sid + offset, parent + offset if parent else 0,
                                         name, start, end, info))
            offset += max((sp[0] for sp in dumped["spans"]), default=0)
        return merged
