"""In-memory spans for the traced benchmark run.

A span records a name, a start and end (``perf_counter_ns``) and the index
of the span that was open when it began.  Spans stay in parallel lists
until the run ends and are then written as JSON lines sharing one run id.
The layer of a span is the part of its name before the first dot
(``sampler.sweep`` belongs to ``sampler``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._open = []

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(_now())
        self.ends.append(0)
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.ends[idx] = _now()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def duration_s(self, idx):
        return (self.ends[idx] - self.starts[idx]) / 1e9

    def first_duration_s(self, name):
        return self.duration_s(self.names.index(name))

    def indices(self, name):
        return [i for i, n in enumerate(self.names) if n == name]

    def durations_s(self, name):
        return [self.duration_s(i) for i in self.indices(name)]

    def self_times_s(self):
        """Per span: its duration minus the time its direct children cover."""
        own = [self.duration_s(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration_s(i)
        return own

    def self_time_by_layer(self):
        table = {}
        for name, own in zip(self.names, self.self_times_s()):
            layer = name.split(".", 1)[0]
            table[layer] = table.get(layer, 0.0) + own
        return table

    def write(self, path, header):
        """All spans as JSON lines, after one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "run_id": self.run_id,
                            "span": i,
                            "name": name,
                            "parent": self.parents[i],
                            "start_ns": self.starts[i],
                            "end_ns": self.ends[i],
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def patched(module, attr, replacement):
    """Rebind ``module.attr`` for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)
