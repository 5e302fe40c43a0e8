"""Spans around calls into polarexp's layers, recorded from outside the program.

`Tracer.patch` replaces a module attribute with a wrapper that records one
span per call: name, parent span, thread, wall-clock and thread-CPU start
and end. Spans stay in memory and are aggregated once the traced command has
finished. The figures use thread-CPU time, because chain threads contend for
the interpreter lock and a wall-clock span would include the time a thread
waited for it; wall-clock times only place spans between phase stamps.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict

now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)
_cpu = time.thread_time


class Tracer:
    def __init__(self):
        self.records = []  # (idx, name, parent, thread, wall0, wall1, cpu0, cpu1)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def wrap(self, name, fn):
        records, ids, local = self.records, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            w0, c0 = now(), _cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                c1, w1 = _cpu(), now()
                stack.pop()
                records.append((idx, name, parent, threading.get_ident(), w0, w1, c0, c1))

        return traced

    def replace(self, module, attr, value):
        """Set module.attr to value until restore()."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def patch(self, module, attr, name):
        """Record a `name` span around every call made through module.attr."""
        self.replace(module, attr, self.wrap(name, getattr(module, attr)))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self, name):
        return [r for r in self.records if r[1] == name]

    def self_cpu(self, name) -> float:
        """Total thread-CPU seconds of `name` spans minus their direct children's."""
        child = defaultdict(float)
        for _, _, parent, _, _, _, c0, c1 in self.records:
            child[parent] += c1 - c0
        return sum((r[7] - r[6]) - child[r[0]] for r in self.spans(name))

    def total_cpu(self, name) -> float:
        return sum(r[7] - r[6] for r in self.spans(name))

    def top_level_cpu(self, start: float, end: float) -> float:
        """Thread-CPU seconds of parentless main-thread spans within wall times [start, end]."""
        main = threading.main_thread().ident
        return sum(
            r[7] - r[6]
            for r in self.records
            if r[2] == -1 and r[3] == main and r[4] >= start and r[5] <= end
        )


def median_call_us(fn, *args, budget_s: float = 0.2) -> float:
    """Median over seven batches of the mean thread-CPU time of fn(*args), in microseconds.

    CPU rather than wall time, because the host of a virtual machine can take
    a core away for a while, and wall time then counts the wait.
    """
    fn(*args)
    t0 = _cpu()
    fn(*args)
    per_call = max(_cpu() - t0, 1e-7)
    batch = max(1, int(budget_s / 7 / per_call))
    means = []
    for _ in range(7):
        t0 = _cpu()
        for _ in range(batch):
            fn(*args)
        means.append((_cpu() - t0) / batch)
    return statistics.median(means) * 1e6
