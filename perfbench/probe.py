"""Spans and counters recorded around calls into the program's layers.

A :class:`Probe` replaces chosen public functions and methods with thin
wrappers.  Each wrapper opens a span (name, start, end, parent) on a
per-thread stack, and on exit adds to four totals:

* ``calls`` -- how often a function of the metric ran;
* ``seconds`` -- its busy time;
* ``amount`` -- a work count taken from the arguments (rows, pairs);
* the *self time* of the metric's layer: the span's duration minus what
  its child spans covered.

The first three count only the outermost active call of a metric, so a
re-entrant or nested call under the same metric is not counted twice.

Totals live in shared memory with one row per process.  Shard workers
started with ``fork`` after :meth:`Probe.install` inherit the wrappers and
add to their own row, so worker-side layers are measured with the same
instrument as the generator process.  Span records (for the trace file)
are kept in memory only in the process that made the probe.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: most processes (generator + shard workers + respawns) with a row.
MAX_PROCESSES = 8


@dataclass(frozen=True)
class Point:
    """One function to wrap: ``getattr(owner, attr)`` under ``metric``.

    ``amount(args, kwargs)`` gives the work count of a call (default 1).
    ``after(probe, token, args, kwargs, result)`` runs on success with
    the value ``before(probe, args, kwargs)`` returned.  ``record`` keeps
    a span record per call; turn it off for functions called 10^5 times.
    """

    owner: Any
    attr: str
    metric: str
    layer: str
    amount: Callable | None = None
    before: Callable | None = None
    after: Callable | None = None
    record: bool = True


class Probe:
    """Wrap layer entry points and collect spans, busy time and counts."""

    def __init__(self, points: Sequence[Point], counters: Sequence[str] = (),
                 ring_capacity: int = 0, ring_width: int = 4) -> None:
        self.points = list(points)
        self.metric_names = sorted({p.metric for p in self.points})
        self.layer_names = sorted({p.layer for p in self.points})
        self.counter_names = list(counters)
        self._metric_index = {n: i for i, n in enumerate(self.metric_names)}
        self._layer_index = {n: i for i, n in enumerate(self.layer_names)}
        self._counter_index = {n: i for i, n in enumerate(self.counter_names)}
        self._layer_base = 3 * len(self.metric_names)
        self._counter_base = self._layer_base + len(self.layer_names)
        self._width = self._counter_base + len(self.counter_names)
        self._values = mp.RawArray("d", MAX_PROCESSES * self._width)
        self._next_row = mp.RawValue("i", 0)
        self._row_lock = mp.Lock()
        self._enabled = mp.RawValue("b", 1)
        self._ring_width = ring_width
        self._ring_capacity = ring_capacity
        self._ring = mp.RawArray("d", max(ring_capacity * ring_width, 1))
        self._ring_next = mp.RawValue("i", 0)
        self._ring_lock = mp.Lock()
        self._owner_pid = os.getpid()
        self._span_ids = itertools.count()
        #: finished spans: (id, parent id, metric, start, end, context).
        self.spans: list[tuple] = []
        #: label stamped on spans; one per request (e.g. one fault).
        self.context = ""
        #: per-thread seconds covered by outermost spans (owner only).
        self.root_seconds: dict[int, float] = {}
        self._saved: list[tuple[Any, str, Any]] = []
        self._reset_process_state()
        os.register_at_fork(after_in_child=self._reset_process_state)

    # ------------------------------------------------------------ processes
    def _reset_process_state(self) -> None:
        """Fresh per-process state (also runs in every forked child)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._row = -1
        self._is_owner = os.getpid() == self._owner_pid

    def _claim_row(self) -> int:
        with self._row_lock:
            row = self._next_row.value
            if row >= MAX_PROCESSES:
                raise RuntimeError("probe ran out of per-process rows")
            self._next_row.value = row + 1
        self._row = row
        return row

    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.depth = [0] * len(self.metric_names)
        return stack, local.depth

    # ------------------------------------------------------------- install
    def install(self) -> "Probe":
        """Replace every point's function with its wrapper."""
        for point in self.points:
            owner = point.owner
            original = (owner.__dict__[point.attr] if isinstance(owner, type)
                        else getattr(owner, point.attr))
            setattr(owner, point.attr, self._wrap(point, original))
            self._saved.append((owner, point.attr, original))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def set_enabled(self, enabled: bool) -> None:
        """Switch recording on or off in every process at once."""
        self._enabled.value = 1 if enabled else 0

    def _wrap(self, point: Point, fn: Callable) -> Callable:
        metric = self._metric_index[point.metric]
        layer = self._layer_index[point.layer]
        amount_of, before, after = point.amount, point.before, point.after
        record = point.record
        enabled = self._enabled
        clock = time.perf_counter
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not enabled.value:
                return fn(*args, **kwargs)
            token = before(probe, args, kwargs) if before else None
            stack, depth = probe._thread_state()
            span_id = None
            if record and probe._is_owner:
                span_id = next(probe._span_ids)
            frame = [0.0, span_id]  # child seconds, span id
            stack.append(frame)
            depth[metric] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[metric] -= 1
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                elif probe._is_owner:
                    ident = threading.get_ident()
                    probe.root_seconds[ident] = (
                        probe.root_seconds.get(ident, 0.0) + duration)
                amount = amount_of(args, kwargs) if amount_of else 1.0
                probe._add(metric, layer, duration, duration - frame[0],
                           depth[metric] == 0, amount)
                if span_id is not None:
                    parent = next((f[1] for f in reversed(stack)
                                   if f[1] is not None), None)
                    probe.spans.append((span_id, parent, point.metric, start,
                                        end, probe.context))
            if after is not None:
                after(probe, token, args, kwargs, result)
            return result

        return wrapper

    # ---------------------------------------------------------- accounting
    def _add(self, metric: int, layer: int, duration: float,
             self_seconds: float, outermost: bool, amount: float) -> None:
        values = self._values
        with self._lock:
            row = self._row if self._row >= 0 else self._claim_row()
            if outermost:
                base = row * self._width + 3 * metric
                values[base] += 1.0
                values[base + 1] += duration
                values[base + 2] += amount
            values[row * self._width + self._layer_base + layer] += \
                self_seconds

    def count(self, name: str, n: float = 1.0) -> None:
        """Add ``n`` to a named counter declared at construction."""
        if not self._enabled.value:
            return
        with self._lock:
            row = self._row if self._row >= 0 else self._claim_row()
            self._values[row * self._width + self._counter_base
                         + self._counter_index[name]] += n

    def event(self, *fields: float) -> None:
        """Append one fixed-width record to the shared event ring."""
        if not self._enabled.value:
            return
        with self._ring_lock:
            index = self._ring_next.value
            self._ring_next.value = index + 1
        if index < self._ring_capacity:
            base = index * self._ring_width
            for offset, value in enumerate(fields[:self._ring_width]):
                self._ring[base + offset] = float(value)

    # --------------------------------------------------------------- reads
    def events(self) -> tuple[list[tuple[float, ...]], int]:
        """Recorded ring events and how many were dropped for space."""
        total = self._ring_next.value
        kept = min(total, self._ring_capacity)
        width = self._ring_width
        ring = self._ring
        return ([tuple(ring[i * width:(i + 1) * width]) for i in range(kept)],
                total - kept)

    def totals(self) -> dict:
        """Sum of every process row: metrics, layer self time, counters."""
        rows = min(self._next_row.value, MAX_PROCESSES)
        summed = [0.0] * self._width
        for row in range(rows):
            base = row * self._width
            for i in range(self._width):
                summed[i] += self._values[base + i]
        metrics = {name: {"calls": summed[3 * i], "seconds": summed[3 * i + 1],
                          "amount": summed[3 * i + 2]}
                   for i, name in enumerate(self.metric_names)}
        layers = {name: summed[self._layer_base + i]
                  for i, name in enumerate(self.layer_names)}
        counters = {name: summed[self._counter_base + i]
                    for i, name in enumerate(self.counter_names)}
        return {"metrics": metrics, "layers": layers, "counters": counters}
