"""Measurement primitives shared by the benchmark's workloads.

A *pass* runs every item of a workload once, one after another, in this
process.  Each item gets its own row with its CPU and wall time, its
output (checked later, outside the timed region) or the error it
raised.  Traced passes also fill per-layer CPU and counters, measured
by the benchmark around its own calls into the program.

Times are reported at a fixed *reference core speed*.  On a shared host
the same single-threaded work takes from 1x to about 1.7x the CPU time,
depending on what the neighbours of its core do, and that state lasts
from a fraction of a second to more than half a minute.  So while a
pass runs, :class:`SpeedProbe` interrupts it every ``PROBE_INTERVAL_S``
of CPU time and runs a fixed piece of interpreter work (dict updates
and small-object allocation) on the same thread.  The probe's CPU time
against :data:`REFERENCE_PROBE_S` gives the core's slowdown at that
moment, and each stretch of the pass between two probes is divided by
the slowdown of the probe that ends it.  The probes' own time is left
out.  Raw CPU and wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: CPU seconds between two speed probes.
PROBE_INTERVAL_S = 0.02
#: Thread-CPU seconds one probe takes at the reference core speed: its
#: typical time on an uncontended core of a 2.1 GHz Xeon (KVM guest) with
#: CPython 3.11.  It only fixes the unit; scaled times are comparable
#: with each other, not with other hosts.
REFERENCE_PROBE_S = 0.265e-3

#: The thread's own CPU clock.  The benchmark is single-threaded; on
#: Linux guests ``process_time`` can lag by up to a scheduler tick.
cpu_clock = time.thread_time


class _ProbeNode:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _probe_work() -> int:
    """The fixed interpreter work one probe times."""
    table: dict[int, int] = {}
    total = 0
    for i in range(1000):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    nodes = [_ProbeNode(i, i + 1) for i in range(400)]
    for node in nodes:
        total += node.a ^ node.b
    return total


class SpeedProbe:
    """Samples the core's speed on the measured thread (see module doc).

    Use as a context manager around the measured code; afterwards
    :meth:`reference_cpu` scales any ``cpu_clock`` interval inside it.
    """

    def __init__(self) -> None:
        #: Start of every probe on ``cpu_clock``, and its duration.
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the workload's garbage must not land in a probe
        start = cpu_clock()
        _probe_work()
        self.durations.append(cpu_clock() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def slowdown(self) -> float:
        """Mean slowdown over every probe so far (1.0 without probes)."""
        if not self.durations:
            return 1.0
        return sum(self.durations) / len(self.durations) / REFERENCE_PROBE_S

    def reference_cpu(self, start: float, end: float) -> float:
        """CPU seconds of ``[start, end]`` at the reference speed, probes left out."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if first == last:  # no probe inside: use the latest one before
            if first == 0:
                return end - start
            return (end - start) * REFERENCE_PROBE_S / self.durations[first - 1]
        total, cursor = 0.0, start
        for index in range(first, last):
            total += (self.starts[index] - cursor) / self.durations[index]
            cursor = self.starts[index] + self.durations[index]
        total += max(0.0, end - cursor) / self.durations[last - 1]
        return total * REFERENCE_PROBE_S

    def probe_cpu(self, start: float, end: float) -> float:
        """CPU seconds the probes took inside ``[start, end]``."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return sum(self.durations[first:last])


@dataclass
class ItemRow:
    """One item of one pass: its time, its output or its error."""

    name: str
    #: CPU seconds at the reference speed.
    cpu_s: float = 0.0
    output: object = None
    error: str | None = None
    #: Per-item layer CPU and counters (traced passes only).
    counters: dict[str, float] = field(default_factory=dict)
    #: ``cpu_clock`` intervals per CPU metric name, turned into
    #: reference-speed seconds in ``counters`` when the item ends.
    spans: dict[str, list[tuple[float, float]]] = field(default_factory=dict)


@dataclass
class PassResult:
    """One full pass over a workload's items."""

    rows: list[ItemRow]
    #: CPU and wall seconds at the reference speed (wall scaled by the
    #: pass's reference-to-measured CPU ratio), and as measured.
    cpu_s: float
    wall_s: float
    raw_cpu_s: float
    raw_wall_s: float
    #: Mean slowdown the speed probes saw during the pass.
    slowdown: float
    #: Per-layer CPU and counters summed over the items (traced only).
    layers: dict[str, float] = field(default_factory=dict)


@contextlib.contextmanager
def timed(row: ItemRow, metric: str) -> Iterator[None]:
    """Add the CPU time of the block to ``row``'s ``metric``."""
    start = cpu_clock()
    try:
        yield
    finally:
        row.spans.setdefault(metric, []).append((start, cpu_clock()))


@contextlib.contextmanager
def patched(module, name: str, replacement) -> Iterator[None]:
    """Temporarily replace ``module.name`` (a probe around one call site)."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def run_items(
    items: list[str], run_item: Callable[[str, ItemRow], object]
) -> PassResult:
    """Time ``run_item`` on every item; an item that raises is recorded.

    ``run_item`` returns the item's output and may fill ``row.counters``
    and ``row.spans``.
    """
    rows = []
    with SpeedProbe() as probe:
        pass_cpu, pass_wall = cpu_clock(), time.perf_counter()
        for item in items:
            row = ItemRow(item)
            cpu = cpu_clock()
            try:
                row.output = run_item(item, row)
            except Exception as error:  # recorded as a failed item, pass goes on
                row.error = f"{type(error).__name__}: {error}"
                traceback.print_exc()
            row.cpu_s = probe.reference_cpu(cpu, cpu_clock())
            for metric, spans in row.spans.items():
                row.counters[metric] = sum(
                    probe.reference_cpu(*span) for span in spans
                )
            rows.append(row)
        end = cpu_clock()
        raw_wall = time.perf_counter() - pass_wall - probe.probe_cpu(pass_cpu, end)
    raw_cpu = end - pass_cpu - probe.probe_cpu(pass_cpu, end)
    cpu_s = probe.reference_cpu(pass_cpu, end)
    return PassResult(
        rows,
        cpu_s=cpu_s,
        wall_s=raw_wall * cpu_s / raw_cpu if raw_cpu > 0 else raw_wall,
        raw_cpu_s=raw_cpu,
        raw_wall_s=raw_wall,
        slowdown=probe.slowdown(),
    )


def sum_counters(rows: list[ItemRow]) -> dict[str, float]:
    """Per-layer totals over the items of a traced pass."""
    totals: dict[str, float] = {}
    for row in rows:
        for key, value in row.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals
