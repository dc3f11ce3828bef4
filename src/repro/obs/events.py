"""Flight-recorder events and live progress reporting.

Two complementary signals for long runs:

* :class:`EventRing` is a bounded flight recorder: ``obs.event(...)``
  appends a timestamped :class:`Event` and the oldest entries fall off
  once the ring is full, so a multi-hour sweep can always answer "what
  were the last N things that happened" without unbounded memory.
* :class:`ProgressReporter` is the callback protocol behind
  ``obs.progress(...)``: instrumented loops (SAT restarts, exact-P&R
  candidates, SimAnneal sweep batches, operational-domain grid points,
  parallel task fan-outs) report ``(stage, current, total)`` ticks and
  an installed reporter turns them into a live display.
  :class:`LineProgressReporter` is the CLI's single-line ``\\r``
  renderer (``repro synth ... --progress``).

Both are off by default and cost one attribute check per call site
when off, preserving the 2% disabled-overhead gate.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Protocol, TextIO, runtime_checkable

#: Default flight-recorder capacity (events, not bytes).
DEFAULT_EVENT_CAPACITY = 1024


@dataclass(frozen=True)
class Event:
    """One flight-recorder entry."""

    name: str
    #: ``time.perf_counter()`` timestamp (process-local timebase).
    timestamp: float
    attributes: dict[str, object] = field(default_factory=dict)


class EventRing:
    """Fixed-capacity append-only ring; the oldest events drop first.

    Appends and reads are thread-safe (the service's HTTP handler
    threads write while ``/v1/events`` streams), and every append gets a
    monotonically increasing :attr:`sequence` number so a streaming
    reader can resume from a cursor with :meth:`since` and detect how
    many events it missed.
    """

    __slots__ = ("capacity", "_entries", "_next", "dropped", "sequence",
                 "_lock")

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: list[Event] = []
        self._next = 0
        #: Events discarded so far to stay within capacity.
        self.dropped = 0
        #: Total events ever appended (never decreases, survives drops).
        self.sequence = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, event: Event) -> None:
        with self._lock:
            self.sequence += 1
            if len(self._entries) < self.capacity:
                self._entries.append(event)
                return
            self._entries[self._next] = event
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    def snapshot(self) -> list[Event]:
        """The retained events, oldest first."""
        with self._lock:
            return (
                self._entries[self._next:] + self._entries[: self._next]
            )

    def since(self, cursor: int) -> tuple[list[Event], int]:
        """Events appended after sequence number ``cursor``.

        Returns ``(events, new_cursor)`` where ``new_cursor`` is the
        ring's current :attr:`sequence` -- pass it back on the next call
        to stream without duplicates.  Events that fell off the ring
        between calls are simply absent (drop-oldest); a cursor from a
        different (e.g. since-replaced) ring that lies beyond the
        current sequence is treated as 0 so readers recover instead of
        stalling forever.
        """
        with self._lock:
            if cursor > self.sequence or cursor < 0:
                cursor = 0
            missed = self.sequence - cursor
            if missed <= 0:
                return [], self.sequence
            ordered = (
                self._entries[self._next:] + self._entries[: self._next]
            )
            return ordered[-missed:] if missed < len(ordered) else ordered, \
                self.sequence

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._next = 0
            self.dropped = 0


@runtime_checkable
class ProgressReporter(Protocol):
    """Callback protocol for live progress ticks.

    ``current`` counts completed units of ``stage``; ``total`` is the
    known unit count or ``None`` for open-ended stages (e.g. SAT
    restarts).  ``info`` carries small free-form context such as the
    candidate dimensions currently being tried.
    """

    def update(
        self,
        stage: str,
        current: int,
        total: int | None = None,
        **info: object,
    ) -> None:  # pragma: no cover - protocol signature only
        ...


class LineProgressReporter:
    """Single-line ``\\r`` progress rendering for terminals.

    Re-renders at most every ``min_interval`` seconds (final ticks of a
    stage always render), pads with spaces so a shorter line fully
    overwrites a longer one, and :meth:`finish` clears the line so the
    next regular print starts clean.  On a stream that is not a
    terminal (a pipe or a log file) each rendered update is written as
    its own line instead, and :meth:`finish` writes nothing.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        min_interval: float = 0.1,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._terminal = self.stream.isatty()
        self.updates = 0
        # -inf, not 0.0: time.monotonic() starts near zero on a freshly
        # booted machine, and 0.0 would throttle the very first update
        # whenever uptime < min_interval.
        self._last_render = float("-inf")
        self._last_width = 0

    def update(
        self,
        stage: str,
        current: int,
        total: int | None = None,
        **info: object,
    ) -> None:
        self.updates += 1
        now = time.monotonic()
        final = total is not None and current >= total
        if not final and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        if total is not None:
            text = f"{stage} {current}/{total}"
        else:
            text = f"{stage} {current}"
        if info:
            details = ", ".join(f"{k}={v}" for k, v in info.items())
            text = f"{text} ({details})"
        if not self._terminal:
            self.stream.write(text + "\n")
            self.stream.flush()
            return
        padding = " " * max(0, self._last_width - len(text))
        self._last_width = len(text)
        self.stream.write(f"\r{text}{padding}")
        self.stream.flush()

    def finish(self) -> None:
        """Clear the progress line (call once after the tracked work)."""
        if self._last_width:
            self.stream.write("\r" + " " * self._last_width + "\r")
            self.stream.flush()
            self._last_width = 0
