"""Discrete-event scheduler with a virtual or wall clock.

The whole engine is driven off one of these: replay and tests run in
virtual mode (time jumps to the next event, fully deterministic), the
bench subcommand runs in wall mode (time is real, due events are waited
for). Ties are broken by insertion order.
"""

from __future__ import annotations

import heapq
import time

VIRTUAL = "virtual"
WALL = "wall"


class Scheduler:
    def __init__(self, mode: str = VIRTUAL):
        if mode not in (VIRTUAL, WALL):
            raise ValueError(f"unknown clock mode {mode!r}")
        self.mode = mode
        self._now_us = 0
        # (at_us, seq, fn) tuples, which heapq compares in C; seq is unique, so
        # fn is never compared
        self._heap: list[tuple] = []
        self._seq = 0
        if mode == WALL:
            # bound once here: the engine and the plugin governor read the
            # clock on every packet and callback
            wall_origin_ns = time.perf_counter_ns()
            perf_counter_ns = time.perf_counter_ns
            self.now_us = lambda: (perf_counter_ns() - wall_origin_ns) // 1000

    def now_us(self) -> int:
        """Current time in microseconds (a wall-mode scheduler replaces
        this with its own reading of the wall clock)."""
        return self._now_us

    def call_at(self, at_us: int, fn) -> None:
        """Run `fn` at `at_us`, or now if that has passed. Every timer
        enters here."""
        now = self.now_us()
        heapq.heappush(self._heap, (at_us if at_us > now else now, self._seq, fn))
        self._seq += 1

    def call_later(self, delay_us: int, fn) -> None:
        self.call_at(self.now_us() + max(0, delay_us), fn)

    def pending(self) -> int:
        """Count of scheduled entries."""
        return len(self._heap)

    def peek_us(self) -> int | None:
        """Timestamp of the earliest entry, or None."""
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Run the earliest entry. In wall mode, waits until it is due.
        Returns False if the queue is empty."""
        if not self._heap:
            return False
        at_us, _seq, fn = heapq.heappop(self._heap)
        if self.mode == WALL:
            wait_us = at_us - self.now_us()
            if wait_us > 0:
                time.sleep(wait_us / 1e6)
        else:
            self._now_us = max(self._now_us, at_us)
        fn()
        return True

    def advance_to(self, at_us: int) -> None:
        """Virtual mode only: move the clock forward without events."""
        if self.mode != VIRTUAL:
            raise ValueError("advance_to is only meaningful on a virtual clock")
        self._now_us = max(self._now_us, at_us)
