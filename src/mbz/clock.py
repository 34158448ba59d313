"""Discrete-event scheduler with a virtual or wall clock.

The engine's one loop (`Engine.pump`) runs off one of these: replay and
tests in virtual mode (time jumps to the next event, fully
deterministic), the bench in wall mode (`WallScheduler`: time is real,
and `advance_to` waits for it). Ties are broken by insertion order.
"""

from __future__ import annotations

import heapq
import time

VIRTUAL = "virtual"
WALL = "wall"


class Scheduler:
    def __new__(cls, mode: str = VIRTUAL):
        if mode not in (VIRTUAL, WALL):
            raise ValueError(f"unknown clock mode {mode!r}")
        return super().__new__(WallScheduler if mode == WALL else cls)

    def __init__(self, mode: str = VIRTUAL):
        # the latest time the clock reached (a wall clock's last reading) and a
        # heap of (at_us, seq, fn), compared in C (seq is unique); the engine reads both
        self.reached_us = 0
        self.timers: list[tuple] = []
        self._seq = 0
        self._origin_ns = time.perf_counter_ns()  # what a wall clock counts from

    def now_us(self) -> int:
        """Current time in microseconds."""
        return self.reached_us

    def advance_to(self, at_us: int) -> None:
        """Bring the clock to `at_us`, running no event: a virtual clock
        jumps there, a wall clock waits for it."""
        self.reached_us = max(self.reached_us, at_us)

    def call_at(self, at_us: int, fn) -> None:
        """Run `fn` at `at_us`, or now if that has passed. Every timer
        enters here."""
        now = self.now_us()
        heapq.heappush(self.timers, (at_us if at_us > now else now, self._seq, fn))
        self._seq += 1

    def call_later(self, delay_us: int, fn) -> None:
        self.call_at(self.now_us() + max(0, delay_us), fn)

    def pending(self) -> int:
        """Count of scheduled entries."""
        return len(self.timers)

    def step(self) -> bool:
        """Run the earliest entry once the clock is at its time
        (`advance_to`). Returns False if the queue is empty."""
        if not self.timers:
            return False
        at_us, _seq, fn = heapq.heappop(self.timers)
        if at_us > self.reached_us:
            self.advance_to(at_us)
        fn()
        return True


class WallScheduler(Scheduler):
    """What `Scheduler(mode=WALL)` builds: real time since construction."""

    def now_us(self) -> int:
        self.reached_us = now = (time.perf_counter_ns() - self._origin_ns) // 1000
        return now

    def advance_to(self, at_us: int) -> None:
        if at_us > self.reached_us and (wait_us := at_us - self.now_us()) > 0:
            time.sleep(wait_us / 1e6)
