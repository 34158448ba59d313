"""App-side packet conduits.

A conduit is the engine's app-facing boundary: it surfaces raw IP
packets the app sent (with optional app attribution) and accepts the
packets the engine writes back. Implementations here are the trace
replayer and an in-memory conduit for tests and the bench; a live tun
device would slot in behind the same contract.
"""

from __future__ import annotations

from collections import deque

from .clock import Scheduler
from .trace import APP_TO_NET, TraceEvent


class PacketConduit:
    """Contract: whole packets, per-direction ordering preserved.

    next_ready_us() tells the engine when the next app packet becomes
    available (None when the source is exhausted); read_packet() pops it
    once the clock has reached that time. The engine's loop asks again
    only after it reads a packet, so packets are added between its calls.
    write_packet() delivers a packet to the app; a conduit need not keep
    it. The engine hands everything it writes to its owner's sink as well
    (`Engine.sink`; a replay spools it to a temporary pcap file).
    """

    def next_ready_us(self) -> int | None:
        raise NotImplementedError

    def read_packet(self) -> tuple[int, bytes, str] | None:
        raise NotImplementedError

    def write_packet(self, data: bytes) -> None:
        raise NotImplementedError


class InMemoryConduit(PacketConduit):
    """Queue-backed conduit; tests and the bench inject packets directly."""

    def __init__(self, scheduler: Scheduler):
        self._scheduler = scheduler
        self._inbox: deque[tuple[int, bytes, str]] = deque()
        self.emitted: list[tuple[int, bytes]] = []

    def inject(self, data: bytes, app_label: str = "", at_us: int | None = None) -> None:
        ts = self._scheduler.now_us() if at_us is None else at_us
        self._inbox.append((ts, data, app_label))

    def next_ready_us(self) -> int | None:
        return self._inbox[0][0] if self._inbox else None

    def read_packet(self) -> tuple[int, bytes, str] | None:
        return self._inbox.popleft() if self._inbox else None

    def write_packet(self, data: bytes) -> None:
        self.emitted.append((self._scheduler.now_us(), data))

    def take_emitted(self) -> list[tuple[int, bytes]]:
        out, self.emitted = self.emitted, []
        return out


class ReplayConduit(PacketConduit):
    """Replays the app-to-net half of a trace in timestamp order.

    Net-to-app events from the trace are skipped. Packets the engine
    writes are discarded: a trace has no app to deliver them to, and the
    replay's pcap spool (`ReplayRun.capture`) already records them.
    Replay runs on a virtual clock, so the trace timestamps are surfaced
    as-is; the events must already be in timestamp order, as
    `runner.load_trace_events` returns them.
    """

    def __init__(self, events: list[TraceEvent]):
        self._pending: deque[TraceEvent] = deque(
            e for e in events if e.direction == APP_TO_NET)

    def next_ready_us(self) -> int | None:
        return self._pending[0].ts_us if self._pending else None

    def read_packet(self) -> tuple[int, bytes, str] | None:
        if not self._pending:
            return None
        ts_us, _direction, app_label, packet = self._pending.popleft()
        return (ts_us, packet, app_label)

    def write_packet(self, data: bytes) -> None:
        pass
