"""Trace file handling: JSON-lines of timestamped raw packets.

One event per line: {"ts_us": int, "dir": "out"|"in", "app": str,
"pkt_b64": base64 bytes}. "out" is app-to-network (engine input on
replay); "in" is network-to-app, parsed and validated but skipped on
replay. App attribution is carried as trace metadata and treated as
ground truth.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from pathlib import Path

APP_TO_NET = "out"
NET_TO_APP = "in"


class MalformedTrace(Exception):
    """Bad encoding, missing fields, or decreasing timestamps."""


@dataclass(frozen=True)
class TraceEvent:
    ts_us: int
    direction: str  # APP_TO_NET or NET_TO_APP
    app_label: str
    packet: bytes

    def to_json(self) -> str:
        return json.dumps(
            {
                "ts_us": self.ts_us,
                "dir": self.direction,
                "app": self.app_label,
                "pkt_b64": base64.b64encode(self.packet).decode("ascii"),
            },
            sort_keys=True,
        )


def _event_from_obj(obj: dict, lineno: int) -> TraceEvent:
    try:
        ts_us = obj["ts_us"]
        direction = obj["dir"]
        app = obj.get("app", "")
        pkt_b64 = obj["pkt_b64"]
    except (KeyError, TypeError) as exc:
        raise MalformedTrace(f"line {lineno}: missing field {exc}") from exc
    if direction not in (APP_TO_NET, NET_TO_APP):
        raise MalformedTrace(f"line {lineno}: bad direction {direction!r}")
    if not isinstance(ts_us, int) or ts_us < 0:
        raise MalformedTrace(f"line {lineno}: bad timestamp {ts_us!r}")
    try:
        packet = base64.b64decode(pkt_b64, validate=True)
    except (binascii.Error, TypeError) as exc:
        raise MalformedTrace(f"line {lineno}: bad packet encoding") from exc
    return TraceEvent(ts_us=ts_us, direction=direction, app_label=app, packet=packet)


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a JSON-lines trace; timestamps must be non-decreasing."""
    events: list[TraceEvent] = []
    last_ts = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedTrace(f"line {lineno}: not valid JSON") from exc
            event = _event_from_obj(obj, lineno)
            if event.ts_us < last_ts:
                raise MalformedTrace(
                    f"line {lineno}: timestamp {event.ts_us} decreases from {last_ts}")
            last_ts = event.ts_us
            events.append(event)
    return events


def write_trace(path: str | Path, events: list[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(event.to_json())
            fh.write("\n")


def check_monotonic(events: list[TraceEvent]) -> None:
    last = -1
    for i, event in enumerate(events):
        if event.ts_us < last:
            raise MalformedTrace(f"event {i}: timestamp {event.ts_us} decreases")
        last = event.ts_us
