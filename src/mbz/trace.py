"""Trace file handling: JSON-lines of timestamped raw packets.

One event per line: {"ts_us": int, "dir": "out"|"in", "app": str,
"pkt_b64": base64 bytes}. "out" is app-to-network (engine input on
replay); "in" is network-to-app, parsed and validated but skipped on
replay. App attribution is carried as trace metadata and treated as
ground truth.

`read_trace` streams the file a line at a time and checks every line
before it becomes an event: `ts_us` is a non-negative integer (not a
boolean) that never decreases, `app` (default "") is a string, and
`pkt_b64` is ASCII base64. Blank lines are skipped. Any other line,
whatever its bytes, raises MalformedTrace naming the line.

Each line is read as `json.loads` reads it: the C scanner
(`JSONDecoder.raw_decode`) decodes the value after any leading JSON
whitespace (space, tab, LF, CR; RFC 8259 section 2), and only JSON
whitespace may follow the value.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import NamedTuple

APP_TO_NET = "out"
NET_TO_APP = "in"

_JSON_WHITESPACE = " \t\n\r"


class MalformedTrace(Exception):
    """Bad encoding, missing fields, or decreasing timestamps."""


class TraceEvent(NamedTuple):
    """One trace line. A plain tuple underneath, so building one per line
    costs one allocation."""

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


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a JSON-lines trace; timestamps must be non-decreasing."""
    events: list[TraceEvent] = []
    append = events.append
    make = TraceEvent._make
    raw_decode = json.JSONDecoder().raw_decode
    b64decode = base64.b64decode
    last_ts = 0
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj, end = raw_decode(line, len(line) - len(line.lstrip(_JSON_WHITESPACE)))
                except (ValueError, RecursionError):
                    if not line.strip():
                        continue
                    raise MalformedTrace(f"line {lineno}: not valid JSON") from None
                if line[end:].strip(_JSON_WHITESPACE):
                    raise MalformedTrace(f"line {lineno}: not valid JSON")
                if type(obj) is not dict:
                    raise MalformedTrace(f"line {lineno}: not a JSON object")
                try:
                    ts_us = obj["ts_us"]
                    direction = obj["dir"]
                    pkt_b64 = obj["pkt_b64"]
                except KeyError as exc:
                    raise MalformedTrace(f"line {lineno}: missing field {exc}") from None
                app = obj.get("app", "")
                if type(ts_us) is not int or ts_us < 0:
                    raise MalformedTrace(f"line {lineno}: bad timestamp {ts_us!r}")
                if ts_us < last_ts:
                    raise MalformedTrace(
                        f"line {lineno}: timestamp {ts_us} decreases from {last_ts}")
                if direction != APP_TO_NET and direction != NET_TO_APP:
                    raise MalformedTrace(f"line {lineno}: bad direction {direction!r}")
                if type(app) is not str:
                    raise MalformedTrace(f"line {lineno}: bad app label {app!r}")
                try:
                    packet = b64decode(pkt_b64, validate=True)
                except (ValueError, TypeError):
                    raise MalformedTrace(f"line {lineno}: bad packet encoding") from None
                last_ts = ts_us
                append(make((ts_us, direction, app, packet)))
        except UnicodeDecodeError:
            raise MalformedTrace(f"line {lineno + 1} or later: not valid UTF-8") from None
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
