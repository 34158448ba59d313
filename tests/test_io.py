"""Scheduler, trace files, pcap, and conduit tests."""

import base64
import binascii
import json
import random
import struct
import time

import pytest
from helpers import drain_timers, spool_of
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mbz.clock import Scheduler
from mbz.conduit import InMemoryConduit, ReplayConduit
from mbz.config import load_config
from mbz.packet import make_udp_packet, serialize_packet
from mbz.pcapio import (
    BadMagic, PcapSpool, TruncatedCapture, UnsupportedLinkType, pcap_read, pcap_write,
)
from mbz.runner import ReplayRun
from mbz.trace import (
    APP_TO_NET, NET_TO_APP, MalformedTrace, TraceEvent, read_trace, write_trace,
)


class TestScheduler:
    def test_virtual_time_jumps(self):
        sched = Scheduler()
        seen = []
        sched.call_at(5_000, lambda: seen.append(sched.now_us()))
        sched.call_at(1_000, lambda: seen.append(sched.now_us()))
        drain_timers(sched)
        assert seen == [1_000, 5_000]

    def test_tie_break_is_insertion_order(self):
        sched = Scheduler()
        seen = []
        for i in range(5):
            sched.call_at(100, lambda i=i: seen.append(i))
        drain_timers(sched)
        assert seen == [0, 1, 2, 3, 4]

    def test_wall_mode_waits(self):
        sched = Scheduler(mode="wall")
        fired = []
        sched.call_later(20_000, lambda: fired.append(sched.now_us()))
        start = time.perf_counter()
        drain_timers(sched)
        assert time.perf_counter() - start >= 0.019
        assert fired


def _pkt_bytes(n: int = 0) -> bytes:
    return serialize_packet(make_udp_packet(("10.0.0.2", 1000 + n), ("1.2.3.4", 9)))


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        events = [
            TraceEvent(0, APP_TO_NET, "app1", _pkt_bytes(0)),
            TraceEvent(1500, NET_TO_APP, "", _pkt_bytes(1)),
            TraceEvent(2000, APP_TO_NET, "app2", _pkt_bytes(2)),
        ]
        path = tmp_path / "t.jsonl"
        write_trace(path, events)
        assert read_trace(path) == events

    def test_decreasing_timestamps_rejected(self, tmp_path):
        events = [TraceEvent(10, APP_TO_NET, "", _pkt_bytes()),
                  TraceEvent(5, APP_TO_NET, "", _pkt_bytes())]
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as fh:
            for e in events:
                fh.write(e.to_json() + "\n")
        with pytest.raises(MalformedTrace):
            read_trace(path)

    def test_bad_base64_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts_us": 0, "dir": "out", "app": "", "pkt_b64": "!!!"}\n')
        with pytest.raises(MalformedTrace):
            read_trace(path)

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts_us": 0, "dir": "sideways", "app": "", "pkt_b64": ""}\n')
        with pytest.raises(MalformedTrace):
            read_trace(path)

    def test_round_trip_events_are_immutable_and_hashable(self, tmp_path):
        events = [TraceEvent(0, APP_TO_NET, "app1", _pkt_bytes(0)),
                  TraceEvent(7, NET_TO_APP, "", b"")]
        path = tmp_path / "t.jsonl"
        write_trace(path, events)
        back = read_trace(path)
        assert back == events and all(type(e) is TraceEvent for e in back)
        assert len({*back, *events}) == 2
        with pytest.raises(AttributeError):
            back[0].ts_us = 1
        assert back[0]._fields == ("ts_us", "direction", "app_label", "packet")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n  \n" + TraceEvent(3, APP_TO_NET, "a", b"x").to_json() + "\n\t\n")
        assert read_trace(path) == [TraceEvent(3, APP_TO_NET, "a", b"x")]


def _reference_decode(line: bytes):
    """What one trace line means, written from the documented rules: a
    list of events (empty for a blank line), or None for a malformed one."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text.strip():
        return []
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict) or not {"ts_us", "dir", "pkt_b64"} <= obj.keys():
        return None
    ts_us, direction, app, pkt_b64 = obj["ts_us"], obj["dir"], obj.get("app", ""), obj["pkt_b64"]
    if isinstance(ts_us, bool) or not isinstance(ts_us, int) or ts_us < 0:
        return None
    if direction not in ("out", "in") or not isinstance(app, str):
        return None
    if not isinstance(pkt_b64, str) or not pkt_b64.isascii():
        return None
    try:
        packet = base64.b64decode(pkt_b64, validate=True)
    except binascii.Error:
        return None
    return [TraceEvent(ts_us, direction, app, packet)]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
_valid_fields = st.fixed_dictionaries({
    "ts_us": st.integers(min_value=0, max_value=2**40),
    "dir": st.sampled_from(["out", "in"]),
    "app": st.text(max_size=8),
    "pkt_b64": st.binary(max_size=40).map(lambda b: base64.b64encode(b).decode("ascii")),
})
_field_edits = st.dictionaries(
    st.sampled_from(["ts_us", "dir", "app", "pkt_b64", "extra"]),
    st.none() | _json_values | st.text(alphabet="AZaz09+/= \u00e9", max_size=12), max_size=3)


@st.composite
def _mutated_event_lines(draw) -> bytes:
    obj = draw(_valid_fields)
    obj.update(draw(_field_edits))
    for name in draw(st.sets(st.sampled_from(["ts_us", "dir", "app", "pkt_b64"]), max_size=2)):
        obj.pop(name)
    return json.dumps(obj, ensure_ascii=draw(st.booleans())).encode("utf-8")


_trace_lines = (
    _mutated_event_lines()
    | _json_values.map(lambda v: json.dumps(v).encode("utf-8"))
    | st.binary(max_size=60)
).filter(lambda line: b"\n" not in line and b"\r" not in line)


def _check_trace_line(tmp_path, line: bytes, expected) -> None:
    path = tmp_path / "t.jsonl"
    path.write_bytes(line + b"\n")
    try:
        got = read_trace(path)
    except MalformedTrace:
        assert expected is None
    else:
        assert got == expected


class TestHostileTraceLines:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=_trace_lines)
    @example(line=b'{"ts_us": true, "dir": "out", "pkt_b64": ""}')
    @example(line=b'{"ts_us": 0, "dir": "out", "app": null, "pkt_b64": ""}')
    @example(line='{"ts_us": 0, "dir": "in", "pkt_b64": "\u00e9"}'.encode("utf-8"))
    @example(line=b"[" * 100_000)
    @example(line=b"\xff{}")
    def test_line_decodes_as_reference_or_is_malformed(self, tmp_path, line):
        _check_trace_line(tmp_path, line, _reference_decode(line))


def _reference_decode_split(line: bytes):
    """`_reference_decode` of a line that may hold CRs: the reader splits
    it at each CR, as it splits at LF."""
    events = []
    for part in line.split(b"\r"):
        decoded = _reference_decode(part)
        if decoded is None:
            return None
        events += decoded
    return events


# JSON's whitespace around a value, and characters that look like
# whitespace but that JSON forbids there
_json_space = st.text(alphabet=" \t\r", max_size=6)
_lookalike_space = st.text(alphabet=" \t\r\x0b\x0c\xa0\u2028", max_size=6)


@st.composite
def _padded_lines(draw) -> bytes:
    body = draw(_valid_fields.map(lambda obj: json.dumps(obj).encode("ascii")) | _trace_lines)
    before = draw(st.sampled_from(["", "\ufeff"])) + draw(_json_space | _lookalike_space)
    after = draw(_json_space | _lookalike_space)
    return before.encode("utf-8") + body + after.encode("utf-8")


class TestPaddedTraceLines:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=_padded_lines())
    @example(line=b"{} {}")
    @example(line=b'{"ts_us": 0, "dir": "out", "pkt_b64": ""},')
    @example(line=b'{"ts_us": 0, "dir": "out", "pkt_b64": ""} {"ts_us": 1, "dir": "out", "pkt_b64": ""}')
    @example(line=b'{"ts_us": 0, "dir": "out", "pkt_b64": ""}\x0c')
    @example(line=b'\xc2\xa0{"ts_us": 0, "dir": "out", "pkt_b64": ""}')
    @example(line=b'\t\r {"ts_us": 0, "dir": "out", "pkt_b64": ""} \t\r')
    def test_padded_line_decodes_as_reference_or_is_malformed(self, tmp_path, line):
        _check_trace_line(tmp_path, line, _reference_decode_split(line))


class TestPcap:
    def test_write_read_round_trip(self, tmp_path):
        records = [(i * 1000 + 7, _pkt_bytes(i)) for i in range(5)]
        path = tmp_path / "t.pcap"
        pcap_write(path, spool_of(records))
        assert pcap_read(path) == records

    def test_spool_layout_and_appends_after_a_copy(self, tmp_path):
        pkt = _pkt_bytes()
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack("<IIII", 3, 250, len(pkt), len(pkt)) + pkt
        spool = PcapSpool()
        pcap_write(tmp_path / "empty.pcap", spool)
        assert (tmp_path / "empty.pcap").read_bytes() == header
        spool.append((3_000_250, pkt))
        pcap_write(tmp_path / "one.pcap", spool)
        spool.append((3_000_250, pkt))
        pcap_write(tmp_path / "two.pcap", spool)
        assert (tmp_path / "one.pcap").read_bytes() == header + record
        assert (tmp_path / "two.pcap").read_bytes() == header + record + record

    def test_copies_hold_every_record_across_buffer_flushes(self, tmp_path):
        rng = random.Random(19)
        records = [(i * 1_000_003, bytes([i % 256]) * rng.randint(40, 1500))
                   for i in range(300)]  # about 230 KiB: several 64 KiB flushes
        spool = PcapSpool()
        for i, record in enumerate(records, start=1):
            spool.append(record)
            if i % 23 == 0 or i == len(records):
                pcap_write(tmp_path / "copy.pcap", spool)
                assert pcap_read(tmp_path / "copy.pcap") == records[:i]

    def test_big_endian_accepted(self, tmp_path):
        pkt = _pkt_bytes()
        path = tmp_path / "be.pcap"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
            fh.write(struct.pack(">IIII", 1, 250, len(pkt), len(pkt)))
            fh.write(pkt)
        assert pcap_read(path) == [(1_000_250, pkt)]

    def test_ethernet_frames_unwrapped(self, tmp_path):
        # reference layout checked against a capture tool's hex dump:
        # 6B dst MAC + 6B src MAC + 2B ethertype 0x0800, then the IP packet
        pkt = _pkt_bytes()
        frame = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + pkt
        arp = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x06" + b"\x00" * 28
        path = tmp_path / "eth.pcap"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
            for ts, body in ((3, frame), (4, arp)):
                fh.write(struct.pack("<IIII", 0, ts, len(body), len(body)))
                fh.write(body)
        assert pcap_read(path) == [(3, pkt)]  # ARP frame skipped

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(BadMagic):
            pcap_read(path)

    def test_unsupported_linktype(self, tmp_path):
        path = tmp_path / "lt.pcap"
        path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 113))
        with pytest.raises(UnsupportedLinkType):
            pcap_read(path)

    def test_truncated_last_record(self, tmp_path):
        records = [(1, _pkt_bytes(0)), (2, _pkt_bytes(1))]
        path = tmp_path / "trunc.pcap"
        pcap_write(path, spool_of(records))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TruncatedCapture) as exc_info:
            pcap_read(path)
        assert exc_info.value.records == records[:1]


class TestConduits:
    def test_replay_surfaces_out_events_in_order(self):
        events = [TraceEvent(100, APP_TO_NET, "a", _pkt_bytes(0)),
                  TraceEvent(150, NET_TO_APP, "", _pkt_bytes(1)),
                  TraceEvent(200, APP_TO_NET, "b", _pkt_bytes(2))]
        conduit = ReplayConduit(events)
        assert conduit.next_ready_us() == 100
        assert conduit.read_packet() == (100, _pkt_bytes(0), "a")
        assert conduit.read_packet() == (200, _pkt_bytes(2), "b")
        assert conduit.read_packet() is None

    def test_empty_trace_is_end_of_stream(self):
        conduit = ReplayConduit([])
        assert conduit.next_ready_us() is None
        assert conduit.read_packet() is None

    def test_decreasing_pcap_timestamps_rejected(self, tmp_path):
        # a trace file is checked as it is read; a pcap input is checked
        # when its records become events
        pcap_write(tmp_path / "in.pcap", spool_of([(10, _pkt_bytes()), (5, _pkt_bytes())]))
        (tmp_path / "config.yaml").write_text("io: {pcap: in.pcap}\n")
        with pytest.raises(MalformedTrace, match="decreases"):
            ReplayRun(load_config(tmp_path / "config.yaml"))

    def test_in_memory_conduit_stamps_writes(self):
        sched = Scheduler()
        conduit = InMemoryConduit(sched)
        sched.advance_to(42)
        conduit.write_packet(b"x")
        assert conduit.take_emitted() == [(42, b"x")]
        assert conduit.take_emitted() == []
