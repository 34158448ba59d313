"""The per-connection path builds its records positionally and reads no
Enum member off its class.

A positional call is about half the cost of a keyword one, but it binds
by field order: a field added or moved in the wrong place would set the
wrong attribute. So the flows the engine opens are compared, field for
field, with flows built by keyword from the same inputs."""

from __future__ import annotations

import dataclasses
import functools

import pytest
from helpers import build_engine
from hypothesis import given, strategies as st

from mbz import engine as engine_module
from mbz.engine import Engine, TcpFlow, TcpState, UdpFlow
from mbz.host import Block, BlockMode, Permission, PluginDescriptor, TrafficPlugin
from mbz.packet import (
    SYN, flow_key_of, make_tcp_packet, make_udp_packet, mss_option, parse_packet,
    serialize_packet,
)

APP = ("10.0.0.2", 40001)
ECHO_NET = "10.1.0.0/16"
SERVER_IP = "10.1.0.1"


class _Notice(TrafficPlugin):
    """Answers every flow open with a notice in the upstream's place."""

    def __init__(self, notice: bytes):
        self.notice = notice

    def on_flow_open(self, event, ctx):
        return Block(BlockMode.INJECT_RESPONSE, self.notice)


def _fields_of(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _recording(cls):
    """A subclass of `cls` that keeps each instance's fields as they stand
    when its constructor returns (a copy of each byte buffer)."""
    built = []

    class Recorded(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append({name: bytearray(value) if isinstance(value, bytearray) else value
                          for name, value in _fields_of(self).items()})
    return Recorded, built


def _opening(engine: Engine, cls, data: bytes, app_label: str):
    """Feed one app packet; returns the fields of the one `cls` record the
    engine built for it and the handles `Engine._open` returned."""
    recorded, built = _recording(cls)
    opened = []

    def recording_open(*args):
        handle = Engine._open(engine, *args)
        opened.append(handle)
        return handle
    engine._open = recording_open
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, cls.__name__, recorded)
        engine.on_app_packet(0, data, app_label)
    assert len(built) == 1
    return built[0], opened


labels = st.text(max_size=8)


class TestRecordsBuiltPositionally:
    @given(seq=st.integers(0, (1 << 32) - 1), window=st.integers(0, 65535),
           mss=st.none() | st.integers(0, 65535), payload=st.binary(max_size=64),
           app_label=labels, notice=st.none() | st.binary(max_size=16))
    def test_tcp_flow(self, seq, window, mss, payload, app_label, notice):
        engine = build_engine([{"cidr": ECHO_NET, "behavior": "echo"}])
        if notice is not None:
            engine.host.register(PluginDescriptor(
                id="notice", name="notice",
                requested=Permission.OBSERVE | Permission.BLOCK_FLOW), _Notice(notice))
        syn = make_tcp_packet(APP, (SERVER_IP, 80), seq=seq, ack=0, flags=SYN,
                              window=window, payload=payload,
                              options=b"" if mss is None else mss_option(mss))
        data = serialize_packet(syn)
        fields, opened = _opening(engine, TcpFlow, data, app_label)
        assert len(opened) == (notice is None)
        expected = TcpFlow(
            key=flow_key_of(parse_packet(data)), app_label=app_label,
            state=TcpState.UPSTREAM_CONNECTING, app_isn=seq,
            local_isn=engine.config.local_isn, effective_dst=(SERVER_IP, 80),
            mss=min(mss or 1460, 1460), app_window=window,
            stream=opened[0] if opened else None, notice=notice,
            deferred_payload=payload, deferred_app_len=len(payload))
        assert fields == _fields_of(expected)

    @given(dns=st.booleans(), src_port=st.integers(1, 65535),
           payload=st.binary(max_size=40), app_label=labels)
    def test_udp_flow(self, dns, src_port, payload, app_label):
        engine = build_engine([{"cidr": ECHO_NET, "behavior": "echo"}])
        dst = (SERVER_IP, 53 if dns else 4433)
        data = serialize_packet(make_udp_packet(("10.0.0.2", src_port), dst, payload))
        fields, opened = _opening(engine, UdpFlow, data, app_label)
        assert len(opened) == 1
        expected = UdpFlow(
            key=flow_key_of(parse_packet(data)), app_label=app_label, effective_dst=dst,
            handle=opened[0], shared_key=("10.0.0.2", dst) if dns else None)
        assert fields == _fields_of(expected)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            yield from _code_objects(const)


def test_no_engine_method_reads_tcp_state_off_its_class():
    """The engine reads its states through module aliases: on Python 3.11
    `flow.state is TcpState.CLOSED` costs about 114 ns, against 15 ns
    through the alias."""
    functions = []
    for attr in vars(Engine).values():
        if isinstance(attr, functools.cached_property):
            attr = attr.func
        if hasattr(attr, "__code__"):
            functions.append(attr)
    assert len(functions) > 30
    readers = [fn.__name__ for fn in functions
               if any("TcpState" in code.co_names for code in _code_objects(fn.__code__))]
    assert readers == []
