"""Hostile bytes: the wire parsers on arbitrary and mutated input.

`extract_sni`, `dnswire.parse_message` and `dnswire.question_end` read
what an app or an upstream sends, inside plugin callbacks and on the
engine's shared DNS sockets, so they must answer every input without
raising. `parse_packet` may refuse a packet, but only with a
`PacketError`, which the engine counts. The inputs are arbitrary bytes,
ClientHellos whose server name is any bytes, and valid ClientHellos, DNS
queries, DNS answers and IPv4 packets with bytes overwritten, inserted
or cut off.
"""

from __future__ import annotations

from helpers import AppPeer, Driver, build_engine
from hypothesis import given, settings, strategies as st

from mbz import dnswire, tlswire
from mbz.config import rules_from_list
from mbz.host import Permission, PluginDescriptor
from mbz.packet import (
    PacketError, make_tcp_packet, make_udp_packet, parse_packet, serialize_packet,
)
from mbz.plugins.firewall import FirewallPlugin
from mbz.plugins.snitch import OrgMap, SnitchPlugin

names = st.lists(st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20),
                 min_size=1, max_size=4).map(".".join)
addrs = st.tuples(st.integers(0, 255), st.integers(0, 255)).map(lambda p: f"10.9.{p[0]}.{p[1]}")
hellos = names.map(tlswire.build_client_hello)


@st.composite
def raw_name_hellos(draw):
    """A valid ClientHello whose server name's bytes are then overwritten
    with any bytes."""
    raw = draw(st.binary(min_size=1, max_size=20))
    hello = tlswire.build_client_hello("x" * len(raw))
    return hello[:len(hello) - len(raw)] + raw


queries = st.builds(dnswire.build_query, st.integers(0, 0xFFFF), names)
answers = st.builds(dnswire.build_response, st.integers(0, 0xFFFF), names,
                    st.just(dnswire.QTYPE_A), st.lists(addrs, max_size=4),
                    st.integers(0, 15))
endpoints = st.tuples(addrs, st.integers(0, 0xFFFF))
packets = st.one_of(
    st.builds(make_udp_packet, endpoints, endpoints, payload=st.binary(max_size=64)),
    st.builds(make_tcp_packet, endpoints, endpoints, seq=st.integers(0, 2**32 - 1),
              ack=st.integers(0, 2**32 - 1), flags=st.integers(0, 0xFF),
              payload=st.binary(max_size=64)),
).map(serialize_packet)


@st.composite
def mutated(draw, valid):
    """A valid message with some bytes overwritten, then some inserted,
    then maybe cut short."""
    data = bytearray(draw(valid))
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    for _ in range(draw(st.integers(0, 2))):
        data.insert(draw(st.integers(0, len(data))), draw(st.integers(0, 255)))
    return bytes(data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) else data)


def hostile(*valid):
    return st.binary(max_size=600) | st.one_of(*(mutated(v) for v in valid))


class TestHostileBytes:
    @settings(deadline=None)
    @given(hostile(hellos, queries, answers) | raw_name_hellos())
    def test_sni_and_dns_readers_never_raise(self, data):
        sni = tlswire.extract_sni(data)
        assert sni is None or isinstance(sni, str)
        msg = dnswire.parse_message(data)
        assert msg is None or isinstance(msg, dnswire.DnsMessage)
        assert 12 <= dnswire.question_end(data) <= max(12, len(data))

    @settings(deadline=None)
    @given(hostile(packets))
    def test_parse_packet_raises_only_packet_errors(self, data):
        try:
            parse_packet(data)
        except PacketError:
            pass


def non_ascii_hello(name: str = "example.com") -> bytes:
    """A ClientHello whose server name's first byte is 0xE9."""
    hello = bytearray(tlswire.build_client_hello(name))
    hello[hello.index(name.encode("ascii"))] = 0xE9
    return bytes(hello)


class TestNonAsciiServerName:
    def test_extract_sni_returns_none(self):
        assert tlswire.extract_sni(tlswire.build_client_hello("example.com")) == "example.com"
        assert tlswire.extract_sni(non_ascii_hello()) is None

    def test_snitch_and_firewall_log_no_violation(self):
        # the firewall turns the name's tail to upper case: its verdict
        # reaches the upstream only if its callback returned one
        engine = build_engine([{"cidr": "10.9.0.0/16", "behavior": "echo"}])
        firewall = FirewallPlugin(rules_from_list([
            {"match": {}, "action": {"rewrite": {"pattern": "xample", "replacement": "XAMPLE"}}}]))
        snitch = SnitchPlugin(OrgMap.from_pairs([]))
        engine.host.register(PluginDescriptor(
            id="fw", name="firewall",
            requested=Permission.OBSERVE | Permission.MODIFY_PAYLOAD), firewall)
        engine.host.register(PluginDescriptor(
            id="snitch", name="snitch", requested=Permission.OBSERVE), snitch)
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 40000), ("10.9.0.1", 443)))
        peer.syn()
        driver.drive()
        hello = non_ascii_hello()
        peer.send(hello)
        driver.drive()
        assert engine.host.violations == []
        assert bytes(engine.upstream.transcripts[0].received) \
            == hello.replace(b"xample", b"XAMPLE")
        assert [record.sni for record in snitch.records.values()] == [None]
