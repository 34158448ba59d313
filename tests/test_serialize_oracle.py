"""serialize_packet against the two-pass serializer it replaced.

`oracle_serialize` is that serializer as it was: each header packed with
a zero checksum, then folded and patched. The property test asserts the
one-pack serializer gives the same bytes, or raises the same exception,
on TCP, UDP and transport-less packets, including the edge cases a
one-pack header sum could get wrong: with IP options and without them
(the serializer packs a struct per header length), and with subclasses
of the transport headers.
"""

import dataclasses
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbz import packet
from mbz.packet import (
    DEFAULT_MTU, PROTO_TCP, PROTO_UDP, Ipv4Header, OversizedPacket, Packet,
    PacketError, TcpHeader, UdpHeader, internet_checksum, make_udp_packet,
    serialize_packet,
)


def _oracle_pack_addr(addr: str) -> bytes:
    parts = addr.split(".")
    if len(parts) != 4:
        raise PacketError(f"bad IPv4 address {addr!r}")
    try:
        octets = bytes(int(p) for p in parts)
    except ValueError as exc:
        raise PacketError(f"bad IPv4 address {addr!r}") from exc
    return octets


def oracle_serialize(p: Packet, mtu: int = DEFAULT_MTU) -> bytes:
    ip = p.ip
    ip_options = ip.options
    if len(ip_options) % 4:
        ip_options = ip_options + b"\x00" * (4 - len(ip_options) % 4)
    ihl = 20 + len(ip_options)
    if ihl > 60:
        raise PacketError(f"IPv4 header length {ihl} exceeds 60")
    src_raw = _oracle_pack_addr(ip.src_addr)
    dst_raw = _oracle_pack_addr(ip.dst_addr)
    addr_sum = int.from_bytes(src_raw + dst_raw, "big") + ip.protocol

    if isinstance(p.transport, TcpHeader):
        t = p.transport
        opts = t.options
        if len(opts) % 4:
            opts = opts + b"\x00" * (4 - len(opts) % 4)
        offset = 20 + len(opts)
        if offset > 60:
            raise PacketError(f"TCP data offset {offset} exceeds 60")
        seg = struct.pack(
            "!HHIIBBHHH", t.src_port, t.dst_port, t.seq & 0xFFFFFFFF, t.ack & 0xFFFFFFFF,
            (offset // 4) << 4, t.flags & 0xFF, t.window, 0, t.urgent_ptr,
        ) + opts + p.payload
        total = ihl + len(seg)
        if total > mtu:
            raise OversizedPacket(f"{total} bytes exceeds MTU {mtu}")
        cksum = internet_checksum(seg, addr_sum + len(seg))
        seg = seg[:16] + struct.pack("!H", cksum) + seg[18:]
    elif isinstance(p.transport, UdpHeader):
        t = p.transport
        length = 8 + len(p.payload)
        seg = struct.pack("!HHHH", t.src_port, t.dst_port, length, 0) + p.payload
        total = ihl + len(seg)
        if total > mtu:
            raise OversizedPacket(f"{total} bytes exceeds MTU {mtu}")
        cksum = internet_checksum(seg, addr_sum + length)
        if cksum == 0:
            cksum = 0xFFFF
        seg = seg[:6] + struct.pack("!H", cksum) + seg[8:]
    else:
        seg = p.payload
        total = ihl + len(seg)
        if total > mtu:
            raise OversizedPacket(f"{total} bytes exceeds MTU {mtu}")

    hdr = struct.pack(
        "!BBHHHBBH4s4s", (4 << 4) | (ihl // 4), ip.dscp_ecn, total,
        ip.identification, ip.flags_fragment, ip.ttl, ip.protocol, 0,
        src_raw, dst_raw,
    ) + ip_options
    hdr = hdr[:10] + struct.pack("!H", internet_checksum(hdr)) + hdr[12:]
    return hdr + seg


def outcome(fn, *args):
    """The bytes, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def same_outcome(pkt: Packet, mtu: int):
    expected = outcome(oracle_serialize, pkt, mtu)
    assert outcome(serialize_packet, pkt, mtu) == expected
    return expected


octet = st.integers(0, 255)
addresses = st.one_of(
    st.builds("{}.{}.{}.{}".format, octet, octet, octet, octet),
    st.sampled_from(["1.2.3", "1.2.3.4.5", "256.0.0.1", "10.0.-1.2", "a.b.c.d", "",
                     "10.0.0.", " 10.0.0.1", "10.0.0.1 "]),
)
u16 = st.integers(0, 0xFFFF)
# beyond 32 bits and negative, masked to the field like the oracle does
seq_values = st.one_of(st.integers(0, 0xFFFFFFFF), st.integers(-(1 << 33), 1 << 34))
tcp_headers = st.builds(
    TcpHeader, src_port=u16, dst_port=u16, seq=seq_values, ack=seq_values,
    flags=st.integers(0, 0xFF), window=u16, checksum=u16, urgent_ptr=u16,
    options=st.binary(max_size=44))  # unpadded, and past the 40-byte limit
udp_headers = st.builds(UdpHeader, src_port=u16, dst_port=u16, length=u16, checksum=u16)
payloads = st.one_of(st.binary(max_size=64), st.binary(min_size=1400, max_size=1500))
ip_options = st.binary(max_size=44)  # 0-40 bytes fit; some not a multiple of 4


class _TcpSubclass(TcpHeader):
    pass


class _UdpSubclass(UdpHeader):
    pass


def _as(cls):
    """A header's fields in an instance of `cls`, a subclass of its type."""
    return lambda header: cls(*dataclasses.astuple(header))


@st.composite
def packets(draw, transports=st.one_of(tcp_headers, udp_headers, st.none()),
            options=ip_options):
    transport = draw(transports)
    if isinstance(transport, TcpHeader):
        protocol = PROTO_TCP
    elif isinstance(transport, UdpHeader):
        protocol = PROTO_UDP
    else:
        protocol = draw(st.sampled_from([1, 47, PROTO_TCP, PROTO_UDP]))
    ip = Ipv4Header(
        src_addr=draw(addresses), dst_addr=draw(addresses), protocol=protocol,
        dscp_ecn=draw(octet), identification=draw(u16),
        flags_fragment=draw(st.sampled_from([0, 0x4000, 0x2000, 0x1FFF, 0xFFFF])),
        ttl=draw(octet), header_checksum=draw(u16),
        options=draw(options))
    return Packet(ip=ip, transport=transport, payload=draw(payloads))


class TestSerializeMatchesOracle:
    @settings(max_examples=600, deadline=None)
    @given(packets())
    def test_same_bytes_or_same_exception(self, pkt):
        same_outcome(pkt, DEFAULT_MTU)

    @pytest.mark.parametrize("transports", [tcp_headers, udp_headers, st.none()],
                             ids=["tcp", "udp", "none"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_bytes_without_ip_options(self, transports, data):
        # the shape every packet the engine writes takes
        same_outcome(data.draw(packets(transports, st.just(b""))), DEFAULT_MTU)

    @settings(max_examples=200, deadline=None)
    @given(packets(st.one_of(tcp_headers.map(_as(_TcpSubclass)),
                             udp_headers.map(_as(_UdpSubclass)))))
    def test_header_subclasses_serialize_as_their_base(self, pkt):
        same_outcome(pkt, DEFAULT_MTU)

    @settings(max_examples=300, deadline=None)
    @given(packets())
    def test_exactly_mtu_fits_and_one_byte_more_does_not(self, pkt):
        wire = outcome(oracle_serialize, pkt, 1 << 16)
        if not isinstance(wire, bytes):
            return
        assert same_outcome(pkt, len(wire)) == wire
        assert same_outcome(pkt, len(wire) - 1)[0] is OversizedPacket

    @settings(max_examples=200, deadline=None)
    @given(st.builds("{}.{}.{}.{}".format, octet, octet, octet, octet), u16, u16,
           st.binary(max_size=200).filter(lambda b: len(b) % 2 == 0))
    @example("10.0.0.2", 53, 40000, b"")
    def test_udp_sum_folding_to_zero_is_sent_as_ffff(self, addr, sport, dport, body):
        # a final word equal to the checksum taken with that word zero
        # makes the sum fold to 0, which UDP sends as 0xFFFF
        probe = make_udp_packet((addr, sport), ("8.8.8.8", dport), payload=body + b"\0\0")
        word = oracle_serialize(probe)[26:28]
        pkt = make_udp_packet((addr, sport), ("8.8.8.8", dport), payload=body + word)
        wire = same_outcome(pkt, DEFAULT_MTU)
        assert wire[26:28] == b"\xff\xff"


class TestAddressCache:
    def test_bounded(self):
        for i in range(5000):
            pkt = make_udp_packet((f"10.{i >> 8 & 255}.{i & 255}.1", 1), ("10.0.0.1", 2))
            assert serialize_packet(pkt) == oracle_serialize(pkt)
        assert len(packet._ADDRS) <= 4096

    def test_malformed_address_is_not_cached(self):
        bad = make_udp_packet(("10.0.0.300", 1), ("10.0.0.1", 2))
        for _ in range(2):
            assert outcome(serialize_packet, bad) == outcome(oracle_serialize, bad)
        assert "10.0.0.300" not in packet._ADDRS
