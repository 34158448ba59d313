"""parse_packet against the slicing parser it replaced.

`oracle_parse` is that parser as it was: it slices each header off the
buffer, checks the IP header with a checksum pass over its bytes, and
the transport with one over the whole segment. The property tests
assert the one-pass parser gives the same header fields, options and
payload, or raises the same exception with the same message (for
BadChecksum, also the same layer and carried packet), on TCP, UDP and
other protocols, valid or damaged.
"""

import ipaddress
import struct
from dataclasses import astuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbz import packet
from mbz.packet import (
    IP_FLAG_MF, IP_FRAG_OFFSET_MASK, PROTO_TCP, PROTO_UDP, BadChecksum,
    FragmentedPacket, Ipv4Header, Packet, TcpHeader, Truncated, UdpHeader,
    UnsupportedVersion, internet_checksum, make_udp_packet, parse_packet,
    serialize_packet,
)


def _oracle_unpack_addr(raw: bytes) -> str:
    return "%d.%d.%d.%d" % (raw[0], raw[1], raw[2], raw[3])


def oracle_parse(data: bytes) -> Packet:
    if len(data) < 20:
        raise Truncated(f"{len(data)} bytes is shorter than a minimal IPv4 header")
    version = data[0] >> 4
    if version != 4:
        raise UnsupportedVersion(f"IP version {version}")
    ihl = (data[0] & 0x0F) * 4
    if ihl < 20:
        raise Truncated(f"IPv4 header length {ihl} below minimum")
    (_, dscp_ecn, total_length, ident, flags_frag, ttl, proto, hdr_cksum,
     src_raw, dst_raw) = struct.unpack("!BBHHHBBH4s4s", data[:20])
    if total_length < ihl:
        raise Truncated(f"total length {total_length} smaller than header {ihl}")
    if len(data) < total_length:
        raise Truncated(f"{len(data)} bytes but total length declares {total_length}")
    data = data[:total_length]  # ignore link-layer padding
    if ihl > len(data):
        raise Truncated("IPv4 header extends past packet end")
    if (flags_frag & IP_FLAG_MF) or (flags_frag & IP_FRAG_OFFSET_MASK):
        raise FragmentedPacket("IP fragments are not supported")

    ip = Ipv4Header(
        src_addr=_oracle_unpack_addr(src_raw),
        dst_addr=_oracle_unpack_addr(dst_raw),
        protocol=proto,
        dscp_ecn=dscp_ecn,
        total_length=total_length,
        identification=ident,
        flags_fragment=flags_frag,
        ttl=ttl,
        header_checksum=hdr_cksum,
        options=bytes(data[20:ihl]),
    )
    rest = data[ihl:]
    # pseudo-header word sum: both addresses, straight from the header bytes
    addr_sum = int.from_bytes(data[12:20], "big") + proto

    transport: TcpHeader | UdpHeader | None = None
    payload: bytes
    checksum_error: str | None = None

    if proto == PROTO_TCP:
        if len(rest) < 20:
            raise Truncated("TCP header shorter than 20 bytes")
        (sport, dport, seq, ack, off_res, flags, window, cksum,
         urgent) = struct.unpack("!HHIIBBHHH", rest[:20])
        offset = (off_res >> 4) * 4
        if offset < 20 or offset > len(rest):
            raise Truncated(f"TCP data offset {offset} out of range")
        transport = TcpHeader(
            src_port=sport, dst_port=dport, seq=seq, ack=ack,
            flags=flags, window=window,
            checksum=cksum, urgent_ptr=urgent, options=bytes(rest[20:offset]),
        )
        payload = bytes(rest[offset:])
        if internet_checksum(rest, addr_sum + len(rest)) != 0:
            checksum_error = "TCP checksum mismatch"
    elif proto == PROTO_UDP:
        if len(rest) < 8:
            raise Truncated("UDP header shorter than 8 bytes")
        sport, dport, length, cksum = struct.unpack("!HHHH", rest[:8])
        if length < 8 or length > len(rest):
            raise Truncated(f"UDP length {length} inconsistent with {len(rest)} bytes")
        transport = UdpHeader(src_port=sport, dst_port=dport, length=length, checksum=cksum)
        payload = bytes(rest[8:length])
        # checksum 0 means "not computed" and is accepted
        if cksum != 0 and internet_checksum(rest[:length], addr_sum + length) != 0:
            checksum_error = "UDP checksum mismatch"
    else:
        payload = bytes(rest)

    pkt = Packet(ip=ip, transport=transport, payload=payload)

    if internet_checksum(data[:ihl]) != 0:
        raise BadChecksum("IP header checksum mismatch", pkt, layer="ip")
    if checksum_error is not None:
        raise BadChecksum(checksum_error, pkt, layer="transport")
    return pkt


def _fields(pkt: Packet):
    """Every field of a parsed packet, with the types of the byte fields,
    so a memoryview or bytearray where bytes belong shows up."""
    t = pkt.transport
    return (astuple(pkt.ip), type(pkt.ip.options),
            type(t).__name__, None if t is None else astuple(t),
            type(getattr(t, "options", b"")), pkt.payload, type(pkt.payload))


def parse_outcome(fn, data: bytes):
    try:
        return "parsed", _fields(fn(data))
    except BadChecksum as exc:
        return BadChecksum, str(exc), exc.layer, _fields(exc.packet)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def same_outcome(data: bytes):
    expected = parse_outcome(oracle_parse, data)
    assert parse_outcome(parse_packet, data) == expected
    return expected


def _patch_checksum(buf: bytearray, at: int, value: int) -> None:
    buf[at:at + 2] = struct.pack("!H", value)


def build_wire(proto: int, ip_options: bytes, segment: bytes, *, src: bytes, dst: bytes,
               tos: int = 0, ident: int = 0, flags_frag: int = 0x4000, ttl: int = 64,
               ip_ok: bool = True, transport_ok: bool = True) -> bytes:
    """An IPv4 packet around `segment`. The IP checksum, and the TCP or
    UDP checksum where the segment's own length fields allow, are made
    right, or wrong where `ip_ok` or `transport_ok` is false."""
    seg = bytearray(segment)
    addr_sum = int.from_bytes(src + dst, "big") + proto
    wrong = 0 if transport_ok else 0x5555
    if proto == PROTO_TCP and len(seg) >= 20:
        _patch_checksum(seg, 16, 0)
        _patch_checksum(seg, 16, internet_checksum(bytes(seg), addr_sum + len(seg)) ^ wrong)
    elif proto == PROTO_UDP and len(seg) >= 8:
        length = struct.unpack_from("!H", seg, 4)[0]
        if 8 <= length <= len(seg) and seg[6:8] != b"\0\0":  # 0: not computed
            _patch_checksum(seg, 6, 0)
            _patch_checksum(seg, 6, (internet_checksum(bytes(seg[:length]), addr_sum + length)
                                     or 0xFFFF) ^ wrong)
    ihl = 20 + len(ip_options)
    hdr = bytearray(struct.pack("!BBHHHBBH4s4s", 0x40 | ihl >> 2, tos, ihl + len(seg),
                                ident, flags_frag, ttl, proto, 0, src, dst) + ip_options)
    _patch_checksum(hdr, 10, internet_checksum(bytes(hdr)) ^ (0 if ip_ok else 0x5555))
    return bytes(hdr + seg)


u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
# IP and TCP options are whole 32-bit words, 0-40 bytes
word_options = st.integers(0, 10).flatmap(lambda n: st.binary(min_size=4 * n, max_size=4 * n))
payloads = st.one_of(st.binary(max_size=64), st.binary(min_size=1400, max_size=1460))
raw_addrs = st.one_of(st.binary(min_size=4, max_size=4),
                      st.sampled_from([b"\0\0\0\0", b"\xff\xff\xff\xff", b"\x0a\0\0\x02"]))


@st.composite
def tcp_segments(draw):
    options = draw(word_options)
    payload = draw(payloads)
    # mostly the data offset its options give, else any value of the 4-bit field
    offset_words = 5 + len(options) // 4
    if draw(st.integers(0, 3)) == 0:
        offset_words = draw(st.integers(0, 15))
    off_res = offset_words << 4 | draw(st.integers(0, 15))
    hdr = struct.pack("!HHIIBBHHH", draw(u16), draw(u16), draw(u32), draw(u32), off_res,
                      draw(st.integers(0, 255)), draw(u16), draw(u16), draw(u16))
    return hdr + options + payload


@st.composite
def udp_segments(draw):
    payload = draw(payloads)
    # mostly the true length, else one below 8 or past the segment
    length = 8 + len(payload)
    if draw(st.integers(0, 3)) == 0:
        length = draw(st.one_of(st.integers(0, 7), st.integers(9 + len(payload), 0xFFFF)))
    cksum = draw(st.one_of(st.just(0), st.integers(1, 0xFFFF)))  # 0: not computed
    return struct.pack("!HHHH", draw(u16), draw(u16), length, cksum) + payload


@st.composite
def wires(draw):
    """A packet (TCP, UDP or another protocol), mostly well formed, else
    with wrong checksums or odd header fields."""
    proto = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, 1, 47]))
    if proto == PROTO_TCP:
        segment = draw(tcp_segments())
    elif proto == PROTO_UDP:
        segment = draw(udp_segments())
    else:
        segment = draw(payloads)
    flags_frag = 0x4000  # DF; a reserved bit, a fragment or no flag in one draw of four
    if draw(st.integers(0, 3)) == 0:
        flags_frag = draw(st.sampled_from([0, 0x8000, IP_FLAG_MF, 1, 0x1FFF]))
    return build_wire(
        proto, draw(word_options), segment, src=draw(raw_addrs), dst=draw(raw_addrs),
        tos=draw(st.integers(0, 255)), ident=draw(u16), flags_frag=flags_frag,
        ttl=draw(st.integers(0, 255)), ip_ok=draw(st.integers(0, 4)) > 0,
        transport_ok=draw(st.integers(0, 4)) > 0)


def _set_byte(wire: bytes, at: int, value: int) -> bytes:
    return wire[:at] + bytes([value]) + wire[at + 1:]


SYN_WITH_MSS = build_wire(
    PROTO_TCP, b"", struct.pack("!HHIIBBHHH", 40001, 80, 1000, 0, 0x60, 0x02, 65535, 0, 0)
    + b"\x02\x04\x05\xb4", src=b"\x0a\0\0\x02", dst=b"\xcb\0\x71\x09")
UDP_DNS = build_wire(
    PROTO_UDP, b"\x94\x04\0\0", struct.pack("!HHHH", 40001, 53, 13, 1) + b"query",
    src=b"\x0a\0\0\x02", dst=b"\x08\x08\x08\x08")


class TestParseMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(wires())
    @example(SYN_WITH_MSS)
    @example(UDP_DNS)
    def test_same_fields_or_same_exception(self, wire):
        same_outcome(wire)

    @settings(max_examples=200, deadline=None)
    @given(wires(), st.binary(min_size=1, max_size=32))
    def test_link_layer_padding_is_ignored(self, wire, padding):
        assert same_outcome(wire + padding) == same_outcome(wire)

    @settings(max_examples=300, deadline=None)
    @given(wires(), st.data())
    @example(SYN_WITH_MSS, None)
    def test_one_flipped_byte(self, wire, data):
        if data is None:  # each byte of the example in turn, every bit
            for at in range(len(wire)):
                for bit in range(8):
                    same_outcome(_set_byte(wire, at, wire[at] ^ 1 << bit))
            return
        at = data.draw(st.integers(0, len(wire) - 1))
        same_outcome(_set_byte(wire, at, wire[at] ^ data.draw(st.integers(1, 255))))

    @settings(max_examples=40, deadline=None)
    @given(wires())
    @example(SYN_WITH_MSS)
    @example(UDP_DNS)
    def test_every_truncation(self, wire):
        for length in range(len(wire) + 1):
            same_outcome(wire[:length])

    @settings(max_examples=200, deadline=None)
    @given(wires(), st.integers(0, 15), st.integers(0, 15))
    def test_any_version_and_header_length(self, wire, version, ihl_words):
        # version != 4 is rejected, and an ihl below 5 words is a truncation
        same_outcome(_set_byte(wire, 0, version << 4 | ihl_words))

    @settings(max_examples=200, deadline=None)
    @given(wires(), u16)
    def test_any_declared_total_length(self, wire, total):
        same_outcome(wire[:2] + struct.pack("!H", total) + wire[4:])

    def test_damage_of_each_kind_is_reported_alike(self):
        cases = {
            "version 6": _set_byte(UDP_DNS, 0, 0x65),
            "ihl below 20": _set_byte(UDP_DNS, 0, 0x44),
            "more fragments": _set_byte(UDP_DNS, 6, 0x20),
            "fragment offset": _set_byte(UDP_DNS, 7, 0x01),
            "UDP length below 8": _set_byte(UDP_DNS, 24 + 5, 7),
            "UDP length past the segment": _set_byte(UDP_DNS, 24 + 5, 14),
            "UDP checksum 0": UDP_DNS[:30] + b"\0\0" + UDP_DNS[32:],
            "TCP offset below 20": _set_byte(SYN_WITH_MSS, 32, 0x40),
            "TCP offset past the segment": _set_byte(SYN_WITH_MSS, 32, 0x70),
            "IP checksum": _set_byte(SYN_WITH_MSS, 10, SYN_WITH_MSS[10] ^ 0xFF),
            "TCP checksum": _set_byte(SYN_WITH_MSS, 36, SYN_WITH_MSS[36] ^ 0xFF),
            "MSS option": _set_byte(SYN_WITH_MSS, 42, 0x06),
        }
        kinds = {name: same_outcome(wire)[0] for name, wire in cases.items()}
        assert kinds == {
            "version 6": UnsupportedVersion, "ihl below 20": Truncated,
            "more fragments": FragmentedPacket, "fragment offset": FragmentedPacket,
            "UDP length below 8": Truncated, "UDP length past the segment": Truncated,
            "UDP checksum 0": "parsed", "TCP offset below 20": Truncated,
            "TCP offset past the segment": Truncated, "IP checksum": BadChecksum,
            "TCP checksum": BadChecksum, "MSS option": BadChecksum,
        }

    def test_a_memoryview_parses_to_bytes(self):
        assert parse_outcome(parse_packet, memoryview(SYN_WITH_MSS)) == same_outcome(
            SYN_WITH_MSS)


class TestAddressNames:
    def test_cache_is_bounded_and_names_stay_right(self):
        spread = [(i * 858_993_459 + 12_345) % (1 << 32) for i in range(5000)]
        for value in spread + spread[:100]:  # the first ones again, after a clear
            name = str(ipaddress.IPv4Address(value))
            wire = serialize_packet(make_udp_packet((name, 1), ("10.0.0.1", 2), b"x"))
            assert parse_packet(wire).ip.src_addr == name
            assert len(packet._NAMES) <= 4096
