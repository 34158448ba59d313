"""Wire-level parse/serialize/checksum tests."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbz.packet import (
    ACK, FIN, PSH, RST, SYN,
    BadChecksum, FlowKey, FragmentedPacket, NoTransport, OversizedPacket,
    Packet, PacketError, TcpHeader, Truncated, UdpHeader, UnsupportedVersion,
    extract_mss, flow_key_of, internet_checksum, make_tcp_packet,
    make_udp_packet, mss_option, parse_packet, serialize_packet,
)


def checksum_oracle(data: bytes) -> int:
    """Independent word-by-word fold with end-around carry at each step."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += data[i] * 256 + data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksum:
    def test_all_zero_buffer(self):
        assert internet_checksum(b"\x00" * 8) == 0xFFFF

    def test_all_ones_word(self):
        assert internet_checksum(b"\xff\xff") == 0x0000

    def test_sample_vector_matches_hand_computation(self):
        sample = bytes([0x45, 0x00, 0x00, 0x3C, 0x1C, 0x46, 0x40, 0x00])
        assert checksum_oracle(sample) == 0x5E7D  # frozen from the oracle
        assert internet_checksum(sample) == 0x5E7D

    def test_odd_length_padded(self):
        assert internet_checksum(bytes([0x01, 0x02, 0x03])) == 0xFBFD

    @given(st.binary(min_size=0, max_size=200))
    def test_matches_oracle(self, data):
        assert internet_checksum(data) == checksum_oracle(data)

    @given(st.binary(min_size=2, max_size=200))
    def test_self_verifying(self, data):
        # inserting the fold result makes the whole buffer fold to zero
        if len(data) % 2:
            data = data + b"\x00"
        cksum = internet_checksum(data)
        patched = data + struct.pack("!H", cksum)
        assert internet_checksum(patched) == 0


class TestParse:
    def test_19_bytes_truncated(self):
        with pytest.raises(Truncated):
            parse_packet(b"\x45" + b"\x00" * 18)

    def test_minimal_udp_datagram(self):
        wire = serialize_packet(make_udp_packet(("10.0.0.2", 5353), ("8.8.8.8", 53)))
        pkt = parse_packet(wire)
        assert isinstance(pkt.transport, UdpHeader)
        assert pkt.transport.length == 8
        assert pkt.payload == b""
        assert pkt.ip.total_length == 28

    def test_syn_round_trip(self):
        syn = make_tcp_packet(("10.0.0.2", 40000), ("93.184.216.34", 443),
                              seq=1000, ack=0, flags=SYN,
                              options=mss_option(1460))
        wire = serialize_packet(syn)
        parsed = parse_packet(wire)
        assert parse_packet(serialize_packet(parsed)) == parsed

    def test_non_ipv4_rejected(self):
        wire = bytearray(serialize_packet(make_udp_packet(("1.1.1.1", 1), ("2.2.2.2", 2))))
        wire[0] = (6 << 4) | (wire[0] & 0x0F)
        with pytest.raises(UnsupportedVersion):
            parse_packet(bytes(wire))

    def test_fragment_rejected(self):
        pkt = make_udp_packet(("1.1.1.1", 1), ("2.2.2.2", 2), payload=b"x")
        pkt.ip.flags_fragment = 0x2000  # more-fragments
        with pytest.raises(FragmentedPacket):
            parse_packet(serialize_packet(pkt))

    def test_bad_ip_checksum_carries_packet(self):
        wire = bytearray(serialize_packet(
            make_udp_packet(("1.1.1.1", 1), ("2.2.2.2", 2), payload=b"hi")))
        wire[10] ^= 0xFF
        with pytest.raises(BadChecksum) as exc_info:
            parse_packet(bytes(wire))
        assert exc_info.value.layer == "ip"
        assert exc_info.value.packet.payload == b"hi"

    def test_bad_transport_checksum_carries_packet(self):
        wire = bytearray(serialize_packet(
            make_tcp_packet(("1.1.1.1", 1), ("2.2.2.2", 2), seq=5, ack=0,
                            flags=SYN, payload=b"")))
        wire[36] ^= 0x01  # TCP checksum low byte
        with pytest.raises(BadChecksum) as exc_info:
            parse_packet(bytes(wire))
        assert exc_info.value.layer == "transport"

    def test_zero_udp_checksum_accepted(self):
        wire = bytearray(serialize_packet(
            make_udp_packet(("1.1.1.1", 1), ("2.2.2.2", 2), payload=b"ok")))
        wire[26:28] = b"\x00\x00"  # offload-style zeroed UDP checksum
        # fix the IP header checksum? unchanged: UDP checksum is not in it
        pkt = parse_packet(bytes(wire))
        assert pkt.payload == b"ok"

    def test_declared_length_longer_than_data(self):
        wire = serialize_packet(make_udp_packet(("1.1.1.1", 1), ("2.2.2.2", 2),
                                                payload=b"abcd"))
        with pytest.raises(Truncated):
            parse_packet(wire[:-2])

    def test_trailing_padding_ignored(self):
        wire = serialize_packet(make_udp_packet(("1.1.1.1", 1), ("2.2.2.2", 2),
                                                payload=b"abcd"))
        pkt = parse_packet(wire + b"\x00" * 6)
        assert pkt.payload == b"abcd"


class TestSerialize:
    def test_output_reparses_cleanly(self):
        pkt = make_tcp_packet(("10.0.0.2", 1234), ("10.0.0.1", 80),
                              seq=42, ack=7, flags=PSH | ACK, payload=b"data")
        parse_packet(serialize_packet(pkt))  # no BadChecksum

    def test_stale_checksums_recomputed(self):
        pkt = make_tcp_packet(("10.0.0.2", 1234), ("10.0.0.1", 80),
                              seq=42, ack=7, flags=ACK, payload=b"x")
        good = serialize_packet(pkt)
        pkt.ip.header_checksum = 0xDEAD
        pkt.transport.checksum = 0xBEEF
        assert serialize_packet(pkt) == good

    def test_mtu_boundary(self):
        payload = b"a" * (1500 - 20 - 20)
        pkt = make_tcp_packet(("1.1.1.1", 1), ("2.2.2.2", 2), seq=0, ack=0,
                              flags=ACK, payload=payload)
        serialize_packet(pkt, mtu=1500)
        pkt.payload = payload + b"b"
        with pytest.raises(OversizedPacket):
            serialize_packet(pkt, mtu=1500)


class TestFlowKey:
    def test_udp_projection(self):
        pkt = make_udp_packet(("10.0.0.2", 5353), ("8.8.8.8", 53))
        key = flow_key_of(pkt)
        assert key == FlowKey(17, ("10.0.0.2", 5353), ("8.8.8.8", 53))

    def test_invert_swaps(self):
        key = FlowKey(17, ("10.0.0.2", 5353), ("8.8.8.8", 53))
        assert key.invert() == FlowKey(17, ("8.8.8.8", 53), ("10.0.0.2", 5353))

    def test_icmp_has_no_transport(self):
        pkt = make_udp_packet(("1.1.1.1", 0), ("2.2.2.2", 0))
        pkt.ip.protocol = 1
        pkt.transport = None
        with pytest.raises(NoTransport):
            flow_key_of(pkt)

    @given(st.tuples(st.sampled_from([6, 17]),
                     st.tuples(st.ip_addresses(v=4).map(str),
                               st.integers(0, 65535)),
                     st.tuples(st.ip_addresses(v=4).map(str),
                               st.integers(0, 65535))))
    def test_invert_is_involution(self, parts):
        key = FlowKey(*parts)
        assert key.invert().invert() == key


class TestMss:
    def test_extracts_mss_from_syn_options(self):
        assert extract_mss(mss_option(1460)) == 1460

    def test_skips_other_options(self):
        opts = b"\x01\x01" + b"\x03\x03\x07" + mss_option(1400)
        assert extract_mss(opts) == 1400

    def test_malformed_options_yield_none(self):
        assert extract_mss(b"\x02\x04") is None
        assert extract_mss(b"") is None


ips = st.ip_addresses(v=4).map(str)
ports = st.integers(min_value=1, max_value=65535)


@st.composite
def well_formed_packets(draw):
    if draw(st.booleans()):
        return make_tcp_packet(
            src=(draw(ips), draw(ports)), dst=(draw(ips), draw(ports)),
            seq=draw(st.integers(0, 2**32 - 1)), ack=draw(st.integers(0, 2**32 - 1)),
            flags=draw(st.integers(0, 63)) or ACK,
            window=draw(st.integers(0, 65535)),
            payload=draw(st.binary(max_size=600)),
            options=draw(st.sampled_from([b"", mss_option(1460)])),
        )
    return make_udp_packet(
        src=(draw(ips), draw(ports)), dst=(draw(ips), draw(ports)),
        payload=draw(st.binary(max_size=600)),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(well_formed_packets())
    def test_parse_serialize_fixed_point(self, pkt):
        wire = serialize_packet(pkt)
        first = parse_packet(wire)
        assert parse_packet(serialize_packet(first)) == first

    @settings(max_examples=100, deadline=None)
    @given(well_formed_packets())
    def test_flow_key_total_and_deterministic(self, pkt):
        parsed = parse_packet(serialize_packet(pkt))
        assert flow_key_of(parsed) == flow_key_of(parsed)


# Reference codec, written the plain way: every word unpacked into a tuple
# and summed, and a pseudo-header buffer packed from the dotted quads. The
# codec's integer fold must match it byte for byte.

def struct_checksum(data: bytes) -> int:
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack("!%dH" % (len(data) // 2), data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _oracle_addr(addr: str) -> bytes:
    return bytes(int(p) for p in addr.split("."))


def _oracle_pseudo(ip, transport_len: int) -> bytes:
    return (_oracle_addr(ip.src_addr) + _oracle_addr(ip.dst_addr)
            + struct.pack("!BBH", 0, ip.protocol, transport_len))


def serialize_oracle(p: Packet) -> bytes:
    ip = p.ip
    ip_options = ip.options
    if len(ip_options) % 4:
        ip_options = ip_options + b"\x00" * (4 - len(ip_options) % 4)
    ihl = 20 + len(ip_options)
    if isinstance(p.transport, TcpHeader):
        t = p.transport
        opts = t.options
        if len(opts) % 4:
            opts = opts + b"\x00" * (4 - len(opts) % 4)
        offset = 20 + len(opts)
        seg = struct.pack(
            "!HHIIBBHHH", t.src_port, t.dst_port, t.seq & 0xFFFFFFFF,
            t.ack & 0xFFFFFFFF, (offset // 4) << 4, t.flags & 0xFF, t.window, 0,
            t.urgent_ptr,
        ) + opts + p.payload
        cksum = struct_checksum(_oracle_pseudo(ip, len(seg)) + seg)
        seg = seg[:16] + struct.pack("!H", cksum) + seg[18:]
    else:
        t = p.transport
        length = 8 + len(p.payload)
        seg = struct.pack("!HHHH", t.src_port, t.dst_port, length, 0) + p.payload
        cksum = struct_checksum(_oracle_pseudo(ip, length) + seg) or 0xFFFF
        seg = seg[:6] + struct.pack("!H", cksum) + seg[8:]
    hdr = struct.pack(
        "!BBHHHBBH4s4s", (4 << 4) | (ihl // 4), ip.dscp_ecn, ihl + len(seg),
        ip.identification, ip.flags_fragment, ip.ttl, ip.protocol, 0,
        _oracle_addr(ip.src_addr), _oracle_addr(ip.dst_addr),
    ) + ip_options
    hdr = hdr[:10] + struct.pack("!H", struct_checksum(hdr)) + hdr[12:]
    return hdr + seg


@st.composite
def full_size_packets(draw):
    """TCP and UDP packets with payloads up to a full 1460-byte segment, odd
    lengths included, and IP/TCP options that need padding."""
    pkt = draw(well_formed_packets())
    pkt.payload = draw(st.binary(max_size=1460))
    pkt.ip.identification = draw(st.integers(0, 65535))
    pkt.ip.ttl = draw(st.integers(1, 255))
    pkt.ip.dscp_ecn = draw(st.integers(0, 255))
    pkt.ip.options = draw(st.sampled_from([b"", b"\x01", b"\x01\x01\x01\x01"]))
    if isinstance(pkt.transport, TcpHeader):
        pkt.transport.options = draw(st.sampled_from([b"", b"\x01", mss_option(1400)]))
    return pkt


class TestCodecEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(full_size_packets())
    def test_serialize_matches_oracle(self, pkt):
        wire = serialize_packet(pkt, mtu=2000)
        assert wire == serialize_oracle(pkt)
        assert serialize_packet(parse_packet(wire), mtu=2000) == wire

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=12, max_size=12), st.binary(max_size=1480))
    def test_start_is_a_pseudo_header_sum(self, pseudo, data):
        start = sum(struct.unpack("!6H", pseudo))
        assert internet_checksum(data, start) == checksum_oracle(pseudo + data)
        assert internet_checksum(pseudo + data) == struct_checksum(pseudo + data)

    @settings(max_examples=200, deadline=None)
    @given(full_size_packets().filter(lambda p: len(p.payload) >= 2),
           st.integers(0, 1), st.integers(0, 10**6), st.integers(1, 255))
    def test_flipped_payload_byte_is_a_transport_error(self, pkt, parity, pick, mask):
        wire = bytearray(serialize_packet(pkt, mtu=2000))
        start = len(wire) - len(pkt.payload)
        offsets = [i for i in range(start, len(wire)) if i % 2 == parity]
        wire[offsets[pick % len(offsets)]] ^= mask
        with pytest.raises(BadChecksum) as exc_info:
            parse_packet(bytes(wire))
        assert exc_info.value.layer == "transport"

    @pytest.mark.parametrize("index", [10, 11])
    @pytest.mark.parametrize("make", [
        lambda: make_tcp_packet(("10.0.0.2", 1), ("10.0.0.1", 80), seq=1, ack=2,
                                flags=ACK, payload=b"odd"),
        lambda: make_udp_packet(("10.0.0.2", 53), ("10.0.0.1", 53), payload=b"odd"),
    ])
    def test_flipped_ip_checksum_byte_is_an_ip_error(self, make, index):
        wire = bytearray(serialize_packet(make()))
        wire[index] ^= 0x01
        with pytest.raises(BadChecksum) as exc_info:
            parse_packet(bytes(wire))
        assert exc_info.value.layer == "ip"

    @pytest.mark.parametrize("bad", ["1.2.3", "256.1.1.1", "a.b.c.d"])
    @pytest.mark.parametrize("make", [make_tcp_packet, make_udp_packet])
    def test_bad_address_rejected(self, make, bad):
        for src, dst in ((bad, "10.0.0.1"), ("10.0.0.2", bad)):
            if make is make_tcp_packet:
                pkt = make((src, 1), (dst, 2), seq=0, ack=0, flags=ACK)
            else:
                pkt = make((src, 1), (dst, 2))
            with pytest.raises(PacketError):
                serialize_packet(pkt)
