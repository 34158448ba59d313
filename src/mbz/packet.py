"""IPv4/TCP/UDP wire parsing, serialization, checksums, and flow keys.

Everything here is a pure function over immutable-ish inputs; no I/O,
and no global state but two bounded caches: packed addresses for the
writer and dotted-quad names for the reader. Byte layouts are the
standard network-byte-order wire formats. IPv4 only: version != 4 and
fragments are rejected up front.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

PROTO_TCP = 6
PROTO_UDP = 17

DEFAULT_MTU = 1500
DEFAULT_TTL = 64

# IP flags live in the top 3 bits of the flags/fragment field.
IP_FLAG_DF = 0x4000
IP_FLAG_MF = 0x2000
IP_FRAG_OFFSET_MASK = 0x1FFF

# TCP flag bits
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20
ECE = 0x40  # ECN-Echo (RFC 3168)
CWR = 0x80  # Congestion Window Reduced (RFC 3168)

_IPV4_IN = struct.Struct("!BBHHHBBHII")  # the reader takes addresses as integers
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")


class PacketError(Exception):
    """Base class for packet parse/serialize failures."""


class Truncated(PacketError):
    """Input shorter than a declared or minimum length."""


class UnsupportedVersion(PacketError):
    """IP version field is not 4."""


class FragmentedPacket(PacketError):
    """IP fragment (MF set or nonzero offset); reassembly is not supported."""


class BadChecksum(PacketError):
    """Checksum mismatch. Carries the parsed packet so callers can decide
    whether to drop or process anyway (trace files often have offload-zeroed
    checksums)."""

    def __init__(self, message: str, packet: "Packet", layer: str):
        super().__init__(message)
        self.packet = packet
        self.layer = layer


class OversizedPacket(PacketError):
    """Serialized packet would exceed the configured MTU."""


class NoTransport(PacketError):
    """Packet carries no TCP or UDP transport."""


def internet_checksum(data: bytes, start: int = 0) -> int:
    """One's-complement of the one's-complement 16-bit word sum of `data`
    plus `start`, a sum of words already taken (a pseudo-header).

    Odd-length input is padded with a zero octet. Returns a value in
    [0, 0xFFFF]; folding a buffer that already contains its own correct
    checksum yields 0.
    """
    # The buffer read as one integer is its word sum modulo 0xFFFF, since
    # 2**16 == 1 (mod 0xFFFF) (RFC 1071 section 2). End-around carries
    # fold a nonzero sum into [1, 0xFFFF], so a multiple of 0xFFFF folds
    # to 0xFFFF and only a zero sum folds to 0.
    total = (int.from_bytes(data, "big") << 8 * (len(data) & 1)) + start
    if total == 0:
        return 0xFFFF
    return 0xFFFF - (total % 0xFFFF or 0xFFFF)


def _pack_addr(addr: str) -> bytes:
    parts = addr.split(".")
    if len(parts) != 4:
        raise PacketError(f"bad IPv4 address {addr!r}")
    try:
        octets = bytes(int(p) for p in parts)
    except ValueError as exc:
        raise PacketError(f"bad IPv4 address {addr!r}") from exc
    return octets


_NAMES: dict[int, str] = {}


def _name(addr: int) -> str:
    """Dotted quad of a 32-bit address, formatted once per distinct
    address; the cache is emptied when full."""
    if len(_NAMES) >= 4096:
        _NAMES.clear()
    name = _NAMES[addr] = "%d.%d.%d.%d" % (
        addr >> 24, addr >> 16 & 0xFF, addr >> 8 & 0xFF, addr & 0xFF)
    return name


@dataclass(slots=True)
class Ipv4Header:
    src_addr: str
    dst_addr: str
    protocol: int
    dscp_ecn: int = 0
    total_length: int = 0
    identification: int = 0
    flags_fragment: int = IP_FLAG_DF
    ttl: int = DEFAULT_TTL
    header_checksum: int = 0
    options: bytes = b""  # carried opaquely, never interpreted


@dataclass(slots=True)
class TcpHeader:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    checksum: int = 0
    urgent_ptr: int = 0
    options: bytes = b""  # opaque except MSS extraction on SYN


@dataclass(slots=True)
class UdpHeader:
    src_port: int
    dst_port: int
    length: int = 8
    checksum: int = 0


@dataclass(slots=True)
class Packet:
    ip: Ipv4Header
    transport: TcpHeader | UdpHeader | None
    payload: bytes = b""


_PROTO_NAMES = {PROTO_TCP: "TCP", PROTO_UDP: "UDP"}


class FlowKey(NamedTuple):
    """Protocol five-tuple. Oriented app->network for packets read from
    the app-side conduit; invert() yields the reverse direction. A plain
    tuple underneath, so hashing and comparing run in C."""

    protocol: int
    src: tuple[str, int]
    dst: tuple[str, int]

    def invert(self) -> "FlowKey":
        return FlowKey(self.protocol, self.dst, self.src)

    @property
    def proto_name(self) -> str:
        return _PROTO_NAMES.get(self.protocol) or str(self.protocol)

    def __str__(self) -> str:
        return "%s %s:%d>%s:%d" % (
            self.proto_name, self.src[0], self.src[1], self.dst[0], self.dst[1])


def flow_key_of(p: Packet) -> FlowKey:
    """Five-tuple of a TCP/UDP packet; raises NoTransport otherwise."""
    t = p.transport
    ip = p.ip
    if t is None:
        raise NoTransport(f"protocol {ip.protocol} has no TCP/UDP transport")
    # tuple.__new__ skips the Python-level __new__ that NamedTuple generates
    return tuple.__new__(FlowKey, (ip.protocol, (ip.src_addr, t.src_port),
                                   (ip.dst_addr, t.dst_port)))


def parse_packet(data: bytes) -> Packet:
    """Parse raw IPv4 bytes into a Packet.

    Structural failures raise Truncated / UnsupportedVersion /
    FragmentedPacket. Checksum mismatches raise BadChecksum *after* the
    packet has been fully parsed; the exception carries the packet.

    One pass: each header is unpacked in place at its offset, and only
    the options and the payload are copied. As in serialize_packet,
    word sums are taken modulo 0xFFFF, so a header's share of a checksum
    comes from its field values: the IP header needs no checksum pass,
    and the transport checksum reads the options and payload only.
    Bytes past `total_length` (link-layer padding) are ignored.
    """
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) < 20:
        raise Truncated(f"{len(data)} bytes is shorter than a minimal IPv4 header")
    version = data[0] >> 4
    if version != 4:
        raise UnsupportedVersion(f"IP version {version}")
    ihl = (data[0] & 0x0F) * 4
    if ihl < 20:
        raise Truncated(f"IPv4 header length {ihl} below minimum")
    (ver_ihl, dscp_ecn, total_length, ident, flags_frag, ttl, proto, hdr_cksum,
     src, dst) = _IPV4_IN.unpack_from(data)
    if total_length < ihl:
        raise Truncated(f"total length {total_length} smaller than header {ihl}")
    if len(data) < total_length:
        raise Truncated(f"{len(data)} bytes but total length declares {total_length}")
    if (flags_frag & IP_FLAG_MF) or (flags_frag & IP_FRAG_OFFSET_MASK):
        raise FragmentedPacket("IP fragments are not supported")

    ip_options = data[20:ihl] if ihl > 20 else b""
    hdr_sum = ((ver_ihl << 8 | dscp_ecn) + total_length + ident + flags_frag
               + (ttl << 8 | proto) + hdr_cksum + src + dst)
    if ip_options:
        hdr_sum += int.from_bytes(ip_options, "big")
    src_name = _NAMES.get(src) or _name(src)
    dst_name = _NAMES.get(dst) or _name(dst)
    ip = Ipv4Header(src_name, dst_name, proto, dscp_ecn, total_length, ident,
                    flags_frag, ttl, hdr_cksum, ip_options)
    seg_len = total_length - ihl
    addr_sum = src + dst + proto  # the pseudo-header, less its length

    transport: TcpHeader | UdpHeader | None = None
    checksum_error: str | None = None

    if proto == PROTO_TCP:
        if seg_len < 20:
            raise Truncated("TCP header shorter than 20 bytes")
        (sport, dport, seq, ack, off_res, flags, window, cksum,
         urgent) = _TCP.unpack_from(data, ihl)
        offset = (off_res >> 4) * 4
        if offset < 20 or offset > seg_len:
            raise Truncated(f"TCP data offset {offset} out of range")
        options = data[ihl + 20:ihl + offset] if offset > 20 else b""
        transport = TcpHeader(sport, dport, seq, ack, flags, window, cksum,
                              urgent, options)
        payload = data[ihl + offset:total_length]
        start = (addr_sum + seg_len + sport + dport + seq + ack + (off_res << 8 | flags)
                 + window + cksum + urgent)
        if options:
            start += int.from_bytes(options, "big")
        if internet_checksum(payload, start) != 0:
            checksum_error = "TCP checksum mismatch"
    elif proto == PROTO_UDP:
        if seg_len < 8:
            raise Truncated("UDP header shorter than 8 bytes")
        sport, dport, length, cksum = _UDP.unpack_from(data, ihl)
        if length < 8 or length > seg_len:
            raise Truncated(f"UDP length {length} inconsistent with {seg_len} bytes")
        transport = UdpHeader(sport, dport, length, cksum)
        payload = data[ihl + 8:ihl + length]
        # checksum 0 means "not computed" and is accepted
        if cksum != 0 and internet_checksum(
                payload, addr_sum + 2 * length + sport + dport + cksum) != 0:
            checksum_error = "UDP checksum mismatch"
    else:
        payload = data[ihl:total_length]

    pkt = Packet(ip, transport, payload)

    if hdr_sum % 0xFFFF:
        raise BadChecksum("IP header checksum mismatch", pkt, layer="ip")
    if checksum_error is not None:
        raise BadChecksum(checksum_error, pkt, layer="transport")
    return pkt


_ADDRS: dict[str, tuple[bytes, int]] = {}


def _addr(addr: str) -> tuple[bytes, int]:
    """Wire bytes of a dotted-quad address and their value as one integer,
    packed once per distinct string; the cache is emptied when full."""
    entry = _ADDRS.get(addr)
    if entry is None:
        raw = _pack_addr(addr)
        if len(_ADDRS) >= 4096:
            _ADDRS.clear()
        entry = _ADDRS[addr] = (raw, int.from_bytes(raw, "big"))
    return entry


def _shapes(transport: str) -> tuple[struct.Struct | None, ...]:
    """The IPv4 header, its options as one field and then the `transport`
    header, as one struct for each header length; indexed by the IHL
    field, the length in 32-bit words."""
    return tuple(struct.Struct(f"!BBHHHBBH4s4s{4 * words - 20}s{transport}")
                 if words >= 5 else None for words in range(16))


_IPV4_TCP = _shapes(_TCP.format[1:])
_IPV4_UDP = _shapes(_UDP.format[1:])
_IPV4_ONLY = _shapes("")


def serialize_packet(p: Packet, mtu: int = DEFAULT_MTU) -> bytes:
    """Serialize a Packet to wire bytes with freshly computed lengths and
    checksums; stale checksum fields in the input are ignored.

    The IP header, its options and the transport header are packed in
    one call, checksums in place, after the MTU check. Word sums are taken
    modulo 0xFFFF, as in internet_checksum, so a 32-bit field adds as one
    integer and a header's sum comes from its field values."""
    ip = p.ip
    ip_options = ip.options
    if ip_options:
        if len(ip_options) % 4:
            ip_options = ip_options + b"\x00" * (4 - len(ip_options) % 4)
        if len(ip_options) > 40:
            raise PacketError(f"IPv4 header length {20 + len(ip_options)} exceeds 60")
    words = 5 + (len(ip_options) >> 2)
    src_raw, src_sum = _ADDRS.get(ip.src_addr) or _addr(ip.src_addr)
    dst_raw, dst_sum = _ADDRS.get(ip.dst_addr) or _addr(ip.dst_addr)
    proto = ip.protocol
    addr_sum = src_sum + dst_sum + proto  # the pseudo-header, less its length
    ver_ihl = 0x40 | words
    dscp_ecn, ident, flags_frag, ttl = ip.dscp_ecn, ip.identification, ip.flags_fragment, ip.ttl
    # the IP header's word sum, less its total length
    hdr_sum = (ver_ihl << 8 | dscp_ecn) + ident + flags_frag + (ttl << 8) + addr_sum
    if ip_options:
        hdr_sum += int.from_bytes(ip_options, "big")
    t = p.transport
    payload = p.payload

    if isinstance(t, TcpHeader):
        opts = t.options
        if opts:
            if len(opts) % 4:
                opts = opts + b"\x00" * (4 - len(opts) % 4)
            if len(opts) > 40:
                raise PacketError(f"TCP data offset {20 + len(opts)} exceeds 60")
            rest = opts + payload
        else:
            rest = payload
        offset = 20 + len(opts)
        seg_len = offset + len(payload)
        total = 4 * words + seg_len
        if total > mtu:
            raise OversizedPacket(f"{total} bytes exceeds MTU {mtu}")
        sport, dport, window, urgent = t.src_port, t.dst_port, t.window, t.urgent_ptr
        seq = t.seq & 0xFFFFFFFF
        ack = t.ack & 0xFFFFFFFF
        flags = t.flags & 0xFF
        cksum = internet_checksum(rest, addr_sum + seg_len + sport + dport + seq + ack
                                  + (offset << 10 | flags) + window + urgent)
        return _IPV4_TCP[words].pack(
            ver_ihl, dscp_ecn, total, ident, flags_frag, ttl, proto,
            0xFFFF - ((hdr_sum + total) % 0xFFFF or 0xFFFF), src_raw, dst_raw, ip_options,
            sport, dport, seq, ack, offset << 2, flags, window, cksum, urgent) + rest
    if isinstance(t, UdpHeader):
        seg_len = 8 + len(payload)
        total = 4 * words + seg_len
        if total > mtu:
            raise OversizedPacket(f"{total} bytes exceeds MTU {mtu}")
        sport, dport = t.src_port, t.dst_port
        # zero on the wire means "no checksum", so a zero sum goes out as 0xFFFF
        cksum = internet_checksum(payload, addr_sum + 2 * seg_len + sport + dport) or 0xFFFF
        return _IPV4_UDP[words].pack(
            ver_ihl, dscp_ecn, total, ident, flags_frag, ttl, proto,
            0xFFFF - ((hdr_sum + total) % 0xFFFF or 0xFFFF), src_raw, dst_raw, ip_options,
            sport, dport, seg_len, cksum) + payload
    total = 4 * words + len(payload)
    if total > mtu:
        raise OversizedPacket(f"{total} bytes exceeds MTU {mtu}")
    return _IPV4_ONLY[words].pack(
        ver_ihl, dscp_ecn, total, ident, flags_frag, ttl, proto,
        0xFFFF - ((hdr_sum + total) % 0xFFFF or 0xFFFF), src_raw, dst_raw,
        ip_options) + payload


def extract_mss(options: bytes) -> int | None:
    """MSS value from TCP options (kind 2), or None. Other options are
    skipped opaquely; a malformed option list yields None."""
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:  # end of options
            return None
        if kind == 1:  # NOP
            i += 1
            continue
        if i + 1 >= len(options):
            return None
        length = options[i + 1]
        if length < 2 or i + length > len(options):
            return None
        if kind == 2 and length == 4:
            return options[i + 2] << 8 | options[i + 3]
        i += length
    return None


def mss_option(mss: int) -> bytes:
    return struct.pack("!BBH", 2, 4, mss)


def make_tcp_packet(
    src: tuple[str, int],
    dst: tuple[str, int],
    seq: int,
    ack: int,
    flags: int,
    window: int = 65535,
    payload: bytes = b"",
    options: bytes = b"",
    ttl: int = DEFAULT_TTL,
    identification: int = 0,
) -> Packet:
    ip = Ipv4Header(src[0], dst[0], PROTO_TCP, 0, 0, identification, IP_FLAG_DF, ttl)
    tcp = TcpHeader(src[1], dst[1], seq & 0xFFFFFFFF, ack & 0xFFFFFFFF, flags, window,
                    0, 0, options)
    return Packet(ip, tcp, payload)


def make_udp_packet(
    src: tuple[str, int],
    dst: tuple[str, int],
    payload: bytes = b"",
    ttl: int = DEFAULT_TTL,
    identification: int = 0,
) -> Packet:
    ip = Ipv4Header(src[0], dst[0], PROTO_UDP, 0, 0, identification, IP_FLAG_DF, ttl)
    return Packet(ip, UdpHeader(src[1], dst[1], 8 + len(payload)), payload)
