"""Classic pcap (not pcapng) reading and writing, microsecond timestamps.

Reading accepts both byte orders and link types RAW (101), IPV4 (228),
and Ethernet (1, IPv4 frames unwrapped, others skipped). Writing always
emits little-endian RAW captures so output files are bit-reproducible.

A capture is written as it happens: a `PcapSpool` is a `spool.Spool`
of pcap records, and `pcap_write` copies it to wherever it is wanted.
"""

from __future__ import annotations

import struct
from pathlib import Path

from .spool import FLUSH_AT, Spool

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101
LINKTYPE_IPV4 = 228

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_VLAN = 0x8100

_GLOBAL_HEADER = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_RAW)
# record header: seconds, microseconds, captured length, original length
_RECORD = {"<": struct.Struct("<IIII"), ">": struct.Struct(">IIII")}
_pack_record = _RECORD["<"].pack


class PcapError(Exception):
    pass


class BadMagic(PcapError):
    pass


class UnsupportedLinkType(PcapError):
    pass


class TruncatedCapture(PcapError):
    """Last record cut short. Carries the records parsed before it."""

    def __init__(self, message: str, records: list[tuple[int, bytes]]):
        super().__init__(message)
        self.records = records


def _strip_ethernet(frame: bytes) -> bytes | None:
    """IPv4 payload of an Ethernet frame, or None for other ethertypes."""
    if len(frame) < 14:
        return None
    ethertype = struct.unpack("!H", frame[12:14])[0]
    offset = 14
    while ethertype == _ETHERTYPE_VLAN:
        if len(frame) < offset + 4:
            return None
        ethertype = struct.unpack("!H", frame[offset + 2:offset + 4])[0]
        offset += 4
    if ethertype != _ETHERTYPE_IPV4:
        return None
    return frame[offset:]


def pcap_read(path: str | Path) -> list[tuple[int, bytes]]:
    """Read (timestamp_us, ip_packet_bytes) records from a pcap file.

    Ethernet frames are unwrapped to their IP payload; non-IPv4 frames
    are skipped. Raises TruncatedCapture (carrying the good records) if
    the last record is cut short.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 24:
        raise BadMagic("file shorter than a pcap global header")
    magic = struct.unpack("<I", data[:4])[0]
    if magic == PCAP_MAGIC:
        endian = "<"
    elif struct.unpack(">I", data[:4])[0] == PCAP_MAGIC:
        endian = ">"
    else:
        raise BadMagic(f"unrecognized magic 0x{magic:08x}")
    _, _, _, _, _, linktype = struct.unpack(endian + "HHiIII", data[4:24])
    if linktype not in (LINKTYPE_RAW, LINKTYPE_IPV4, LINKTYPE_ETHERNET):
        raise UnsupportedLinkType(f"link type {linktype}")

    records: list[tuple[int, bytes]] = []
    unpack_from = _RECORD[endian].unpack_from
    offset = 24
    while offset < len(data):
        if offset + 16 > len(data):
            raise TruncatedCapture("record header cut short", records)
        ts_sec, ts_usec, incl_len, _orig_len = unpack_from(data, offset)
        offset += 16
        if offset + incl_len > len(data):
            raise TruncatedCapture("record body cut short", records)
        frame = data[offset:offset + incl_len]
        offset += incl_len
        if linktype == LINKTYPE_ETHERNET:
            ip_bytes = _strip_ethernet(frame)
            if ip_bytes is None:
                continue
        else:
            ip_bytes = frame
        records.append((ts_sec * 1_000_000 + ts_usec, ip_bytes))
    return records


class PcapSpool(Spool):
    """A RAW-linktype little-endian pcap being spooled, one record per
    `append`."""

    def __init__(self):
        super().__init__(_GLOBAL_HEADER)

    def append(self, record: tuple[int, bytes]) -> None:
        """Add one (timestamp_us, ip_packet_bytes) record."""
        ts_us, pkt = record
        n = len(pkt)
        buf = self._buf
        buf += _pack_record(ts_us // 1_000_000, ts_us % 1_000_000, n, n)
        buf += pkt
        if len(buf) > FLUSH_AT:
            self._flush()


def pcap_write(path: str | Path, spool: PcapSpool) -> None:
    """Copy a spool's capture so far to `path`. The spool keeps it, and
    later appends go on after it."""
    spool.copy_to(path)
