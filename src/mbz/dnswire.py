"""Just enough DNS-over-UDP wire handling for queries and A records.

Covers what the engine needs: building/parsing standard queries,
answering from a name table, and reading answer sections (with name
compression) to learn IP-to-domain mappings. Anything exotic parses to
None and is ignored by callers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

QTYPE_A = 1
QCLASS_IN = 1
RCODE_OK = 0
RCODE_FORMERR = 1
RCODE_NXDOMAIN = 3

_FLAG_RESPONSE = 0x8000
_RESPONSE_FLAGS = _FLAG_RESPONSE | 0x0100 | 0x0080  # QR, RD, RA
_ANSWER_TTL = 60


@dataclass
class DnsMessage:
    qid: int
    is_response: bool
    rcode: int
    qname: str
    qtype: int
    answers: list[tuple[str, int, str]] = field(default_factory=list)  # (name, type, A-record IP)


def encode_name(name: str) -> bytes:
    """The wire form of a dotted name; "" and "." are the root. A label
    that is empty, not ASCII or over 63 bytes is a ValueError."""
    out = bytearray()
    name = name.rstrip(".")
    for label in name.split(".") if name else ():
        raw = label.encode("ascii")
        if not raw or len(raw) > 63:
            raise ValueError(f"bad DNS label in {name!r}")
        out.append(len(raw))
        out.extend(raw)
    out.append(0)
    return bytes(out)


def _decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a possibly-compressed name; returns (name, next offset)."""
    labels: list[str] = []
    jumped = False
    end = offset
    hops = 0
    while True:
        if offset >= len(data):
            raise ValueError("name runs past message end")
        length = data[offset]
        if length & 0xC0 == 0xC0:  # compression pointer
            if offset + 1 >= len(data):
                raise ValueError("dangling compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if not jumped:
                end = offset + 2
                jumped = True
            offset = pointer
            hops += 1
            if hops > 64:
                raise ValueError("compression loop")
            continue
        if length == 0:
            if not jumped:
                end = offset + 1
            break
        offset += 1
        labels.append(data[offset:offset + length].decode("ascii", errors="replace"))
        offset += length
    return ".".join(labels), end


def build_query(qid: int, qname: str, qtype: int = QTYPE_A) -> bytes:
    header = struct.pack("!HHHHHH", qid & 0xFFFF, 0x0100, 1, 0, 0, 0)
    return header + encode_name(qname) + struct.pack("!HH", qtype, QCLASS_IN)


def build_response(qid: int, qname: str, qtype: int, ips: list[str],
                   rcode: int = RCODE_OK) -> bytes:
    flags = _RESPONSE_FLAGS | (rcode & 0x0F)
    header = struct.pack("!HHHHHH", qid & 0xFFFF, flags, 1, len(ips), 0, 0)
    question = encode_name(qname) + struct.pack("!HH", qtype, QCLASS_IN)
    answers = bytearray()
    for ip in ips:
        rdata = bytes(int(p) for p in ip.split("."))
        answers += struct.pack("!HHHIH", 0xC00C, QTYPE_A, QCLASS_IN, _ANSWER_TTL, 4) + rdata
    return header + question + bytes(answers)


def build_error(qid: int, rcode: int) -> bytes:
    """A response that carries only `rcode`: no question, no answer."""
    return struct.pack("!HHHHHH", qid & 0xFFFF, _RESPONSE_FLAGS | (rcode & 0x0F), 0, 0, 0, 0)


def question_end(data: bytes) -> int:
    """The offset just past a message's first question, so that
    `data[12:question_end(data)]` is the question as sent; 12 (no
    question) when the message has none or it does not parse."""
    # walks the label lengths only: the engine calls this on every query
    # and answer on a shared socket
    size = len(data)
    if size < 12 or data[4:6] == b"\0\0":
        return 12
    offset = 12
    while offset < size:
        length = data[offset]
        if length == 0:
            end = offset + 5  # the root label, then type and class
            break
        if length >= 0xC0:
            end = offset + 6  # a compression pointer, then type and class
            break
        if length > 63:
            return 12
        offset += length + 1
    else:
        return 12
    return end if end <= size else 12


# Parses by the message's bytes after the 2-byte id. Apps ask for the
# same few names again and again, so most queries and answers repeat
# under a fresh id (95.7 % of the parses of the seed-1 `app-mix` replay).
# Emptied when the estimated size of what it holds passes _MEMO_BYTES,
# as packet._NAMES is at its bound; a message longer than _MEMO_MAX_LEN
# is parsed every time, so hostile long messages stay out. A message
# whose name pointers could lead into the id (the bytes c0 00 or c0 01
# after it) is parsed every time too: its parse may depend on the id.
_MEMO: dict[bytes, tuple | None] = {}
_MEMO_MAX_LEN = 512
_MEMO_BYTES = 2 << 20
_memo_bytes = 0


def parse_message(data: bytes) -> DnsMessage | None:
    """Parse a DNS message down to question + A-record answers; returns
    None when it is not parseable as DNS. Each call returns a new
    message with its own `answers` list."""
    global _memo_bytes
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) > _MEMO_MAX_LEN:
        fields = _parse(data)
    else:
        body = data[2:]
        try:
            fields = _MEMO[body]
        except KeyError:
            fields = _parse(data)
            if b"\xc0\x00" not in body and b"\xc0\x01" not in body:
                cost = _memo_cost(body, fields)
                if _memo_bytes + cost > _MEMO_BYTES:
                    _MEMO.clear()
                    _memo_bytes = 0
                _MEMO[body] = fields
                _memo_bytes += cost
    if fields is None:
        return None
    is_response, rcode, qname, qtype, answers = fields
    return DnsMessage((data[0] << 8) | data[1], is_response, rcode, qname, qtype,
                      list(answers))


def _memo_cost(body: bytes, fields: tuple | None) -> int:
    """An upper bound on the bytes a memo entry holds on a 64-bit
    CPython: the key, the dict slot, and the parsed fields, each name
    counted at two bytes a character (a replaced non-ASCII byte widens
    the string)."""
    cost = 200 + len(body)
    if fields is not None:
        cost += 200 + 2 * len(fields[2])
        for name, _rtype, _ip in fields[4]:
            cost += 250 + 2 * len(name)
    return cost


def _parse(data: bytes) -> tuple | None:
    """(is_response, rcode, qname, qtype, answers as a tuple), or None."""
    if len(data) < 12:
        return None
    try:
        flags, qdcount, ancount = struct.unpack_from("!HHH", data, 2)
        if qdcount < 1:
            return None
        qname, offset = _decode_name(data, 12)
        if offset + 4 > len(data):
            return None
        qtype, _qclass = struct.unpack("!HH", data[offset:offset + 4])
        offset += 4
        answers = []
        for _ in range(ancount):
            name, offset = _decode_name(data, offset)
            if offset + 10 > len(data):
                return None
            rtype, _rclass, _ttl, rdlength = struct.unpack(
                "!HHIH", data[offset:offset + 10])
            offset += 10
            rdata = data[offset:offset + rdlength]
            offset += rdlength
            if rtype == QTYPE_A and rdlength == 4:
                ip = "%d.%d.%d.%d" % (rdata[0], rdata[1], rdata[2], rdata[3])
                answers.append((name, rtype, ip))
        return bool(flags & _FLAG_RESPONSE), flags & 0x0F, qname, qtype, tuple(answers)
    except (ValueError, IndexError, struct.error):  # IndexError: A rdata cut short
        return None
