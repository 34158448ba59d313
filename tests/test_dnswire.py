"""parse_message's memo against a fresh parse and against the parser it
replaced.

`oracle_parse` is `parse_message` as it was before the memo, verbatim,
except that an A record whose data is cut short gives None: the old
parser raised IndexError there. The properties assert that a parse
through the memo gives the same fields as a parse with the memo emptied
and as the oracle, under any id, for queries and answers with
compressed names (pointers into the id included), for messages longer
than the memo's length cap, and for damaged messages; that each call
returns its own message; and that the memo stays within its bound.
"""

import struct
import sys
from dataclasses import astuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mbz import dnswire
from mbz.dnswire import QTYPE_A, DnsMessage


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts from an empty memo and leaves the module's alone."""
    monkeypatch.setattr(dnswire, "_MEMO", {})
    monkeypatch.setattr(dnswire, "_memo_bytes", 0)


def fresh_parse(data: bytes) -> DnsMessage | None:
    """parse_message with the memo emptied, restored afterwards."""
    saved = dnswire._MEMO, dnswire._memo_bytes
    dnswire._MEMO, dnswire._memo_bytes = {}, 0
    try:
        return dnswire.parse_message(data)
    finally:
        dnswire._MEMO, dnswire._memo_bytes = saved


def oracle_parse(data: bytes) -> DnsMessage | None:
    if len(data) < 12:
        return None
    try:
        qid, flags, qdcount, ancount, _, _ = struct.unpack("!HHHHHH", data[:12])
        if qdcount < 1:
            return None
        qname, offset = dnswire._decode_name(data, 12)
        if offset + 4 > len(data):
            return None
        qtype, _qclass = struct.unpack("!HH", data[offset:offset + 4])
        offset += 4
        msg = DnsMessage(
            qid=qid,
            is_response=bool(flags & 0x8000),
            rcode=flags & 0x0F,
            qname=qname,
            qtype=qtype,
        )
        for _ in range(ancount):
            name, offset = dnswire._decode_name(data, offset)
            if offset + 10 > len(data):
                return None
            rtype, _rclass, _ttl, rdlength = struct.unpack(
                "!HHIH", data[offset:offset + 10])
            offset += 10
            rdata = data[offset:offset + rdlength]
            offset += rdlength
            if rtype == QTYPE_A and rdlength == 4:
                ip = "%d.%d.%d.%d" % (rdata[0], rdata[1], rdata[2], rdata[3])
                msg.answers.append((name, rtype, ip))
        return msg
    except (ValueError, struct.error):
        return None
    except IndexError:  # an A record cut short: the old parser raised here
        return None


def fields(msg: DnsMessage | None):
    return None if msg is None else astuple(msg)


# -- generated messages --------------------------------------------------------

labels = st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=4)


def wire_labels(parts: list[bytes]) -> bytes:
    return b"".join(bytes([len(part)]) + part for part in parts)


@st.composite
def answer_names(draw, question: list[bytes]):
    """An answer's owner name: uncompressed, a pointer to the question
    name or one of its suffixes, labels then such a pointer, or a
    pointer anywhere (into the header and the id included)."""
    suffixes = [12 + sum(len(p) + 1 for p in question[:i]) for i in range(len(question))]
    pointer = st.sampled_from(suffixes) | st.integers(0, 0x3FFF) | st.sampled_from([0, 1])
    kind = draw(st.sampled_from(["plain", "pointer", "labels+pointer"]))
    if kind == "plain":
        return wire_labels(draw(labels)) + b"\0"
    tail = struct.pack("!H", 0xC000 | draw(pointer))
    return (wire_labels(draw(labels)) if kind == "labels+pointer" else b"") + tail


@st.composite
def bodies(draw, max_answers: int = 6):
    """A DNS message without its 2-byte id: a query or an answer with A
    and other records, then possibly padded, cut short or with a byte
    flipped."""
    question = draw(labels)
    answers = []
    for _ in range(draw(st.integers(0, max_answers))):
        rtype = draw(st.sampled_from([QTYPE_A, QTYPE_A, 5, 28]))
        rdata = draw(st.binary(min_size=4, max_size=4) if rtype == QTYPE_A
                     else st.binary(max_size=16))
        answers.append(draw(answer_names(question))
                       + struct.pack("!HHIH", rtype, 1, 60, len(rdata)) + rdata)
    flags = draw(st.sampled_from([0x0100, 0x8180, 0x8183]) | st.integers(0, 0xFFFF))
    qdcount = draw(st.sampled_from([1, 1, 0, 2]))
    ancount = draw(st.sampled_from([len(answers)] * 3 + [len(answers) + 1, 0xFFFF]))
    body = (struct.pack("!HHHHH", flags, qdcount, ancount, 0, 0)
            + wire_labels(question) + b"\0" + struct.pack("!HH", QTYPE_A, 1)
            + b"".join(answers))
    damage = draw(st.sampled_from(["none", "none", "pad", "cut", "flip"]))
    if damage == "pad":
        body += draw(st.binary(max_size=600))
    elif damage == "cut":
        body = body[:draw(st.integers(0, len(body)))]
    elif damage == "flip" and body:
        at = draw(st.integers(0, len(body) - 1))
        body = body[:at] + bytes([draw(st.integers(0, 255))]) + body[at + 1:]
    return body


ids = st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=6)


class TestMemo:
    @given(bodies(), ids)
    @example(dnswire.build_response(0, "a.example", 1, ["1.2.3.4"])[2:-1], [7])  # A rdata cut
    @example(dnswire.build_query(0, "a.example")[2:] + b"\xc0\x00", [0x0161, 0x0162])
    def test_same_as_a_fresh_parse_under_any_id(self, body, qids):
        first = None
        for qid in qids:
            data = qid.to_bytes(2, "big") + body
            got = dnswire.parse_message(data)
            assert fields(got) == fields(fresh_parse(data)) == fields(oracle_parse(data))
            if got is None:
                continue
            assert got.qid == qid
            if first is None:
                first = got
                # what one caller does to its message reaches no later one
                first.answers.append(("mine", QTYPE_A, "0.0.0.0"))
                first.qname = "changed"
            else:
                assert got.answers is not first.answers
                assert fields(got) == fields(oracle_parse(data))

    @given(bodies(max_answers=2), ids)
    def test_memoised_when_short_and_free_of_pointers_into_the_id(self, body, qids):
        for qid in qids:
            data = qid.to_bytes(2, "big") + body
            dnswire.parse_message(data)
            short = len(data) <= dnswire._MEMO_MAX_LEN
            into_id = b"\xc0\x00" in body or b"\xc0\x01" in body
            assert (body in dnswire._MEMO) == (short and not into_id)

    def test_long_message_parsed_every_time(self):
        query = dnswire.build_response(7, "a.example", 1, ["1.2.3.4"] * 40)
        assert len(query) > dnswire._MEMO_MAX_LEN
        for qid in (1, 2, 1):
            data = qid.to_bytes(2, "big") + query[2:]
            msg = dnswire.parse_message(data)
            assert fields(msg) == fields(oracle_parse(data)) and len(msg.answers) == 40
        assert dnswire._MEMO == {} and dnswire._memo_bytes == 0

    def test_unparseable_message_memoised_as_none(self):
        data = dnswire.build_query(3, "a.example")[:-3]
        assert dnswire.parse_message(data) is None
        assert dnswire._MEMO == {data[2:]: None}
        assert dnswire.parse_message(b"\x00\x09" + data[2:]) is None

    def test_pointer_into_the_id_follows_the_id(self):
        # the answer's name points at offset 1: its first label is the id's
        # low byte read as a length, then the bytes after it
        body = dnswire.build_response(0, "abc", 1, ["1.2.3.4"])[2:].replace(
            b"\xc0\x0c", b"\xc0\x01")
        names = [dnswire.parse_message(bytes([0, n]) + body).answers[0][0] for n in (0, 2)]
        assert names == ["", "\ufffd\ufffd"]  # the flags' 0x81 0x80 as one label
        assert dnswire._MEMO == {}


def typical(n: int) -> bytes:
    return dnswire.build_response(n, f"host{n}.app{n % 150}.example", 1,
                                  ["10.%d.%d.%d" % (n >> 16 & 255, n >> 8 & 255, n & 255)])


def costly(n: int) -> bytes:
    """Close to the most a 512-byte message can hold in the memo: many A
    records, each naming a long question name through one pointer, with
    a non-ASCII byte that widens every decoded name to two bytes a
    character."""
    name = b"".join(bytes([40]) + b"%039d" % (n + i) + b"\xff" for i in range(2))
    question = name + b"\0" + struct.pack("!HH", QTYPE_A, 1)
    record = struct.pack("!HHHIH", 0xC00C, QTYPE_A, 1, 60, 4) + b"\x01\x02\x03\x04"
    count = (dnswire._MEMO_MAX_LEN - 12 - len(question)) // len(record)
    return (struct.pack("!HHHHHH", n & 0xFFFF, 0x8180, 1, count, 0, 0)
            + question + record * count)


def deep_size(memo: dict) -> int:
    """The bytes the memo holds: its table, keys and parsed fields, each
    object counted once."""
    seen = set()
    total = sys.getsizeof(memo)
    stack = [*memo.keys(), *memo.values()]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if isinstance(obj, tuple):
                stack.extend(obj)
    return total


class TestMemoBound:
    @pytest.mark.parametrize("make", [typical, costly])
    def test_ten_thousand_distinct_messages_stay_within_the_bound(self, make):
        assert len(costly(0)) <= dnswire._MEMO_MAX_LEN
        assert len(dnswire.parse_message(costly(0)).answers) > 20
        most = 0
        for n in range(10_000):
            assert dnswire.parse_message(make(n)).qid == n & 0xFFFF
            most = max(most, len(dnswire._MEMO))
            assert dnswire._memo_bytes <= dnswire._MEMO_BYTES
        # emptied when full, so it filled at least once
        assert 0 < len(dnswire._MEMO) < most < 10_000
        # the cost estimate bounds what the memo really holds
        assert deep_size(dnswire._MEMO) <= dnswire._memo_bytes
