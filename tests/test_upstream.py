"""Simulated upstream endpoint tests."""

import ipaddress
import struct

import pytest
from helpers import drain_timers
from hypothesis import given, settings, strategies as st

from mbz import dnswire
from mbz.clock import Scheduler
from mbz.config import script_from_dict
from mbz.upstream import (
    EV_CONNECTED, EV_EOF, EV_READABLE, EV_REFUSED,
    OverlappingScripts, SimUpstream, _build_dns_reply, _first_script,
)


def script(cidr, behavior, ports="any", **kw):
    return script_from_dict(
        {"cidr": cidr, "ports": ports, "behavior": behavior, **kw})


def make_net(scripts, sched=None):
    sched = sched or Scheduler()
    return SimUpstream(scripts, sched, rng_seed=1), sched


class TestScripts:
    def test_overlapping_scripts_rejected(self):
        with pytest.raises(OverlappingScripts):
            make_net([script("10.0.0.0/24", "echo"),
                      script("10.0.0.8/32", "reset")])

    def test_disjoint_ports_allowed(self):
        net, _ = make_net([script("10.0.0.0/24", "echo", ports=[80]),
                           script("10.0.0.0/24", "reset", ports=[22])])
        assert net.find_script(("10.0.0.5", 80)).behavior == "echo"
        assert net.find_script(("10.0.0.5", 22)).behavior == "reset"
        assert net.find_script(("10.0.0.5", 443)) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(26, 32),
                              st.one_of(st.none(), st.sets(st.sampled_from((22, 53, 80)),
                                                           min_size=1))),
                    max_size=10),
           st.lists(st.tuples(st.integers(0, 63), st.sampled_from((22, 53, 80, 443))),
                    min_size=1, max_size=30))
    def test_cached_lookup_equals_the_linear_scan(self, specs, probes):
        scripts = []
        for i, (host, prefix, ports) in enumerate(specs):
            network = ipaddress.IPv4Network(f"10.0.0.{host}/{prefix}", strict=False)
            candidate = script(str(network), "echo",
                               ports=sorted(ports) if ports else "any", delay_us=i)
            if not any(candidate.overlaps(other) for other in scripts):
                scripts.append(candidate)
        net, _ = make_net(scripts)
        for host, port in probes + probes:  # the second pass hits the cache
            addr = (f"10.0.0.{host}", port)
            matching = [s for s in scripts if s.matches(addr)]
            assert len(matching) <= 1
            found = net.find_script(addr)
            assert found is _first_script(tuple(scripts), addr)
            assert found is (matching[0] if matching else None)

    def test_later_change_to_the_script_list_is_not_seen(self):
        scripts = [script("10.0.0.0/24", "echo")]
        net, _ = make_net(scripts)
        scripts[0] = script("10.0.0.0/24", "reset")
        assert net.find_script(("10.0.0.5", 80)).behavior == "echo"

    def test_script_cache_is_bounded(self):
        net, _ = make_net([script("10.0.0.0/8", "echo")])
        for i in range(5000):
            assert net.find_script(("10.0.0.1", i)).behavior == "echo"
        assert len(net._script_of) <= 4096

    def test_unknown_behavior_rejected(self):
        with pytest.raises(Exception):
            script("1.1.1.1/32", "teleport")


class TestStreams:
    def test_reset_on_connect_reports_refusal(self):
        net, sched = make_net([script("9.9.9.9/32", "reset")])
        events = []
        handle = net.open_stream(("9.9.9.9", 443))
        handle.set_callback(events.append)
        drain_timers(sched)
        assert events == [EV_REFUSED]

    def test_echo_stream(self):
        net, sched = make_net([script("10.0.0.1/32", "echo")])
        events = []
        handle = net.open_stream(("10.0.0.1", 7))
        handle.set_callback(events.append)
        drain_timers(sched)
        assert events == [EV_CONNECTED]
        handle.send(b"abc")
        drain_timers(sched)
        assert EV_READABLE in events
        assert handle.recv(100) == b"abc"

    def test_echo_closes_after_half_close(self):
        net, sched = make_net([script("10.0.0.1/32", "echo")])
        events = []
        handle = net.open_stream(("10.0.0.1", 7))
        handle.set_callback(events.append)
        drain_timers(sched)
        handle.send(b"hi")
        handle.half_close()
        drain_timers(sched)
        assert EV_EOF in events
        assert handle.recv(100) == b"hi"
        assert handle.at_eof()

    def test_static_response_then_eof(self):
        net, sched = make_net(
            [script("10.0.0.1/32", "static", response="pong")])
        handle = net.open_stream(("10.0.0.1", 80))
        events = []
        handle.set_callback(events.append)
        drain_timers(sched)
        handle.send(b"ping")
        drain_timers(sched)
        assert handle.recv(100) == b"pong"
        assert handle.at_eof()

    def test_blackhole_never_connects(self):
        net, sched = make_net([])
        events = []
        handle = net.open_stream(("203.0.113.5", 80))
        handle.set_callback(events.append)
        drain_timers(sched)
        assert events == []
        handle.close()

    def test_handle_count_tracks_open_minus_closed(self):
        net, sched = make_net([script("10.0.0.0/24", "echo")])
        h1 = net.open_stream(("10.0.0.1", 1))
        h2 = net.open_stream(("10.0.0.2", 2))
        d1 = net.open_datagram()
        assert net.active_handle_count() == 3
        h1.close()
        d1.close()
        d1.close()  # idempotent
        assert net.active_handle_count() == 1
        h2.close()
        assert net.active_handle_count() == 0

    def test_transcript_records_bytes(self):
        net, sched = make_net([script("10.0.0.1/32", "echo")])
        handle = net.open_stream(("10.0.0.1", 7))
        handle.set_callback(lambda e: None)
        drain_timers(sched)
        handle.send(b"abc")
        drain_timers(sched)
        t = net.transcripts[0]
        assert bytes(t.received) == b"abc"
        assert handle.recv(10) == b"abc"

    def test_recv_window_backpressure(self):
        net, sched = make_net(
            [script("10.0.0.1/32", "echo", recv_window=4, delay_us=1000)])
        handle = net.open_stream(("10.0.0.1", 7))
        handle.set_callback(lambda e: None)
        drain_timers(sched)
        assert handle.send(b"abcdefgh") == 4  # endpoint window is full
        drain_timers(sched)
        assert handle.send(b"efgh") == 4  # freed after endpoint consumed


class TestDatagrams:
    def test_echo_datagram(self):
        net, sched = make_net([script("10.0.0.1/32", "echo")])
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append((addr, data)))
        handle.send_to(("10.0.0.1", 9), b"boom")
        drain_timers(sched)
        assert got == [(("10.0.0.1", 9), b"boom")]

    def test_dns_responder_answers_after_delay(self):
        sched = Scheduler()
        net, _ = make_net(
            [script("8.8.8.8/32", "dns", ports=[53], delay_us=20_000,
                    answers={"example.com": ["93.184.216.34"]})],
            sched)
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append((sched.now_us(), data)))
        handle.send_to(("8.8.8.8", 53), dnswire.build_query(7, "example.com"))
        drain_timers(sched)
        assert len(got) == 1
        ts, data = got[0]
        assert ts >= 20_000  # one-way delay each direction under the virtual clock
        msg = dnswire.parse_message(data)
        assert msg.qid == 7 and msg.is_response
        assert msg.answers == [("example.com", 1, "93.184.216.34")]

    def test_dns_nxdomain_for_unknown_name(self):
        net, sched = make_net(
            [script("8.8.8.8/32", "dns", ports=[53], answers={})])
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append(data))
        handle.send_to(("8.8.8.8", 53), dnswire.build_query(9, "nosuch.test"))
        drain_timers(sched)
        msg = dnswire.parse_message(got[0])
        assert msg.rcode == dnswire.RCODE_NXDOMAIN
        assert msg.answers == []

    def test_dns_tamper_override(self):
        net, sched = make_net(
            [script("8.8.8.8/32", "dns", ports=[53],
                    answers={"example.com": ["93.184.216.34"]},
                    tamper={"override": {"example.com": ["6.6.6.6"]}})])
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append(data))
        handle.send_to(("8.8.8.8", 53), dnswire.build_query(1, "example.com"))
        drain_timers(sched)
        assert dnswire.parse_message(got[0]).answers[0][2] == "6.6.6.6"

    def test_dns_drop_rule(self):
        net, sched = make_net(
            [script("8.8.8.8/32", "dns", ports=[53],
                    answers={"example.com": ["1.2.3.4"]},
                    tamper={"drop": ["example.com"]})])
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append(data))
        handle.send_to(("8.8.8.8", 53), dnswire.build_query(1, "example.com"))
        drain_timers(sched)
        assert got == []

    @pytest.mark.parametrize("name, settings", [
        ("example.com", {"answers": {"example.com": ["93.184.216.34", "1.2.3.4"]}}),
        ("example.com", {"answers": {"example.com": ["1.2.3.4"]},
                         "tamper": {"override": {"example.com": ["6.6.6.6"]}}}),
        ("nosuch.test", {"tamper": {"nxdomain_to": ["10.9.9.9"]}}),
        ("nosuch.test", {}),
        ("example.com", {"answers": {"example.com": ["1.2.3.4"]},
                         "tamper": {"drop": ["example.com"]}}),
    ])
    def test_stored_dns_replies_are_the_built_ones(self, name, settings):
        resolver = script("8.8.8.8/32", "dns", ports=[53], **settings)
        net, sched = make_net([resolver])
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append(data))
        queries = [dnswire.build_query(qid, name) for qid in (7, 0x1234, 7)]
        for query in queries:
            handle.send_to(("8.8.8.8", 53), query)
        drain_timers(sched)
        built = [_build_dns_reply(resolver, dnswire.parse_message(query)) for query in queries]
        assert got == [reply for reply in built if reply is not None]
        assert len(net._dns_replies) == 1  # built once, sent three times

    def test_query_whose_name_points_into_its_id_gets_its_own_reply(self):
        resolver = script("8.8.8.8/32", "dns", ports=[53])
        net, sched = make_net([resolver])
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append(data))
        # the name starts at offset 1, the id's low byte: ids 3 and 2 name
        # different domains with the same bytes after the id
        queries = [struct.pack("!HHHHHH", qid, 0x0100, 1, 0, 0, 0) + b"\xc0\x01\x00\x01\x00\x01"
                   for qid in (3, 2)]
        for query in queries:
            handle.send_to(("8.8.8.8", 53), query)
        drain_timers(sched)
        assert got == [_build_dns_reply(resolver, dnswire.parse_message(query))
                       for query in queries]
        assert got[0][2:] != got[1][2:]

    @staticmethod
    def _answer_to(question: bytes, qid: int = 9) -> bytes:
        """The reply a resolver with no names sends to one query holding
        `question` (a name, then type and class)."""
        net, sched = make_net([script("8.8.8.8/32", "dns", ports=[53])])
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append(data))
        handle.send_to(("8.8.8.8", 53), struct.pack("!HHHHHH", qid, 0x0100, 1, 0, 0, 0)
                       + question)
        drain_timers(sched)
        assert len(got) == 1
        return got[0]

    def test_root_name_query_is_answered_with_its_question(self):
        question = b"\x00" + struct.pack("!HH", 2, dnswire.QCLASS_IN)  # NS for the root
        reply = self._answer_to(question)
        msg = dnswire.parse_message(reply)
        assert (msg.qid, msg.is_response, msg.rcode, msg.qname, msg.qtype) == (
            9, True, dnswire.RCODE_NXDOMAIN, "", 2)
        assert reply[12:dnswire.question_end(reply)] == question

    @pytest.mark.parametrize("label", [b"a\xffb", b"x" * 64], ids=["non-ascii", "64-bytes"])
    def test_name_that_does_not_encode_back_gets_a_format_error(self, label):
        reply = self._answer_to(bytes([len(label)]) + label + b"\x00\x00\x01\x00\x01")
        assert reply == struct.pack("!HHHHHH", 9, 0x8181, 0, 0, 0, 0)  # FORMERR, no question
        assert self._answer_to(b"\x03a\xfeb\x00\x00\x01\x00\x01", qid=10)[2:] == reply[2:]

    def test_deterministic_under_seed(self):
        def run():
            sched = Scheduler()
            net = SimUpstream(
                [script("10.0.0.1/32", "echo", delay_us=10, jitter_us=100)],
                sched, rng_seed=42)
            handle = net.open_datagram()
            got = []
            handle.set_callback(lambda addr, data: got.append((sched.now_us(), data)))
            for i in range(5):
                handle.send_to(("10.0.0.1", 9), bytes([i]))
            drain_timers(sched)
            return got
        assert run() == run()


class TestDnsWire:
    def test_query_response_round_trip(self):
        query = dnswire.build_query(0x1234, "a.b.example.net")
        msg = dnswire.parse_message(query)
        assert (msg.qid, msg.qname, msg.qtype) == (0x1234, "a.b.example.net", 1)
        assert not msg.is_response

    def test_response_with_compression_parses(self):
        resp = dnswire.build_response(5, "example.com", 1,
                                      ["1.2.3.4", "5.6.7.8"])
        msg = dnswire.parse_message(resp)
        assert msg.is_response
        assert [a[2] for a in msg.answers] == ["1.2.3.4", "5.6.7.8"]
        assert msg.answers[0][0] == "example.com"

    def test_garbage_returns_none(self):
        assert dnswire.parse_message(b"short") is None
        assert dnswire.parse_message(b"\x00" * 11) is None

    def test_question_end_spans_the_first_question(self):
        query = dnswire.build_query(7, "a.example")
        answer = dnswire.build_response(7, "a.example", 1, ["1.2.3.4"])
        # a query and its answer carry the same question bytes
        assert query[12:dnswire.question_end(query)] == answer[12:dnswire.question_end(answer)]
        assert dnswire.question_end(query) == len(query)
        no_question = query[:4] + b"\x00\x00" + query[6:]
        long_label = query[:12] + b"\x40" + b"a" * 64 + b"\x00\x00\x01\x00\x01"
        for data in (b"short", no_question, long_label, *(query[:n] for n in range(len(query)))):
            assert dnswire.question_end(data) == 12
        # a name that ends in a compression pointer
        pointed = query[:12] + b"\xc0\x0c\x00\x01\x00\x01"
        assert dnswire.question_end(pointed) == len(pointed)
