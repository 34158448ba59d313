"""Simulated upstream endpoint tests."""

import pytest

from mbz import dnswire
from mbz.clock import Scheduler
from mbz.upstream import (
    EV_CONNECTED, EV_EOF, EV_READABLE, EV_REFUSED,
    OverlappingScripts, SimEndpointScript, SimUpstream,
)


def script(cidr, behavior, ports="any", **kw):
    return SimEndpointScript.from_dict(
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

    def test_unknown_behavior_rejected(self):
        with pytest.raises(Exception):
            script("1.1.1.1/32", "teleport")


class TestStreams:
    def test_reset_on_connect_reports_refusal(self):
        net, sched = make_net([script("9.9.9.9/32", "reset")])
        events = []
        handle = net.open_stream(("9.9.9.9", 443))
        handle.set_callback(events.append)
        sched.run_until_idle()
        assert events == [EV_REFUSED]

    def test_echo_stream(self):
        net, sched = make_net([script("10.0.0.1/32", "echo")])
        events = []
        handle = net.open_stream(("10.0.0.1", 7))
        handle.set_callback(events.append)
        sched.run_until_idle()
        assert events == [EV_CONNECTED]
        handle.send(b"abc")
        sched.run_until_idle()
        assert EV_READABLE in events
        assert handle.recv(100) == b"abc"

    def test_echo_closes_after_half_close(self):
        net, sched = make_net([script("10.0.0.1/32", "echo")])
        events = []
        handle = net.open_stream(("10.0.0.1", 7))
        handle.set_callback(events.append)
        sched.run_until_idle()
        handle.send(b"hi")
        handle.half_close()
        sched.run_until_idle()
        assert EV_EOF in events
        assert handle.recv(100) == b"hi"
        assert handle.at_eof()

    def test_static_response_then_eof(self):
        net, sched = make_net(
            [script("10.0.0.1/32", "static", response="pong")])
        handle = net.open_stream(("10.0.0.1", 80))
        events = []
        handle.set_callback(events.append)
        sched.run_until_idle()
        handle.send(b"ping")
        sched.run_until_idle()
        assert handle.recv(100) == b"pong"
        assert handle.at_eof()

    def test_blackhole_never_connects(self):
        net, sched = make_net([])
        events = []
        handle = net.open_stream(("203.0.113.5", 80))
        handle.set_callback(events.append)
        sched.run_until_idle()
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
        sched.run_until_idle()
        handle.send(b"abc")
        sched.run_until_idle()
        t = net.transcripts[0]
        assert bytes(t.received) == b"abc"
        assert handle.recv(10) == b"abc"

    def test_recv_window_backpressure(self):
        net, sched = make_net(
            [script("10.0.0.1/32", "echo", recv_window=4, delay_us=1000)])
        handle = net.open_stream(("10.0.0.1", 7))
        handle.set_callback(lambda e: None)
        sched.run_until_idle()
        assert handle.send(b"abcdefgh") == 4  # endpoint window is full
        sched.run_until_idle()
        assert handle.send(b"efgh") == 4  # freed after endpoint consumed


class TestDatagrams:
    def test_echo_datagram(self):
        net, sched = make_net([script("10.0.0.1/32", "echo")])
        handle = net.open_datagram()
        got = []
        handle.set_callback(lambda addr, data: got.append((addr, data)))
        handle.send_to(("10.0.0.1", 9), b"boom")
        sched.run_until_idle()
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
        sched.run_until_idle()
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
        sched.run_until_idle()
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
        sched.run_until_idle()
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
        sched.run_until_idle()
        assert got == []

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
            sched.run_until_idle()
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
