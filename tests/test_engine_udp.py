"""UDP forwarding: DNS socket reuse, key inversion, timeouts, pressure."""

from helpers import build_engine

from mbz import dnswire
from mbz.engine import EngineConfig
from mbz.host import Block, BlockMode, Modify, Permission, PluginDescriptor, TrafficPlugin
from mbz.packet import make_udp_packet, parse_packet, serialize_packet

RESOLVER = {"cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns",
            "answers": {"example.com": ["93.184.216.34"],
                        "other.net": ["203.0.113.7"]}}
UDP_ECHO = {"cidr": "10.3.0.0/24", "behavior": "echo"}


def inject_udp(engine, src, dst, payload=b"ping"):
    engine.conduit.inject(serialize_packet(make_udp_packet(src, dst, payload=payload)))


class TestDnsReuse:
    def test_two_queries_same_resolver_one_handle(self):
        engine = build_engine([RESOLVER])
        inject_udp(engine, ("10.0.0.2", 50001), ("8.8.8.8", 53),
                   dnswire.build_query(1, "example.com"))
        inject_udp(engine, ("10.0.0.2", 50002), ("8.8.8.8", 53),
                   dnswire.build_query(2, "other.net"))
        engine.pump()
        assert engine.upstream.active_handle_count() == 1
        assert engine.counters["udp_flows_created"] == 2

    def test_responses_routed_to_the_right_flow(self):
        engine = build_engine([RESOLVER])
        inject_udp(engine, ("10.0.0.2", 50001), ("8.8.8.8", 53),
                   dnswire.build_query(11, "example.com"))
        inject_udp(engine, ("10.0.0.2", 50002), ("8.8.8.8", 53),
                   dnswire.build_query(22, "other.net"))
        engine.pump()
        out = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        by_port = {p.transport.dst_port: dnswire.parse_message(p.payload) for p in out}
        assert by_port[50001].answers[0][2] == "93.184.216.34"
        assert by_port[50002].answers[0][2] == "203.0.113.7"

    def test_response_has_inverted_key(self):
        engine = build_engine([RESOLVER])
        inject_udp(engine, ("10.0.0.2", 5353), ("8.8.8.8", 53),
                   dnswire.build_query(7, "example.com"))
        engine.pump()
        pkt = parse_packet(engine.conduit.take_emitted()[0][1])
        assert (pkt.ip.src_addr, pkt.transport.src_port) == ("8.8.8.8", 53)
        assert (pkt.ip.dst_addr, pkt.transport.dst_port) == ("10.0.0.2", 5353)

    def test_distinct_sources_do_not_share(self):
        engine = build_engine([RESOLVER])
        inject_udp(engine, ("10.0.0.2", 50001), ("8.8.8.8", 53),
                   dnswire.build_query(1, "example.com"))
        inject_udp(engine, ("10.0.0.3", 50001), ("8.8.8.8", 53),
                   dnswire.build_query(2, "example.com"))
        engine.pump()
        assert engine.upstream.active_handle_count() == 2


class TestPlainUdp:
    def test_two_destinations_two_handles(self):
        engine = build_engine([UDP_ECHO])
        inject_udp(engine, ("10.0.0.2", 6001), ("10.3.0.1", 9999))
        inject_udp(engine, ("10.0.0.2", 6002), ("10.3.0.2", 9999))
        engine.pump()
        assert engine.upstream.active_handle_count() == 2

    def test_blackhole_destination_forwarded_no_reply(self):
        engine = build_engine([])
        inject_udp(engine, ("10.0.0.2", 6001), ("203.0.113.77", 9))
        engine.pump()
        assert engine.conduit.take_emitted() == []
        assert engine.upstream.datagram_log == [(("203.0.113.77", 9), b"ping")]

    def test_echo_round_trip(self):
        engine = build_engine([UDP_ECHO])
        inject_udp(engine, ("10.0.0.2", 6001), ("10.3.0.1", 7), b"marco")
        engine.pump()
        pkt = parse_packet(engine.conduit.take_emitted()[0][1])
        assert pkt.payload == b"marco"

    def test_budget_exhaustion_drops(self):
        engine = build_engine([], EngineConfig(local_isn=1, socket_budget=1))
        inject_udp(engine, ("10.0.0.2", 6001), ("203.0.113.1", 9))
        inject_udp(engine, ("10.0.0.2", 6002), ("203.0.113.2", 9))
        engine.pump()
        assert engine.counters["udp_refused_budget"] == 1
        assert engine.upstream.active_handle_count() == 1


class TestSweep:
    def test_idle_udp_evicted_after_timeout(self):
        engine = build_engine([UDP_ECHO])
        inject_udp(engine, ("10.0.0.2", 6001), ("10.3.0.1", 9))
        engine.pump()
        engine.scheduler.advance_to(31_000_000)
        engine.sweep()
        assert len(engine.flows) == 0
        assert engine.upstream.active_handle_count() == 0
        assert engine.counters["udp_flows_evicted_idle"] == 1

    def test_idle_below_timeout_survives(self):
        engine = build_engine([UDP_ECHO])
        inject_udp(engine, ("10.0.0.2", 6001), ("10.3.0.1", 9))
        engine.pump()
        engine.scheduler.advance_to(29_000_000)
        engine.sweep()
        assert len(engine.flows) == 1

    def test_dns_timeout_shorter_than_udp(self):
        engine = build_engine([RESOLVER, UDP_ECHO])
        inject_udp(engine, ("10.0.0.2", 50001), ("8.8.8.8", 53),
                   dnswire.build_query(1, "example.com"))
        inject_udp(engine, ("10.0.0.2", 6001), ("10.3.0.1", 9))
        engine.pump()
        engine.conduit.take_emitted()
        engine.scheduler.advance_to(11_000_000)  # 11 s idle
        engine.sweep()
        remaining = list(engine.flows.values())
        assert len(remaining) == 1
        assert remaining[0].shared_key is None  # the DNS flow went first

    def test_pressure_evicts_lru_first(self):
        engine = build_engine([], EngineConfig(local_isn=1, socket_budget=10))
        for i in range(10):
            engine.scheduler.advance_to(i * 1000)
            inject_udp(engine, ("10.0.0.2", 7000 + i), ("203.0.113.9", 100 + i))
            engine.pump()
        assert engine.upstream.active_handle_count() == 10
        engine.sweep()
        report = engine.eviction_reports[-1]
        assert engine.counters["udp_flows_evicted_pressure"] >= 1
        assert engine.upstream.active_handle_count() <= 9  # 0.9 * budget
        # oldest flow (port 7000) evicted first
        assert "7000" in report["evicted"][0]

    def test_pressure_spares_active_tcp(self):
        # only idle UDP flows are pressure-evicted; pending TCP stays
        engine = build_engine([], EngineConfig(local_isn=1, socket_budget=2))
        from mbz.packet import SYN, make_tcp_packet
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            ("10.0.0.2", 40000), ("203.0.113.5", 80), seq=1, ack=0, flags=SYN)))
        inject_udp(engine, ("10.0.0.2", 6001), ("203.0.113.6", 9))
        engine.pump()
        assert engine.upstream.active_handle_count() == 2
        engine.sweep()
        assert engine.upstream.active_handle_count() == 1
        assert engine.counters["udp_flows_evicted_pressure"] == 1
        flows = list(engine.flows.values())
        assert len(flows) == 1 and flows[0].key.protocol == 6

    def test_shared_dns_handle_survives_partial_eviction(self):
        engine = build_engine([RESOLVER])
        inject_udp(engine, ("10.0.0.2", 50001), ("8.8.8.8", 53),
                   dnswire.build_query(1, "example.com"))
        engine.pump()
        engine.scheduler.advance_to(8_000_000)
        inject_udp(engine, ("10.0.0.2", 50002), ("8.8.8.8", 53),
                   dnswire.build_query(2, "other.net"))
        engine.pump()
        engine.scheduler.advance_to(12_000_000)  # first flow 12s idle, second 4s
        engine.sweep()
        assert len(engine.flows) == 1
        assert engine.upstream.active_handle_count() == 1  # still referenced
        engine.scheduler.advance_to(30_000_000)
        engine.sweep()
        assert engine.upstream.active_handle_count() == 0


class TestDnsIdCollision:
    def test_same_id_from_two_ports_each_answered(self):
        engine = build_engine([RESOLVER])
        inject_udp(engine, ("10.0.0.2", 50000), ("8.8.8.8", 53),
                   dnswire.build_query(7, "example.com"))
        inject_udp(engine, ("10.0.0.2", 50001), ("8.8.8.8", 53),
                   dnswire.build_query(7, "other.net"))
        engine.pump()
        assert engine.upstream.active_handle_count() == 1
        out = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        answers = {p.transport.dst_port: dnswire.parse_message(p.payload) for p in out}
        assert sorted(answers) == [50000, 50001]
        assert [m.qid for m in answers.values()] == [7, 7]
        assert answers[50000].answers[0][2] == "93.184.216.34"
        assert answers[50001].answers[0][2] == "203.0.113.7"
        assert engine.counters["udp_inbound_unroutable"] == 0
        assert [s.ids for s in engine._dns_shared.values()] == [{}]  # answered ids freed

    def test_duplicate_query_answered_once(self):
        # the app repeats a query (one flow, one id) before the answer is back:
        # both go out under the one wire id, the first answer frees it, and
        # the second answer has no holder left
        engine = build_engine([dict(RESOLVER, delay_us=1000)])
        query = dnswire.build_query(7, "example.com")
        for _ in range(2):
            inject_udp(engine, ("10.0.0.2", 50000), ("8.8.8.8", 53), query)
        engine.pump()
        assert len(engine.upstream.datagram_log) == 2
        out = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        assert [p.transport.dst_port for p in out] == [50000]
        answer = dnswire.parse_message(out[0].payload)
        assert answer.qid == 7 and answer.answers[0][2] == "93.184.216.34"
        assert engine.counters["udp_inbound_unroutable"] == 1
        assert [s.ids for s in engine._dns_shared.values()] == [{}]

    def test_id_map_bounded(self):
        silent = ("203.0.113.53", 53)  # no script: queries are never answered
        engine = build_engine([])
        inject_udp(engine, ("10.0.0.2", 50000), silent, dnswire.build_query(1, "a.example"))
        engine.pump()
        engine.scheduler.advance_to(8_000_000)
        inject_udp(engine, ("10.0.0.2", 50001), silent, dnswire.build_query(1, "b.example"))
        engine.pump()
        shared = engine._dns_shared[("10.0.0.2", silent)]
        assert sorted(shared.ids) == [1, 2]
        engine.scheduler.advance_to(12_000_000)
        engine.sweep()  # evicts the first flow; the second still holds the socket
        assert [k.src[1] for k, _app_id in shared.ids.values()] == [50001]
        # every id awaiting an answer: a further query is dropped, not sent
        holder = next(iter(shared.ids.values()))
        shared.ids.update((i, holder) for i in range(0x10000))
        sent = len(engine.upstream.datagram_log)
        inject_udp(engine, ("10.0.0.2", 50002), silent, dnswire.build_query(9, "c.example"))
        engine.pump()
        assert len(engine.upstream.datagram_log) == sent
        assert len(shared.ids) == 0x10000


class _InboundVerdict(TrafficPlugin):
    def __init__(self, verdict):
        self.verdict = verdict

    def on_packet_in(self, event, ctx):
        return self.verdict


def _udp_engine_with(verdict):
    engine = build_engine([UDP_ECHO])
    engine.host.register(PluginDescriptor(
        id="in", name="in",
        requested=Permission.OBSERVE | Permission.BLOCK_FLOW | Permission.MODIFY_PAYLOAD),
        _InboundVerdict(verdict))
    inject_udp(engine, ("10.0.0.2", 6001), ("10.3.0.1", 7), b"marco")
    engine.pump()
    return engine, [parse_packet(d) for _t, d in engine.conduit.take_emitted()]


class TestInboundVerdicts:
    def test_inbound_block_drops_reply(self):
        engine, out = _udp_engine_with(Block(BlockMode.DROP_SILENT))
        assert out == []
        assert engine.counters["blocked_packets"] == 1
        assert len(engine.flows) == 1

    def test_inbound_modify_rewrites_reply(self):
        engine, out = _udp_engine_with(Modify(b"polo"))
        assert [p.payload for p in out] == [b"polo"]
        assert engine.counters["modified_packets"] == 1
