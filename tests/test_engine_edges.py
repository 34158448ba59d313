"""Engine hardening: MTU limits, sequence wraparound, window edges."""

from helpers import AppPeer, Driver, build_engine

from mbz.engine import EngineConfig, seq_add, seq_diff
from mbz.host import EventKind, Modify, Permission, PluginDescriptor, TrafficPlugin
from mbz.packet import (
    ACK, PSH, SYN, make_tcp_packet, make_udp_packet, mss_option, parse_packet,
    serialize_packet,
)


class TestSeqArithmetic:
    def test_seq_add_wraps(self):
        assert seq_add(0xFFFFFFFF, 1) == 0
        assert seq_add(0xFFFFFF00, 0x200) == 0x100

    def test_seq_diff_signed_near_zero(self):
        assert seq_diff(5, 3) == 2
        assert seq_diff(3, 5) == -2
        assert seq_diff(0x10, 0xFFFFFFF0) == 0x20
        assert seq_diff(0xFFFFFFF0, 0x10) == -0x20


class TestMtuLimits:
    def test_absurd_syn_mss_clamped_to_mtu(self):
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "static",
                                "response": "z" * 4000}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 40000),
                                       ("10.1.0.1", 80), mss=9000))
        peer.syn()
        driver.drive()
        peer.send(b"go", chunks=[2])
        driver.drive()
        assert bytes(peer.received) == b"z" * 4000
        assert max(len(p) for _s, p in peer.data_packets) <= 1460  # mtu 1500 - 40

    def test_oversized_udp_reply_dropped_not_crashed(self):
        # an 8 KB datagram fits IPv4 but not the 1500-byte tun MTU; the
        # engine forwards it upstream fine and drops the oversized echo
        engine = build_engine([{"cidr": "10.3.0.1/32", "behavior": "echo"}])
        big = serialize_packet(make_udp_packet(
            ("10.0.0.2", 6001), ("10.3.0.1", 9), payload=b"x" * 8000),
            mtu=9000)
        engine.conduit.inject(big)
        engine.pump()
        assert engine.upstream.datagram_log == [(("10.3.0.1", 9), b"x" * 8000)]
        assert engine.conduit.take_emitted() == []
        assert engine.counters["emit_oversized_dropped"] == 1


class TestSequenceWraparound:
    def test_transfer_across_isn_wrap(self):
        # both ISNs sit just below 2^32 so data crosses the wrap point
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "echo"}],
                              EngineConfig(local_isn=0xFFFFFF80))
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 40000),
                                       ("10.1.0.1", 80), isn=0xFFFFFFF0))
        peer.syn()
        driver.drive()
        assert peer.established
        payload = bytes(range(256)) * 4  # 1024 bytes, wraps both directions
        peer.send(payload, chunks=[100] * 11)
        driver.drive_with_retransmits(peer)
        peer.fin()
        driver.drive()
        transcript = engine.upstream.transcripts[0]
        assert bytes(transcript.received) == payload
        assert bytes(peer.received) == payload
        assert peer.fin_acked and peer.engine_fin_seen


class TestWindowEdges:
    def test_zero_window_stalls_then_update_resumes(self):
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "static",
                                "response": "r" * 300}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 40000),
                                       ("10.1.0.1", 80), window=0))
        peer.syn()
        driver.drive()
        peer.window = 0
        peer.send(b"req", chunks=[3])
        driver.drive()
        assert peer.received == bytearray()  # nothing fits a zero window
        # window update: plain ACK advertising room again
        peer.window = 65535
        peer.ack_now()
        driver.drive()
        assert bytes(peer.received) == b"r" * 300

    def test_data_arriving_before_syn_ack_is_deferred(self):
        # app data racing ahead of the handshake is held and forwarded
        # once the upstream connect completes
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "echo",
                                "delay_us": 5000}],
                              EngineConfig(local_isn=5000))
        syn = make_tcp_packet(("10.0.0.2", 40000), ("10.1.0.1", 80),
                              seq=1000, ack=0, flags=SYN,
                              options=mss_option(1460))
        early = make_tcp_packet(("10.0.0.2", 40000), ("10.1.0.1", 80),
                                seq=1001, ack=0, flags=PSH | ACK,
                                payload=b"early")
        engine.conduit.inject(serialize_packet(syn))
        engine.conduit.inject(serialize_packet(early))
        engine.pump()
        assert bytes(engine.upstream.transcripts[0].received) == b"early"
        out = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        synack = out[0].transport
        assert synack.flags & (SYN | ACK) == SYN | ACK
        acks = [p.transport.ack for p in out if p.transport.flags & ACK]
        assert 1006 in acks  # the deferred bytes were consumed

    def test_syn_with_payload_deferred_until_established(self):
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "echo"}],
                              EngineConfig(local_isn=5000))
        syn = make_tcp_packet(("10.0.0.2", 40000), ("10.1.0.1", 80),
                              seq=1000, ack=0, flags=SYN, payload=b"fast")
        engine.conduit.inject(serialize_packet(syn))
        engine.pump()
        assert bytes(engine.upstream.transcripts[0].received) == b"fast"

    def test_data_racing_a_black_holed_connect_is_bounded(self):
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "blackhole"}],
                              EngineConfig(local_isn=5000))
        app, srv = ("10.0.0.2", 40000), ("10.1.0.1", 80)
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            app, srv, seq=1000, ack=0, flags=SYN, options=mss_option(1460))))
        for i in range(200):
            engine.conduit.inject(serialize_packet(make_tcp_packet(
                app, srv, seq=1001 + i * 1460, ack=0, flags=PSH | ACK,
                payload=bytes([i % 251]) * 1460)))
        engine.pump()
        (flow,) = engine.flows.values()
        fits = engine.config.buffer_capacity // 1460
        assert len(flow.deferred_payload) == flow.deferred_app_len == fits * 1460
        # the first segment past the bound stalls; the ones after it are out of order
        assert engine.counters["tcp_backpressure_stalls"] == 1
        assert engine.counters["tcp_out_of_order_dropped"] == 200 - fits - 1
        assert engine.counters["tcp_retransmissions"] == 0
        assert engine.conduit.take_emitted() == []  # nothing before the SYN/ACK

    def test_racing_retransmission_before_the_syn_ack_is_counted(self):
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "blackhole"}],
                              EngineConfig(local_isn=5000))
        app, srv = ("10.0.0.2", 40000), ("10.1.0.1", 80)
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            app, srv, seq=1000, ack=0, flags=SYN, options=mss_option(1460))))
        for seq in (1001, 1001, 1007):  # in order, again, then past a gap
            engine.conduit.inject(serialize_packet(make_tcp_packet(
                app, srv, seq=seq, ack=0, flags=PSH | ACK, payload=b"abc")))
        engine.pump()
        (flow,) = engine.flows.values()
        assert flow.deferred_payload == b"abc"
        assert engine.counters["tcp_retransmissions"] == 1
        assert engine.counters["tcp_out_of_order_dropped"] == 1
        assert engine.counters["tcp_backpressure_stalls"] == 0

    def test_racing_data_over_the_bound_is_retransmitted_after_handshake(self):
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "echo",
                                "delay_us": 5000}], EngineConfig(local_isn=5000))
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 40000), ("10.1.0.1", 80)))
        payload = bytes(range(256)) * 400  # 102,400 bytes, past the 65,536 bound
        peer.syn()
        peer.send(payload)  # all of it before the SYN/ACK
        driver.drive_with_retransmits(peer)
        assert engine.counters["tcp_backpressure_stalls"] > 0
        peer.fin()
        driver.drive()
        assert bytes(engine.upstream.transcripts[0].received) == payload
        assert bytes(peer.received) == payload


class Rewrite(TrafficPlugin):
    """Rewrites app payloads found in `table`, on opens and later packets."""

    def __init__(self, table):
        self.table = table

    def on_flow_open(self, event, ctx):
        if event.payload in self.table:
            return Modify(self.table[event.payload])
        return None

    on_packet_out = on_flow_open


class TestRewritesBeforeEstablishment:
    APP, SRV = ("10.0.0.2", 40000), ("10.1.0.1", 80)

    def engine_with(self, table, delay_us=0):
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "echo",
                                "delay_us": delay_us}], EngineConfig(local_isn=5000))
        engine.host.register(PluginDescriptor(
            id="rw", name="rw",
            requested=Permission.OBSERVE | Permission.MODIFY_PAYLOAD), Rewrite(table))
        return engine

    def acks_to_app(self, engine):
        return [parse_packet(d).transport.ack for _t, d in engine.conduit.take_emitted()]

    def test_modify_on_syn_payload_reaches_upstream(self):
        engine = self.engine_with({b"hi": b"REWRITTEN"})
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            self.APP, self.SRV, seq=1000, ack=0, flags=SYN, payload=b"hi")))
        engine.pump()
        assert bytes(engine.upstream.transcripts[0].received) == b"REWRITTEN"
        assert engine.counters["modified_packets"] == 1
        assert 1003 in self.acks_to_app(engine)  # the app's two bytes, not nine

    def test_modify_on_data_racing_the_syn_ack_reaches_upstream(self):
        engine = self.engine_with({b"early": b"REWRITTEN-EARLY"}, delay_us=5000)
        for seq, flags, payload in ((1000, SYN, b""), (1001, PSH | ACK, b"early"),
                                    (1006, PSH | ACK, b"more")):
            engine.conduit.inject(serialize_packet(make_tcp_packet(
                self.APP, self.SRV, seq=seq, ack=0, flags=flags, payload=payload)))
        engine.pump()
        # the second segment follows the app's five bytes, not the rewrite's fifteen
        assert bytes(engine.upstream.transcripts[0].received) == b"REWRITTEN-EARLYmore"
        assert engine.counters["modified_packets"] == 1
        assert 1010 in self.acks_to_app(engine)
