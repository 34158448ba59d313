"""TCP proxying: handshake synthesis, data path, teardown, budget."""

import pytest
from helpers import AppPeer, Driver, build_engine, exchange

from mbz.engine import EngineConfig, TcpState
from mbz.host import (
    Block, BlockMode, Modify, Permission, PluginDescriptor, TrafficPlugin,
)
from mbz.packet import (
    ACK, FIN, PSH, RST, SYN, flow_key_of, make_tcp_packet, parse_packet,
    serialize_packet,
)

APP = ("10.0.0.2", 40001)
SRV = ("10.1.0.1", 80)

ECHO = {"cidr": "10.1.0.1/32", "behavior": "echo"}
RESETTER = {"cidr": "10.2.0.1/32", "behavior": "reset"}


def syn_bytes(src=APP, dst=SRV, seq=1000):
    return serialize_packet(make_tcp_packet(src, dst, seq=seq, ack=0, flags=SYN))


class TestHandshake:
    def test_syn_ack_arithmetic(self):
        # SYN seq=1000, fixed local ISN 5000 -> SYN/ACK seq=5000 ack=1001
        engine = build_engine([ECHO], EngineConfig(local_isn=5000))
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1000))
        peer.syn()
        driver.drive()
        synack = peer.packets_seen[0]
        assert synack.transport.flags & (SYN | ACK) == SYN | ACK
        assert synack.transport.seq == 5000
        assert synack.transport.ack == 1001
        assert peer.established

    def test_refusal_emits_rst_with_ack(self):
        engine = build_engine([RESETTER], EngineConfig(local_isn=5000))
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, ("10.2.0.1", 443), isn=1000))
        peer.syn()
        driver.drive()
        rst = peer.packets_seen[0]
        assert rst.transport.flags & RST
        assert rst.transport.ack == 1001
        assert not peer.established

    def test_duplicate_syn_absorbed_single_upstream_connect(self):
        engine = build_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "echo", "delay_us": 5000}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV))
        peer.syn()
        peer.syn()  # retransmit while upstream is still connecting
        driver.drive()
        assert len(engine.upstream.transcripts) == 1
        assert engine.counters["tcp_dup_syn"] == 1
        syn_acks = [p for p in peer.packets_seen
                    if p.transport.flags & (SYN | ACK) == SYN | ACK]
        assert len(syn_acks) == 1

    def test_budget_exhaustion_refuses_with_rst(self):
        engine = build_engine([], EngineConfig(local_isn=5000, socket_budget=2))
        driver = Driver(engine)
        # blackhole destinations hold their pending handles
        for i, port in enumerate((40001, 40002)):
            peer = driver.add_peer(
                AppPeer(engine, ("10.0.0.2", port), ("203.0.113.9", 80)))
            peer.syn()
            driver.drive()
        third = driver.add_peer(
            AppPeer(engine, ("10.0.0.2", 40003), ("203.0.113.9", 80), isn=777))
        third.syn()
        driver.drive()
        assert engine.counters["tcp_refused_budget"] == 1
        rst = third.packets_seen[0]
        assert rst.transport.flags & RST and rst.transport.ack == 778


class TestDataPath:
    def test_in_order_payload_acked_and_forwarded(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1000))
        peer.syn()
        driver.drive()
        peer.send(b"0123456789")
        driver.drive()
        # ACK advanced over exactly those 10 bytes
        acks = [p.transport.ack for p in peer.packets_seen if p.transport.flags & ACK]
        assert 1011 in acks
        transcript = engine.upstream.transcripts[0]
        assert bytes(transcript.received) == b"0123456789"
        assert bytes(peer.received) == b"0123456789"  # echoed back

    def test_out_of_order_segment_dropped_then_converges(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1000))
        peer.syn()
        driver.drive()
        # send the second segment first: engine must drop it and dup-ACK
        base = peer.snd_nxt
        peer.sent_log.extend(b"aaaaabbbbb")
        peer._unacked.extend(b"aaaaabbbbb")
        peer._send_segment(1006, b"bbbbb")  # expecting 1001
        peer.snd_nxt = 1011
        driver.drive()
        assert engine.counters["tcp_out_of_order_dropped"] == 1
        dup_acks = [p.transport.ack for p in peer.packets_seen
                    if p.transport.flags & ACK and not p.payload]
        assert dup_acks[-1] == 1001
        # retransmission from the ACK point converges
        driver.drive_with_retransmits(peer)
        assert bytes(engine.upstream.transcripts[0].received) == b"aaaaabbbbb"
        assert peer.snd_una == 1011

    def test_upstream_bytes_segmented_to_mss(self):
        # 3000 response bytes, mss 1460 -> segments 1460+1460+80, contiguous
        engine = build_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "static",
              "response": "x" * 3000}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1000, mss=1460))
        peer.syn()
        driver.drive()
        peer.send(b"GET /")
        driver.drive()
        sizes = [len(p) for _s, p in peer.data_packets]
        assert sizes == [1460, 1460, 80]
        seqs = [s for s, _p in peer.data_packets]
        assert seqs == [5001, 5001 + 1460, 5001 + 2920]
        assert bytes(peer.received) == b"x" * 3000

    def test_mss_from_syn_respected(self):
        engine = build_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "static", "response": "y" * 1000}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, mss=512))
        peer.syn()
        driver.drive()
        peer.send(b"hi")
        driver.drive()
        assert [len(p) for _s, p in peer.data_packets] == [512, 488]

    def test_app_window_respected(self):
        engine = build_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "static", "response": "z" * 400}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, window=100, mss=1460))
        peer.syn()
        driver.drive()
        peer.send(b"go")
        driver.drive()
        # never more than 100 bytes in flight; ACKs released the rest
        assert max(len(p) for _s, p in peer.data_packets) <= 100
        assert bytes(peer.received) == b"z" * 400

    def test_backpressure_withholds_ack(self):
        engine = build_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "echo",
              "recv_window": 4, "delay_us": 1000}],
            EngineConfig(local_isn=5000, buffer_capacity=8))
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV))
        peer.syn()
        driver.drive()
        peer.send(b"abcdefghijklmnopqrst", chunks=[5, 5, 5, 5])
        driver.drive_with_retransmits(peer)
        assert engine.counters["tcp_backpressure_stalls"] > 0
        assert bytes(engine.upstream.transcripts[0].received) == b"abcdefghijklmnopqrst"


class TestTeardown:
    def test_app_fin_acked_and_upstream_half_closed(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1999))
        peer.syn()
        driver.drive()
        peer.fin()  # fin at seq 2000
        driver.drive()
        fin_acks = [p.transport.ack for p in peer.packets_seen if p.transport.flags & ACK]
        assert 2001 in fin_acks
        assert engine.upstream.transcripts[0].saw_eof

    def test_upstream_close_sends_fin_to_app(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV))
        exchange(driver, peer, b"ping", ending="fin")
        assert peer.engine_fin_seen
        fin_pkt = next(p for p in peer.packets_seen if p.transport.flags & FIN)
        assert fin_pkt.transport.seq == 5001 + 4  # after the 4 echoed bytes

    def test_full_teardown_closes_flow_and_sweep_removes(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV))
        exchange(driver, peer, b"data", ending="fin")
        assert peer.fin_acked and peer.engine_fin_seen
        key = next(iter(engine.flows))
        assert engine.flows[key].state is TcpState.CLOSED
        assert engine.upstream.active_handle_count() == 0
        engine.sweep()
        assert len(engine.flows) == 0
        assert engine.counters["tcp_flows_closed"] == 1

    def test_rst_mid_transfer_releases_within_one_sweep(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV))
        peer.syn()
        driver.drive()
        peer.send(b"partial")
        peer.rst()
        driver.drive()
        assert engine.upstream.active_handle_count() == 0
        engine.sweep()
        assert len(engine.flows) == 0
        assert engine.counters["tcp_flows_reset"] == 1

    def test_no_packet_emitted_for_closed_flow(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV))
        exchange(driver, peer, b"x", ending="rst")
        seen = len(peer.packets_seen)
        # late segment for the closed flow: dropped silently, no RST back
        peer.ack_now()
        driver.drive()
        assert len(peer.packets_seen) == seen
        assert engine.counters["closed_flow_drops"] == 1


class TestOrphanSegments:
    def test_non_syn_without_flow_elicits_rst(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            APP, SRV, seq=4242, ack=0, flags=PSH | ACK, payload=b"stray")))
        engine.pump()
        pkts = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        assert len(pkts) == 1
        # standard endpoint behavior: reset seq mirrors the segment's ack
        assert pkts[0].transport.flags & RST
        assert pkts[0].transport.seq == 0
        assert engine.counters["tcp_rst_no_state"] == 1

    def test_orphan_without_ack_gets_rst_ack(self):
        engine = build_engine([ECHO])
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            APP, SRV, seq=100, ack=0, flags=FIN, payload=b"")))
        engine.pump()
        pkt = parse_packet(engine.conduit.take_emitted()[0][1])
        assert pkt.transport.flags & RST and pkt.transport.flags & ACK
        assert pkt.transport.ack == 101  # FIN occupies one sequence number


class _Blocker(TrafficPlugin):
    """Returns fixed verdicts for flow opens and outbound segments."""

    def __init__(self, on_open=None, on_out=None):
        self.on_open = on_open
        self.on_out = on_out

    def on_flow_open(self, event, ctx):
        return self.on_open

    def on_packet_out(self, event, ctx):
        return self.on_out


def _blocking_engine(scripts, **verdicts):
    engine = build_engine(scripts)
    engine.host.register(PluginDescriptor(
        id="blocker", name="blocker",
        requested=Permission.OBSERVE | Permission.BLOCK_FLOW), _Blocker(**verdicts))
    return engine


def _seg(seq, flags, ack=0, payload=b"", src=APP, dst=SRV):
    return serialize_packet(make_tcp_packet(
        src, dst, seq=seq, ack=ack, flags=flags, payload=payload))


BLACKHOLE = ("203.0.113.9", 80)

# every reset the engine builds outside a flow's own sequence space:
# (engine factory, app segments, expected (seq, ack, flags, window))
SYNTHESIZED_RSTS = {
    "budget_refusal": (
        lambda: build_engine([], EngineConfig(local_isn=5000, socket_budget=1)),
        [_seg(1, SYN, src=("10.0.0.2", 40002), dst=BLACKHOLE),
         _seg(777, SYN, dst=BLACKHOLE)],
        (0, 778, RST | ACK, 0)),
    "upstream_refusal": (
        lambda: build_engine([RESETTER]),
        [_seg(1000, SYN, dst=("10.2.0.1", 443))],
        (0, 1001, RST | ACK, 0)),
    "orphan_with_ack": (
        lambda: build_engine([ECHO]),
        [_seg(4242, PSH | ACK, ack=9999, payload=b"stray")],
        (9999, 0, RST, 0)),
    "orphan_without_ack": (
        lambda: build_engine([ECHO]),
        [_seg(100, FIN, payload=b"ab")],
        (0, 103, RST | ACK, 0)),
    "plugin_reset_on_syn": (
        lambda: _blocking_engine([ECHO], on_open=Block(BlockMode.RESET_APP)),
        [_seg(1000, SYN, payload=b"hi")],
        (0, 1003, RST | ACK, 0)),
    "inject_before_established": (
        lambda: _blocking_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "echo", "delay_us": 5000}],
            on_out=Block(BlockMode.INJECT_RESPONSE, b"notice")),
        [_seg(1000, SYN), _seg(1001, PSH | ACK, payload=b"get")],
        (0, 1001, RST | ACK, 0)),
}


class TestSynthesizedResets:
    @pytest.mark.parametrize("case", sorted(SYNTHESIZED_RSTS))
    def test_rst_fields(self, case):
        make_engine, segments, expected = SYNTHESIZED_RSTS[case]
        engine = make_engine()
        for seg in segments:
            engine.conduit.inject(seg)
        engine.pump()
        out = [parse_packet(d).transport for _t, d in engine.conduit.take_emitted()]
        rsts = [t for t in out if t.flags & RST]
        assert len(rsts) == 1, out
        rst = rsts[0]
        assert (rst.seq, rst.ack, rst.flags, rst.window) == expected


class TestByteFidelityDeterminism:
    def test_fixed_isn_replay_is_reproducible(self):
        def run():
            engine = build_engine([ECHO], EngineConfig(local_isn=5000))
            driver = Driver(engine)
            peer = driver.add_peer(AppPeer(engine, APP, SRV))
            exchange(driver, peer, b"hello world", chunks=[3, 8], ending="fin")
            return [serialize_packet(p) for p in peer.packets_seen]
        assert run() == run()


class _Verdicts(TrafficPlugin):
    """Verdicts computed from each event: on outbound app segments and
    on inbound upstream chunks (not the engine's own control packets)."""

    def __init__(self, out=None, inbound=None):
        self.out = out or (lambda payload: None)
        self.inbound = inbound or (lambda payload: None)

    def on_packet_out(self, event, ctx):
        return self.out(event.payload)

    def on_packet_in(self, event, ctx):
        return self.inbound(event.payload) if event.tcp_flags is None else None


def _verdict_peer(scripts, **verdicts):
    engine = build_engine(scripts)
    engine.host.register(PluginDescriptor(
        id="verdicts", name="verdicts",
        requested=Permission.OBSERVE | Permission.BLOCK_FLOW | Permission.MODIFY_PAYLOAD),
        _Verdicts(**verdicts))
    driver = Driver(engine)
    peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1000))
    peer.syn()
    driver.drive()
    assert peer.established
    return engine, driver, peer


def _wire(packets):
    return [(p.transport.flags, p.transport.seq, p.transport.ack, p.payload)
            for p in packets]


def _syn_acks(peer):
    return [p for p in peer.packets_seen if p.transport.flags & (SYN | ACK) == SYN | ACK]


class TestDuplicateSynOnOpenFlow:
    def test_syn_ack_resent_while_open(self):
        engine = build_engine([ECHO])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1000))
        peer.syn()
        driver.drive()
        peer.syn()  # the app lost our SYN/ACK and retransmits its SYN
        driver.drive()
        assert [(p.transport.seq, p.transport.ack) for p in _syn_acks(peer)] \
            == [(5000, 1001)] * 2
        assert engine.counters["tcp_dup_syn"] == 1

    def test_no_syn_ack_after_app_fin(self):
        engine = build_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "echo", "delay_us": 5000}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1000))
        peer.syn()
        driver.drive()
        peer.fin()
        peer.syn()  # arrives before the upstream answers the half-close
        driver.drive()
        assert len(_syn_acks(peer)) == 1
        assert engine.counters["tcp_dup_syn"] == 1

    def test_no_syn_ack_after_engine_fin(self):
        engine = build_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "static", "response": "bye"}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, SRV, isn=1000))
        peer.syn()
        driver.drive()
        peer.send(b"hi")
        driver.drive()
        assert peer.engine_fin_seen and not peer.fin_sent
        peer.syn()
        driver.drive()
        assert len(_syn_acks(peer)) == 1
        assert engine.counters["tcp_dup_syn"] == 1

    def test_notice_flow_resends_syn_ack_until_notice_sent(self):
        engine = _blocking_engine([], on_open=Block(BlockMode.INJECT_RESPONSE, b"notice"))
        for seg in (_seg(1000, SYN), _seg(1000, SYN), _seg(1001, ACK, ack=5001)):
            engine.conduit.inject(seg)  # the second SYN: our first SYN/ACK was lost
            engine.pump()
        out = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        # the notice goes out with the app's next segment, then a FIN
        assert _wire(out) == [
            (SYN | ACK, 5000, 1001, b""), (SYN | ACK, 5000, 1001, b""),
            (PSH | ACK, 5001, 1001, b"notice"), (FIN | ACK, 5007, 1001, b"")]
        assert [t.dst for t in engine.upstream.transcripts] == []
        assert engine.counters["injected_responses"] == 1


class TestVerdictsOnOpenFlow:
    def test_outbound_reset_resets_app_and_releases_upstream(self):
        engine, driver, peer = _verdict_peer(
            [ECHO], out=lambda p: Block(BlockMode.RESET_APP) if p == b"bad" else None)
        peer.send(b"bad")
        driver.drive()
        assert _wire(peer.packets_seen[1:]) == [(RST | ACK, 5001, 1001, b"")]
        assert peer.reset_seen
        assert engine.upstream.active_handle_count() == 0
        assert bytes(engine.upstream.transcripts[0].received) == b""
        assert engine.counters["tcp_flows_reset"] == 1
        assert engine.counters["blocked_packets"] == 1

    def test_inbound_reset_resets_app_and_releases_upstream(self):
        engine, driver, peer = _verdict_peer(
            [ECHO], inbound=lambda p: Block(BlockMode.RESET_APP))
        peer.send(b"ping")
        driver.drive()
        assert _wire(peer.packets_seen[1:]) == [
            (ACK, 5001, 1005, b""), (RST | ACK, 5001, 1005, b"")]
        assert peer.received == b""
        assert engine.upstream.active_handle_count() == 0
        assert engine.counters["tcp_flows_reset"] == 1
        assert engine.counters["blocked_packets"] == 1

    def test_inbound_chunk_dropped_silently(self):
        engine, driver, peer = _verdict_peer(
            [ECHO], inbound=lambda p: Block(BlockMode.DROP_SILENT) if p == b"drop" else None)
        peer.send(b"drop")
        driver.drive()
        peer.send(b"keep")
        driver.drive()
        assert bytes(peer.received) == b"keep"
        assert engine.counters["blocked_packets"] == 1
        assert engine.upstream.active_handle_count() == 1

    def test_inbound_chunk_modified(self):
        engine, driver, peer = _verdict_peer(
            [ECHO], inbound=lambda p: Modify(p.upper()))
        peer.send(b"hello")
        driver.drive()
        assert bytes(peer.received) == b"HELLO"
        assert engine.counters["modified_packets"] == 1

    def test_mid_flow_notice_releases_upstream(self):
        engine, driver, peer = _verdict_peer(
            [ECHO], out=lambda p: Block(BlockMode.INJECT_RESPONSE, b"notice\n")
            if p.startswith(b"GET") else None)
        peer.send(b"GET /")
        driver.drive()
        assert engine.upstream.active_handle_count() == 0
        assert bytes(engine.upstream.transcripts[0].received) == b""
        assert bytes(peer.received) == b"notice\n"
        peer.fin()
        driver.drive()
        assert _wire(peer.packets_seen[1:]) == [
            (ACK, 5001, 1006, b""), (PSH | ACK, 5001, 1006, b"notice\n"),
            (FIN | ACK, 5008, 1006, b""), (ACK, 5009, 1007, b"")]
        assert peer.fin_acked
        assert engine.counters["injected_responses"] == 1
        assert engine.counters["tcp_flows_closed"] == 1

    def test_notice_after_engine_fin_resets(self):
        # the upstream answered and closed, so our FIN is out before the
        # plugin blocks the app's next segment with a notice
        engine, driver, peer = _verdict_peer(
            [{"cidr": "10.1.0.1/32", "behavior": "static", "response": "bye"}],
            out=lambda p: Block(BlockMode.INJECT_RESPONSE, b"notice\n")
            if p.startswith(b"GET") else None)
        peer.send(b"hi")
        driver.drive()
        assert peer.engine_fin_seen
        peer.send(b"GET /")
        driver.drive()
        assert _wire(peer.packets_seen[-1:]) == [(RST | ACK, 5005, 1003, b"")]
        assert peer.reset_seen
        assert bytes(peer.received) == b"bye"
        assert engine.upstream.active_handle_count() == 0
        assert engine.counters["injected_responses"] == 0
        assert engine.counters["tcp_flows_reset"] == 1


class TestAckOfUnsentData:
    """RFC 9293 section 3.10.7.4: a segment that acks bytes the engine
    never sent is answered with an ACK and dropped, its window, data and
    FIN unused."""

    def _open_with_900_unacked(self):
        # the app's SYN offers a 900 B window, and the upstream's 5000 B
        # answer to the request fills it: 900 B sent, none acked
        engine = build_engine(
            [{"cidr": "10.1.0.1/32", "behavior": "static", "response": "x" * 5000}])
        inject = engine.conduit.inject
        inject(serialize_packet(make_tcp_packet(APP, SRV, seq=1000, ack=0, flags=SYN,
                                                window=900)))
        engine.pump()
        inject(serialize_packet(make_tcp_packet(APP, SRV, seq=1001, ack=5001,
                                                flags=PSH | ACK, window=900,
                                                payload=b"GET /")))
        engine.pump()
        sent = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        assert [p.payload for p in sent if p.payload] == [b"x" * 900]
        return engine

    def _wire_out(self, engine):
        return _wire([parse_packet(d) for _t, d in engine.conduit.take_emitted()])

    def test_answered_with_an_ack_and_dropped(self):
        engine = self._open_with_900_unacked()
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            APP, SRV, seq=1006, ack=5901 + 100_000, flags=PSH | ACK | FIN,
            window=1000, payload=b"more")))
        engine.pump()
        # no byte past the 900 B window, and neither the data nor the FIN taken
        assert self._wire_out(engine) == [(ACK, 5901, 1006, b"")]
        assert bytes(engine.upstream.transcripts[0].received) == b"GET /"
        assert not engine.flows[flow_key_of(parse_packet(syn_bytes()))].app_fin_seen

    def test_the_window_holds_after_it(self):
        engine = self._open_with_900_unacked()
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            APP, SRV, seq=1006, ack=5901 + 100_000, flags=ACK, window=1000)))
        engine.pump()
        engine.conduit.take_emitted()
        # a true ACK of 800 B with a 1000 B window leaves room for 900 B more
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            APP, SRV, seq=1006, ack=5801, flags=ACK, window=1000)))
        engine.pump()
        assert self._wire_out(engine) == [(PSH | ACK, 5901, 1006, b"x" * 900)]
