"""What the engine writes toward the app, on its one outbound packet per
protocol, and what it records of the app's packets."""

from helpers import AppPeer, Driver, build_engine, counting

from mbz import dnswire
from mbz import host as host_module
from mbz.engine import TcpState
from mbz.host import Block, BlockMode, Permission, PluginDescriptor, TrafficPlugin
from mbz.packet import (
    ACK, PSH, SYN, FlowKey, PROTO_TCP, PROTO_UDP, flow_key_of, make_tcp_packet,
    make_udp_packet, parse_packet, serialize_packet,
)
from mbz.upstream import EV_REFUSED, EV_RESET

ECHO = {"cidr": "10.1.0.0/24", "behavior": "echo"}
RESOLVER = {"cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns",
            "answers": {"example.com": ["93.184.216.34"]}}
APP = ("10.0.0.2", 40001)
BLACKHOLE = ("203.0.113.9", 80)


class TestOutboundPacketPerFlow:
    def test_interleaved_flows_each_get_their_own_inverted_five_tuple(self):
        engine = build_engine([ECHO, RESOLVER])
        driver = Driver(engine)
        a = driver.add_peer(AppPeer(engine, ("10.0.0.2", 40001), ("10.1.0.1", 80)))
        b = driver.add_peer(AppPeer(engine, ("10.0.0.3", 40002), ("10.1.0.2", 443),
                                    isn=77))
        dns_src = ("10.0.0.2", 50001)
        a.syn()
        b.syn()
        engine.conduit.inject(serialize_packet(make_udp_packet(
            dns_src, ("8.8.8.8", 53), payload=dnswire.build_query(9, "example.com"))))
        driver.drive()
        a.send(b"a" * 4000)
        b.send(b"b" * 3000)
        engine.conduit.inject(serialize_packet(make_udp_packet(
            dns_src, ("8.8.8.8", 53), payload=dnswire.build_query(10, "example.com"))))
        driver.drive_with_retransmits(a)
        driver.drive_with_retransmits(b)
        a.fin()
        b.fin()
        driver.drive()

        assert bytes(a.received) == b"a" * 4000 and bytes(b.received) == b"b" * 3000
        assert a.engine_fin_seen and b.engine_fin_seen
        for peer in (a, b):
            inverted = FlowKey(PROTO_TCP, peer.dst, peer.src)
            assert len(peer.packets_seen) > 5
            assert {flow_key_of(p) for p in peer.packets_seen} == {inverted}
        answers = driver.unrouted
        assert len(answers) == 2
        assert {flow_key_of(p) for p in answers} == {
            FlowKey(PROTO_UDP, ("8.8.8.8", 53), dns_src)}
        assert [dnswire.parse_message(p.payload).qid for p in answers] == [9, 10]

    def test_capture_entries_never_change_after_a_later_emit(self):
        final = []
        engine = build_engine([ECHO], sink=final)
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, ("10.1.0.1", 80)))
        peer.syn()
        driver.drive()
        snapshots = []
        for n in (1, 1460, 2921, 7):
            peer.send(bytes([n & 0xFF]) * n)
            driver.drive_with_retransmits(peer)
            snapshots.append([(ts, bytes(data)) for ts, data in final])
        peer.fin()
        driver.drive()
        for snapshot in snapshots:
            assert final[:len(snapshot)] == snapshot
        assert all(type(data) is bytes for _ts, data in final)
        # each segment the engine wrote reparses to what the app received
        written = [parse_packet(data) for _ts, data in final
                   if parse_packet(data).ip.src_addr == "10.1.0.1"]
        assert b"".join(p.payload for p in written) == bytes(peer.received)


class TestUntouchedTraffic:
    def test_no_outcome_object_and_every_app_packet_recorded(self, monkeypatch):
        # with an empty chain no verdict takes effect: the engine goes on
        # with each packet's own payload and still records every app packet
        actions = counting(monkeypatch, host_module, "EffectiveAction")
        sink = []
        engine = build_engine([ECHO, RESOLVER], sink=sink)
        read = []
        read_packet = engine.conduit.read_packet

        def recorded_read():
            packet = read_packet()
            read.append(packet[1])
            return packet
        monkeypatch.setattr(engine.conduit, "read_packet", recorded_read)
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, APP, ("10.1.0.1", 80)))
        peer.syn()
        engine.conduit.inject(serialize_packet(make_udp_packet(
            ("10.0.0.2", 50001), ("8.8.8.8", 53), payload=dnswire.build_query(9, "example.com"))))
        driver.drive()
        peer.send(b"q" * 3000)
        driver.drive_with_retransmits(peer)
        peer.fin()
        driver.drive()
        assert bytes(peer.received) == b"q" * 3000 and peer.engine_fin_seen
        assert dnswire.parse_message(driver.unrouted[0].payload).answers \
            == [("example.com", dnswire.QTYPE_A, "93.184.216.34")]
        assert actions == []
        from_app = [data for _ts, data in sink if data[12:14] == bytes([10, 0])]  # 10.0/16
        assert len(read) > 5 and from_app == read


class _ResetOnData(TrafficPlugin):
    def on_packet_out(self, event, ctx):
        return Block(BlockMode.RESET_APP) if event.payload else None


class _NoticeOnData(TrafficPlugin):
    def on_packet_out(self, event, ctx):
        return Block(BlockMode.INJECT_RESPONSE, b"blocked") if event.payload else None


def _connecting_flow(engine):
    """A flow whose upstream connect never completes."""
    engine.conduit.inject(serialize_packet(make_tcp_packet(
        APP, BLACKHOLE, seq=1000, ack=0, flags=SYN)))
    engine.pump()
    flow = engine.flows[FlowKey(PROTO_TCP, APP, BLACKHOLE)]
    assert flow.state is TcpState.UPSTREAM_CONNECTING
    assert engine.conduit.take_emitted() == []
    return flow


# a reset sent before the SYN/ACK acks the app's SYN (ack 1001 for ISN
# 1000), as an app in SYN-SENT accepts no other, with seq 0 and window 0
RST_BEFORE_ESTABLISHED = bytes.fromhex(
    "45000028000040004006f4c4cb0071090a000002"  # 203.0.113.9 > 10.0.0.2
    "00509c4100000000000003e950140000c94a0000")  # 80 > 40001, RST|ACK


class TestResetWhileConnecting:
    def test_upstream_reset(self):
        engine = build_engine([])
        flow = _connecting_flow(engine)
        flow.stream._emit(EV_RESET)
        assert [data for _ts, data in engine.conduit.take_emitted()] == [
            RST_BEFORE_ESTABLISHED]
        assert engine.counters["tcp_flows_reset"] == 1

    def test_upstream_refused(self):
        engine = build_engine([])
        flow = _connecting_flow(engine)
        flow.stream._emit(EV_REFUSED)
        assert [data for _ts, data in engine.conduit.take_emitted()] == [
            RST_BEFORE_ESTABLISHED]
        assert engine.counters["tcp_refused_upstream"] == 1
        assert engine.counters["tcp_flows_reset"] == 0

    def test_plugin_reset_on_data_racing_the_syn_ack(self):
        self._block_data_racing_the_syn_ack(_ResetOnData())

    def test_plugin_inject_on_data_racing_the_syn_ack(self):
        # no payload can go before the SYN/ACK, so the notice becomes a reset
        self._block_data_racing_the_syn_ack(_NoticeOnData())

    def _block_data_racing_the_syn_ack(self, plugin):
        engine = build_engine([])
        engine.host.register(PluginDescriptor(
            id="blocker", name="blocker",
            requested=Permission.OBSERVE | Permission.BLOCK_FLOW), plugin)
        _connecting_flow(engine)
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            APP, BLACKHOLE, seq=1001, ack=0, flags=PSH | ACK, payload=b"early")))
        engine.pump()
        assert [data for _ts, data in engine.conduit.take_emitted()] == [
            RST_BEFORE_ESTABLISHED]
        assert engine.counters["tcp_flows_reset"] == 1
        assert engine.counters["injected_responses"] == 0
