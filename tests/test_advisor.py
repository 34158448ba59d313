"""Protocol advisor: RTT sampling, loss estimation, recommendation gate."""

from helpers import AppPeer, Driver, build_engine

from mbz.engine import EngineConfig
from mbz.host import Permission, PluginDescriptor, PluginEvent
from mbz.plugins.advisor import (
    KEEP_TCP, WRAP_LOSS_TOLERANT, AdvisorPlugin, PathStats, recommend,
)

SRV = ("10.1.0.1", 80)


def install_advisor(engine, **kw):
    advisor = AdvisorPlugin(**kw)
    engine.host.register(PluginDescriptor(
        id="advisor", name="protocol-advisor", requested=Permission.OBSERVE),
        advisor)
    return advisor


def run_flows(engine, advisor, n_flows, dup_every=0, segments=4):
    """Each flow sends `segments` data segments; every `dup_every`-th
    segment (per flow) is sent twice to fake app-side loss recovery."""
    driver = Driver(engine)
    for i in range(n_flows):
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 41000 + i), SRV))
        peer.syn()
        driver.drive()
        assert peer.established
        for s in range(segments):
            data = bytes([65 + s]) * 10
            seq = peer.snd_nxt
            peer.send(data, chunks=[10])
            if dup_every and s % dup_every == dup_every - 1:
                peer._send_segment(seq, data)  # duplicate: same seq, same length
            driver.drive()
        peer.fin()
        driver.drive()
    return advisor


class TestRecommendationFunction:
    def test_pure_function_of_stats(self):
        stats = PathStats(syn_rtts_us=[100] * 25, data_segments=100,
                          retransmissions=5)
        assert recommend(stats, 0.02, 20) == WRAP_LOSS_TOLERANT
        assert recommend(stats, 0.10, 20) == KEEP_TCP
        stats_few = PathStats(syn_rtts_us=[100] * 10, data_segments=100,
                              retransmissions=5)
        assert recommend(stats_few, 0.02, 20) == KEEP_TCP

    def test_no_segments_means_no_loss(self):
        assert PathStats().loss_estimate == 0.0


class TestScriptedPaths:
    ECHO = {"cidr": "10.1.0.1/32", "behavior": "echo", "delay_us": 1500}

    def test_lossless_path_25_flows_keeps_tcp(self):
        engine = build_engine([self.ECHO])
        advisor = install_advisor(engine)
        run_flows(engine, advisor, 25)
        report = advisor.report()
        assert len(report) == 1
        assert report[0]["samples"] == 25
        assert report[0]["retransmissions"] == 0
        assert report[0]["recommendation"] == KEEP_TCP

    def test_lossy_path_25_flows_recommends_wrap(self):
        # one duplicate per 4 original segments: 4 originals + 1 dup per
        # flow = 20% duplicate share, well over the 2% threshold
        engine = build_engine([self.ECHO])
        advisor = install_advisor(engine)
        run_flows(engine, advisor, 25, dup_every=4)
        report = advisor.report()
        assert report[0]["retransmissions"] == 25
        assert report[0]["loss_estimate"] > 0.02
        assert report[0]["recommendation"] == WRAP_LOSS_TOLERANT

    def test_below_min_samples_keeps_tcp(self):
        engine = build_engine([self.ECHO])
        advisor = install_advisor(engine)
        run_flows(engine, advisor, 10, dup_every=4)
        report = advisor.report()
        assert report[0]["samples"] == 10
        assert report[0]["loss_estimate"] > 0.02
        assert report[0]["recommendation"] == KEEP_TCP

    def test_syn_rtt_reflects_path_delay(self):
        engine = build_engine([self.ECHO])
        advisor = install_advisor(engine)
        run_flows(engine, advisor, 3, segments=1)
        report = advisor.report()
        assert report[0]["syn_rtt_us_median"] == 1500  # scripted one-way delay

    def test_reproducible_under_seed(self):
        def run():
            engine = build_engine([self.ECHO], EngineConfig(local_isn=5000))
            advisor = install_advisor(engine)
            run_flows(engine, advisor, 5, dup_every=2)
            return advisor.report()
        assert run() == run()


class TestPerFlowState:
    ECHO = {"cidr": "10.1.0.1/32", "behavior": "echo", "delay_us": 1500}

    def test_closed_flows_leave_no_state(self):
        engine = build_engine([self.ECHO])
        advisor = install_advisor(engine)
        run_flows(engine, advisor, 3, dup_every=2)
        assert engine.counters["tcp_flows_closed"] == 3
        assert advisor._seen == {} and advisor._syn_at == {}
        # 4 segments and 2 duplicates per flow
        assert advisor.report()[0]["data_segments"] == 18
        assert advisor.report()[0]["retransmissions"] == 6

    def test_repeat_within_a_flow_counts_once(self):
        from mbz.host import DeviceContext, EventKind, PluginContext
        from mbz.packet import FlowKey

        advisor = AdvisorPlugin()
        key = FlowKey(6, ("10.0.0.2", 41000), SRV)

        def ctx(kind):
            return PluginContext(key=key, app_label="", direction="out", kind=kind,
                                 device=DeviceContext(), now_us=0)

        advisor.on_flow_open(PluginEvent(EventKind.FLOW_OPEN), ctx(EventKind.FLOW_OPEN))
        for seq in (1, 11, 1, 21):
            advisor.on_packet_out(
                PluginEvent(EventKind.PACKET_OUT, payload=b"x" * 10, tcp_seq=seq),
                ctx(EventKind.PACKET_OUT))
        assert advisor.paths[SRV].retransmissions == 1
        assert advisor.paths[SRV].data_segments == 4
        assert advisor._seen == {key: {(1, 10), (11, 10), (21, 10)}}
        advisor.on_flow_close(PluginEvent(EventKind.FLOW_CLOSE), ctx(EventKind.FLOW_CLOSE))
        assert key not in advisor._seen and key not in advisor._syn_at
        assert advisor.paths[SRV].retransmissions == 1
