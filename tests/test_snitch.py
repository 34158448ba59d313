"""Snitch accounting: org attribution, request counting, QUIC flagging."""

import pytest
from helpers import AppPeer, Driver, build_engine

from mbz import dnswire, tlswire
from mbz.host import (
    DeviceContext, EventKind, Permission, PluginContext, PluginDescriptor,
    PluginEvent, PluginHost,
)
from mbz.packet import FlowKey, make_udp_packet, serialize_packet
from mbz.plugins.snitch import OrgMap, OrgMapError, SnitchPlugin

ORG_CSV_PAIRS = [
    (".doubleclick.net", "doubleclick"),
    (".graph.facebook.com", "facebook"),
    (".appspot.com", "google-appspot"),
    ("8.8.8.8/32", "resolver"),
]

RESOLVER_SCRIPT = {
    "cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns",
    "answers": {
        "ads.doubleclick.net": ["10.9.1.1"],
        "graph.facebook.com": ["10.9.2.1"],
        "thing.appspot.com": ["10.9.3.1"],
    },
}
ECHO_SCRIPT = {"cidr": "10.9.0.0/16", "behavior": "echo"}


def make_ctx(key, app="app", kind=EventKind.PACKET_OUT, direction="out", now=0):
    return PluginContext(key=key, app_label=app, direction=direction,
                         kind=kind, device=DeviceContext(), now_us=now)


def install_snitch(engine, **kw):
    snitch = SnitchPlugin(OrgMap.from_pairs(ORG_CSV_PAIRS), **kw)
    engine.host.register(PluginDescriptor(
        id="snitch", name="snitch", requested=Permission.OBSERVE), snitch)
    return snitch


class TestOrgMap:
    def test_suffix_and_cidr_rules(self):
        org_map = OrgMap.from_pairs(ORG_CSV_PAIRS)
        assert org_map.lookup("ads.doubleclick.net", "1.1.1.1") == "doubleclick"
        assert org_map.lookup("doubleclick.net", "1.1.1.1") == "doubleclick"
        assert org_map.lookup("", "8.8.8.8") == "resolver"
        assert org_map.lookup("nowhere.example", "203.0.113.1") == "unknown"

    def test_first_match_wins(self):
        org_map = OrgMap.from_pairs([(".x.example", "first"), (".example", "second")])
        assert org_map.lookup("a.x.example", "0.0.0.0") == "first"
        assert org_map.lookup("b.example", "0.0.0.0") == "second"

    def test_csv_loading(self, tmp_path):
        path = tmp_path / "orgs.csv"
        path.write_text("# comment\n.doubleclick.net,doubleclick\n8.8.8.8/32,resolver\n")
        org_map = OrgMap.from_csv(path)
        assert org_map.lookup("doubleclick.net", "1.2.3.4") == "doubleclick"


    def test_csv_field_over_the_size_limit_is_an_org_map_error(self, tmp_path):
        path = tmp_path / "orgs.csv"
        path.write_text(".x.example," + "x" * 200_000 + "\n")
        with pytest.raises(OrgMapError, match="field larger"):
            OrgMap.from_csv(path)


class TestAggregation:
    def test_hand_counted_org_aggregation(self):
        # oracle by hand count: 12 + 3 + 1 flows to three organizations
        engine = build_engine([RESOLVER_SCRIPT, ECHO_SCRIPT])
        driver = Driver(engine)
        snitch = install_snitch(engine, first_party_orgs={"resolver"})
        queries = [("ads.doubleclick.net", 1), ("graph.facebook.com", 2),
                   ("thing.appspot.com", 3)]
        for qname, qid in queries:
            engine.conduit.inject(serialize_packet(make_udp_packet(
                ("10.0.0.2", 50000 + qid), ("8.8.8.8", 53),
                payload=dnswire.build_query(qid, qname))), app_label="snapchat")
        engine.pump()
        engine.conduit.take_emitted()

        plan = [("10.9.1.1", 12), ("10.9.2.1", 3), ("10.9.3.1", 1)]
        port = 41000
        for ip, count in plan:
            for _ in range(count):
                peer = driver.add_peer(AppPeer(
                    engine, ("10.0.0.2", port), (ip, 443), app_label="snapchat"))
                peer.syn()
                port += 1
        driver.drive()

        report = snitch.report()
        assert report["third_party"]["requests_per_org"] == [
            ["doubleclick", 12], ["facebook", 3], ["google-appspot", 1]]
        assert report["third_party"]["total_flows"] == 16
        assert report["first_party_flows"] == 3  # the DNS queries themselves

    def test_reused_five_tuple_counts_both_flows(self):
        # the first flow is idle-evicted, then the app reopens the same five-tuple
        engine = build_engine([ECHO_SCRIPT])
        snitch = install_snitch(engine)
        for at_us in (0, 31_000_000):
            engine.scheduler.advance_to(at_us)
            engine.sweep()
            engine.conduit.inject(serialize_packet(make_udp_packet(
                ("10.0.0.2", 6001), ("10.9.0.1", 9), payload=b"ping")), app_label="app")
            engine.pump()
        assert engine.counters["udp_flows_created"] == 2
        assert engine.counters["udp_flows_evicted_idle"] == 1
        report = snitch.report()
        assert report["third_party"]["total_flows"] == 2
        assert report["per_app"]["app"]["flows_per_org"] == [["unknown", 2]]
        assert len(snitch.records) == 1  # the second flow is still open
        # its close folds it into the counts the report already showed
        engine.scheduler.advance_to(62_000_000)
        engine.sweep()
        assert engine.counters["udp_flows_evicted_idle"] == 2
        assert snitch.records == {} and snitch.report() == report

    def test_empty_store_empty_report(self):
        engine = build_engine([])
        snitch = install_snitch(engine)
        report = snitch.report()
        assert report["third_party"]["total_flows"] == 0
        assert report["third_party"]["requests_per_org"] == []
        assert report["per_app"] == {}

    def test_tie_counts_break_lexicographically(self):
        snitch = SnitchPlugin(OrgMap.from_pairs([(".b.example", "bravo"),
                                                 (".a.example", "alpha")]))
        for i, domain in enumerate(("b.example", "a.example")):
            key = FlowKey(6, ("10.0.0.2", 40000 + i), (f"10.9.9.{i+1}", 80))
            snitch.tracker.ip_to_name[key.dst[0]] = domain
            snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN),
                                make_ctx(key, kind=EventKind.FLOW_OPEN))
        ranked = snitch.report()["third_party"]["requests_per_org"]
        assert ranked == [["alpha", 1], ["bravo", 1]]


class TestRequestCounting:
    def test_udp_burst_gap_starts_new_request(self):
        snitch = SnitchPlugin(OrgMap.from_pairs([]))
        key = FlowKey(17, ("10.0.0.2", 6000), ("10.9.9.9", 5004))
        snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN, payload=b"a"),
                            make_ctx(key, kind=EventKind.FLOW_OPEN, now=0))
        # inside the burst window
        snitch.on_packet_out(PluginEvent(EventKind.PACKET_OUT, payload=b"b"),
                             make_ctx(key, now=900_000))
        # 1.1 s gap: a new request
        snitch.on_packet_out(PluginEvent(EventKind.PACKET_OUT, payload=b"c"),
                             make_ctx(key, now=2_000_000))
        assert snitch.records[key].request_count == 2

    def test_tcp_counts_once_per_flow_open(self):
        snitch = SnitchPlugin(OrgMap.from_pairs([]))
        key = FlowKey(6, ("10.0.0.2", 6000), ("10.9.9.9", 80))
        snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN),
                            make_ctx(key, kind=EventKind.FLOW_OPEN, now=0))
        for t in (1_000_000, 5_000_000):
            snitch.on_packet_out(PluginEvent(EventKind.PACKET_OUT, payload=b"x"),
                                 make_ctx(key, now=t))
        assert snitch.records[key].request_count == 1


class TestProtocolDetection:
    def test_quic_long_header_flagged(self):
        snitch = SnitchPlugin(OrgMap.from_pairs([]))
        key = FlowKey(17, ("10.0.0.2", 6000), ("10.9.9.9", 443))
        quic = bytes([0xC3, 0, 0, 0, 1]) + b"quic-initial"
        snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN, payload=quic),
                            make_ctx(key, kind=EventKind.FLOW_OPEN))
        assert snitch.records[key].protocol == "QUIC-over-UDP"

    def test_short_header_stays_udp(self):
        snitch = SnitchPlugin(OrgMap.from_pairs([]))
        key = FlowKey(17, ("10.0.0.2", 6000), ("10.9.9.9", 443))
        short = bytes([0x43, 0, 0, 0, 1]) + b"payload"
        snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN, payload=short),
                            make_ctx(key, kind=EventKind.FLOW_OPEN))
        assert snitch.records[key].protocol == "UDP"

    def test_udp_443_needs_version_bytes(self):
        snitch = SnitchPlugin(OrgMap.from_pairs([]))
        key = FlowKey(17, ("10.0.0.2", 6000), ("10.9.9.9", 443))
        snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN, payload=b"\xc3\x00"),
                            make_ctx(key, kind=EventKind.FLOW_OPEN))
        assert snitch.records[key].protocol == "UDP"


class TestDomainAttribution:
    def test_sni_beats_ip_when_no_dns_seen(self):
        snitch = SnitchPlugin(OrgMap.from_pairs([(".secret.example", "sni-org")]))
        key = FlowKey(6, ("10.0.0.2", 6000), ("203.0.113.10", 443))
        snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN),
                            make_ctx(key, kind=EventKind.FLOW_OPEN))
        hello = tlswire.build_client_hello("www.secret.example")
        snitch.on_packet_out(PluginEvent(EventKind.PACKET_OUT, payload=hello),
                             make_ctx(key))
        ranked = snitch.report()["third_party"]["requests_per_org"]
        assert ranked == [["sni-org", 1]]

    def test_record_keeps_the_first_server_name(self):
        snitch = SnitchPlugin(OrgMap.from_pairs([(".first.example", "first")]))
        key = FlowKey(6, ("10.0.0.2", 6001), ("203.0.113.11", 443))
        snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN),
                            make_ctx(key, kind=EventKind.FLOW_OPEN))
        for payload in (b"not a hello", tlswire.build_client_hello("www.first.example"),
                        tlswire.build_client_hello("www.second.example")):
            snitch.on_packet_out(PluginEvent(EventKind.PACKET_OUT, payload=payload),
                                 make_ctx(key))
        assert snitch.records[key].sni == "www.first.example"
        assert snitch.report()["third_party"]["requests_per_org"] == [["first", 1]]

    def test_sni_builder_round_trips(self):
        hello = tlswire.build_client_hello("a.b.example.org")
        assert tlswire.extract_sni(hello) == "a.b.example.org"
        assert tlswire.extract_sni(b"\x17\x03\x03\x00\x05junk!") is None
