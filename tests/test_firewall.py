"""Firewall rules: first-match semantics, deny modes, switch, rewrite."""

import gc
import ipaddress
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from helpers import AppPeer, Driver, build_engine, written_capture

from mbz import dnswire, tlswire
from mbz.engine import EngineConfig
from mbz.host import (
    Block, BlockMode, DeviceContext, EventKind, Modify, Permission,
    PluginContext, PluginDescriptor, PluginEvent, Redirect,
)
from mbz.config import ParseError, load_config, rule_from_dict, rules_from_list
from mbz.packet import (
    FIN, PSH, RST, SYN, ACK, FlowKey, make_tcp_packet, make_udp_packet,
    parse_packet, serialize_packet,
)
from mbz.plugins.firewall import FirewallPlugin
from mbz.plugins.domains import DomainTracker
from mbz.plugins.snitch import OrgMap, SnitchPlugin
from mbz.runner import ReplayRun, report_json_bytes
from mbz.trace import APP_TO_NET, TraceEvent, write_trace

FW_PERMS = (Permission.OBSERVE | Permission.BLOCK_FLOW
            | Permission.REDIRECT_FLOW | Permission.MODIFY_PAYLOAD)


def make_ctx(key, app="app", kind=EventKind.PACKET_OUT, direction="out"):
    return PluginContext(key=key, app_label=app, direction=direction,
                         kind=kind, device=DeviceContext(), now_us=0)


def evaluate(plugin, key, app="app", payload=b"", kind=EventKind.FLOW_OPEN):
    event = PluginEvent(kind, payload=payload)
    ctx = make_ctx(key, app=app, kind=kind)
    if kind is EventKind.FLOW_OPEN:
        return plugin.on_flow_open(event, ctx)
    return plugin.on_packet_out(event, ctx)


MAIL_RULES = [
    {"match": {"app": "mail*", "dst": ".imap.example.com"}, "action": "allow"},
    {"match": {"app": "mail*", "dst": ".smtp.example.com"}, "action": "allow"},
    {"match": {"app": "mail*"}, "action": {"deny": "reset"}},
]

BANK_RULES = [
    {"match": {"app": "bank*", "protocol": "tcp", "ports": [443]}, "action": "allow"},
    {"match": {"app": "bank*", "protocol": "tcp"},
     "action": {"deny": "inject", "notice": "use https\n"}},
]


class TestRuleMatching:
    def test_mail_app_allowed_to_known_servers_only(self):
        fw = FirewallPlugin(rules_from_list(MAIL_RULES))
        fw.tracker.ip_to_name["10.1.1.1"] = "imap.example.com"
        fw.tracker.ip_to_name["10.1.1.2"] = "tracker.example.net"
        ok = evaluate(fw, FlowKey(6, ("10.0.0.2", 4001), ("10.1.1.1", 993)),
                      app="mailapp")
        assert ok is None  # allow
        verdict = evaluate(fw, FlowKey(6, ("10.0.0.2", 4002), ("10.1.1.2", 443)),
                           app="mailapp")
        assert verdict == Block(BlockMode.RESET_APP)
        # other apps unaffected
        assert evaluate(fw, FlowKey(6, ("10.0.0.2", 4003), ("10.1.1.2", 443)),
                        app="browser") is None

    def test_bank_non_443_gets_inject_notice(self):
        fw = FirewallPlugin(rules_from_list(BANK_RULES))
        verdict = evaluate(fw, FlowKey(6, ("10.0.0.2", 4001), ("10.1.1.9", 80)),
                           app="bankapp")
        assert isinstance(verdict, Block)
        assert verdict.mode is BlockMode.INJECT_RESPONSE
        assert verdict.response == b"use https\n"
        assert evaluate(fw, FlowKey(6, ("10.0.0.2", 4002), ("10.1.1.9", 443)),
                        app="bankapp") is None

    def test_inject_on_tls_falls_back_to_reset(self):
        rules = rules_from_list(
            [{"match": {"dst": "10.1.0.0/16"}, "action": {"deny": "inject"}}])
        fw = FirewallPlugin(rules)
        verdict = evaluate(fw, FlowKey(6, ("10.0.0.2", 4001), ("10.1.1.9", 443)))
        assert verdict == Block(BlockMode.RESET_APP)

    def test_cidr_match(self):
        rules = rules_from_list(
            [{"match": {"dst": "192.0.2.0/24"}, "action": {"deny": "silent"}}])
        fw = FirewallPlugin(rules)
        assert isinstance(
            evaluate(fw, FlowKey(6, ("10.0.0.2", 1), ("192.0.2.77", 80))), Block)
        assert evaluate(fw, FlowKey(6, ("10.0.0.2", 1), ("192.0.3.77", 80))) is None

    def test_domain_case_and_trailing_dot_ignored_by_every_rule(self):
        fw = FirewallPlugin(rules_from_list([
            {"match": {"dst": ".other.example"}, "action": {"deny": "silent"}},
            {"match": {"dst": "192.0.2.0/24"}, "action": {"deny": "silent"}},
            {"match": {"dst": "mail.example.com"}, "action": {"deny": "reset"}},
        ]))
        fw.tracker.ip_to_name["10.1.1.1"] = "Mail.Example.COM."
        fw.tracker.ip_to_name["10.1.1.2"] = "MAIL.example.com"
        fw.tracker.ip_to_name["10.1.1.3"] = "."
        for dst, expected in (("10.1.1.1", Block(BlockMode.RESET_APP)),
                              ("10.1.1.2", Block(BlockMode.RESET_APP)),
                              ("10.1.1.3", None)):
            assert evaluate(fw, FlowKey(6, ("10.0.0.2", 1), (dst, 80))) == expected

    def test_destination_parsed_once_per_event(self, monkeypatch):
        import ipaddress
        parsed = []

        class CountingAddress(ipaddress.IPv4Address):
            def __init__(self, address):
                parsed.append(address)
                super().__init__(address)

        cidr_rules = [{"match": {"dst": f"192.0.{i}.0/24"}, "action": {"deny": "silent"}}
                      for i in range(5)]
        with_cidr = FirewallPlugin(rules_from_list(cidr_rules))
        without_cidr = FirewallPlugin(rules_from_list(
            [{"match": {"dst": ".example.com"}, "action": {"deny": "silent"}}] * 5))
        monkeypatch.setattr(ipaddress, "IPv4Address", CountingAddress)
        key = FlowKey(6, ("10.0.0.2", 1), ("192.0.4.9", 80))
        assert evaluate(with_cidr, key) == Block(BlockMode.DROP_SILENT)
        assert parsed == ["192.0.4.9"]
        assert evaluate(without_cidr, key) is None
        assert parsed == ["192.0.4.9"]

    def test_default_deny_mode(self):
        fw = FirewallPlugin([], default_allow=False)
        verdict = evaluate(fw, FlowKey(6, ("10.0.0.2", 1), ("192.0.2.1", 80)))
        assert verdict == Block(BlockMode.DROP_SILENT)

    def test_first_match_determinism(self):
        # permuting non-matching rules never changes the verdict;
        # duplicating the matching rule never changes it
        matching = {"match": {"dst": "192.0.2.0/24"}, "action": {"deny": "reset"}}
        others = [
            {"match": {"app": "nomatch*"}, "action": {"deny": "silent"}},
            {"match": {"ports": [9999]}, "action": "allow"},
            {"match": {"protocol": "udp"}, "action": {"deny": "silent"}},
        ]
        key = FlowKey(6, ("10.0.0.2", 4001), ("192.0.2.5", 80))
        expected = Block(BlockMode.RESET_APP)
        for perm in itertools.permutations(others):
            fw = FirewallPlugin(rules_from_list(list(perm) + [matching]))
            assert evaluate(fw, key) == expected
        fw = FirewallPlugin(rules_from_list([matching, matching]))
        assert evaluate(fw, key) == expected

    def test_rewrite_validation(self):
        with pytest.raises(ParseError):
            rule_from_dict({"match": {}, "action": {
                "rewrite": {"pattern": "long", "replacement": "longer"}}})
        with pytest.raises(ParseError):
            rule_from_dict({"match": {}, "action": "explode"})
        with pytest.raises(ParseError):
            rule_from_dict({"match": {"weird": 1}, "action": "allow"})


def substitute_oracle(data: bytes, pattern: bytes, replacement: bytes) -> bytes:
    """Naive left-to-right scan substitution."""
    out = bytearray()
    i = 0
    while i < len(data):
        if data[i:i + len(pattern)] == pattern:
            out.extend(replacement)
            i += len(pattern)
        else:
            out.append(data[i])
            i += 1
    return bytes(out)


class TestRewrite:
    IMEI = b"356938035643809"

    def test_rewrite_matches_substitution_oracle(self):
        rules = rules_from_list([{
            "match": {"app": "leaky*"},
            "action": {"rewrite": {"pattern": self.IMEI.decode(),
                                   "replacement": "0" * 15}}}])
        fw = FirewallPlugin(rules)
        payload = b"id=" + self.IMEI + b"&x=1&imei=" + self.IMEI
        verdict = evaluate(fw, FlowKey(6, ("10.0.0.2", 1), ("10.1.1.1", 80)),
                           app="leakyapp", payload=payload,
                           kind=EventKind.PACKET_OUT)
        assert isinstance(verdict, Modify)
        expected = substitute_oracle(payload, self.IMEI, b"0" * 15)
        assert verdict.payload == expected
        assert len(verdict.payload) == len(payload)

    def test_rewrite_changes_exactly_targeted_octets(self):
        payload = b"prefix " + self.IMEI + b" suffix"
        rewritten = substitute_oracle(payload, self.IMEI, b"0" * 15)
        diff = [i for i in range(len(payload)) if payload[i] != rewritten[i]]
        targeted = set(range(7, 22))
        assert diff and set(diff) <= targeted
        assert rewritten[7:22] == b"0" * 15
        assert rewritten[:7] == payload[:7] and rewritten[22:] == payload[22:]

    def test_rewrite_not_applied_inbound(self):
        rules = rules_from_list([{
            "match": {}, "action": {"rewrite": {"pattern": "a",
                                                "replacement": "b"}}}])
        fw = FirewallPlugin(rules)
        event = PluginEvent(EventKind.PACKET_IN, payload=b"aaa")
        ctx = make_ctx(FlowKey(6, ("10.0.0.2", 1), ("10.1.1.1", 80)),
                       kind=EventKind.PACKET_IN, direction="in")
        assert fw.on_packet_in(event, ctx) is None

    def test_no_occurrence_passes(self):
        rules = rules_from_list([{
            "match": {}, "action": {"rewrite": {"pattern": "zzz",
                                                "replacement": "yyy"}}}])
        fw = FirewallPlugin(rules)
        verdict = evaluate(fw, FlowKey(6, ("10.0.0.2", 1), ("10.1.1.1", 80)),
                           payload=b"nothing here", kind=EventKind.PACKET_OUT)
        assert verdict is None


def install_firewall(engine, rules, default_allow=True):
    fw = FirewallPlugin(rules_from_list(rules), default_allow=default_allow)
    engine.host.register(PluginDescriptor(
        id="fw", name="firewall", requested=FW_PERMS), fw)
    return fw


class TestEngineIntegration:
    def test_deny_reset_on_syn_never_opens_upstream(self):
        engine = build_engine([{"cidr": "10.1.0.0/16", "behavior": "echo"}],
                              EngineConfig(local_isn=5000))
        install_firewall(engine, [
            {"match": {"dst": "10.1.2.0/24"}, "action": {"deny": "reset"}}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 4001),
                                       ("10.1.2.9", 80), isn=1000))
        peer.syn()
        driver.drive()
        rst = peer.packets_seen[0]
        assert rst.transport.flags & RST
        assert rst.transport.ack == 1001  # app ISN + 1
        assert [t.dst for t in engine.upstream.transcripts] == []  # never opened upstream
        assert engine.counters["blocked_flow_opens"] == 1
        assert len(engine.flows) == 0

    def test_inject_notice_end_to_end(self):
        engine = build_engine([{"cidr": "10.1.0.0/16", "behavior": "echo"}],
                              EngineConfig(local_isn=5000))
        install_firewall(engine, BANK_RULES)
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 4001),
                                       ("10.1.2.9", 80), app_label="bankapp"))
        peer.syn()
        driver.drive()
        assert peer.established  # local-only handshake synthesized
        assert [t.dst for t in engine.upstream.transcripts] == []
        peer.send(b"GET / HTTP/1.0\r\n\r\n")
        driver.drive()
        assert bytes(peer.received) == b"use https\n"
        assert peer.engine_fin_seen
        peer.fin()
        driver.drive()
        assert peer.fin_acked
        assert engine.counters["injected_responses"] == 1

    def test_inject_notice_packet_sequence(self):
        # the notice flow runs the ordinary TCP path: the app's ACK-only
        # segments get no bare ACK back
        engine = build_engine([], EngineConfig(local_isn=5000))
        install_firewall(engine, BANK_RULES)
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 4001),
                                       ("10.1.2.9", 80), isn=1000, app_label="bankapp"))
        peer.syn()
        driver.drive()
        peer.send(b"GET /\r\n")
        driver.drive()
        peer.fin()
        driver.drive()
        # (flags, seq, ack, payload); every window is full: the request is dropped
        assert {p.transport.window for p in peer.packets_seen} == {65535}
        assert [(p.transport.flags, p.transport.seq, p.transport.ack, p.payload)
                for p in peer.packets_seen] == [
            (SYN | ACK, 5000, 1001, b""),
            (PSH | ACK, 5001, 1001, b"use https\n"),
            (FIN | ACK, 5011, 1001, b""),
            (ACK, 5012, 1008, b""),
            (ACK, 5012, 1009, b""),
        ]
        assert peer.fin_acked
        assert engine.counters["tcp_flows_closed"] == 1
        assert engine.upstream.active_handle_count() == 0

    def test_switch_redirects_upstream_only(self):
        engine = build_engine([{"cidr": "10.5.5.5/32", "behavior": "static",
                                "response": "from-redirect"}],
                              EngineConfig(local_isn=5000))
        install_firewall(engine, [
            {"match": {"dst": "10.1.2.0/24"}, "action": {"switch": "10.5.5.5:8080"}}])
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 4001), ("10.1.2.9", 80)))
        peer.syn()
        driver.drive()
        assert [t.dst for t in engine.upstream.transcripts] == [("10.5.5.5", 8080)]
        assert peer.established  # SYN/ACK still appears to come from 10.1.2.9
        peer.send(b"hi")
        driver.drive()
        assert bytes(peer.received) == b"from-redirect"
        assert engine.counters["redirected_flows"] == 1

    def test_switched_flow_replies_reach_the_plugins_behind(self):
        class InboundSnitch(SnitchPlugin):
            def on_packet_in(self, event, ctx):
                if event.payload:
                    self.inbound.append(event.payload)
                return super().on_packet_in(event, ctx)

        engine = build_engine([{"cidr": "10.5.5.5/32", "behavior": "static",
                                "response": "from-redirect"}],
                              EngineConfig(local_isn=5000))
        install_firewall(engine, [
            {"match": {"dst": "10.1.2.0/24"}, "action": {"switch": "10.5.5.5:8080"}}])
        snitch = InboundSnitch(OrgMap.from_pairs([]))
        snitch.inbound = []
        engine.host.register(PluginDescriptor(
            id="snitch", name="snitch", requested=Permission.OBSERVE), snitch)
        driver = Driver(engine)
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 4001), ("10.1.2.9", 80)))
        peer.syn()
        driver.drive()
        peer.send(b"hi")
        driver.drive()
        assert bytes(peer.received) == b"from-redirect"
        assert snitch.inbound == [b"from-redirect"]
        assert engine.host.violations == []
        assert engine.counters["redirected_flows"] == 1

    def test_udp_inject_notice(self):
        engine = build_engine([])
        install_firewall(engine, [
            {"match": {"protocol": "udp", "dst": "10.1.2.0/24"},
             "action": {"deny": "inject", "notice": "nope"}}])
        engine.conduit.inject(serialize_packet(make_udp_packet(
            ("10.0.0.2", 6001), ("10.1.2.9", 9000), payload=b"hello")))
        engine.pump()
        out = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        assert len(out) == 1
        assert out[0].payload == b"nope"
        assert (out[0].ip.src_addr, out[0].transport.src_port) == ("10.1.2.9", 9000)
        assert engine.upstream.datagram_log == []

    def test_deny_by_learned_domain(self):
        engine = build_engine([
            {"cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns",
             "answers": {"ads.tracker.example": ["10.9.1.1"]}},
            {"cidr": "10.9.0.0/16", "behavior": "echo"},
        ], EngineConfig(local_isn=5000))
        install_firewall(engine, [
            {"match": {"dst": ".tracker.example"}, "action": {"deny": "reset"}}])
        driver = Driver(engine)
        engine.conduit.inject(serialize_packet(make_udp_packet(
            ("10.0.0.2", 50000), ("8.8.8.8", 53),
            payload=dnswire.build_query(5, "ads.tracker.example"))))
        engine.pump()
        engine.conduit.take_emitted()
        peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 4001), ("10.9.1.1", 80)))
        peer.syn()
        driver.drive()
        assert peer.reset_seen and not peer.established
        assert [t.dst for t in engine.upstream.transcripts] == []


# -- memoised first match ----------------------------------------------------

def linear_scan(rules, tracker, key, app):
    """The first-match oracle: every rule in order, nothing memoised."""
    domain = tracker.domain_for(key).lower().rstrip(".")
    dst_ip = ipaddress.IPv4Address(key.dst[0])
    for rule in rules:
        if rule.matches(key.protocol, key.dst[1], app, domain, dst_ip):
            return rule
    return None


NAMES = ("a.example.com", "B.Example.COM.", "x.tracker.net", "tracker.net", "other.org")
ADDRS = ("192.0.2.1", "192.0.2.77", "198.51.100.5", "10.1.2.3")
APPS = ("mail", "mailer", "game1", "bank", "")
RESOLVER = FlowKey(17, ("10.0.0.2", 50000), ("8.8.8.8", 53))

rule_dicts = st.builds(
    lambda app, dst, ports, proto, action: {
        "match": {"app": app, "dst": dst, "ports": ports, "protocol": proto},
        "action": action},
    st.sampled_from(("*", "mail*", "game?", "bank", "[mb]*")),
    st.sampled_from(("any", ".example.com", "tracker.net", "b.example.com",
                     "192.0.2.0/24", "198.51.100.0/25", "10.0.0.0/8", "8.8.8.8/32")),
    st.one_of(st.just("any"), st.sets(st.sampled_from((53, 80, 443)), min_size=1)
              .map(sorted)),
    st.sampled_from(("any", "tcp", "udp")),
    st.one_of(
        st.just("allow"),
        st.sampled_from(("silent", "reset")).map(lambda m: {"deny": m}),
        st.integers(0, 99).map(lambda i: {"deny": "inject", "notice": f"n{i}"}),
        st.integers(1, 250).map(lambda i: {"switch": f"10.255.0.{i}:8080"}),
        st.just({"rewrite": {"pattern": "x", "replacement": "y"}}),
    ))

flow_keys = st.builds(
    lambda proto, sport, dst, dport: FlowKey(proto, ("10.0.0.2", sport), (dst, dport)),
    st.sampled_from((6, 6, 17)), st.sampled_from((40000, 40001)),
    st.sampled_from(ADDRS), st.sampled_from((53, 80, 443, 443)))

# a packet on a flow, a DNS answer attributing an address to a name, or a
# ClientHello naming a server on a flow (the attribution can come mid-flow)
events = st.one_of(
    st.tuples(st.just("pkt"), flow_keys, st.sampled_from(APPS),
              st.sampled_from((EventKind.FLOW_OPEN, EventKind.PACKET_OUT,
                               EventKind.PACKET_IN)),
              st.sampled_from((b"", b"x", b"abc"))),
    st.tuples(st.just("dns"), st.sampled_from(NAMES), st.sampled_from(ADDRS)),
    st.tuples(st.just("sni"), flow_keys, st.sampled_from(APPS), st.sampled_from(NAMES)),
)


class TestMemoisedFirstMatch:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(rule_dicts, max_size=8), st.booleans(),
           st.lists(events, min_size=1, max_size=40))
    def test_cached_verdicts_equal_the_linear_scan(self, rule_objs, default_allow, evs):
        rules = rules_from_list(rule_objs)
        fw = FirewallPlugin(rules, default_allow=default_allow)
        oracle_tracker = DomainTracker()
        for ev in evs:
            if ev[0] == "dns":
                _tag, name, addr = ev
                kind, key, app = EventKind.PACKET_IN, RESOLVER, ""
                payload = dnswire.build_response(7, name, dnswire.QTYPE_A, [addr])
            elif ev[0] == "sni":
                _tag, key, app, name = ev
                kind, payload = EventKind.PACKET_OUT, tlswire.build_client_hello(name)
            else:
                _tag, key, app, kind, payload = ev
            outbound = kind is not EventKind.PACKET_IN
            event = PluginEvent(kind, payload=payload)
            ctx = make_ctx(key, app=app, kind=kind, direction="out" if outbound else "in")
            verdict = {EventKind.FLOW_OPEN: fw.on_flow_open,
                       EventKind.PACKET_OUT: fw.on_packet_out,
                       EventKind.PACKET_IN: fw.on_packet_in}[kind](event, ctx)

            observe = oracle_tracker.observe_out if outbound else oracle_tracker.observe_in
            observe(PluginEvent(kind, payload=payload), ctx)
            rule = linear_scan(rules, oracle_tracker, key, app)
            if rule is not None:
                expected = fw._apply(rule, event, ctx, outbound)
            else:
                expected = None if default_allow else Block(BlockMode.DROP_SILENT)
            assert verdict == expected, (ev, rule)

    def test_attribution_mid_flow_changes_the_verdict(self):
        fw = FirewallPlugin(rules_from_list(
            [{"match": {"dst": ".tracker.example"}, "action": {"deny": "reset"}}]))
        key = FlowKey(6, ("10.0.0.2", 4001), ("10.9.1.1", 80))
        assert evaluate(fw, key) is None
        assert evaluate(fw, key, kind=EventKind.PACKET_OUT, payload=b"a") is None
        answer = dnswire.build_response(5, "ads.tracker.example", dnswire.QTYPE_A,
                                        ["10.9.1.1"])
        fw.on_packet_in(PluginEvent(EventKind.PACKET_IN, payload=answer),
                        make_ctx(RESOLVER, kind=EventKind.PACKET_IN, direction="in"))
        assert evaluate(fw, key, kind=EventKind.PACKET_OUT, payload=b"b") \
            == Block(BlockMode.RESET_APP)

    def test_sni_mid_flow_changes_the_verdict(self):
        fw = FirewallPlugin(rules_from_list(
            [{"match": {"dst": ".tracker.example"}, "action": {"deny": "reset"}}]))
        key = FlowKey(6, ("10.0.0.2", 4001), ("10.9.1.1", 443))
        assert evaluate(fw, key) is None
        hello = tlswire.build_client_hello("ads.tracker.example")
        assert evaluate(fw, key, kind=EventKind.PACKET_OUT, payload=hello) \
            == Block(BlockMode.RESET_APP)
        # another flow to the same address has no SNI and no DNS answer
        other = FlowKey(6, ("10.0.0.2", 4002), ("10.9.1.1", 443))
        assert evaluate(fw, other) is None

    def test_later_change_to_the_rule_list_does_not_change_verdicts(self):
        rules = rules_from_list(
            [{"match": {"dst": "192.0.2.0/24"}, "action": {"deny": "reset"}}])
        fw = FirewallPlugin(rules)
        allowed = FlowKey(6, ("10.0.0.2", 1), ("198.51.100.5", 80))
        denied = FlowKey(6, ("10.0.0.2", 1), ("192.0.2.5", 80))
        rules.insert(0, rule_from_dict({"match": {}, "action": {"deny": "silent"}}))
        rules.pop()
        assert evaluate(fw, allowed) is None
        assert evaluate(fw, denied) == Block(BlockMode.RESET_APP)

    def test_cache_is_bounded(self):
        fw = FirewallPlugin(rules_from_list(
            [{"match": {"dst": "10.0.0.0/8"}, "action": {"deny": "silent"}}]))
        for i in range(5000):
            key = FlowKey(6, ("10.0.0.2", 1), (f"10.{i >> 8 & 255}.{i & 255}.1", 80))
            assert evaluate(fw, key) == Block(BlockMode.DROP_SILENT)
        info = fw._first_match.cache_info()
        assert info.misses == 5000 and info.currsize <= 4096

    def test_a_new_flow_to_a_known_destination_hits_the_cache(self):
        fw = FirewallPlugin(rules_from_list(MAIL_RULES))
        for sport in range(4000, 4010):
            evaluate(fw, FlowKey(6, ("10.0.0.2", sport), ("10.1.1.1", 993)), app="mailapp")
        assert fw._first_match.cache_info().misses == 1

    def test_cache_keeps_no_reference_to_the_plugin(self):
        fw = FirewallPlugin(rules_from_list(MAIL_RULES))
        evaluate(fw, FlowKey(6, ("10.0.0.2", 4001), ("10.1.1.1", 993)), app="mailapp")
        ref = weakref.ref(fw)
        gc.disable()
        try:
            del fw
            assert ref() is None  # freed by reference counting, with no cycle
        finally:
            gc.enable()


def tls_echo_trace(flows, isn=1000, local_isn=5000, step_us=1000):
    """App side of TLS flows against a zero-delay echo: each (port, dst,
    SNI, closes) sends SYN, the ACK of the SYN/ACK and a ClientHello; a
    flow that closes then sends FIN and the ACK of the echo and its FIN."""
    events, t = [], 100_000
    for port, dst, name, closes in flows:
        src = ("10.0.0.2", port)
        hello = tlswire.build_client_hello(name)
        segments = [make_tcp_packet(src, dst, seq=isn, ack=0, flags=SYN),
                    make_tcp_packet(src, dst, seq=isn + 1, ack=local_isn + 1, flags=ACK),
                    make_tcp_packet(src, dst, seq=isn + 1, ack=local_isn + 1,
                                    flags=PSH | ACK, payload=hello)]
        if closes:
            end = isn + 1 + len(hello)
            segments += [make_tcp_packet(src, dst, seq=end, ack=local_isn + 1 + len(hello),
                                         flags=FIN | ACK),
                         make_tcp_packet(src, dst, seq=end + 1,
                                         ack=local_isn + 2 + len(hello), flags=ACK)]
        for pkt in segments:
            t += step_us
            events.append(TraceEvent(ts_us=t, direction=APP_TO_NET, app_label="browser",
                                     packet=serialize_packet(pkt)))
    return events


class TestSniForgottenOnClose:
    FLOWS = [(30001, ("10.1.0.1", 443), "a.good.example", True),
             (30002, ("10.1.0.2", 443), "b.good.example", True),
             (30003, ("10.1.0.3", 443), "ads.blocked.example", False)]

    def replay(self, tmp_path):
        write_trace(tmp_path / "trace.jsonl", tls_echo_trace(self.FLOWS))
        (tmp_path / "scripts.yaml").write_text("- {cidr: 10.1.0.0/16, behavior: echo}\n")
        (tmp_path / "orgs.csv").write_text(".good.example,goodorg\n"
                                           ".blocked.example,blockedorg\n")
        (tmp_path / "rules.yaml").write_text(
            "- {match: {dst: .blocked.example}, action: {deny: reset}}\n"
            "- {match: {dst: .good.example, app: browser}, action: allow}\n")
        (tmp_path / "config.yaml").write_text(
            "engine: {local_isn: 5000}\nseed: 0\n"
            "io: {trace: trace.jsonl, scripts: scripts.yaml}\n"
            "plugins:\n"
            "  - {id: fw, kind: firewall, rules: rules.yaml}\n"
            "  - {id: snitch, kind: snitch, org_map: orgs.csv}\n")
        run = ReplayRun(load_config(tmp_path / "config.yaml"))
        report = run.execute()
        return run, report_json_bytes(report), written_capture(run, tmp_path / "out.pcap")

    def test_every_closed_flow_leaves_no_sni_and_nothing_else_changes(
            self, tmp_path, monkeypatch):
        run, report, capture = self.replay(tmp_path)
        counters = run.engine.counters
        assert counters["tcp_flows_closed"] == 2 and counters["tcp_flows_reset"] == 1
        assert counters["blocked_packets"] == 1 and not run.engine.flows
        assert run.plugins["fw"].tracker.sni_by_key == {}
        # the snitch keeps the SNI of every flow it saw (the block ends the
        # chain before it) in the flow's record, which it folds into its
        # counts at close, and keeps no map of its own
        snitch = run.plugins["snitch"]
        assert snitch.tracker.sni_by_key == {} and snitch.records == {}
        assert snitch.report()["per_app"]["browser"]["flows_per_org"] \
            == [["goodorg", 2], ["unknown", 1]]

        # the firewall as it was before it forgot: every SNI kept for the run
        monkeypatch.delattr(FirewallPlugin, "on_flow_close")
        keeping, keeping_report, keeping_capture = self.replay(tmp_path)
        assert sorted(keeping.plugins["fw"].tracker.sni_by_key.values()) == [
            "a.good.example", "ads.blocked.example", "b.good.example"]
        assert report == keeping_report
        assert capture == keeping_capture
