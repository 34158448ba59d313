"""Verdict bookkeeping: every chain verdict at every engine site.

Each case registers one plugin that answers a single event with a fixed
verdict and lets every other event pass. The table pins what the engine
does with that verdict: the full counters, every packet written to the
app as (flags, seq, ack, payload), and how many packets were captured.
"""

import pytest
from helpers import build_engine

from mbz.engine import EngineConfig
from mbz.host import (
    Block, BlockMode, EventKind, Modify, Permission, PluginDescriptor, Redirect,
    TrafficPlugin,
)
from mbz.packet import (
    ACK, CWR, ECE, FIN, PSH, PROTO_TCP, PROTO_UDP, RST, SYN, FlowKey, TcpHeader,
    make_tcp_packet, make_udp_packet, parse_packet, serialize_packet,
)

APP = ("10.0.0.2", 40001)
OTHER_APP = ("10.0.0.2", 40002)
SRV = ("10.1.0.1", 80)
UDP_SRV = ("10.3.0.1", 7)
TCP_KEY = FlowKey(PROTO_TCP, APP, SRV)
UDP_KEY = FlowKey(PROTO_UDP, APP, UDP_SRV)

SCRIPTS = [
    {"cidr": "10.1.0.1/32", "behavior": "echo"},
    {"cidr": "10.3.0.1/32", "behavior": "echo"},
    {"cidr": "10.9.0.1/32", "behavior": "static", "response": "moved"},  # redirect target
]

VERDICTS = {
    "pass": None,
    "modify": Modify(b"MODIFIED"),
    "drop_silent": Block(BlockMode.DROP_SILENT),
    "reset_app": Block(BlockMode.RESET_APP),
    "inject_response": Block(BlockMode.INJECT_RESPONSE, b"notice"),
    "redirect": Redirect(("10.9.0.1", 7)),
}


def _tcp(seq, flags, ack=0, payload=b"", src=APP, dst=SRV):
    return serialize_packet(make_tcp_packet(
        src, dst, seq=seq, ack=ack, flags=flags, payload=payload))


def _udp(payload, src=APP, dst=UDP_SRV):
    return serialize_packet(make_udp_packet(src, dst, payload=payload))


HANDSHAKE = [_tcp(1000, SYN), _tcp(1001, ACK, ack=5001)]

# site -> (socket budget, app packets in order, the one event answered)
SITES = {
    "tcp_syn": (512, [_tcp(1000, SYN)],
                lambda e, c: e.kind is EventKind.FLOW_OPEN),
    "tcp_segment": (512, HANDSHAKE + [_tcp(1001, PSH | ACK, ack=5001, payload=b"GET")],
                    lambda e, c: e.kind is EventKind.PACKET_OUT and e.payload == b"GET"),
    "tcp_dup_syn": (512, HANDSHAKE + [_tcp(1000, SYN)],
                    lambda e, c: e.kind is EventKind.PACKET_OUT and e.tcp_flags == SYN),
    "tcp_orphan": (512, [_tcp(4242, PSH | ACK, ack=9999, payload=b"stray")],
                   lambda e, c: e.kind is EventKind.PACKET_OUT),
    "tcp_syn_over_budget": (1, [_tcp(1, SYN, src=OTHER_APP, dst=("203.0.113.9", 80)),
                                _tcp(1000, SYN)],
                            lambda e, c: e.kind is EventKind.FLOW_OPEN and c.key == TCP_KEY),
    "udp_first": (512, [_udp(b"ping")],
                  lambda e, c: e.kind is EventKind.FLOW_OPEN),
    "udp_later": (512, [_udp(b"one"), _udp(b"two")],
                  lambda e, c: e.kind is EventKind.PACKET_OUT and e.payload == b"two"),
    "udp_first_over_budget": (1, [_udp(b"hold", src=OTHER_APP), _udp(b"ping")],
                              lambda e, c: e.kind is EventKind.FLOW_OPEN and c.key == UDP_KEY),
    "tcp_upstream_chunk": (512, HANDSHAKE + [_tcp(1001, PSH | ACK, ack=5001, payload=b"ping")],
                           lambda e, c: e.kind is EventKind.PACKET_IN and e.tcp_flags is None),
    "udp_upstream_datagram": (512, [_udp(b"ping")],
                              lambda e, c: e.kind is EventKind.PACKET_IN),
}


class _OneVerdict(TrafficPlugin):
    def __init__(self, hit, verdict):
        self.hit = hit
        self.verdict = verdict

    def _answer(self, event, ctx):
        return self.verdict if self.hit(event, ctx) else None

    on_flow_open = on_packet_out = on_packet_in = _answer


def _flags(n):
    return "".join(c for c, bit in (("S", SYN), ("F", FIN), ("R", RST), ("P", PSH),
                                    ("A", ACK)) if n & bit)


def run_case(site, verdict_name):
    """(counters, packets written to the app, packets captured)."""
    budget, packets, hit = SITES[site]
    captured = []
    engine = build_engine(SCRIPTS, EngineConfig(local_isn=5000, socket_budget=budget),
                          sink=captured)
    engine.host.register(PluginDescriptor(
        id="site", name="site",
        requested=Permission.OBSERVE | Permission.MODIFY_PAYLOAD | Permission.BLOCK_FLOW
        | Permission.REDIRECT_FLOW), _OneVerdict(hit, VERDICTS[verdict_name]))
    written = []
    for data in packets:
        engine.conduit.inject(data)
        engine.pump()
        for _ts, out in engine.conduit.take_emitted():
            pkt = parse_packet(out)
            if isinstance(pkt.transport, TcpHeader):
                t = pkt.transport
                written.append((_flags(t.flags), t.seq, t.ack, pkt.payload))
            else:
                written.append(("udp", None, None, pkt.payload))
    return engine.counters, written, len(captured)


# (site, verdict) -> (nonzero counters, packets written, captured)
EXPECTED = {
    ('tcp_syn', 'pass'): (
        {'tcp_flows_created': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b'')],
        2),
    ('tcp_syn', 'modify'): (
        {'tcp_flows_created': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b'')],
        2),
    ('tcp_syn', 'drop_silent'): (
        {'blocked_flow_opens': 1},
        [],
        0),
    ('tcp_syn', 'reset_app'): (
        {'blocked_flow_opens': 1},
        [('RA', 0, 1001, b'')],
        1),
    ('tcp_syn', 'inject_response'): (
        {'tcp_flows_created': 1, 'blocked_flow_opens': 1},
        [('SA', 5000, 1001, b'')],
        1),
    ('tcp_syn', 'redirect'): (
        {'tcp_flows_created': 1, 'redirected_flows': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b'')],
        2),
    ('tcp_segment', 'pass'): (
        {'tcp_flows_created': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1004, b''), ('PA', 5001, 1004, b'GET')],
        6),
    ('tcp_segment', 'modify'): (
        {'tcp_flows_created': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1004, b''), ('PA', 5001, 1004, b'MODIFIED')],
        6),
    ('tcp_segment', 'drop_silent'): (
        {'tcp_flows_created': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b'')],
        3),
    ('tcp_segment', 'reset_app'): (
        {'tcp_flows_created': 1, 'tcp_flows_reset': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('RA', 5001, 1001, b'')],
        4),
    ('tcp_segment', 'inject_response'): (
        {'tcp_flows_created': 1, 'blocked_packets': 1, 'injected_responses': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1004, b''), ('PA', 5001, 1004, b'notice'), ('FA', 5007, 1004, b'')],
        6),
    ('tcp_segment', 'redirect'): (
        {'tcp_flows_created': 1, 'redirects_ignored': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1004, b''), ('PA', 5001, 1004, b'GET')],
        6),
    ('tcp_dup_syn', 'pass'): (
        {'tcp_flows_created': 1, 'tcp_dup_syn': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('SA', 5000, 1001, b'')],
        5),
    ('tcp_dup_syn', 'modify'): (
        {'tcp_flows_created': 1, 'tcp_dup_syn': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('SA', 5000, 1001, b'')],
        5),
    ('tcp_dup_syn', 'drop_silent'): (
        {'tcp_flows_created': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b'')],
        3),
    ('tcp_dup_syn', 'reset_app'): (
        {'tcp_flows_created': 1, 'tcp_flows_reset': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('RA', 5001, 1001, b'')],
        4),
    ('tcp_dup_syn', 'inject_response'): (
        {'tcp_flows_created': 1, 'blocked_packets': 1, 'injected_responses': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('PA', 5001, 1001, b'notice'), ('FA', 5007, 1001, b'')],
        5),
    ('tcp_dup_syn', 'redirect'): (
        {'tcp_flows_created': 1, 'tcp_dup_syn': 1, 'redirects_ignored': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('SA', 5000, 1001, b'')],
        5),
    ('tcp_orphan', 'pass'): (
        {'tcp_rst_no_state': 1},
        [('R', 9999, 0, b'')],
        2),
    ('tcp_orphan', 'modify'): (
        {'tcp_rst_no_state': 1, 'modified_packets': 1},
        [('R', 9999, 0, b'')],
        2),
    ('tcp_orphan', 'drop_silent'): (
        {'blocked_packets': 1},
        [],
        0),
    ('tcp_orphan', 'reset_app'): (
        {'blocked_packets': 1},
        [('R', 9999, 0, b'')],
        1),
    ('tcp_orphan', 'inject_response'): (
        {'tcp_rst_no_state': 1, 'blocked_packets': 1},
        [('R', 9999, 0, b'')],
        1),
    ('tcp_orphan', 'redirect'): (
        {'tcp_rst_no_state': 1},
        [('R', 9999, 0, b'')],
        2),
    ('tcp_syn_over_budget', 'pass'): (
        {'tcp_flows_created': 1, 'tcp_refused_budget': 1, 'budget_high_water': 1},
        [('RA', 0, 1001, b'')],
        3),
    ('tcp_syn_over_budget', 'modify'): (
        {'tcp_flows_created': 1, 'tcp_refused_budget': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('RA', 0, 1001, b'')],
        3),
    ('tcp_syn_over_budget', 'drop_silent'): (
        {'tcp_flows_created': 1, 'blocked_flow_opens': 1, 'budget_high_water': 1},
        [],
        1),
    ('tcp_syn_over_budget', 'reset_app'): (
        {'tcp_flows_created': 1, 'blocked_flow_opens': 1, 'budget_high_water': 1},
        [('RA', 0, 1001, b'')],
        2),
    ('tcp_syn_over_budget', 'inject_response'): (
        {'tcp_flows_created': 2, 'blocked_flow_opens': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b'')],
        2),
    ('tcp_syn_over_budget', 'redirect'): (
        {'tcp_flows_created': 1, 'tcp_refused_budget': 1, 'redirected_flows': 1, 'budget_high_water': 1},
        [('RA', 0, 1001, b'')],
        3),
    ('udp_first', 'pass'): (
        {'udp_flows_created': 1, 'budget_high_water': 1},
        [('udp', None, None, b'ping')],
        2),
    ('udp_first', 'modify'): (
        {'udp_flows_created': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('udp', None, None, b'MODIFIED')],
        2),
    ('udp_first', 'drop_silent'): (
        {'blocked_flow_opens': 1},
        [],
        0),
    ('udp_first', 'reset_app'): (
        {'blocked_flow_opens': 1},
        [],
        0),
    ('udp_first', 'inject_response'): (
        {'blocked_flow_opens': 1, 'injected_responses': 1},
        [('udp', None, None, b'notice')],
        1),
    ('udp_first', 'redirect'): (
        {'udp_flows_created': 1, 'redirected_flows': 1, 'budget_high_water': 1},
        [('udp', None, None, b'moved')],
        2),
    ('udp_later', 'pass'): (
        {'udp_flows_created': 1, 'budget_high_water': 1},
        [('udp', None, None, b'one'), ('udp', None, None, b'two')],
        4),
    ('udp_later', 'modify'): (
        {'udp_flows_created': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('udp', None, None, b'one'), ('udp', None, None, b'MODIFIED')],
        4),
    ('udp_later', 'drop_silent'): (
        {'udp_flows_created': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [('udp', None, None, b'one')],
        2),
    ('udp_later', 'reset_app'): (
        {'udp_flows_created': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [('udp', None, None, b'one')],
        2),
    ('udp_later', 'inject_response'): (
        {'udp_flows_created': 1, 'blocked_packets': 1, 'injected_responses': 1, 'budget_high_water': 1},
        [('udp', None, None, b'one'), ('udp', None, None, b'notice')],
        3),
    ('udp_later', 'redirect'): (
        {'udp_flows_created': 1, 'redirects_ignored': 1, 'budget_high_water': 1},
        [('udp', None, None, b'one'), ('udp', None, None, b'two')],
        4),
    ('udp_first_over_budget', 'pass'): (
        {'udp_flows_created': 1, 'udp_refused_budget': 1, 'budget_high_water': 1},
        [('udp', None, None, b'hold')],
        3),
    ('udp_first_over_budget', 'modify'): (
        {'udp_flows_created': 1, 'udp_refused_budget': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('udp', None, None, b'hold')],
        3),
    ('udp_first_over_budget', 'drop_silent'): (
        {'udp_flows_created': 1, 'blocked_flow_opens': 1, 'budget_high_water': 1},
        [('udp', None, None, b'hold')],
        2),
    ('udp_first_over_budget', 'reset_app'): (
        {'udp_flows_created': 1, 'blocked_flow_opens': 1, 'budget_high_water': 1},
        [('udp', None, None, b'hold')],
        2),
    ('udp_first_over_budget', 'inject_response'): (
        {'udp_flows_created': 1, 'blocked_flow_opens': 1, 'injected_responses': 1, 'budget_high_water': 1},
        [('udp', None, None, b'hold'), ('udp', None, None, b'notice')],
        3),
    ('udp_first_over_budget', 'redirect'): (
        {'udp_flows_created': 1, 'udp_refused_budget': 1, 'redirected_flows': 1, 'budget_high_water': 1},
        [('udp', None, None, b'hold')],
        3),
    ('tcp_upstream_chunk', 'pass'): (
        {'tcp_flows_created': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1005, b''), ('PA', 5001, 1005, b'ping')],
        6),
    ('tcp_upstream_chunk', 'modify'): (
        {'tcp_flows_created': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1005, b''), ('PA', 5001, 1005, b'MODIFIED')],
        6),
    ('tcp_upstream_chunk', 'drop_silent'): (
        {'tcp_flows_created': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1005, b'')],
        5),
    ('tcp_upstream_chunk', 'reset_app'): (
        {'tcp_flows_created': 1, 'tcp_flows_reset': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1005, b''), ('RA', 5001, 1005, b'')],
        6),
    ('tcp_upstream_chunk', 'inject_response'): (
        {'tcp_flows_created': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1005, b''), ('PA', 5001, 1005, b'ping')],
        6),
    ('tcp_upstream_chunk', 'redirect'): (
        {'tcp_flows_created': 1, 'budget_high_water': 1},
        [('SA', 5000, 1001, b''), ('A', 5001, 1005, b''), ('PA', 5001, 1005, b'ping')],
        6),
    ('udp_upstream_datagram', 'pass'): (
        {'udp_flows_created': 1, 'budget_high_water': 1},
        [('udp', None, None, b'ping')],
        2),
    ('udp_upstream_datagram', 'modify'): (
        {'udp_flows_created': 1, 'modified_packets': 1, 'budget_high_water': 1},
        [('udp', None, None, b'MODIFIED')],
        2),
    ('udp_upstream_datagram', 'drop_silent'): (
        {'udp_flows_created': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [],
        1),
    ('udp_upstream_datagram', 'reset_app'): (
        {'udp_flows_created': 1, 'blocked_packets': 1, 'budget_high_water': 1},
        [],
        1),
    ('udp_upstream_datagram', 'inject_response'): (
        {'udp_flows_created': 1, 'budget_high_water': 1},
        [('udp', None, None, b'ping')],
        2),
    ('udp_upstream_datagram', 'redirect'): (
        {'udp_flows_created': 1, 'budget_high_water': 1},
        [('udp', None, None, b'ping')],
        2),
}


@pytest.mark.parametrize("site,verdict", sorted(EXPECTED))
def test_verdict_bookkeeping(site, verdict):
    nonzero, written, captured = EXPECTED[(site, verdict)]
    counters, got_written, got_captured = run_case(site, verdict)
    assert counters == {**dict.fromkeys(counters, 0), **nonzero}
    assert got_written == written
    assert got_captured == captured


def test_table_covers_every_site_and_verdict():
    assert set(EXPECTED) == {(s, v) for s in SITES for v in VERDICTS}


def test_modified_segment_keeps_its_ecn_flags():
    # RFC 3168's ECE and CWR are the top two of TCP's 8 flag bits: the
    # chain sees them, and a segment a plugin rewrote is captured with them
    flags = PSH | ACK | ECE | CWR
    seen = []

    def hit(event, _ctx):
        if event.payload == b"GET":
            seen.append(event.tcp_flags)
            return True
        return False

    captured = []
    engine = build_engine(SCRIPTS, EngineConfig(local_isn=5000), sink=captured)
    engine.host.register(PluginDescriptor(
        id="site", name="site", requested=Permission.OBSERVE | Permission.MODIFY_PAYLOAD),
        _OneVerdict(hit, VERDICTS["modify"]))
    for data in HANDSHAKE + [_tcp(1001, flags, ack=5001, payload=b"GET")]:
        engine.conduit.inject(data)
        engine.pump()
    from_app = [pkt for pkt in (parse_packet(data) for _ts, data in captured)
                if (pkt.ip.src_addr, pkt.transport.src_port) == APP]
    assert seen == [flags]
    assert [(pkt.payload, pkt.transport.flags) for pkt in from_app][-1] == (b"MODIFIED", flags)
