"""Flow expiry: idle and pressure eviction of UDP flows, removal of closed
TCP flows, and the DNS ids an evicted flow leaves on its shared socket.

The properties check `Engine.sweep` against an oracle that reads none of
the engine's activity orders. It rebuilds each UDP flow's last activity
from the packets the test injects and the timestamped packets in
`InMemoryConduit.emitted`, and it knows which TCP flows closed from the
resets the test sends. The order rules it checks:
- idle evictions list plain UDP flows first, then DNS flows, each oldest
  activity first;
- closed TCP flows are removed in close order;
- under pressure the least recently active flow goes first; on a tie a
  plain UDP flow goes before a DNS flow, and within one class the flow
  touched first goes first.
"""

from __future__ import annotations

from collections import Counter

import pytest
from helpers import AppPeer, Driver, build_engine
from hypothesis import given, settings, strategies as st

from mbz import dnswire
from mbz.engine import DNS_PORT, EngineConfig, TcpState
from mbz.packet import (
    PROTO_TCP, PROTO_UDP, RST, SYN, FlowKey, flow_key_of, make_tcp_packet,
    make_udp_packet, parse_packet, serialize_packet,
)

ECHO = {"cidr": "10.3.0.0/24", "behavior": "echo"}  # answers UDP and TCP at once
RESOLVER_DELAY_US = 3_000_000
RESOLVER = {"cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns",
            "delay_us": RESOLVER_DELAY_US, "tamper": {"drop": ["lost.example"]}}
# addresses no script matches black-hole what is sent to them
SILENT_RESOLVER = ("203.0.113.53", 53)
UDP_DESTINATIONS = [("10.3.0.1", 7), ("203.0.113.9", 9),
                    ("8.8.8.8", 53), SILENT_RESOLVER]
TCP_DESTINATIONS = [("10.3.0.1", 80), ("203.0.113.9", 80)]
BUDGET = 6


def run_until(engine, at_us: int) -> None:
    """Run what falls due up to `at_us`, then move the clock there."""
    sched = engine.scheduler
    while (due := sched.peek_us()) is not None and due <= at_us:
        sched.step()
    sched.advance_to(at_us)


def send(engine, packet) -> None:
    engine.on_app_packet(engine.scheduler.now_us(), serialize_packet(packet))


def is_dns(key: FlowKey) -> bool:
    return key.dst[1] == DNS_PORT


class Oracle:
    """Each UDP flow's last activity, from the traffic alone."""

    def __init__(self, engine):
        self.engine = engine
        self.last: dict[FlowKey, tuple[int, int]] = {}  # key -> (time, touch number)
        self.touches = 0
        self.seen = 0  # emitted packets read so far
        self.closed: list[FlowKey] = []  # TCP flows closed since the last sweep

    def touch(self, key: FlowKey, at_us: int) -> None:
        self.touches += 1
        self.last[key] = (at_us, self.touches)

    def read_emitted(self) -> None:
        """A datagram toward the app is activity on its flow, at the time
        the engine wrote it."""
        emitted = self.engine.conduit.emitted
        for at_us, data in emitted[self.seen:]:
            pkt = parse_packet(data)
            if pkt.is_udp:
                self.touch(flow_key_of(pkt).invert(), at_us)
        self.seen = len(emitted)

    def sweep(self) -> None:
        """Sweep and check what went, in what order, and what is left."""
        engine = self.engine
        config = engine.config
        now = engine.scheduler.now_us()
        before = set(engine.flows)
        live = [key for key in before if key.protocol == PROTO_UDP]
        timeout = {False: config.udp_timeout_us, True: config.dns_timeout_us}
        idle = sorted((key for key in live if now - self.last[key][0] > timeout[is_dns(key)]),
                      key=lambda key: (is_dns(key), self.last[key]))
        rest = sorted(set(live) - set(idle),
                      key=lambda key: (self.last[key][0], is_dns(key), self.last[key][1]))

        handles = engine.upstream.active_handle_count()
        sockets = Counter((key.src[0], key.dst) for key in live if is_dns(key))

        def freed(key: FlowKey) -> int:
            if not is_dns(key):
                return 1
            sockets[(key.src[0], key.dst)] -= 1
            return sockets[(key.src[0], key.dst)] == 0

        handles -= sum(freed(key) for key in idle)
        pressure = []
        for key in rest:
            if handles <= 0.9 * config.socket_budget:
                break
            handles -= freed(key)
            pressure.append(key)

        counters = dict(engine.counters)
        reports = len(engine.eviction_reports)
        engine.sweep()

        counters["udp_flows_evicted_idle"] += len(idle)
        counters["udp_flows_evicted_pressure"] += len(pressure)
        assert engine.counters == counters
        assert engine.upstream.active_handle_count() == handles
        assert set(engine.flows) == before - set(idle) - set(pressure) - set(self.closed)
        if idle or pressure or self.closed:
            assert engine.eviction_reports[reports:] == [{
                "ts_us": now, "evicted": [str(key) for key in idle + pressure],
                "removed_closed": [str(key) for key in self.closed]}]
        else:
            assert len(engine.eviction_reports) == reports
        self.closed = []


apps = st.tuples(st.sampled_from(["10.0.0.2", "10.0.0.3"]), st.integers(40000, 40003))
udp_step = st.tuples(st.just("udp"), apps, st.sampled_from(UDP_DESTINATIONS), st.integers(0, 2))
expiry_steps = st.lists(st.one_of(
    udp_step, udp_step, udp_step,  # most steps open or touch a UDP flow
    st.tuples(st.just("syn"), apps, st.sampled_from(TCP_DESTINATIONS)),
    st.tuples(st.just("rst"), apps, st.sampled_from(TCP_DESTINATIONS)),
    # whole timeouts and half seconds, so that activity often lands exactly
    # one timeout before a sweep
    st.tuples(st.just("wait"), st.sampled_from([10_000_000, 30_000_000])
              | st.integers(0, 80).map(lambda n: n * 500_000)),
    st.just(("sweep",)),
), min_size=10, max_size=60)


class TestSweepAgainstOracle:
    @settings(deadline=None)
    @given(expiry_steps)
    def test_sweep_matches_oracle(self, steps):
        engine = build_engine([ECHO, RESOLVER], EngineConfig(local_isn=1, socket_budget=BUDGET))
        oracle = Oracle(engine)
        for step in steps:
            kind = step[0]
            if kind == "udp":
                _, src, dst, app_id = step
                # a DNS query, answered or not; other destinations take any bytes
                name = "lost.example" if app_id == 2 else "example.com"
                send(engine, make_udp_packet(src, dst, payload=dnswire.build_query(app_id, name)))
                oracle.touch(FlowKey(PROTO_UDP, src, dst), engine.scheduler.now_us())
            elif kind == "syn":
                _, src, dst = step
                send(engine, make_tcp_packet(src, dst, seq=1, ack=0, flags=SYN))
            elif kind == "rst":
                _, src, dst = step
                flow = engine.flows.get(FlowKey(PROTO_TCP, src, dst))
                if flow is not None and flow.state is not TcpState.CLOSED:
                    oracle.closed.append(flow.key)
                send(engine, make_tcp_packet(src, dst, seq=2, ack=0, flags=RST))
            elif kind == "wait":
                run_until(engine, engine.scheduler.now_us() + step[1])
                oracle.read_emitted()
            else:
                oracle.sweep()
        oracle.sweep()


class TestDnsIdsOnEviction:
    """One shared socket to a resolver that answers some queries after a
    delay shorter than the DNS timeout and never answers the rest."""

    APP = "10.0.0.2"
    SHARED = (APP, ("8.8.8.8", 53))

    query = st.tuples(st.just("query"), st.integers(40000, 40003),
                      st.sampled_from([0, 1, 0xFFFF]), st.booleans())

    @settings(deadline=None)
    @given(st.lists(st.one_of(
        query, query,
        st.tuples(st.just("wait"), st.integers(0, 24).map(lambda n: n * 500_000)),
        st.just(("sweep",)),
    ), min_size=10, max_size=60))
    def test_ids_are_the_live_flows_unanswered_ids(self, steps):
        engine = build_engine([RESOLVER])
        # wire id -> (flow key, the app's id, name if answered, time sent)
        pending: dict[int, tuple[FlowKey, int, str | None, int]] = {}
        names = 0
        seen = 0
        for step in steps:
            now = engine.scheduler.now_us()
            if step[0] == "query":
                _, port, app_id, answered = step
                key = FlowKey(PROTO_UDP, (self.APP, port), self.SHARED[1])
                if any(p[:2] == (key, app_id) for p in pending.values()):
                    continue  # one query per id in flight, so each answer has one owner
                names += 1
                name = f"q{names}.example" if answered else "lost.example"
                send(engine, make_udp_packet(key.src, key.dst,
                                             payload=dnswire.build_query(app_id, name)))
                wire_id = int.from_bytes(engine.upstream.datagram_log[-1][1][:2], "big")
                assert wire_id not in pending
                pending[wire_id] = (key, app_id, name if answered else None, now)
            elif step[0] == "wait":
                run_until(engine, now + step[1])
                for _at, data in engine.conduit.emitted[seen:]:
                    pkt = parse_packet(data)
                    answer = dnswire.parse_message(pkt.payload)
                    wire_id = next(w for w, p in pending.items() if p[2] == answer.qname)
                    key, app_id, _name, _sent = pending.pop(wire_id)
                    # its own flow, under the app's id
                    assert flow_key_of(pkt).invert() == key and answer.qid == app_id
                seen = len(engine.conduit.emitted)
                now = engine.scheduler.now_us()
                assert not [p for p in pending.values()
                            if p[2] is not None and p[3] + RESOLVER_DELAY_US <= now]
            else:
                engine.sweep()
                pending = {w: p for w, p in pending.items() if p[0] in engine.flows}
            shared = engine._dns_shared.get(self.SHARED)
            held = {w: h[:2] for w, h in shared.ids.items()} if shared else {}
            assert held == {w: p[:2] for w, p in pending.items()}
        assert engine.counters["udp_inbound_unroutable"] == 0

    def test_late_answer_to_an_evicted_flow_reaches_no_other_flow(self):
        # the resolver answers after 12 s, past the 10 s DNS timeout: the
        # sweep at 11 s evicts port 40000, port 40001 keeps the shared
        # socket open, and port 40002 then asks under the freed id 0
        slow = {"cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns", "delay_us": 12_000_000,
                "answers": {"a.example": ["10.9.0.1"], "b.example": ["10.9.0.2"],
                            "c.example": ["10.9.0.3"]}}
        engine = build_engine([slow])
        for port, app_id, name, at_us in ((40000, 0, "a.example", 0),
                                          (40001, 5, "b.example", 5_000_000),
                                          (40002, 0, "c.example", 11_500_000)):
            engine.conduit.inject(serialize_packet(make_udp_packet(
                (self.APP, port), self.SHARED[1], payload=dnswire.build_query(app_id, name))),
                at_us=at_us)
        engine.run()
        answers = [(pkt.transport.dst_port, dnswire.parse_message(pkt.payload).qname)
                   for pkt in map(parse_packet, (data for _at, data in engine.conduit.emitted))]
        # every flow is evicted before its own answer comes
        assert answers == []
        # a.example's answer at 12 s fits no held question, and b.example's
        # at 17 s comes after port 40001's eviction at 16 s; the socket
        # closes with port 40002's eviction at 22 s, before c.example's
        assert engine.counters["udp_inbound_unroutable"] == 2


@pytest.mark.xfail(strict=True, reason=(
    "no TCP timeout: flows to a black hole hold their upstream handles until "
    "ROADMAP item 1 step 2 adds the TCP connect and idle timeouts"))
def test_black_holed_syns_release_their_handles():
    engine = build_engine([ECHO], EngineConfig(local_isn=1, socket_budget=16))
    for port in range(40000, 40016):
        send(engine, make_tcp_packet(("10.0.0.2", port), ("203.0.113.9", 80),
                                     seq=1, ack=0, flags=SYN))
    engine.pump()
    engine.scheduler.advance_to(600_000_000)
    engine.sweep()
    assert engine.upstream.active_handle_count() == 0
    driver = Driver(engine)
    peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 41000), ("10.3.0.1", 80)))
    peer.syn()
    driver.drive()
    assert peer.established and engine.counters["tcp_refused_budget"] == 0
