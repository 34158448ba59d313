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

`Engine.run` sweeps only when a sweep could act. A second property checks
it against a reference driver that sweeps at every grid point; the two
must leave the same counters, event log, capture and handles. A third
feeds a case's packets through several `Engine.pump` calls before `run`:
the sweep grid carries over between calls, so that must match one `run`.
"""

from __future__ import annotations

from collections import Counter

import pytest
from helpers import AppPeer, Driver, build_engine, counting, logged
from hypothesis import given, settings, strategies as st

from mbz import dnswire
from mbz.clock import WALL
from mbz.engine import DNS_PORT, Engine, EngineConfig, TcpFlow, TcpState
from mbz.host import Permission, PluginDescriptor, ResourceBudget, TrafficPlugin
from mbz.packet import (
    ACK, FIN, PROTO_TCP, PROTO_UDP, PSH, RST, SYN, FlowKey, UdpHeader, flow_key_of,
    make_tcp_packet, make_udp_packet, parse_packet, serialize_packet,
)
from mbz.plugins import WhatIfPlugin

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
    while sched.timers and sched.timers[0][0] <= at_us:
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
            if isinstance(pkt.transport, UdpHeader):
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
        reports = len(logged(engine, "eviction"))
        engine.sweep()

        counters["udp_flows_evicted_idle"] += len(idle)
        counters["udp_flows_evicted_pressure"] += len(pressure)
        assert engine.counters == counters
        assert engine.upstream.active_handle_count() == handles
        assert set(engine.flows) == before - set(idle) - set(pressure) - set(self.closed)
        if idle or pressure or self.closed:
            assert logged(engine, "eviction")[reports:] == [{
                "ts_us": now, "evicted": [str(key) for key in idle + pressure],
                "removed_closed": [str(key) for key in self.closed]}]
        else:
            assert len(logged(engine, "eviction")) == reports
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


# ------------------------------------------------------------- the run loop

def sweep_at_every_grid_point(engine) -> None:
    """`Engine.run` without skipping: a governor tick and a sweep at every
    grid point, each behind the packets and timers due at its time, until
    no packet or timer is left and every flow is an open TCP flow (which
    no sweep removes); then the engine's shutdown."""
    sched, conduit = engine.scheduler, engine.conduit
    interval = engine.config.sweep_interval_us
    grid = sched.now_us() + interval
    while True:
        t_pkt, t_evt = conduit.next_ready_us(), sched.timers[0][0] if sched.timers else None
        if t_pkt is None and t_evt is None and all(
                isinstance(flow, TcpFlow) and flow.state is not TcpState.CLOSED
                for flow in engine.flows.values()):
            break
        if all(t is None or grid < t for t in (t_pkt, t_evt)):
            sched.advance_to(grid)
            engine.host.governor_tick()
            engine.sweep()
            grid += interval
        elif t_pkt is not None and (t_evt is None or t_pkt <= t_evt):
            sched.advance_to(t_pkt)
            engine.on_app_packet(*conduit.read_packet())
        else:
            sched.step()
    engine._shutdown()


ALT_RESOLVER = ("9.9.9.9", 53)
REFUSER = {"cidr": "10.4.0.0/24", "behavior": "reset", "delay_us": 700_000}
LOOP_SCRIPTS = [ECHO, RESOLVER, REFUSER,
                {"cidr": "9.9.9.9/32", "ports": [53], "behavior": "dns", "delay_us": 1_500_000}]
LOOP_UDP = UDP_DESTINATIONS + [("10.4.0.1", 9)]
LOOP_TCP = TCP_DESTINATIONS + [("10.4.0.1", 80)]


# timeouts, sweep intervals and gaps are mostly whole quarter seconds, so
# that a flow's expiry often falls on a grid point with a packet or timer;
# a timeout 1 us short of one makes the first time a flow can go (1 us
# past its timeout) a grid point
quarters = st.integers(1, 8).map(lambda n: n * 250_000)


@st.composite
def loop_configs(draw):
    udp_timeout = draw(quarters | quarters.map(lambda us: us - 1) | st.integers(1, 10_000_000))
    return EngineConfig(
        local_isn=1, socket_budget=draw(st.integers(2, 8)), udp_timeout_us=udp_timeout,
        dns_timeout_us=draw(st.sampled_from([udp_timeout, max(1, udp_timeout - 250_000)])
                            | st.integers(1, udp_timeout)),
        sweep_interval_us=draw(st.sampled_from([250_000, 500_000])
                               | st.integers(100_000, 3_000_000)))


loop_apps = st.tuples(st.just("10.0.0.2"), st.integers(40000, 40001))
loop_packets = st.lists(st.tuples(
    st.just(0) | quarters | st.integers(0, 20_000_000),
    st.one_of(
        st.tuples(st.just("udp"), loop_apps, st.sampled_from(LOOP_UDP), st.integers(0, 2)),
        st.tuples(st.sampled_from(["syn", "data", "fin", "rst"]), loop_apps,
                  st.sampled_from(LOOP_TCP)),
    )), min_size=1, max_size=40)


def loop_engine(config: EngineConfig, probes: bool, timed=()):
    """An engine, its capture list and, with `probes`, a what-if plugin
    whose probes hold handles outside the engine's count, with the
    `timed` (time, packet) pairs queued on its conduit."""
    engine = build_engine(LOOP_SCRIPTS, config, sink=[])
    if probes:
        plugin = WhatIfPlugin([ALT_RESOLVER], probability=1.0, seed=3, timeout_us=2_000_000)
        engine.host.register(PluginDescriptor(
            id="whatif", name="dns-whatif",
            requested=Permission.OBSERVE | Permission.INJECT_PACKETS), plugin)
        plugin.bind(engine.host, "whatif")
    for at_us, data in timed:
        engine.conduit.inject(data, at_us=at_us)
    return engine


def timed_packets(packets) -> list[tuple[int, bytes]]:
    """The packets of a `loop_packets` case, serialized, each with its time."""
    timed = []
    at_us = 0
    for gap, (kind, src, dst, *rest) in packets:
        at_us += gap
        if kind == "udp":
            name = "lost.example" if rest[0] == 2 else "example.com"
            pkt = make_udp_packet(src, dst, payload=dnswire.build_query(rest[0], name))
        elif kind == "syn":
            pkt = make_tcp_packet(src, dst, seq=1, ack=0, flags=SYN)
        elif kind == "data":
            pkt = make_tcp_packet(src, dst, seq=2, ack=2, flags=PSH | ACK, payload=b"ping")
        elif kind == "fin":
            pkt = make_tcp_packet(src, dst, seq=6, ack=2, flags=FIN | ACK)
        else:
            pkt = make_tcp_packet(src, dst, seq=6, ack=0, flags=RST)
        timed.append((at_us, serialize_packet(pkt)))
    return timed


def run_state(engine) -> tuple:
    """What a run leaves that two runs of one case must share."""
    return (engine.counters, engine.events, engine.sink, engine.conduit.emitted,
            engine.upstream.active_handle_count(), engine.host.plugin_states(),
            engine.scheduler.now_us())


class TestRunLoop:
    @settings(deadline=None)
    @given(loop_configs(), st.booleans(), loop_packets)
    def test_same_run_as_a_sweep_at_every_grid_point(self, config, probes, packets):
        engines = [loop_engine(config, probes, timed_packets(packets)) for _ in range(2)]
        engines[0].run()
        sweep_at_every_grid_point(engines[1])
        got, want = (run_state(e) for e in engines)
        assert got == want

    @settings(deadline=None)
    @given(loop_configs(), st.booleans(), loop_packets, st.sets(st.integers(1, 39), max_size=4))
    def test_pumps_over_split_packets_then_run_match_one_run(self, config, probes, packets, cuts):
        # the packets go in chunks, each pumped once it is queued; a chunk
        # is moved later if need be, so that it starts after the time its
        # predecessor's pump ended at, and the single run gets the packets
        # at the same times. Sweeps still due when a pump returns are the
        # next pump's, or run's, on the same grid.
        timed = timed_packets(packets)
        split = loop_engine(config, probes)
        bounds = [0, *sorted(c for c in cuts if c < len(timed)), len(timed)]
        shift, sent = 0, []
        for start, end in zip(bounds, bounds[1:]):
            if start:
                shift = max(shift, split.scheduler.now_us() + 1 - timed[start][0])
            for at_us, data in timed[start:end]:
                split.conduit.inject(data, at_us=at_us + shift)
                sent.append((at_us + shift, data))
            split.pump()
        split.run()
        whole = loop_engine(config, probes, sent)
        whole.run()
        assert run_state(split) == run_state(whole)

    def test_flows_still_open_close_at_the_last_event(self):
        # a SYN to a black hole and a datagram at 0 s: the datagram's flow
        # expires at the sweep at 31 s, the last event, and the shutdown
        # that closes the connecting flow is stamped with that time
        engine = build_engine([])
        syn = FlowKey(PROTO_TCP, ("10.0.0.2", 40000), ("203.0.113.9", 80))
        udp = FlowKey(PROTO_UDP, ("10.0.0.2", 40001), ("203.0.113.9", 9))
        for pkt in (make_tcp_packet(syn.src, syn.dst, seq=1, ack=0, flags=SYN),
                    make_udp_packet(udp.src, udp.dst, payload=b"x")):
            engine.conduit.inject(serialize_packet(pkt), at_us=0)
        engine.run()
        assert logged(engine, "eviction") == [
            {"ts_us": 31_000_000, "evicted": [str(udp)], "removed_closed": []},
            {"ts_us": 31_000_000, "evicted": [], "removed_closed": [str(syn)]}]
        assert engine.counters["shutdown_closed"] == 1

    def test_tcp_only_run_samples_plugin_memory(self):
        # no UDP flow to expire and no closed flow before 10 s: the
        # governor's samples alone make each grid point due, so a plugin
        # over its memory budget goes at the third interval past its grace
        class Bloated(TrafficPlugin):
            def memory_estimate(self):
                return 1 << 20

        engine = build_engine([ECHO], EngineConfig(local_isn=1))
        engine.host.register(PluginDescriptor(
            id="fat", name="fat", requested=Permission.OBSERVE,
            budget=ResourceBudget(max_mem_bytes=1024, violation_grace=2)), Bloated())
        for at_us, flags, seq in ((0, SYN, 1), (10_000_000, RST, 2)):
            engine.conduit.inject(serialize_packet(make_tcp_packet(
                ("10.0.0.2", 40000), ("10.3.0.1", 80), seq=seq, ack=0, flags=flags)),
                at_us=at_us)
        engine.run()
        assert [(e["ts_us"], e["detail"].split(":")[0]) for e in engine.host.governor_events] \
            == [(3_000_000, "MemOverrun")]
        assert engine.counters["tcp_flows_reset"] == 1
        # the grid point at 10 s sweeps behind the reset that falls on it
        assert logged(engine, "eviction") == [
            {"ts_us": 10_000_000, "evicted": [], "removed_closed": [
                str(FlowKey(PROTO_TCP, ("10.0.0.2", 40000), ("10.3.0.1", 80)))]}]


class TestPump:
    def test_a_timer_far_in_the_future_runs_inside_one_pump(self):
        # pump takes packets, timers and sweeps in time order: the clock
        # jumps to each, the idle flow of the packet at 1 s is evicted at
        # the grid point at 32 s while later work is pending, and the pump
        # returns once the packet at 2 h is read, its flow's sweep still due
        engine = build_engine([ECHO])
        sched = engine.scheduler
        seen = []
        for at_us in (500_000, 1_500_000, 3_600_000_000):
            sched.call_at(at_us, lambda: seen.append(
                (sched.now_us(), [key.src[1] for key in engine.flows])))
        keys = [FlowKey(PROTO_UDP, ("10.0.0.2", port), ("10.3.0.1", 7)) for port in (40000, 40001)]
        for at_us, key in zip((1_000_000, 7_200_000_000), keys):
            engine.conduit.inject(serialize_packet(make_udp_packet(
                key.src, key.dst, payload=b"x")), at_us=at_us)
        engine.pump()
        assert seen == [(500_000, []), (1_500_000, [40000]), (3_600_000_000, [])]
        assert logged(engine, "eviction") == [
            {"ts_us": 32_000_000, "evicted": [str(keys[0])], "removed_closed": []}]
        assert list(engine.flows) == [keys[1]] and sched.now_us() == 7_200_000_000
        assert sched.pending() == 0 and engine.conduit.next_ready_us() is None
        engine.run()  # the sweep grid carries over: 7,200 s + 30 s idle, on the next point
        assert logged(engine, "eviction")[1:] == [
            {"ts_us": 7_231_000_000, "evicted": [str(keys[1])], "removed_closed": []}]

    def test_a_wall_clock_pump_evicts_on_the_grid_while_a_reply_is_pending(self):
        # a datagram's flow may go 2 ms after its echo; a SYN's connect
        # completes some 50 ms later, and pump waits for it
        slow = {"cidr": "10.5.0.0/24", "behavior": "echo", "delay_us": 25_000}
        engine = build_engine([ECHO, slow], EngineConfig(
            local_isn=1, udp_timeout_us=2_000, dns_timeout_us=2_000, sweep_interval_us=1_000),
            clock=WALL)
        udp = FlowKey(PROTO_UDP, ("10.0.0.2", 40000), ("10.3.0.1", 7))
        sent_us = engine.scheduler.now_us()
        engine.conduit.inject(serialize_packet(make_udp_packet(udp.src, udp.dst, payload=b"x")))
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            ("10.0.0.2", 40001), ("10.5.0.1", 80), seq=1, ack=0, flags=SYN)))
        engine.pump()
        (_, echo), (syn_ack_us, syn_ack) = engine.conduit.take_emitted()
        assert parse_packet(echo).payload == b"x"
        assert parse_packet(syn_ack).transport.flags == SYN | ACK
        (eviction,) = logged(engine, "eviction")
        assert eviction["evicted"] == [str(udp)] and udp not in engine.flows
        assert sent_us + 2_000 < eviction["ts_us"] < syn_ack_us


class TestSweepWork:
    def test_a_sweep_with_no_event_log_formats_no_key(self, monkeypatch):
        engine = build_engine([ECHO])
        engine.events = None
        tcp = FlowKey(PROTO_TCP, ("10.0.0.2", 40000), ("10.3.0.1", 80))
        send(engine, make_udp_packet(("10.0.0.2", 40001), ("10.3.0.1", 7), payload=b"x"))
        send(engine, make_tcp_packet(tcp.src, tcp.dst, seq=1, ack=0, flags=SYN))
        send(engine, make_tcp_packet(tcp.src, tcp.dst, seq=2, ack=0, flags=RST))
        run_until(engine, 31_000_000)
        formatted = counting(monkeypatch, FlowKey, "__str__")
        engine.sweep()
        assert engine.flows == {} and formatted == []
        assert engine.counters["udp_flows_evicted_idle"] == 1

    def test_the_sweep_check_runs_once_per_grid_point_crossed(self, monkeypatch):
        # 100 datagrams and their echoes from 1.5 s to 2.5 s cross the grid
        # points at 1 s and 2 s; no flow can go before 31.5 s
        engine = build_engine([ECHO])
        for i in range(100):
            engine.conduit.inject(serialize_packet(make_udp_packet(
                ("10.0.0.2", 40000 + i), ("10.3.0.1", 7), payload=b"x")),
                at_us=1_500_000 + 10_000 * i)
        checks = counting(monkeypatch, Engine, "_sweep_due_us")
        engine.pump()
        assert len(engine.flows) == 100 and len(checks) == 2
