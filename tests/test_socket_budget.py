"""The socket budget: every upstream handle, a plugin's probe too, opens
through the engine's one gate, so the handle count never passes
`socket_budget` and `budget_high_water` is the true peak."""

import gc
import weakref
from contextlib import contextmanager

from helpers import build_engine, logged
from hypothesis import given, settings, strategies as st

from mbz import dnswire
from mbz.engine import EngineConfig
from mbz.host import Permission, PluginDescriptor
from mbz.packet import RST, SYN, make_tcp_packet, make_udp_packet, parse_packet, serialize_packet
from mbz.plugins.whatif import WhatIfPlugin
from mbz.upstream import SimUpstream

ORIGINAL = ("8.8.8.8", 53)
ALT = ("9.9.9.9", 53)
BLACK_HOLE = ("203.0.113.9", 80)


@contextmanager
def spied_opens():
    """Record the upstream's handle count after each open of any SimUpstream."""
    counts = []
    originals = {name: getattr(SimUpstream, name) for name in ("open_stream", "open_datagram")}

    def spy(original):
        def spied(net, *args):
            handle = original(net, *args)
            counts.append(net.active_handle_count())
            return handle
        return spied

    for name, original in originals.items():
        setattr(SimUpstream, name, spy(original))
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(SimUpstream, name, original)


def probing_engine(budget, scripts=(), alt_resolvers=(ALT,)):
    """An engine with `socket_budget` `budget` and a what-if plugin that
    probes every query."""
    engine = build_engine(list(scripts), EngineConfig(local_isn=5000, socket_budget=budget))
    plugin = WhatIfPlugin(list(alt_resolvers), probability=1.0, seed=7)
    engine.host.register(PluginDescriptor(
        id="whatif", name="dns-whatif",
        requested=Permission.OBSERVE | Permission.INJECT_PACKETS), plugin)
    plugin.bind(engine.host, "whatif")
    return engine, plugin


def dns_query(qid, src_port, src_ip="10.0.0.2"):
    return serialize_packet(make_udp_packet(
        (src_ip, src_port), ORIGINAL, payload=dnswire.build_query(qid, "example.com")))


def syn_to_black_hole(src_port):
    return serialize_packet(make_tcp_packet(("10.0.0.2", src_port), BLACK_HOLE,
                                            seq=1, ack=0, flags=SYN))


def feed(engine, *packets):
    """Offer app packets now, running no timer (`pump` would run them all)."""
    for data in packets:
        engine.on_app_packet(engine.scheduler.now_us(), data)


def resolver(cidr):
    return {"cidr": cidr, "ports": [53], "behavior": "dns",
            "answers": {"example.com": ["1.1.1.1"]}}


def test_probes_stay_inside_the_budget():
    # black-holed original and alternate resolvers: no probe ever finishes,
    # so each one would hold its handle to the end of the window
    engine, plugin = probing_engine(4)
    with spied_opens() as counts:
        feed(engine, *(dns_query(qid, 50000 + qid) for qid in range(8)))
    # three probes and the queries' shared handle; the fourth probe is refused
    assert max(counts) == 4
    assert engine.counters["budget_high_water"] == 4
    assert plugin.sampled == 3 and len(plugin._pending) == 3
    engine.run()
    assert engine.upstream.active_handle_count() == 0


def test_the_host_keeps_no_cycle_back_to_the_engine():
    # a benchmark builds a stack per batch: each engine is freed when its
    # last reference goes, not at the next collection of cycles
    gc.disable()
    try:
        engine = build_engine([])
        host, ref = engine.host, weakref.ref(engine)
        del engine
        assert ref() is None and host.open_datagram is not None
    finally:
        gc.enable()


class TestAFullBudget:
    def test_a_refused_probe_sends_nothing_and_is_not_metered(self):
        engine, plugin = probing_engine(1)
        feed(engine, syn_to_black_hole(40000), dns_query(1, 50000))  # the SYN holds the handle
        assert plugin.sampled == 0 and plugin._pending == {}
        assert engine.host._slots["whatif"].emitted_in_window == 0
        assert engine.upstream.datagram_log == []
        assert engine.counters["udp_refused_budget"] == 1
        engine.run()
        assert logged(engine, "probe") == []

    def test_a_syn_while_probes_hold_the_budget_is_reset(self):
        engine, plugin = probing_engine(1)
        feed(engine, dns_query(1, 50000))  # its probe takes the one handle
        assert plugin.sampled == 1 and engine.counters["udp_refused_budget"] == 1
        assert engine.conduit.take_emitted() == []
        feed(engine, syn_to_black_hole(40000))
        [(_ts, data)] = engine.conduit.take_emitted()
        assert parse_packet(data).transport.flags & RST
        assert engine.counters["tcp_refused_budget"] == 1
        assert engine.counters["budget_high_water"] == 1

    def test_pressure_relief_counts_probe_handles(self):
        # two probes and the queries' shared handle: 3 handles over a
        # threshold of 0.9 * 3, with only the DNS flows to evict
        engine, plugin = probing_engine(3)
        feed(engine, dns_query(0, 50000), dns_query(1, 50001))
        assert engine.upstream.active_handle_count() == 3
        assert engine._sweep_due_us(True) == engine.scheduler.now_us()
        engine.sweep()
        assert engine.counters["udp_flows_evicted_pressure"] == 2
        assert engine.upstream.active_handle_count() == 2  # the probes' own


_EVENTS = st.lists(st.tuples(
    st.integers(0, 5_000_000),  # when
    st.sampled_from(["query", "query", "query", "syn"]),
    st.sampled_from(["10.0.0.2", "10.0.0.3"]),  # the querying app's address
), max_size=24)


class TestBudgetHoldsEveryOpen:
    @settings(deadline=None)
    @given(budget=st.integers(1, 8), events=_EVENTS,
           alt_answers=st.booleans(), original_answers=st.booleans())
    def test_the_count_never_passes_the_budget(self, budget, events, alt_answers,
                                               original_answers):
        scripts = ([resolver("9.9.9.9/32")] if alt_answers else []) \
            + ([resolver("8.8.8.8/32")] if original_answers else [])
        engine, _plugin = probing_engine(budget, scripts)
        queries = [e for e in events if e[1] == "query"][:20]
        syns = [e for e in events if e[1] == "syn"][:4]
        for i, (at_us, kind, src_ip) in enumerate(sorted(queries + syns)):
            data = (dns_query(i, 50000 + i, src_ip) if kind == "query"
                    else syn_to_black_hole(40000 + i))
            engine.conduit.inject(data, at_us=at_us)
        with spied_opens() as counts:
            engine.run()
        assert all(count <= budget for count in counts)
        assert engine.counters["budget_high_water"] == max(counts, default=0)
        assert engine.upstream.active_handle_count() == 0
