"""Each seeded random stream against an eagerly seeded `random.Random`.

The engine, the upstream simulator and the what-if plugin seed their
generators at the first draw, so a run that never draws builds none.
Those streams must still give the draws `random.Random(seed)` gives,
in the same order. The pinned outputs cannot show a change here: every
golden config fixes `local_isn` and samples with `probability: 1.0`.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import build_engine, drain_timers, logged

from mbz import dnswire
from mbz.clock import Scheduler
from mbz.config import load_config, script_from_dict
from mbz.engine import EngineConfig
from mbz.host import Permission, PluginDescriptor
from mbz.packet import ACK, SYN, make_tcp_packet, make_udp_packet, parse_packet, serialize_packet
from mbz.plugins.whatif import WhatIfPlugin
from mbz.runner import ReplayRun
from mbz.upstream import SimUpstream

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden" / "config.yaml"

seeds = st.integers(0, 2**63)
counts = st.integers(1, 40)


def whatif_run(resolvers, probability, seed, n):
    """An engine with a what-if plugin that has seen `n` distinct queries
    to 8.8.8.8 (`q0.example`, `q1.example`, ...), so each could draw once."""
    engine = build_engine([
        {"cidr": f"{ip}/32", "ports": [53], "behavior": "dns", "answers": {}}
        for ip in ("8.8.8.8", "9.9.9.9")])
    plugin = WhatIfPlugin(resolvers, probability=probability, seed=seed)
    engine.host.register(PluginDescriptor(
        id="whatif", name="dns-whatif",
        requested=Permission.OBSERVE | Permission.INJECT_PACKETS), plugin)
    plugin.bind(engine.host, "whatif")
    for i in range(n):
        engine.conduit.inject(serialize_packet(make_udp_packet(
            ("10.0.0.2", 50000 + i), ("8.8.8.8", 53),
            payload=dnswire.build_query(i, f"q{i}.example"))))
    engine.pump()
    return engine, plugin


class TestStreamsMatchAnEagerGenerator:
    @settings(deadline=None)
    @given(seeds, counts)
    def test_engine_isns(self, seed, n):
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "echo"}],
                              EngineConfig(local_isn=None, seed=seed))
        for i in range(n):
            engine.conduit.inject(serialize_packet(make_tcp_packet(
                ("10.0.0.2", 40000 + i), ("10.1.0.1", 80), seq=1000, ack=0, flags=SYN)))
        engine.pump()
        isn_by_port = {}
        for _ts, data in engine.conduit.take_emitted():
            pkt = parse_packet(data)
            assert pkt.transport.flags & (SYN | ACK) == SYN | ACK
            isn_by_port[pkt.transport.dst_port] = pkt.transport.seq
        eager = random.Random(seed)
        assert [isn_by_port[40000 + i] for i in range(n)] \
            == [eager.getrandbits(32) for _ in range(n)]

    @settings(deadline=None)
    @given(seeds, counts, st.integers(0, 10_000), st.integers(1, 10_000))
    def test_simulator_jittered_delays(self, seed, n, delay_us, jitter_us):
        sched = Scheduler()
        net = SimUpstream([script_from_dict({
            "cidr": "10.0.0.1/32", "behavior": "echo",
            "delay_us": delay_us, "jitter_us": jitter_us})], sched, rng_seed=seed)
        handle = net.open_datagram()
        arrival = {}
        handle.set_callback(lambda _addr, data: arrival.setdefault(data, sched.now_us()))
        for i in range(n):  # each echoed datagram draws once, when it is sent
            handle.send_to(("10.0.0.1", 9), i.to_bytes(2, "big"))
        drain_timers(sched)
        eager = random.Random(seed)
        assert [arrival[i.to_bytes(2, "big")] for i in range(n)] \
            == [delay_us + eager.randint(0, jitter_us) for _ in range(n)]

    @settings(deadline=None)
    @given(seeds, counts, st.floats(0.01, 0.99))
    def test_whatif_sampling_decisions(self, seed, n, probability):
        engine, _plugin = whatif_run([("9.9.9.9", 53)], probability, seed, n)
        probed = [dnswire.parse_message(data).qname
                  for addr, data in engine.upstream.datagram_log if addr == ("9.9.9.9", 53)]
        eager = random.Random(seed)
        assert probed == [f"q{i}.example" for i in range(n) if eager.random() < probability]


class CountingRandom(random.Random):
    made = 0

    def __init__(self, *args):
        CountingRandom.made += 1
        super().__init__(*args)


class TestConstruction:
    @pytest.mark.parametrize("local_isn, whatif, made", [
        (5000, False, 0),
        (None, False, 1),  # the engine draws each ISN
        (5000, True, 1),   # the what-if plugin samples the golden trace's queries
    ], ids=["fixed-isn-no-whatif", "random-isn", "whatif"])
    def test_random_generators_built_by_a_golden_replay(self, monkeypatch, local_isn,
                                                         whatif, made):
        config = load_config(GOLDEN)  # no script sets jitter_us
        config.engine.local_isn = local_isn
        if not whatif:
            config.plugins = [p for p in config.plugins if p.descriptor.name != "dns-whatif"]
        monkeypatch.setattr(random, "Random", CountingRandom)
        CountingRandom.made = 0
        run = ReplayRun(config)
        assert CountingRandom.made == 0  # construction builds none
        run.execute()
        assert CountingRandom.made == made

    def test_whatif_without_resolvers_never_samples(self, monkeypatch):
        monkeypatch.setattr(random, "Random", CountingRandom)
        CountingRandom.made = 0
        engine, plugin = whatif_run([], 0.5, 1, 5)
        assert (CountingRandom.made, plugin.sampled, logged(engine, "probe")) == (0, 0, [])
