"""DNS what-if probing: sampling, divergence classification, passivity."""

from helpers import build_engine, logged, plugin_state

from mbz import dnswire
from mbz.engine import EngineConfig
from mbz.host import Permission, PluginDescriptor
from mbz.packet import make_udp_packet, serialize_packet
from mbz.plugins.whatif import (
    DIVERGENCE_MISMATCH, DIVERGENCE_NONE, DIVERGENCE_NXDOMAIN_REWRITE,
    DIVERGENCE_TIMEOUT, DIVERGENCES, WhatIfPlugin, classify, _Outcome,
)

WHATIF_PERMS = Permission.OBSERVE | Permission.INJECT_PACKETS

ORIGINAL = ("8.8.8.8", 53)
ALT = ("9.9.9.9", 53)


def resolver_script(cidr, answers, **kw):
    return {"cidr": cidr, "ports": [53], "behavior": "dns",
            "answers": answers, **kw}


def setup(scripts, probability=1.0, alt_resolvers=(ALT,)):
    engine = build_engine(scripts)
    plugin = WhatIfPlugin(list(alt_resolvers), probability=probability, seed=7)
    engine.host.register(PluginDescriptor(
        id="whatif", name="dns-whatif", requested=WHATIF_PERMS), plugin)
    plugin.bind(engine.host, "whatif")
    return engine, plugin


def query(engine, qname, qid=1, src_port=50000):
    engine.conduit.inject(serialize_packet(make_udp_packet(
        ("10.0.0.2", src_port), ORIGINAL,
        payload=dnswire.build_query(qid, qname))))
    engine.pump()


class TestClassifier:
    def answered(self, ips, rcode=0):
        return _Outcome(answered=True, rcode=rcode, answers=frozenset(ips))

    def test_match_is_none(self):
        a = self.answered(["1.2.3.4"])
        assert classify(a, [self.answered(["1.2.3.4"])]) == DIVERGENCE_NONE

    def test_mismatch(self):
        a = self.answered(["1.2.3.4"])
        assert classify(a, [self.answered(["6.6.6.6"])]) == DIVERGENCE_MISMATCH

    def test_nxdomain_rewrite(self):
        a = self.answered([], rcode=dnswire.RCODE_NXDOMAIN)
        assert classify(a, [self.answered(["6.6.6.6"])]) \
            == DIVERGENCE_NXDOMAIN_REWRITE

    def test_timeout(self):
        a = self.answered(["1.2.3.4"])
        assert classify(a, [_Outcome(timed_out=True)]) == DIVERGENCE_TIMEOUT

    def test_rewrite_beats_timeout(self):
        a = self.answered([], rcode=dnswire.RCODE_NXDOMAIN)
        alts = [_Outcome(timed_out=True), self.answered(["6.6.6.6"])]
        assert classify(a, alts) == DIVERGENCE_NXDOMAIN_REWRITE


class TestScriptedScenarios:
    def test_match_scenario(self):
        engine, plugin = setup([
            resolver_script("8.8.8.8/32", {"example.com": ["93.184.216.34"]}),
            resolver_script("9.9.9.9/32", {"example.com": ["93.184.216.34"]}),
        ])
        query(engine, "example.com")
        assert len(logged(engine, "probe")) == 1
        assert logged(engine, "probe")[0]["divergence"] == DIVERGENCE_NONE

    def test_mismatch_scenario(self):
        engine, plugin = setup([
            resolver_script("8.8.8.8/32", {"example.com": ["93.184.216.34"]}),
            resolver_script("9.9.9.9/32", {"example.com": ["6.6.6.6"]}),
        ])
        query(engine, "example.com")
        assert logged(engine, "probe")[0]["divergence"] == DIVERGENCE_MISMATCH

    def test_nxdomain_rewrite_scenario(self):
        # the original resolver says NXDOMAIN; the alternate has an answer
        engine, plugin = setup([
            resolver_script("8.8.8.8/32", {}),
            resolver_script("9.9.9.9/32", {"censored.example": ["4.4.4.4"]}),
        ])
        query(engine, "censored.example")
        assert logged(engine, "probe")[0]["divergence"] == DIVERGENCE_NXDOMAIN_REWRITE

    def test_timeout_scenario(self):
        # no script at the alternate address: the probe blackholes
        engine, plugin = setup([
            resolver_script("8.8.8.8/32", {"example.com": ["93.184.216.34"]}),
        ])
        query(engine, "example.com")
        assert logged(engine, "probe")[0]["divergence"] == DIVERGENCE_TIMEOUT
        alt = logged(engine, "probe")[0]["alternates"]["9.9.9.9:53"]
        assert alt["timed_out"] is True

    def test_original_timeout_closes_probe(self):
        engine, plugin = setup([
            resolver_script("8.8.8.8/32", {"example.com": ["1.1.1.1"]},
                            tamper={"drop": ["example.com"]}),
            resolver_script("9.9.9.9/32", {"example.com": ["1.1.1.1"]}),
        ])
        query(engine, "example.com")
        assert logged(engine, "probe")[0]["original"]["timed_out"] is True
        assert logged(engine, "probe")[0]["divergence"] == DIVERGENCE_TIMEOUT


    def test_retransmitted_query_probed_once(self):
        # the same query (same source port and DNS id) sent again before
        # the original resolver's timeout is a retransmission, not a new
        # sample; a second probe under the same key used to be closed by
        # the first one's timeout and then crash the run
        engine, plugin = setup([
            resolver_script("9.9.9.9/32", {"example.com": ["1.1.1.1"]}),
        ])
        for at_us in (0, 1_000_000):
            engine.conduit.inject(serialize_packet(make_udp_packet(
                ("10.0.0.2", 50000), ORIGINAL,
                payload=dnswire.build_query(1, "example.com"))), at_us=at_us)
        engine.run()
        assert plugin.sampled == 1
        assert len(logged(engine, "probe")) == 1
        assert logged(engine, "probe")[0]["original"]["timed_out"] is True
        assert logged(engine, "probe")[0]["divergence"] == DIVERGENCE_TIMEOUT


class TestSamplingAndPassivity:
    def test_probability_zero_never_probes(self):
        engine, plugin = setup([
            resolver_script("8.8.8.8/32", {"example.com": ["1.1.1.1"]}),
            resolver_script("9.9.9.9/32", {"example.com": ["1.1.1.1"]}),
        ], probability=0.0)
        for i in range(50):
            query(engine, "example.com", qid=i, src_port=50000 + i)
        assert plugin.sampled == 0
        assert logged(engine, "probe") == []

    def test_original_answers_identical_with_probing_on_and_off(self):
        def run(probability):
            engine, _plugin = setup([
                resolver_script("8.8.8.8/32", {"example.com": ["93.184.216.34"]}),
                resolver_script("9.9.9.9/32", {"example.com": ["6.6.6.6"]}),
            ], probability=probability)
            for i in range(10):
                query(engine, "example.com", qid=i, src_port=50000 + i)
            return [d for _t, d in engine.conduit.take_emitted()]

        assert run(1.0) == run(0.0)

    def test_probe_bytes_metered_against_budget(self):
        engine, plugin = setup([
            resolver_script("8.8.8.8/32", {"example.com": ["1.1.1.1"]}),
            resolver_script("9.9.9.9/32", {"example.com": ["1.1.1.1"]}),
        ])
        query(engine, "example.com")
        slot = engine.host._slots["whatif"]
        assert sum(n for _t, n in slot.emitted_window) > 0

    def test_throttle_hint_suppresses_sampling(self):
        from mbz.clock import Scheduler
        from mbz.conduit import InMemoryConduit
        from mbz.engine import Engine, EngineConfig
        from mbz.host import DeviceContext, PluginHost
        from mbz.config import script_from_dict
        from mbz.upstream import SimUpstream

        sched = Scheduler()
        conduit = InMemoryConduit(sched)
        upstream = SimUpstream([script_from_dict(
            resolver_script("8.8.8.8/32", {"example.com": ["1.1.1.1"]}))],
            sched, rng_seed=0)
        host = PluginHost(sched, upstream=upstream, low_battery_threshold=20)
        host.update_context(DeviceContext(battery_percent=15))
        engine = Engine(EngineConfig(local_isn=1), conduit, upstream, host, sched)
        plugin = WhatIfPlugin([ALT], probability=1.0, seed=7)
        host.register(PluginDescriptor(
            id="whatif", name="dns-whatif", requested=WHATIF_PERMS), plugin)
        plugin.bind(host, "whatif")
        conduit.inject(serialize_packet(make_udp_packet(
            ("10.0.0.2", 50000), ORIGINAL,
            payload=dnswire.build_query(1, "example.com"))))
        engine.pump()
        assert plugin.sampled == 0


class TestRefusedProbes:
    """A probe the host refuses abandons its query: nothing stays pending."""

    ALT2 = ("1.0.0.1", 53)
    SCRIPTS = [
        resolver_script("8.8.8.8/32", {"example.com": ["1.1.1.1"]}),
        resolver_script("9.9.9.9/32", {"example.com": ["1.1.1.1"]}),
        resolver_script("1.0.0.1/32", {"example.com": ["1.1.1.1"]}),
    ]

    def setup_with(self, perms, alt_resolvers, budget=None):
        from mbz.host import ResourceBudget
        engine = build_engine(self.SCRIPTS)
        plugin = WhatIfPlugin(list(alt_resolvers), probability=1.0, seed=7)
        engine.host.register(PluginDescriptor(
            id="whatif", name="dns-whatif", requested=perms,
            budget=budget or ResourceBudget()), plugin)
        plugin.bind(engine.host, "whatif")
        return engine, plugin

    def test_without_inject_permission(self):
        engine, plugin = self.setup_with(Permission.OBSERVE, [ALT])
        for i in range(5):
            query(engine, "example.com", qid=i, src_port=50000 + i)
        assert plugin.sampled == 0
        assert plugin._pending == {}
        assert plugin.report() == {"sampled_queries": 0,
                                   "divergences": dict.fromkeys(DIVERGENCES, 0)}
        assert logged(engine, "probe") == []
        assert [v["kind"] for v in engine.host.violations] == ["permission-denied"] * 5
        assert plugin_state(engine.host, "whatif")["violations"] == 5

    def test_disabled_by_emitted_bytes_budget(self):
        from mbz.host import ResourceBudget
        # each probe is a 29-byte query: the third one overruns for the
        # second time in a row, past a grace of 1
        engine, plugin = self.setup_with(
            WHATIF_PERMS, [ALT],
            ResourceBudget(max_emitted_bytes_per_min=40, violation_grace=1))
        for i in range(3):
            query(engine, "example.com", qid=i, src_port=50000 + i)
        assert not plugin_state(engine.host, "whatif")["enabled"]
        assert plugin.sampled == 2
        assert plugin._pending == {}
        assert [p["divergence"] for p in logged(engine, "probe")] == [DIVERGENCE_NONE] * 2

    def test_disabled_between_two_probes_of_one_query(self):
        from mbz.host import ResourceBudget
        # the second query's first probe goes out, its second is refused;
        # the first probe's reply and the timeout find the query finished
        engine, plugin = self.setup_with(
            WHATIF_PERMS, [ALT, self.ALT2],
            ResourceBudget(max_emitted_bytes_per_min=40, violation_grace=2))
        for i in range(2):
            query(engine, "example.com", qid=i, src_port=50000 + i)
        assert not plugin_state(engine.host, "whatif")["enabled"]
        assert engine.scheduler.pending() == 0  # pump ran every timer
        assert plugin.sampled == 1
        assert plugin._pending == {}
        assert len(logged(engine, "probe")) == 1
