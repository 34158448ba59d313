"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints `ACCEPTANCE <name>: PASS` when it completes (run with
-s to see the lines live); a failed assertion fails the test and the
criterion with it. Tolerances are pinned here, not deferred.
"""

import json
import random
import time
from pathlib import Path

from helpers import (AppPeer, Driver, build_engine, exchange, logged, plugin_state,
                     random_chunks)

from mbz import dnswire
from mbz.clock import Scheduler
from mbz.conduit import ReplayConduit
from mbz.config import load_config
from mbz.engine import Engine, EngineConfig
from mbz.host import (
    Block, BlockMode, EventKind, Modify, Permission, PluginContext,
    PluginDescriptor, PluginHost, ResourceBudget, TrafficPlugin,
)
from mbz.bench import run_bench
from mbz.packet import (
    RST, SYN, ACK, make_tcp_packet, make_udp_packet, parse_packet,
    serialize_packet,
)
from mbz.pcapio import pcap_read
from mbz.report import delta_cdf
from mbz.runner import ReplayRun, report_json_bytes, write_outputs
from mbz.trace import APP_TO_NET, TraceEvent
from mbz.upstream import SimUpstream

DATA = Path(__file__).resolve().parent.parent / "data"


def announce(name):
    print(f"\nACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# TCP proxy correctness: 1,000 randomized exchanges, byte-identical
# transcripts both directions, under 60 s.
# ---------------------------------------------------------------------------

def _proxy_case(seed: int) -> None:
    rng = random.Random(seed)
    size = rng.randint(10, 10_000)
    response = None  # echo
    if rng.random() < 0.4:
        response = random.Random(seed ^ 0xFFFF).randbytes(rng.randint(0, 4000))
        scripts = [{"cidr": "10.1.0.1/32", "behavior": "static",
                    "response_hex": response.hex()}]
    else:
        scripts = [{"cidr": "10.1.0.1/32", "behavior": "echo"}]
    engine = build_engine(scripts, EngineConfig(local_isn=rng.getrandbits(32)))
    driver = Driver(engine)
    peer = driver.add_peer(AppPeer(engine, ("10.0.0.2", 40000), ("10.1.0.1", 80),
                                   isn=rng.getrandbits(32)))
    payload = random.Random(seed + 1).randbytes(size)
    ending = "rst" if rng.random() < 0.3 else "fin"

    peer.syn()
    driver.drive()
    assert peer.established
    chunks = random_chunks(rng, size)
    if rng.random() < 0.25 and len(chunks) >= 2:
        # deliver one adjacent pair out of order; go-back-N must converge
        i = rng.randrange(len(chunks) - 1)
        base = peer.snd_nxt
        offsets = [sum(chunks[:j]) for j in range(len(chunks))]
        order = list(range(len(chunks)))
        order[i], order[i + 1] = order[i + 1], order[i]
        peer.sent_log.extend(payload)
        peer._unacked.extend(payload)
        for j in order:
            peer._send_segment((base + offsets[j]) & 0xFFFFFFFF,
                               payload[offsets[j]:offsets[j] + chunks[j]])
        peer.snd_nxt = (base + size) & 0xFFFFFFFF
        driver.drive_with_retransmits(peer)
    else:
        peer.send(payload, chunks=chunks)
        driver.drive_with_retransmits(peer)
    if ending == "fin":
        peer.fin()
    else:
        peer.rst()
    driver.drive()

    transcript = engine.upstream.transcripts[0]
    assert bytes(transcript.received) == payload, f"case {seed}: upstream bytes differ"
    expected = payload if response is None else response
    assert bytes(peer.received) == expected, \
        f"case {seed}: downstream bytes differ"


def test_tcp_proxy_correctness_1000_randomized_cases():
    started = time.perf_counter()
    for seed in range(1000):
        _proxy_case(seed)
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"suite took {elapsed:.1f}s"
    announce(f"tcp-proxy-correctness (1000 cases, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Handshake synthesis: SYN/ACK seq=L ack=S+1, refusal RST ack=S+1,
# exhaustive over 100 random S values.
# ---------------------------------------------------------------------------

def test_handshake_synthesis_100_random_isns():
    rng = random.Random(42)
    local_isn = 77_000_001
    for i in range(100):
        s = rng.getrandbits(32)
        refused = i % 2 == 1
        scripts = [{"cidr": "10.1.0.1/32",
                    "behavior": "reset" if refused else "echo"}]
        engine = build_engine(scripts, EngineConfig(local_isn=local_isn))
        engine.conduit.inject(serialize_packet(make_tcp_packet(
            ("10.0.0.2", 40000), ("10.1.0.1", 80), seq=s, ack=0, flags=SYN)))
        engine.pump()
        out = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        assert len(out) == 1
        tcp = out[0].transport
        assert tcp.ack == (s + 1) % (1 << 32)
        if refused:
            assert tcp.flags & RST
        else:
            assert tcp.flags & (SYN | ACK) == SYN | ACK
            assert tcp.seq == local_isn
    announce("handshake-synthesis (100 random ISNs)")


# ---------------------------------------------------------------------------
# UDP lifecycle: DNS socket reuse, idle eviction within one sweep of the
# timeout, and budget safety under a 10,000-flow stress trace.
# ---------------------------------------------------------------------------

def test_udp_lifecycle_reuse_eviction_budget():
    # reuse: two same-resolver queries share one handle
    engine = build_engine([{"cidr": "8.8.8.8/32", "ports": [53],
                            "behavior": "dns", "answers": {"a.example": ["1.1.1.1"]}}])
    before = engine.upstream.active_handle_count()
    for port, qid in ((50001, 1), (50002, 2)):
        engine.conduit.inject(serialize_packet(make_udp_packet(
            ("10.0.0.2", port), ("8.8.8.8", 53),
            payload=dnswire.build_query(qid, "a.example"))))
    engine.pump()
    assert engine.upstream.active_handle_count() - before == 1

    # idle eviction within [udp_timeout, udp_timeout + sweep_interval]
    engine = build_engine([])
    engine.conduit.inject(serialize_packet(make_udp_packet(
        ("10.0.0.2", 6001), ("203.0.113.1", 9), payload=b"x")))
    engine.pump()
    engine.scheduler.advance_to(30_000_000)
    engine.sweep()
    assert len(engine.flows) == 1  # at the timeout boundary: still alive
    engine.scheduler.advance_to(31_000_000)
    engine.sweep()  # one sweep later
    assert len(engine.flows) == 0

    # budget safety under stress: 10,000 one-datagram flows, budget 512
    events = []
    for i in range(10_000):
        pkt = make_udp_packet(("10.0.0.2", 1024 + (i % 60000)),
                              (f"203.0.{(i >> 8) & 0xFF}.{i & 0xFF}", 9),
                              payload=b"s")
        events.append(TraceEvent(ts_us=i * 1000, direction=APP_TO_NET,
                                 app_label="stress", packet=serialize_packet(pkt)))
    sched = Scheduler()
    conduit = ReplayConduit(events)
    upstream = SimUpstream([], sched, rng_seed=0)
    host = PluginHost(sched, upstream=upstream)
    config = EngineConfig(local_isn=1, socket_budget=512)
    engine = Engine(config, conduit, upstream, host, sched)
    counters = engine.run()
    assert counters["udp_flows_created"] + counters["udp_refused_budget"] == 10_000
    assert counters["budget_high_water"] <= 512
    announce(f"udp-lifecycle (high water {counters['budget_high_water']} <= 512)")


# ---------------------------------------------------------------------------
# Plugin governance: fault-injection plugins exercise downgrade,
# short-circuit, and disable-on-overrun; quiescence over 10,000 events.
# ---------------------------------------------------------------------------

def test_plugin_governance_and_quiescence():
    class Overreacher(TrafficPlugin):       # blocks without permission
        def on_packet_out(self, event, ctx):
            return Block(BlockMode.RESET_APP)

    class Mangler(TrafficPlugin):           # modifies, permitted, at a cost
        cost_us = 0

        def on_packet_out(self, event, ctx):
            sched.advance_to(sched.now_us() + self.cost_us)
            return Modify(event.payload + b"!")

    class Blocker(TrafficPlugin):           # blocks, permitted
        def on_packet_out(self, event, ctx):
            return Block(BlockMode.DROP_SILENT)

    class Tail(TrafficPlugin):              # must never run after Blocker
        def on_packet_out(self, event, ctx):
            return None

    sched = Scheduler()
    host = PluginHost(sched)
    mangler = Mangler()
    budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=3)
    host.register(PluginDescriptor(id="watch", name="w",
                                   requested=Permission.OBSERVE, budget=budget),
                  Overreacher())
    host.register(PluginDescriptor(
        id="mangle", name="m",
        requested=Permission.OBSERVE | Permission.MODIFY_PAYLOAD,
        budget=budget), mangler)
    host.register(PluginDescriptor(
        id="block", name="b",
        requested=Permission.OBSERVE | Permission.BLOCK_FLOW, budget=budget),
        Blocker())
    host.register(PluginDescriptor(id="tail", name="t",
                                   requested=Permission.OBSERVE, budget=budget),
                  Tail())

    def fire():
        return host.dispatch(EventKind.PACKET_OUT, None, "app", b"p")

    action = fire()
    # downgrade: Overreacher's block became a violation, not an action
    assert host.violations[0]["plugin"] == "watch"
    # compose then short-circuit: Mangler applied, Blocker decided, Tail skipped
    assert action.payload == b"p!"
    assert action.block is not None and action.decided_by == "block"
    assert plugin_state(host, "tail")["invocations"] == 0

    # disable-on-overrun: toast the mangler with 2x-budget CPU costs
    mangler.cost_us = 1000  # of virtual time per callback
    for _ in range(budget.violation_grace + 1):
        fire()
    assert not plugin_state(host, "mangle")["enabled"]
    assert any("CpuOverrun" in e["detail"] and e["plugin"] == "mangle"
               for e in host.governor_events)

    # quiescence over 10,000 subsequent events
    mangler.cost_us = 0
    frozen = plugin_state(host, "mangle")["invocations"]
    for _ in range(10_000):
        fire()
    assert plugin_state(host, "mangle")["invocations"] == frozen
    announce("plugin-governance (downgrade, short-circuit, overrun, quiescence)")


# ---------------------------------------------------------------------------
# Snitch reproduction at desk scale: exact aggregates on the committed
# synthetic trace (shape-equivalence, tolerance: exact).
# ---------------------------------------------------------------------------

def test_snitch_reproduction_committed_trace():
    run = ReplayRun(load_config(DATA / "snitch" / "config.yaml"))
    report = run.execute()
    third = report["snitch"]["snitch"]["third_party"]
    assert third["total_flows"] == 372
    assert third["tcp_flows"] == 341
    assert third["udp_flows"] == 31
    assert third["tcp_share_pct"] == 91.7
    assert third["udp_share_pct"] == 8.3
    assert third["organization_count"] > 40
    assert third["orgs_over_10_requests"] == 5
    assert third["quic_flows"] > 0  # QUIC sightings among the UDP flows
    announce("snitch-reproduction (372 flows, 91.7/8.3, >40 orgs, 5 over 10)")


# ---------------------------------------------------------------------------
# Firewall end-to-end on the golden trace: the deny rule removes the org
# and never opens an upstream handle; rewrite changes only targeted octets.
# ---------------------------------------------------------------------------

def test_firewall_end_to_end_golden_trace(tmp_path):
    base_run = ReplayRun(load_config(DATA / "golden" / "config.yaml"))
    base_report = base_run.execute()
    base_orgs = dict(
        base_report["snitch"]["snitch"]["third_party"]["requests_per_org"])
    assert base_orgs.get("blocked-org", 0) > 0

    deny_run = ReplayRun(load_config(DATA / "golden" / "config_deny.yaml"))
    deny_report = deny_run.execute()
    deny_orgs = dict(
        deny_report["snitch"]["snitch"]["third_party"]["requests_per_org"])
    assert "blocked-org" not in deny_orgs
    blocked_ips = {"10.200.1.1"}
    assert all(t.dst[0] not in blocked_ips for t in deny_run.upstream.transcripts)
    assert deny_report["counters"]["blocked_flow_opens"] > 0

    # rewrite: pcap diff shows changes only in the targeted octets
    rewrite_run = ReplayRun(load_config(DATA / "golden" / "config_rewrite.yaml"))
    rewrite_run.execute()
    base_pcap = tmp_path / "base.pcap"
    rewrite_pcap = tmp_path / "rewrite.pcap"
    write_outputs(base_run, base_report, out_pcap=base_pcap)
    write_outputs(rewrite_run, rewrite_run.build_report(), out_pcap=rewrite_pcap)
    records_a = pcap_read(base_pcap)
    records_b = pcap_read(rewrite_pcap)
    assert len(records_a) == len(records_b)
    imei, zeros = b"356938035643809", b"0" * 15
    payload_diffs = 0
    for (_ta, raw_a), (_tb, raw_b) in zip(records_a, records_b):
        pa, pb = parse_packet(raw_a).payload, parse_packet(raw_b).payload
        if pa == pb:
            continue
        payload_diffs += 1
        assert pa.replace(imei, zeros) == pb  # only the IMEI span changed
    assert payload_diffs == 1
    announce("firewall-end-to-end (deny removes org, rewrite exact)")


# ---------------------------------------------------------------------------
# Overhead benchmark: n=1,000 loopback connections, median engine-added
# connect latency < 1 ms, CDF emitted, done in < 2 min.
# ---------------------------------------------------------------------------

def test_overhead_benchmark_1000_connections():
    started = time.perf_counter()
    result = run_bench(1000, concurrency=1)
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"bench took {elapsed:.1f}s"
    assert result.summary["count"] == 1000
    assert result.summary["median_us"] < 1000, \
        f"median delta {result.summary['median_us']}us exceeds 1ms"
    cdf = delta_cdf([s["delta_us"] for s in result.samples])
    xs = [row[0] for row in cdf]
    ys = [row[1] for row in cdf]
    assert xs == sorted(xs) and ys == sorted(ys)
    announce(f"overhead-benchmark (median {result.summary['median_us']}us, "
             f"{elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Determinism: identical config/seed => byte-identical reports and pcaps;
# the report also matches the committed golden file.
# ---------------------------------------------------------------------------

def test_replay_determinism_and_golden_report(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        run = ReplayRun(load_config(DATA / "golden" / "config.yaml"))
        report = run.execute()
        pcap_path = tmp_path / f"{tag}.pcap"
        write_outputs(run, report, out_pcap=pcap_path)
        outputs.append((report_json_bytes(report), pcap_path.read_bytes()))
    assert outputs[0] == outputs[1]
    golden = (DATA / "golden" / "golden_report.json").read_bytes()
    assert outputs[0][0] == golden
    announce("replay-determinism (reports and pcaps byte-identical)")


# ---------------------------------------------------------------------------
# What-if classifier: 100% correct over scripted resolver behaviors, and
# app-visible DNS traffic identical with probing on and off.
# ---------------------------------------------------------------------------

def test_whatif_classifier_matrix_and_noninterference():
    from mbz.plugins.whatif import WhatIfPlugin

    def scenario(original_answers, alt_script):
        scripts = [{"cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns",
                    "answers": original_answers}]
        if alt_script is not None:
            scripts.append(alt_script)
        engine = build_engine(scripts)
        plugin = WhatIfPlugin([("9.9.9.9", 53)], probability=1.0, seed=3)
        engine.host.register(PluginDescriptor(
            id="whatif", name="dns-whatif",
            requested=Permission.OBSERVE | Permission.INJECT_PACKETS), plugin)
        plugin.bind(engine.host, "whatif")
        engine.conduit.inject(serialize_packet(make_udp_packet(
            ("10.0.0.2", 50000), ("8.8.8.8", 53),
            payload=dnswire.build_query(1, "q.example"))))
        engine.pump()
        emitted = [d for _t, d in engine.conduit.take_emitted()]
        assert len(logged(engine, "probe")) == 1
        return logged(engine, "probe")[0]["divergence"], emitted

    alt = lambda answers: {"cidr": "9.9.9.9/32", "ports": [53],
                           "behavior": "dns", "answers": answers}
    cases = [
        ({"q.example": ["1.2.3.4"]}, alt({"q.example": ["1.2.3.4"]}), "None"),
        ({"q.example": ["1.2.3.4"]}, alt({"q.example": ["6.6.6.6"]}),
         "AnswerMismatch"),
        ({}, alt({"q.example": ["4.4.4.4"]}), "NxdomainRewrite"),
        ({"q.example": ["1.2.3.4"]}, None, "Timeout"),
    ]
    for original, alt_script, expected in cases:
        divergence, _ = scenario(original, alt_script)
        assert divergence == expected, (original, expected, divergence)

    # non-interference: original DNS answers byte-identical with probing
    # enabled vs disabled
    def run_with_probability(p):
        scripts = [
            {"cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns",
             "answers": {"q.example": ["1.2.3.4"]}},
            alt({"q.example": ["6.6.6.6"]}),
        ]
        engine = build_engine(scripts)
        plugin = WhatIfPlugin([("9.9.9.9", 53)], probability=p, seed=3)
        engine.host.register(PluginDescriptor(
            id="whatif", name="dns-whatif",
            requested=Permission.OBSERVE | Permission.INJECT_PACKETS), plugin)
        plugin.bind(engine.host, "whatif")
        for i in range(20):
            engine.conduit.inject(serialize_packet(make_udp_packet(
                ("10.0.0.2", 50000 + i), ("8.8.8.8", 53),
                payload=dnswire.build_query(i, "q.example"))))
        engine.pump()
        return [d for _t, d in engine.conduit.take_emitted()]

    assert run_with_probability(1.0) == run_with_probability(0.0)
    announce("whatif-classifier (4/4 scenarios, non-interference)")
