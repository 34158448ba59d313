"""Plugin host: registration, chain semantics, governor, context."""

import fnmatch
import functools
import itertools
import json
import time
from dataclasses import astuple
from pathlib import Path

import pytest
from helpers import counting, plugin_state, written_capture
from hypothesis import given, settings, strategies as st

from mbz import dnswire, tlswire
from mbz import host as host_module
from mbz.clock import Scheduler
from mbz.config import load_config, rule_from_dict, script_from_dict
from mbz.host import (
    Block, BlockMode, Connectivity, DeviceContext, DuplicateId, EventKind,
    MalformedPermissions, Modify, Pass, Permission, PluginContext,
    PluginDescriptor, PluginEvent, PluginHost, Redirect, ResourceBudget,
    TrafficPlugin, permissions_from_names,
    DIR_IN, DIR_OUT, EffectiveAction,
)
from mbz.packet import FlowKey
from mbz.plugins.advisor import AdvisorPlugin
from mbz.plugins.firewall import FirewallPlugin
from mbz.plugins.snitch import OrgMap, SnitchPlugin
from mbz.plugins.whatif import WhatIfPlugin
from mbz.runner import ReplayRun, report_json_bytes
from mbz.upstream import SimUpstream

DATA = Path(__file__).resolve().parent.parent / "data"
OBSERVE = Permission.OBSERVE
ALL = (Permission.OBSERVE | Permission.MODIFY_PAYLOAD | Permission.BLOCK_FLOW
       | Permission.REDIRECT_FLOW | Permission.INJECT_PACKETS)


class ScriptedPlugin(TrafficPlugin):
    """Returns a fixed verdict for packet events in either direction."""

    def __init__(self, verdict=None, raise_exc=False):
        self.verdict = verdict
        self.raise_exc = raise_exc
        self.seen_payloads = []

    def on_packet_out(self, event, ctx):
        self.seen_payloads.append(event.payload)
        if self.raise_exc:
            raise RuntimeError("plugin bug")
        return self.verdict

    on_packet_in = on_packet_out


class RecordContext(TrafficPlugin):
    """Keeps the (event, context) of every callback."""

    def __init__(self):
        self.seen = []

    def _record(self, event, ctx):
        self.seen.append((event, ctx))

    on_flow_open = on_packet_out = on_packet_in = on_flow_close = _record


def make_host(**kw):
    return PluginHost(Scheduler(), **kw)


def probing_host():
    """A host whose probes go to a simulator with no scripts (a black hole)."""
    sched = Scheduler()
    return PluginHost(sched, upstream=SimUpstream([], sched, rng_seed=0))


def probe(host, pid, n_bytes):
    """One probe of `n_bytes` from plugin `pid`; True when it was sent."""
    return host.probe_datagram(pid, ("9.9.9.9", 53), b"q" * n_bytes, lambda _r: None, 1000)


def reg(host, plugin, pid="p", perms=ALL, budget=None, wifi_only=False):
    host.register(PluginDescriptor(
        id=pid, name=pid, requested=perms,
        budget=budget or ResourceBudget(), wifi_only_export=wifi_only), plugin)
    return plugin


def apply_out(host, payload=b"x"):
    return host.dispatch(EventKind.PACKET_OUT, None, "app", payload)


def invocations(host, pid):
    return plugin_state(host, pid)["invocations"]


def enabled(host, pid):
    return plugin_state(host, pid)["enabled"]


class TestEffectiveAction:
    @pytest.mark.parametrize("verdict, block, redirect", [
        (Pass(), False, False),
        (Modify(b"m"), False, False),
        (Block(BlockMode.RESET_APP), True, False),
        (Block(BlockMode.INJECT_RESPONSE, b"r"), True, False),
        (Redirect(("10.9.9.9", 80)), False, True),
    ])
    def test_block_and_redirect_follow_the_verdict(self, verdict, block, redirect):
        # built by keyword, as the CallEverySlot oracle builds it
        action = EffectiveAction(verdict=verdict, payload=b"p", modified=True,
                                 decided_by="fw")
        assert action.block is (verdict if block else None)
        assert action.redirect is (verdict if redirect else None)
        assert (action.verdict, action.payload, action.modified, action.decided_by) \
            == (verdict, b"p", True, "fw")
        assert EffectiveAction(verdict, b"p").modified is False
        assert EffectiveAction(verdict, b"p").decided_by is None

    def test_equal_verdict_and_payload_compare_equal(self):
        for verdict in (Pass(), Modify(b"m"), Block(BlockMode.DROP_SILENT),
                        Redirect(("10.9.9.9", 80))):
            assert EffectiveAction(verdict=verdict, payload=b"p") \
                == EffectiveAction(verdict=type(verdict)(*astuple(verdict)), payload=b"p")
        assert EffectiveAction(verdict=Pass(), payload=b"p") \
            != EffectiveAction(verdict=Pass(), payload=b"q")
        assert EffectiveAction(verdict=Pass(), payload=b"p") \
            != EffectiveAction(verdict=Block(BlockMode.DROP_SILENT), payload=b"p")


class TestRegistration:
    def test_duplicate_id_rejected(self):
        host = make_host()
        reg(host, ScriptedPlugin(), "dup")
        with pytest.raises(DuplicateId):
            reg(host, ScriptedPlugin(), "dup")

    def test_non_observe_without_observe_rejected(self):
        host = make_host()
        with pytest.raises(MalformedPermissions):
            reg(host, ScriptedPlugin(), "bad", perms=Permission.BLOCK_FLOW)

    def test_chain_order_is_registration_order(self):
        host = make_host()
        for pid in ("one", "two", "three"):
            reg(host, ScriptedPlugin(), pid)
        assert [s["id"] for s in host.plugin_states()] == ["one", "two", "three"]

    def test_unknown_permission_name(self):
        with pytest.raises(MalformedPermissions):
            permissions_from_names(["observe", "fly"])

    def test_budget_must_be_positive(self):
        host = make_host()
        with pytest.raises(ValueError):
            reg(host, ScriptedPlugin(), "z",
                budget=ResourceBudget(max_cpu_us_per_packet=0))


class TestChain:
    def test_empty_chain_passes(self):
        # None: the packet goes on untouched, with its own payload
        assert apply_out(make_host(), b"data") is None

    def test_observe_only_block_downgraded_with_violation(self):
        host = make_host()
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "watch",
            perms=OBSERVE)
        assert apply_out(host) is None
        assert len(host.violations) == 1
        assert host.violations[0]["plugin"] == "watch"
        assert host.violations[0]["kind"] == "permission-denied"

    def test_modify_composes_in_chain_order(self):
        host = make_host()
        a = reg(host, ScriptedPlugin(Modify(b"y")), "a")
        b = reg(host, ScriptedPlugin(Modify(b"z")), "b")
        action = apply_out(host, b"x")
        assert action.payload == b"z" and action.modified
        assert a.seen_payloads == [b"x"]
        assert b.seen_payloads == [b"y"]  # sees prior plugin's payload

    def test_block_short_circuits_later_plugins(self):
        host = make_host()
        reg(host, ScriptedPlugin(Modify(b"y")), "a")
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "b")
        reg(host, ScriptedPlugin(Modify(b"never")), "c")
        action = apply_out(host, b"x")
        assert action.block is not None and action.decided_by == "b"
        assert action.payload == b"y"  # modifications before the block stick
        assert invocations(host, "c") == 0

    def test_exception_downgrades_to_pass(self):
        host = make_host()
        reg(host, ScriptedPlugin(raise_exc=True), "bug")
        reg(host, ScriptedPlugin(Modify(b"ok")), "next")
        action = apply_out(host, b"x")
        assert action.payload == b"ok"
        assert host.violations[0]["kind"] == "callback-error"

    def test_inject_response_invalid_on_inbound(self):
        host = make_host()
        reg(host, ScriptedPlugin(Block(BlockMode.INJECT_RESPONSE, b"no")), "inj")
        assert host.dispatch(EventKind.PACKET_IN, None, "app", b"x") is None
        assert host.violations[0]["kind"] == "inject-on-inbound"

    def test_redirect_invalid_on_inbound_and_chain_continues(self):
        host = make_host()
        reg(host, ScriptedPlugin(Redirect(("10.9.9.9", 80))), "switch")
        rec = reg(host, RecordContext(), "rec", perms=OBSERVE)
        assert host.dispatch(EventKind.PACKET_IN, None, "app", b"reply") is None
        assert [(v["plugin"], v["kind"], v["detail"]) for v in host.violations] \
            == [("switch", "redirect-on-inbound", "Redirect")]
        assert [event.payload for event, _ctx in rec.seen] == [b"reply"]
        assert invocations(host, "rec") == 1

    def test_all_three_plugin_verdict_permutations(self):
        # oracle: first Block/Redirect in chain order wins; Modify composes
        # left to right; plugins after the short-circuit are never invoked
        verdicts = {
            "pass": None,
            "modify": Modify(b"m"),
            "block": Block(BlockMode.DROP_SILENT),
            "redirect": Redirect(("1.2.3.4", 80)),
        }

        def oracle(names):
            payload = b"x"
            invoked = []
            for name in names:
                invoked.append(name)
                if name == "modify":
                    payload = b"m"
                elif name in ("block", "redirect"):
                    return name, payload, invoked
            return "pass", payload, invoked

        for names in itertools.product(verdicts, repeat=3):
            host = make_host()
            plugins = [reg(host, ScriptedPlugin(verdicts[n]), f"p{i}")
                       for i, n in enumerate(names)]
            action = apply_out(host, b"x")
            kind, payload, invoked = oracle(names)
            if kind == "pass" and "modify" not in invoked:
                assert action is None, names  # untouched: no outcome object
            else:
                got_kind = ("block" if action.block else
                            "redirect" if action.redirect else "pass")
                assert got_kind == kind, names
                assert action.payload == payload, names
                assert action.modified == ("modify" in invoked), names
            for i in range(3):
                expected = 1 if i < len(invoked) else 0
                assert invocations(host, f"p{i}") == expected, names


class Costly(ScriptedPlugin):
    """Each packet callback costs a scripted number of microseconds of
    scheduler time (then none): it advances the virtual clock while it runs."""

    def __init__(self, sched, costs_us, verdict=None):
        super().__init__(verdict)
        self.sched = sched
        self.costs_us = list(costs_us)

    def on_packet_out(self, event, ctx):
        if self.costs_us:
            self.sched.advance_to(self.sched.now_us() + self.costs_us.pop(0))
        return super().on_packet_out(event, ctx)

    on_packet_in = on_packet_out


class CountingScheduler(Scheduler):
    """A scheduler that counts its clock reads."""
    reads = 0

    def now_us(self):
        self.reads += 1
        return super().now_us()


class TestGovernor:
    def test_cpu_overrun_past_grace_disables(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=3)
        sched = Scheduler()
        host = PluginHost(sched)
        reg(host, Costly(sched, [1000] * 4), "hog", budget=budget)  # 2x budget, grace+1 times
        for _ in range(4):
            apply_out(host)
        assert not enabled(host, "hog")
        assert host.governor_events[0]["plugin"] == "hog"
        assert "CpuOverrun" in host.governor_events[0]["detail"]

    def test_single_spike_within_grace_stays_enabled(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=3)
        sched = Scheduler()
        host = PluginHost(sched)
        reg(host, Costly(sched, [1000, 10, 1000, 10, 1000, 10]), "spiky", budget=budget)
        for _ in range(6):
            apply_out(host)
        assert enabled(host, "spiky")

    def test_disabled_plugin_quiescent_and_finalized_once(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=1)

        class Finalizable(Costly):
            finalized = 0

            def finalize(self, ctx):
                Finalizable.finalized += 1

        sched = Scheduler()
        host = PluginHost(sched)
        reg(host, Finalizable(sched, [1000] * 2), "dead", budget=budget)
        for _ in range(2):
            apply_out(host)
        assert not enabled(host, "dead")
        count = invocations(host, "dead")
        for _ in range(50):
            apply_out(host)
        assert invocations(host, "dead") == count
        assert Finalizable.finalized == 1

    def test_memory_overrun_at_tick(self):
        class Bloated(ScriptedPlugin):
            def memory_estimate(self):
                return 100 * 1024 * 1024

        budget = ResourceBudget(max_mem_bytes=1024, violation_grace=2)
        host = make_host()
        reg(host, Bloated(), "fat", budget=budget)
        for _ in range(3):
            host.governor_tick()
        assert not enabled(host, "fat")
        assert "MemOverrun" in host.governor_events[0]["detail"]

    def test_emitted_bytes_overrun_with_grace(self):
        budget = ResourceBudget(max_emitted_bytes_per_min=100, violation_grace=2)
        host = probing_host()
        reg(host, ScriptedPlugin(), "chatty", budget=budget)
        assert [probe(host, "chatty", 200) for _ in range(3)] \
            == [True, True, False]
        assert not enabled(host, "chatty")
        assert "EmittedOverrun" in host.governor_events[0]["detail"]

    def test_cellular_wifi_only_emit_overrun_disables_immediately(self):
        # on cellular, wifi_only_export disables at a probe's first overrun
        budget = ResourceBudget(max_emitted_bytes_per_min=100, violation_grace=5)
        sched = Scheduler()
        upstream = SimUpstream([], sched, rng_seed=0)
        host = PluginHost(sched, upstream=upstream)
        reg(host, ScriptedPlugin(), "exp", wifi_only=True, budget=budget)
        host.update_context(DeviceContext(connectivity=Connectivity.CELLULAR))
        sent = host.probe_datagram("exp", ("9.9.9.9", 53), b"q" * 500, lambda _r: None, 1000)
        assert sent is False and upstream.active_handle_count() == 0
        assert not enabled(host, "exp")
        assert "Cellular" in host.governor_events[0]["detail"]

    def test_probe_to_a_bad_destination_releases_its_handle(self):
        # the simulator cannot parse the address when it looks for a
        # script; the plugin's callback fails, and the probe's handle is
        # closed all the same
        sched = Scheduler()
        upstream = SimUpstream([script_from_dict(
            {"cidr": "10.0.0.0/8", "behavior": "echo"})], sched, rng_seed=0)
        host = PluginHost(sched, upstream=upstream)

        class BadProbe(TrafficPlugin):
            def on_packet_out(self, event, ctx):
                host.probe_datagram("p", ("not-an-ip", 53), b"q", lambda _r: None, 1000)

        reg(host, BadProbe(), "p")
        apply_out(host)
        assert [v["kind"] for v in host.violations] == ["callback-error"]
        assert upstream.active_handle_count() == 0

    def test_violation_counts_never_decrease(self):
        host = make_host()
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "v", perms=OBSERVE)
        counts = []
        for _ in range(5):
            apply_out(host)
            counts.append(len(host.violations))
        assert counts == sorted(counts)


class BusyPlugin(TrafficPlugin):
    """Handles every event kind; spends `busy_us` of wall time on each."""

    def __init__(self, busy_us):
        self.busy_us = busy_us
        self.calls = 0

    def _busy(self, event, ctx):
        self.calls += 1
        end = time.perf_counter_ns() + self.busy_us * 1000
        while time.perf_counter_ns() < end:
            pass

    on_flow_open = on_packet_out = on_packet_in = on_flow_close = _busy


class TestGovernorClocks:
    def test_wall_clock_busy_wait_disabled_after_grace(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=2)
        host = PluginHost(Scheduler(mode="wall"))
        busy = reg(host, BusyPlugin(2000), "busy", budget=budget)
        for _ in range(budget.violation_grace):
            apply_out(host)
        assert enabled(host, "busy")
        apply_out(host)
        assert not enabled(host, "busy") and busy.calls == budget.violation_grace + 1
        assert "CpuOverrun" in host.governor_events[0]["detail"]

    def test_replay_ignores_wall_time_spent_in_callbacks(self, tmp_path):
        def replay(busy_us):
            run = ReplayRun(load_config(DATA / "golden" / "config.yaml"))
            plugin = BusyPlugin(busy_us)
            run.host.register(PluginDescriptor(
                id="busy", name="busy", requested=OBSERVE), plugin)
            report = run.execute()
            return (plugin.calls, report_json_bytes(report),
                    written_capture(run, tmp_path / "out.pcap"), run.host.governor_events)

        busy_calls, busy_report, busy_capture, busy_governor = replay(2000)
        idle_calls, idle_report, idle_capture, _ = replay(0)
        assert busy_calls == idle_calls > ResourceBudget().violation_grace + 1
        assert busy_report == idle_report and busy_capture == idle_capture
        report = json.loads(busy_report)
        assert report["plugins"][-1] == {"id": "busy", "enabled": True, "disabled_reason": None,
                                         "invocations": busy_calls, "violations": 0}
        assert busy_governor == []


class TestContextAndServices:
    def test_context_switch_takes_effect(self):
        host = make_host()
        rec = reg(host, RecordContext(), "rec", perms=OBSERVE)
        apply_out(host)
        host.update_context(DeviceContext(connectivity=Connectivity.CELLULAR))
        apply_out(host)
        assert [ctx.device.connectivity for _event, ctx in rec.seen] \
            == [Connectivity.WIFI, Connectivity.CELLULAR]

    def test_direction_is_in_for_packet_in_only(self):
        host = make_host()
        rec = reg(host, RecordContext(), "rec", perms=OBSERVE)
        for kind in EventKind:
            host.dispatch(kind, TLS_KEY, "app", b"p")
        assert [(event.kind, ctx.kind, ctx.direction) for event, ctx in rec.seen] == [
            (EventKind.FLOW_OPEN, EventKind.FLOW_OPEN, "out"),
            (EventKind.PACKET_OUT, EventKind.PACKET_OUT, "out"),
            (EventKind.PACKET_IN, EventKind.PACKET_IN, "in"),
            (EventKind.FLOW_CLOSE, EventKind.FLOW_CLOSE, "out"),
        ]
        assert all(ctx.key == TLS_KEY and ctx.app_label == "app" and event.payload == b"p"
                   for event, ctx in rec.seen)

    def test_low_battery_throttle_hint(self):
        # policy table: throttle iff a threshold is configured and battery
        # is below it; otherwise never
        cases = [
            (None, 10, False), (None, 90, False),
            (20, 15, True), (20, 20, False), (20, 100, False),
        ]
        for threshold, battery, expected in cases:
            host = make_host(low_battery_threshold=threshold)
            rec = reg(host, RecordContext(), "rec", perms=OBSERVE)
            host.update_context(DeviceContext(battery_percent=battery))
            apply_out(host)
            assert rec.seen[0][1].throttle is expected, (threshold, battery)

    def test_throttle_hint_follows_each_context_update(self):
        host = make_host(low_battery_threshold=20)
        rec = reg(host, RecordContext(), "rec", perms=OBSERVE)
        for battery in (100, 10, 19, 20, 5, 100):
            host.update_context(DeviceContext(battery_percent=battery))
            apply_out(host)
        assert [ctx.throttle for _event, ctx in rec.seen] \
            == [False, True, True, False, True, False]

    def test_battery_range_validated(self):
        with pytest.raises(ValueError):
            DeviceContext(battery_percent=101)


class TestDeterminism:
    def test_same_events_same_actions(self):
        def run():
            host = make_host()
            reg(host, ScriptedPlugin(Modify(b"m")), "a")
            reg(host, ScriptedPlugin(), "b", perms=OBSERVE)
            out = []
            for i in range(20):
                action = apply_out(host, bytes([i]))
                out.append((action.payload, action.decided_by))
            return out
        assert run() == run()


DNS_KEY = FlowKey(17, ("10.0.0.2", 50000), ("8.8.8.8", 53))
TLS_KEY = FlowKey(6, ("10.0.0.2", 41000), ("93.184.216.34", 443))


class RewriteDns(TrafficPlugin):
    """Reads the DNS answer, then replaces it with another one."""

    def __init__(self, replacement):
        self.replacement = replacement
        self.seen = []

    def on_packet_in(self, event, ctx):
        self.seen.append(event.dns().answers)
        return Modify(self.replacement)


class RecordDns(TrafficPlugin):
    def __init__(self):
        self.seen = []

    def on_packet_in(self, event, ctx):
        self.seen.append(event.dns().answers)


class TestParseOncePerEvent:
    def full_chain(self, host):
        fw = reg(host, FirewallPlugin([]), "fw")
        snitch = reg(host, SnitchPlugin(OrgMap.from_pairs([])), "snitch", perms=OBSERVE)
        whatif = reg(host, WhatIfPlugin([("9.9.9.9", 53)], probability=1.0), "whatif")
        return fw, snitch, whatif

    def test_dns_answer_parsed_once_by_the_chain(self, monkeypatch):
        host = make_host()
        fw, snitch, _whatif = self.full_chain(host)
        calls = counting(monkeypatch, dnswire, "parse_message")
        answer = dnswire.build_response(1, "example.com", dnswire.QTYPE_A, ["93.184.216.34"])
        host.dispatch(EventKind.PACKET_IN, DNS_KEY, "app", answer)
        assert len(calls) == 1
        assert fw.tracker.ip_to_name == snitch.tracker.ip_to_name \
            == {"93.184.216.34": "example.com"}

    def test_client_hello_sni_read_once_by_the_chain(self, monkeypatch):
        host = make_host()
        fw, snitch, _whatif = self.full_chain(host)
        host.dispatch(EventKind.FLOW_OPEN, TLS_KEY, "app")
        calls = counting(monkeypatch, tlswire, "extract_sni")
        host.dispatch(EventKind.PACKET_OUT, TLS_KEY, "app",
                      tlswire.build_client_hello("example.com"))
        assert len(calls) == 1
        assert fw.tracker.sni_by_key == {TLS_KEY: "example.com"}
        assert snitch.records[TLS_KEY].sni == "example.com"

    def test_modify_earlier_in_chain_gives_later_plugins_a_fresh_parse(self, monkeypatch):
        host = make_host()
        before = dnswire.build_response(1, "example.com", dnswire.QTYPE_A, ["1.1.1.1"])
        after = dnswire.build_response(1, "example.com", dnswire.QTYPE_A, ["6.6.6.6"])
        rewrite = reg(host, RewriteDns(after), "rewrite")
        snitch = reg(host, SnitchPlugin(OrgMap.from_pairs([])), "snitch", perms=OBSERVE)
        record = reg(host, RecordDns(), "record", perms=OBSERVE)
        calls = counting(monkeypatch, dnswire, "parse_message")
        action = host.dispatch(EventKind.PACKET_IN, DNS_KEY, "app", before)
        assert action.payload == after
        assert rewrite.seen == [[("example.com", dnswire.QTYPE_A, "1.1.1.1")]]
        assert record.seen == [[("example.com", dnswire.QTYPE_A, "6.6.6.6")]]
        assert snitch.tracker.ip_to_name == {"6.6.6.6": "example.com"}
        assert [args[0] for args in calls] == [before, after]

    def test_event_parses_are_memoised_on_the_payload(self, monkeypatch):
        calls = counting(monkeypatch, dnswire, "parse_message")
        query = dnswire.build_query(9, "example.com")
        event = PluginEvent(EventKind.PACKET_OUT, payload=query)
        assert event.dns() is event.dns()
        assert event.dns().qname == "example.com"
        event.payload = b"not dns"
        assert event.dns() is None and event.dns() is None
        assert len(calls) == 2
        assert event.sni() is None


class TestRegistrationTimeBinding:
    def test_violation_records_unchanged(self):
        sched = Scheduler()
        host = PluginHost(sched)
        reg(host, ScriptedPlugin(raise_exc=True), "bug")
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "watch", perms=OBSERVE)
        reg(host, ScriptedPlugin(Modify(b"m")), "nomod",
            perms=OBSERVE | Permission.BLOCK_FLOW)
        reg(host, ScriptedPlugin("not a verdict"), "odd")
        reg(host, ScriptedPlugin(Block(BlockMode.INJECT_RESPONSE, b"n")), "inj")
        sched.advance_to(5)
        assert host.dispatch(EventKind.PACKET_IN, None, "app", b"x") is None
        assert host.violations == [
            {"ts_us": 5, "plugin": "bug", "kind": "callback-error",
             "detail": "RuntimeError('plugin bug')"},
            {"ts_us": 5, "plugin": "watch", "kind": "permission-denied", "detail": "Block"},
            {"ts_us": 5, "plugin": "nomod", "kind": "permission-denied", "detail": "Modify"},
            {"ts_us": 5, "plugin": "odd", "kind": "permission-denied", "detail": "str"},
            {"ts_us": 5, "plugin": "inj", "kind": "inject-on-inbound", "detail": "Block"},
        ]

    def test_clock_read_once_per_callback_plus_one(self):
        # k callbacks read the clock k + 1 times; a raising callback and a
        # refused verdict read it no more often than a pass
        sched = CountingScheduler()
        host = PluginHost(sched)
        reg(host, ScriptedPlugin(raise_exc=True), "bug")
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "watch", perms=OBSERVE)
        reg(host, ScriptedPlugin(), "quiet")
        reg(host, ScriptedPlugin(), "none", perms=Permission(0))  # never invoked
        reg(host, CloseOnly(), "close", perms=OBSERVE)  # invoked, never called
        for _ in range(4):
            before = sched.reads
            apply_out(host)
            assert sched.reads - before == 3 + 1
        before = sched.reads
        host.dispatch(EventKind.FLOW_OPEN, TLS_KEY, "app")  # no subscriber
        assert sched.reads == before
        assert [invocations(host, p) for p in ("bug", "watch", "quiet", "none", "close")] \
            == [5, 5, 5, 0, 5]

    def test_cpu_overrun_metered_per_callback(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=1)
        # one read between the two callbacks: "slow" is charged its own
        # cost only, and "fast" starts its meter where "slow" ended
        sched = Scheduler()
        host = PluginHost(sched)
        reg(host, Costly(sched, [1000, 1000]), "slow", budget=budget)
        reg(host, Costly(sched, [10, 10]), "fast", budget=budget)
        apply_out(host)
        apply_out(host)
        assert not enabled(host, "slow") and enabled(host, "fast")
        assert [e["plugin"] for e in host.governor_events] == ["slow"]
        assert host.governor_events[0]["detail"] \
            == "CpuOverrun: 1000us > 500us for 2 consecutive packets"

    def test_plugin_disabled_in_its_own_callback_is_not_charged_again(self):
        # a probe past the emitted-bytes cap disables the plugin mid-callback;
        # the same callback's CPU overrun neither counts nor disables it twice
        sched = Scheduler()
        host = PluginHost(sched, upstream=SimUpstream([], sched, rng_seed=0))

        class ProbeThenHog(Costly):
            def on_packet_out(self, event, ctx):
                for _ in range(2):  # two overruns past a grace of one
                    host.probe_datagram("p", ("9.9.9.9", 53), b"q" * 200,
                                        lambda _r: None, 1000)
                return super().on_packet_out(event, ctx)

        reg(host, ProbeThenHog(sched, [1000]), "p", budget=ResourceBudget(
            max_emitted_bytes_per_min=100, violation_grace=1))
        apply_out(host)
        slot = host._slots["p"]
        assert (slot.enabled, slot.cpu_overruns) == (False, 0)
        assert [e["detail"].split(":")[0] for e in host.governor_events] \
            == ["EmittedOverrun"]

    def test_callbacks_are_bound_at_registration(self):
        plugin = ScriptedPlugin(Modify(b"y"))
        host = make_host()
        reg(host, plugin, "p")
        plugin.on_packet_out = lambda event, ctx: Modify(b"late")
        assert apply_out(host).payload == b"y"


def _window_oracle(window, now_us, n):
    """The parent's emitted-bytes window: append, then filter the list."""
    window = window + [(now_us, n)]
    cutoff = now_us - 60_000_000
    return [(t, m) for t, m in window if t >= cutoff]


class TestEmittedWindow:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([0, 1, 59_999_999, 60_000_000, 60_000_001]),
                  st.integers(0, 90_000_000)),
        st.integers(0, 3000)), max_size=40))
    def test_deque_matches_list_filter(self, steps):
        limit, grace = 4000, 10 ** 9
        sched = Scheduler()
        host = PluginHost(sched)
        reg(host, ScriptedPlugin(), "e", budget=ResourceBudget(
            max_emitted_bytes_per_min=limit, violation_grace=grace))
        slot = host._slots["e"]
        oracle, overruns = [], 0
        for delta, n in steps:
            sched.advance_to(sched.now_us() + delta)
            host._meter_emitted(slot, n)
            assert slot.enabled
            oracle = _window_oracle(oracle, sched.now_us(), n)
            overruns = overruns + 1 if sum(m for _t, m in oracle) > limit else 0
            assert list(slot.emitted_window) == oracle
            assert slot.emitted_in_window == sum(m for _t, m in oracle)
            assert slot.emit_overruns == overruns

    def test_entry_exactly_at_cutoff_still_counts(self):
        sched = Scheduler()
        host = PluginHost(sched)
        reg(host, ScriptedPlugin(), "e", budget=ResourceBudget(
            max_emitted_bytes_per_min=100, violation_grace=5))
        slot = host._slots["e"]
        host._meter_emitted(slot, 60)
        sched.advance_to(60_000_000)
        host._meter_emitted(slot, 50)  # 110 B within the minute
        assert slot.emit_overruns == 1 and slot.emitted_in_window == 110
        sched.advance_to(60_000_001)
        host._meter_emitted(slot, 0)  # the first 60 B have left
        assert slot.emit_overruns == 0 and slot.emitted_in_window == 50


class TestFirewallAppGlob:
    PATTERNS = ("*", "game*", "[ab]pp", "mail", "a?c")

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="abcgmeilpx?*[]. ", max_size=8))
    def test_compiled_glob_agrees_with_fnmatchcase(self, label):
        key = FlowKey(6, ("10.0.0.2", 1), ("192.0.2.1", 80))
        ctx = PluginContext(key=key, app_label=label, direction=DIR_OUT,
                            kind=EventKind.PACKET_OUT, device=DeviceContext(), now_us=0)
        for pattern in self.PATTERNS:
            rule = rule_from_dict({"match": {"app": pattern}})
            assert rule.matches(6, 80, label, "", None) == fnmatch.fnmatchcase(label, pattern), \
                (pattern, label)


CALLBACK_OF = {
    EventKind.FLOW_OPEN: "on_flow_open",
    EventKind.PACKET_OUT: "on_packet_out",
    EventKind.PACKET_IN: "on_packet_in",
    EventKind.FLOW_CLOSE: "on_flow_close",
}


class CloseOnly(TrafficPlugin):
    def __init__(self):
        self.closed = []

    def on_flow_close(self, event, ctx):
        self.closed.append(ctx.kind)


class CallEverySlot(PluginHost):
    """The chain loop before subscriber tables, as the oracle: it builds
    the event and the context up front and calls every callback of every
    enabled observing plugin, inherited no-ops included. Redirect on
    PACKET_IN is downgraded as in the host under test. CPU is metered by
    two clock reads around each callback the plugin overrides. An event
    no verdict took effect on has no outcome object (None)."""

    def dispatch(self, kind, key, app_label, payload=b"", tcp_flags=None, tcp_seq=None):
        direction = DIR_IN if kind is EventKind.PACKET_IN else DIR_OUT
        now = self._scheduler.now_us()
        event = PluginEvent(kind, payload, tcp_flags, tcp_seq)
        ctx = PluginContext(key=key, app_label=app_label, direction=direction, kind=kind,
                            device=self.device, now_us=now, throttle=self._throttled())
        modified = False
        permission = {Modify: Permission.MODIFY_PAYLOAD, Block: Permission.BLOCK_FLOW,
                      Redirect: Permission.REDIRECT_FLOW}
        for slot in self._slots.values():
            if not slot.enabled or not slot.granted & OBSERVE.value:
                continue
            event.payload = payload
            slot.invocations += 1
            name = CALLBACK_OF[kind]
            start = self._scheduler.now_us()
            try:
                verdict = getattr(slot.plugin, name)(event, ctx)
            except Exception as exc:
                self._violation(slot, "callback-error", now, detail=repr(exc))
                verdict = None
            cpu_us = self._scheduler.now_us() - start
            budget = slot.descriptor.budget
            if getattr(type(slot.plugin), name) is getattr(TrafficPlugin, name):
                pass  # an inherited no-op is not metered
            elif cpu_us <= budget.max_cpu_us_per_packet:
                slot.cpu_overruns = 0
            else:
                slot.cpu_overruns += 1
                if slot.cpu_overruns > budget.violation_grace:
                    self._disable(slot, "CpuOverrun",
                                  f"{cpu_us}us > {budget.max_cpu_us_per_packet}us "
                                  f"for {slot.cpu_overruns} consecutive packets")
            if verdict is None or isinstance(verdict, Pass):
                continue
            needed = permission.get(type(verdict))
            if needed is None or not slot.granted & needed.value:
                self._violation(slot, "permission-denied", now, verdict)
                continue
            if direction == DIR_IN and isinstance(verdict, Block) \
                    and verdict.mode is BlockMode.INJECT_RESPONSE:
                self._violation(slot, "inject-on-inbound", now, verdict)
                continue
            if direction == DIR_IN and isinstance(verdict, Redirect):
                self._violation(slot, "redirect-on-inbound", now, verdict)
                continue
            if isinstance(verdict, Modify):
                payload = verdict.payload
                modified = True
                continue
            return EffectiveAction(verdict=verdict, payload=payload,
                                   modified=modified, decided_by=slot.descriptor.id)
        if modified:
            return EffectiveAction(verdict=Pass(), payload=payload, modified=True)
        return None


GEN_VERDICTS = [
    None, Pass(), Modify(b"m"), Block(BlockMode.DROP_SILENT), Block(BlockMode.RESET_APP),
    Block(BlockMode.INJECT_RESPONSE, b"n"), Redirect(("10.9.9.9", 80)), "not a verdict",
]
GEN_PERMS = [Permission.MODIFY_PAYLOAD, Permission.BLOCK_FLOW, Permission.REDIRECT_FLOW,
             Permission.INJECT_PACKETS]


def subset_of(items):
    """Each item kept with even odds (st.sets favours small sets)."""
    return st.tuples(*[st.booleans()] * len(items)).map(
        lambda keep: {item for item, kept in zip(items, keep) if kept})


plugin_specs = st.fixed_dictionaries({
    "overrides": subset_of(list(CALLBACK_OF.values())),
    "verdicts": st.fixed_dictionaries(
        {name: st.sampled_from(GEN_VERDICTS) for name in CALLBACK_OF.values()}),
    "raises": st.integers(0, 4).map(lambda n: n == 0),
    # scheduler time each callback takes, against a budget of 1 us
    "costs_us": st.fixed_dictionaries(
        {name: st.sampled_from([0, 0, 1, 2]) for name in CALLBACK_OF.values()}),
    # None (one in five): no permission at all, so never offered an event
    "perms": st.integers(0, 4).flatmap(
        lambda n: subset_of(GEN_PERMS) if n else st.none()),
})
chain_steps = st.lists(
    st.tuples(st.just("event"), st.sampled_from(list(EventKind)))
    | st.tuples(st.just("disable"), st.integers(0, 3)),
    max_size=12)


def _generated_callback(self, event, ctx, name):
    self.log.append((self.pid, name, event.payload))
    self.sched.advance_to(self.sched.now_us() + self.costs_us[name])
    if self.raises:
        raise RuntimeError(f"{self.pid} {name}")
    verdict = self.verdicts[name]
    if isinstance(verdict, Modify):  # distinct per plugin, so order shows
        verdict = Modify(f"{self.pid}:{event.payload.decode()}".encode())
    return verdict


def build_generated(host, specs, log):
    """Register one generated plugin per spec; each overridden callback
    logs (plugin, callback, payload seen), takes its cost in scheduler
    time and answers its verdict. `mem` is its memory estimate."""
    for i, spec in enumerate(specs):
        methods = {name: functools.partialmethod(_generated_callback, name=name)
                   for name in spec["overrides"]}
        methods["memory_estimate"] = lambda self: self.mem
        plugin = type("Generated", (TrafficPlugin,), methods)()
        plugin.pid, plugin.raises, plugin.verdicts = f"g{i}", spec["raises"], spec["verdicts"]
        plugin.costs_us, plugin.sched, plugin.mem = spec["costs_us"], host._scheduler, None
        plugin.log = log
        perms = Permission(0) if spec["perms"] is None else OBSERVE
        for perm in spec["perms"] or ():
            perms |= perm
        reg(host, plugin, plugin.pid, perms=perms,
            budget=ResourceBudget(max_cpu_us_per_packet=1, violation_grace=1))


class TestSubscriberTables:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(plugin_specs, max_size=4), chain_steps)
    def test_same_outcome_as_calling_every_slot(self, specs, steps):
        hosts, logs = [], []
        for cls in (PluginHost, CallEverySlot):
            log = []
            host = cls(Scheduler())
            build_generated(host, specs, log)
            hosts.append(host)
            logs.append(log)
        for step, arg in steps:
            if step == "disable":
                if arg < len(specs):
                    for host in hosts:  # two memory overruns past a grace of one
                        host._slots[f"g{arg}"].plugin.mem = 2 ** 40
                        host.governor_tick()
                        host.governor_tick()
                continue
            got, want = (host.dispatch(arg, TLS_KEY, "app", b"p") for host in hosts)
            assert got == want, (arg, specs)
            assert logs[0] == logs[1]
            assert hosts[0].plugin_states() == hosts[1].plugin_states()
            assert hosts[0].violations == hosts[1].violations
            assert hosts[0].governor_events == hosts[1].governor_events

    def test_flow_close_only_plugin_sees_flow_close_only(self):
        host = make_host()
        plugin = reg(host, CloseOnly(), "close", perms=OBSERVE)
        for kind in EventKind:
            host.dispatch(kind, TLS_KEY, "app", b"p")
        assert plugin.closed == [EventKind.FLOW_CLOSE]
        assert invocations(host, "close") == 4  # every event that reaches it counts

    def test_clock_read_only_around_overridden_callbacks(self):
        sched = CountingScheduler()
        host = PluginHost(sched)
        reg(host, CloseOnly(), "close", perms=OBSERVE)
        reg(host, TrafficPlugin(), "nothing", perms=OBSERVE)
        for kind in (EventKind.FLOW_OPEN, EventKind.PACKET_OUT, EventKind.PACKET_IN):
            assert host.dispatch(kind, TLS_KEY, "app", b"p") is None
        assert sched.reads == 0  # no subscriber: nothing called, nothing metered
        host.dispatch(EventKind.FLOW_CLOSE, TLS_KEY, "app")
        assert sched.reads == 2  # around the one overridden callback only
        assert [invocations(host, p) for p in ("close", "nothing")] == [4, 4]

    def test_untouched_event_builds_no_outcome_object(self, monkeypatch):
        actions = counting(monkeypatch, host_module, "EffectiveAction")
        host = make_host()
        reg(host, RecordContext(), "rec", perms=OBSERVE)
        reg(host, ScriptedPlugin(Pass()), "pass")
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "watch", perms=OBSERVE)
        for kind in EventKind:
            assert host.dispatch(kind, TLS_KEY, "app", b"p") is None
        assert actions == [] and len(host.violations) == 2  # the refused Blocks
        reg(host, ScriptedPlugin(Modify(b"m")), "mod")
        action = apply_out(host, b"p")
        assert (action.verdict, action.payload, action.modified, action.decided_by) \
            == (Pass(), b"m", True, None)
        assert len(actions) == 1

    def test_no_subscriber_builds_no_event_or_context(self, monkeypatch):
        events = counting(monkeypatch, host_module, "PluginEvent")
        contexts = counting(monkeypatch, host_module, "PluginContext")
        host = make_host()
        reg(host, CloseOnly(), "close", perms=OBSERVE)
        reg(host, CloseOnly(), "close2", perms=OBSERVE)
        host.dispatch(EventKind.PACKET_OUT, TLS_KEY, "app", b"p")
        assert (len(events), len(contexts)) == (0, 0)
        host.dispatch(EventKind.FLOW_CLOSE, TLS_KEY, "app")
        assert (len(events), len(contexts)) == (1, 1)  # once for both plugins

    def test_unoverridden_callback_does_not_reset_cpu_overruns(self):
        # consecutive overruns count only callbacks the plugin runs
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=1)
        sched = Scheduler()

        class SlowClose(CloseOnly):
            def on_flow_close(self, event, ctx):
                sched.advance_to(sched.now_us() + 1000)  # 1000 us per close

        host = PluginHost(sched)
        reg(host, SlowClose(), "close", budget=budget)
        host.dispatch(EventKind.FLOW_CLOSE, TLS_KEY, "app")
        host.dispatch(EventKind.PACKET_OUT, TLS_KEY, "app", b"p")
        host.dispatch(EventKind.FLOW_CLOSE, TLS_KEY, "app")
        assert not enabled(host, "close")

    def test_plugin_disabled_earlier_in_the_event_is_skipped(self):
        # a plugin can probe under another plugin's id; a slot disabled that
        # way mid-event neither runs nor counts the event
        host = probing_host()

        class DisableNext(TrafficPlugin):
            def on_packet_out(self, event, ctx):
                for _ in range(2):  # two overruns past a grace of one
                    probe(host, "b", 1000)

        reg(host, DisableNext(), "a")
        b = reg(host, ScriptedPlugin(), "b", budget=ResourceBudget(
            max_emitted_bytes_per_min=100, violation_grace=1))
        apply_out(host)
        assert b.seen_payloads == []
        assert [(s["id"], s["enabled"], s["invocations"]) for s in host.plugin_states()] \
            == [("a", True, 1), ("b", False, 0)]

    def test_instance_attribute_before_register_is_honoured(self):
        host = make_host()
        plugin = TrafficPlugin()
        plugin.on_packet_out = lambda event, ctx: Modify(b"instance")
        reg(host, plugin, "inst")
        assert apply_out(host).payload == b"instance"

    def test_class_wrapper_counts_as_override(self, monkeypatch):
        # a tracer wraps each callback on the plugin class, inherited or not
        calls = []
        original = FirewallPlugin.on_flow_close

        def wrapped(*args, **kwargs):
            calls.append(args[2].kind)
            return original(*args, **kwargs)
        monkeypatch.setattr(FirewallPlugin, "on_flow_close", wrapped)
        host = make_host()
        reg(host, FirewallPlugin([]), "fw")
        host.dispatch(EventKind.FLOW_CLOSE, TLS_KEY, "app")
        assert calls == [EventKind.FLOW_CLOSE]

    def test_context_keyword_construction_and_immutability(self):
        ctx = PluginContext(key=TLS_KEY, app_label="app", direction=DIR_OUT,
                            kind=EventKind.PACKET_OUT, device=DeviceContext(), now_us=7)
        assert (ctx.key, ctx.app_label, ctx.now_us, ctx.throttle) == (TLS_KEY, "app", 7, False)
        with pytest.raises(AttributeError):
            ctx.now_us = 8

    def test_builtin_plugin_subscriptions_pinned(self):
        everything_but_close = {EventKind.FLOW_OPEN, EventKind.PACKET_OUT, EventKind.PACKET_IN}
        expected = {
            "fw": (FirewallPlugin([]), set(EventKind)),
            "snitch": (SnitchPlugin(OrgMap.from_pairs([])), set(EventKind)),
            "whatif": (WhatIfPlugin([("9.9.9.9", 53)]), everything_but_close),
            "advisor": (AdvisorPlugin(), set(EventKind)),
        }
        for pid, (plugin, kinds) in expected.items():
            sched = CountingScheduler()
            host = PluginHost(sched)
            reg(host, plugin, pid)
            called = set()
            for kind in EventKind:
                before = sched.reads
                host.dispatch(kind, None, "app")
                if sched.reads != before:
                    called.add(kind)
            assert called == kinds, pid
