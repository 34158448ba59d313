"""Plugin host: registration, chain semantics, governor, context."""

import fnmatch
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mbz import dnswire, tlswire
from mbz.clock import Scheduler
from mbz.host import (
    Block, BlockMode, Connectivity, DeviceContext, DuplicateId, EventKind,
    MalformedPermissions, Modify, Pass, Permission, PluginContext,
    PluginDescriptor, PluginEvent, PluginHost, Redirect, ResourceBudget,
    TrafficPlugin, permissions_from_names,
    DIR_OUT,
)
from mbz.packet import FlowKey
from mbz.plugins.firewall import FirewallPlugin, FirewallRule
from mbz.plugins.snitch import OrgMap, SnitchPlugin
from mbz.plugins.whatif import WhatIfPlugin

OBSERVE = Permission.OBSERVE
ALL = (Permission.OBSERVE | Permission.MODIFY_PAYLOAD | Permission.BLOCK_FLOW
       | Permission.REDIRECT_FLOW | Permission.INJECT_PACKETS
       | Permission.EXPORT_OFF_DEVICE)


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


def reg(host, plugin, pid="p", perms=ALL, budget=None, wifi_only=False):
    host.register(PluginDescriptor(
        id=pid, name=pid, requested=perms,
        budget=budget or ResourceBudget(), wifi_only_export=wifi_only), plugin)
    return plugin


def apply_out(host, payload=b"x"):
    return host.dispatch(EventKind.PACKET_OUT, None, "app", payload)


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
        assert host.chain_order() == ["one", "two", "three"]

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
        action = apply_out(make_host(), b"data")
        assert action.is_pass and action.payload == b"data"

    def test_observe_only_block_downgraded_with_violation(self):
        host = make_host()
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "watch",
            perms=OBSERVE)
        action = apply_out(host)
        assert action.is_pass
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
        assert host.invocation_count("c") == 0

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
        action = host.dispatch(EventKind.PACKET_IN, None, "app", b"x")
        assert action.is_pass
        assert host.violations[0]["kind"] == "inject-on-inbound"

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
            got_kind = ("block" if action.block else
                        "redirect" if action.redirect else "pass")
            assert got_kind == kind, names
            assert action.payload == payload, names
            for i in range(3):
                expected = 1 if i < len(invoked) else 0
                assert host.invocation_count(f"p{i}") == expected, names


class FakeCpuClock:
    """Deterministic ns clock: each callback appears to take a scripted time."""

    def __init__(self, costs_us):
        self.costs_us = list(costs_us)
        self.t = 0
        self.phase = 0

    def __call__(self):
        if self.phase % 2 == 1:  # end-of-callback read
            self.t += (self.costs_us.pop(0) if self.costs_us else 0) * 1000
        self.phase += 1
        return self.t


class TestGovernor:
    def test_cpu_overrun_past_grace_disables(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=3)
        clock = FakeCpuClock([1000] * 4)  # 2x budget for grace+1 packets
        host = make_host(cpu_clock=clock)
        reg(host, ScriptedPlugin(), "hog", budget=budget)
        for _ in range(4):
            apply_out(host)
        assert not host.is_enabled("hog")
        assert host.governor_events[0]["plugin"] == "hog"
        assert "CpuOverrun" in host.governor_events[0]["detail"]

    def test_single_spike_within_grace_stays_enabled(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=3)
        clock = FakeCpuClock([1000, 10, 1000, 10, 1000, 10])
        host = make_host(cpu_clock=clock)
        reg(host, ScriptedPlugin(), "spiky", budget=budget)
        for _ in range(6):
            apply_out(host)
        assert host.is_enabled("spiky")

    def test_disabled_plugin_quiescent_and_finalized_once(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=1)

        class Finalizable(ScriptedPlugin):
            finalized = 0

            def finalize(self, ctx):
                Finalizable.finalized += 1

        clock = FakeCpuClock([1000] * 2 + [0] * 100)
        host = make_host(cpu_clock=clock)
        reg(host, Finalizable(), "dead", budget=budget)
        for _ in range(2):
            apply_out(host)
        assert not host.is_enabled("dead")
        count = host.invocation_count("dead")
        for _ in range(50):
            apply_out(host)
        assert host.invocation_count("dead") == count
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
        assert not host.is_enabled("fat")
        assert "MemOverrun" in host.governor_events[0]["detail"]

    def test_emitted_bytes_overrun_with_grace(self):
        budget = ResourceBudget(max_emitted_bytes_per_min=100, violation_grace=2)
        host = make_host()
        reg(host, ScriptedPlugin(), "chatty", budget=budget)
        for _ in range(2):
            host.account("chatty", emitted_bytes=200)
        assert host.is_enabled("chatty")
        host.account("chatty", emitted_bytes=200)
        assert not host.is_enabled("chatty")

    def test_cellular_wifi_only_emit_overrun_disables_immediately(self):
        budget = ResourceBudget(max_emitted_bytes_per_min=100, violation_grace=5)
        host = make_host()
        reg(host, ScriptedPlugin(), "exp", wifi_only=True, budget=budget)
        host.update_context(DeviceContext(connectivity=Connectivity.CELLULAR))
        host.account("exp", emitted_bytes=500)
        assert not host.is_enabled("exp")
        assert "Cellular" in host.governor_events[0]["detail"]

    def test_violation_counts_never_decrease(self):
        host = make_host()
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "v", perms=OBSERVE)
        counts = []
        for _ in range(5):
            apply_out(host)
            counts.append(len(host.violations))
        assert counts == sorted(counts)


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

    def test_export_suspended_on_cellular_for_wifi_only(self):
        host = make_host()
        reg(host, ScriptedPlugin(), "exp", wifi_only=True)
        host.update_context(DeviceContext(connectivity=Connectivity.CELLULAR))
        assert host.export_off_device("exp", 10) is False
        assert host.violations[0]["kind"] == "export-suspended-on-cellular"
        host.update_context(DeviceContext(connectivity=Connectivity.WIFI))
        assert host.export_off_device("exp", 10) is True

    def test_export_without_permission_is_violation(self):
        host = make_host()
        reg(host, ScriptedPlugin(), "noexp", perms=OBSERVE)
        assert host.export_off_device("noexp", 10) is False
        assert host.violations[0]["kind"] == "permission-denied"

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


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


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
        assert fw.tracker.sni_by_key == snitch.tracker.sni_by_key == {TLS_KEY: "example.com"}

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
        action = host.dispatch(EventKind.PACKET_IN, None, "app", b"x")
        assert action.is_pass and action.payload == b"x"
        assert host.violations == [
            {"ts_us": 5, "plugin": "bug", "kind": "callback-error",
             "detail": "RuntimeError('plugin bug')"},
            {"ts_us": 5, "plugin": "watch", "kind": "permission-denied", "detail": "Block"},
            {"ts_us": 5, "plugin": "nomod", "kind": "permission-denied", "detail": "Modify"},
            {"ts_us": 5, "plugin": "odd", "kind": "permission-denied", "detail": "str"},
            {"ts_us": 5, "plugin": "inj", "kind": "inject-on-inbound", "detail": "Block"},
        ]

    def test_cpu_clock_read_twice_per_callback(self):
        clock = FakeCpuClock([])
        host = make_host(cpu_clock=clock)
        reg(host, ScriptedPlugin(raise_exc=True), "bug")
        reg(host, ScriptedPlugin(Block(BlockMode.RESET_APP)), "watch", perms=OBSERVE)
        reg(host, ScriptedPlugin(), "quiet")
        reg(host, ScriptedPlugin(), "none", perms=Permission(0))  # never invoked
        for _ in range(4):
            apply_out(host)
        assert clock.phase == 2 * 3 * 4
        assert [host.invocation_count(p) for p in ("bug", "watch", "quiet", "none")] \
            == [4, 4, 4, 0]

    def test_cpu_overrun_metered_per_callback(self):
        budget = ResourceBudget(max_cpu_us_per_packet=500, violation_grace=1)
        # callbacks alternate between the two plugins: "slow" is charged
        # every first cost, "fast" every second
        clock = FakeCpuClock([1000, 10, 1000, 10])
        host = make_host(cpu_clock=clock)
        reg(host, ScriptedPlugin(), "slow", budget=budget)
        reg(host, ScriptedPlugin(), "fast", budget=budget)
        apply_out(host)
        apply_out(host)
        assert not host.is_enabled("slow") and host.is_enabled("fast")
        assert [e["plugin"] for e in host.governor_events] == ["slow"]

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
        slot = host._by_id["e"]
        oracle, overruns = [], 0
        for delta, n in steps:
            sched.advance_to(sched.now_us() + delta)
            host.account("e", emitted_bytes=n)
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
        slot = host._by_id["e"]
        host.account("e", emitted_bytes=60)
        sched.advance_to(60_000_000)
        host.account("e", emitted_bytes=50)  # 110 B within the minute
        assert slot.emit_overruns == 1 and slot.emitted_in_window == 110
        sched.advance_to(60_000_001)
        host.account("e", emitted_bytes=0)  # the first 60 B have left
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
            rule = FirewallRule.from_dict({"match": {"app": pattern}})
            assert rule.matches(ctx, "", None) == fnmatch.fnmatchcase(label, pattern), \
                (pattern, label)
