"""Outside-in tracing: wrappers around the public functions of each mbz
module, installed from the benchmark's own files.

Each wrapper records a span (id, name, start, end, parent span, flow id)
in memory; `Tracer.write` saves them when the run ends. A span's self
time is its duration minus the time its child spans cover. Counts are
taken at the same boundaries. A name imported with `from .x import y`
is replaced in every loaded `mbz` module that holds it, so the caller's
binding is traced, not only the defining module's.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from mbz import dnswire, packet, pcapio, runner, tlswire, trace
from mbz.clock import Scheduler
from mbz.conduit import InMemoryConduit, ReplayConduit
from mbz.engine import Engine
from mbz.host import PluginHost
from mbz.plugins import AdvisorPlugin, FirewallPlugin, SnitchPlugin, WhatIfPlugin
from mbz.upstream import SimUpstream

PLUGINS = ((FirewallPlugin, "fw"), (SnitchPlugin, "snitch"),
           (WhatIfPlugin, "whatif"), (AdvisorPlugin, "advisor"))
PLUGIN_CALLBACKS = ("on_flow_open", "on_packet_out", "on_packet_in", "on_flow_close")
HANDLE_METHODS = ("send", "recv", "send_to", "half_close", "close")

# Wrapped names that must record calls on each workload; a name that
# records none means the wrapper missed the binding the program calls.
_CORE = ("packet.parse", "packet.serialize", "packet.checksum", "engine.ingress",
         "engine.on_upstream", "engine.sweep", "host.dispatch", "upstream.open",
         "upstream.handle", "upstream.find_script", "clock.step", "clock.call_at",
         "conduit.read", "conduit.write")
_REPLAY = _CORE + ("host.governor_tick", "trace.read", "runner.build_report",
                   "runner.write_outputs", "pcapio.write")
EXPECTED_CALLS = {
    "connect": _CORE,
    "bulk": _REPLAY + ("plugins.snitch", "plugins.advisor"),
    "app-mix": _REPLAY + ("plugins.fw", "plugins.snitch", "plugins.whatif",
                          "plugins.advisor", "dnswire.parse", "tlswire.sni"),
}


def flow_table_size(engine) -> int:
    """Flows the engine holds: `engine.table.flows`, or a plain mapping in
    `engine.table` or `engine.flows`."""
    table = getattr(engine, "table", None)
    if table is None:
        table = getattr(engine, "flows", ())
    return len(getattr(table, "flows", table))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, flow, self_ns)
        self.counts: dict[str, int] = defaultdict(int)  # calls of count-only hooks
        self.measures: dict[str, int] = defaultdict(int)  # bytes, flows, maxima
        self.ingress_ns: list[int] = []
        self._stack: list[list] = []  # [id, start_ns, child_ns, flow]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, flow_of=None, after=None):
        """Wrap `fn` so each call records a span called `name`."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            flow = flow_of(args) if flow_of is not None else (parent[3] if parent else None)
            self._next_id += 1
            frame = [self._next_id, clock(), 0, flow]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append((frame[0], name, frame[1], end,
                              parent[0] if parent else 0, flow, duration - frame[2]))
            if after is not None:
                after(args, result, duration)
            return result
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _replace_function(self, fn, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "mbz" or mod_name.startswith("mbz.")) \
                    and getattr(mod, fn.__name__, None) is fn:
                self._set(mod, fn.__name__, wrapper)

    def install(self) -> "Tracer":
        fn = packet.parse_packet
        self._replace_function(fn, self.span("packet.parse", fn))
        fn = packet.serialize_packet
        self._replace_function(fn, self.span("packet.serialize", fn))

        def checksum_bytes(args, _result, _duration):
            self.measures["packet.checksum.bytes"] += len(args[0])
        fn = packet.internet_checksum
        self._replace_function(fn, self.span("packet.checksum", fn, after=checksum_bytes))
        fn = dnswire.parse_message
        self._replace_function(fn, self.span("dnswire.parse", fn))
        fn = tlswire.extract_sni
        self._replace_function(fn, self.span("tlswire.sni", fn))
        fn = trace.read_trace
        self._replace_function(fn, self.span("trace.read", fn))
        fn = runner.write_outputs
        self._replace_function(fn, self.span("runner.write_outputs", fn))

        def pcap_bytes(args, _result, _duration):
            self.measures["pcapio.write.bytes"] += os.path.getsize(args[0])
        fn = pcapio.pcap_write
        self._replace_function(fn, self.span("pcapio.write", fn, after=pcap_bytes))

        def app_port(args):
            data = args[2]
            return int.from_bytes(data[(data[0] & 0x0F) * 4:][:2], "big")

        def ingress_done(args, _result, duration):
            self.ingress_ns.append(duration)
            size = flow_table_size(args[0])
            self.measures["engine.flows.max"] = max(self.measures["engine.flows.max"], size)
        self._set(Engine, "on_app_packet", self.span(
            "engine.ingress", Engine.on_app_packet, flow_of=app_port, after=ingress_done))
        sweep = self.span("engine.sweep", Engine.sweep)

        def traced_sweep(engine, *args, **kwargs):
            self.measures["engine.sweep.flows_scanned"] += flow_table_size(engine)
            return sweep(engine, *args, **kwargs)
        self._set(Engine, "sweep", traced_sweep)

        self._set(PluginHost, "dispatch", self.span("host.dispatch", PluginHost.dispatch))
        self._set(PluginHost, "governor_tick",
                  self.span("host.governor_tick", PluginHost.governor_tick))
        for cls, short in PLUGINS:
            for cb in PLUGIN_CALLBACKS:
                self._set(cls, cb, self.span(f"plugins.{short}", getattr(cls, cb)))

        for opener in ("open_stream", "open_datagram"):
            self._set(SimUpstream, opener, self._traced_open(getattr(SimUpstream, opener)))
        self._set(SimUpstream, "find_script",
                  self.span("upstream.find_script", SimUpstream.find_script))

        self._set(Scheduler, "step", self.span("clock.step", Scheduler.step))
        self._set(Scheduler, "call_at", self.count("clock.call_at", Scheduler.call_at))
        for cls in (ReplayConduit, InMemoryConduit):
            self._set(cls, "read_packet", self.count("conduit.read", cls.read_packet))
            self._set(cls, "write_packet", self.count("conduit.write", cls.write_packet))
        self._set(runner.ReplayRun, "build_report",
                  self.span("runner.build_report", runner.ReplayRun.build_report))
        return self

    def _traced_open(self, open_fn):
        span = self.span("upstream.open", open_fn)

        def traced_open(net, *args, **kwargs):
            handle = span(net, *args, **kwargs)
            self.measures["upstream.handles.max"] = max(
                self.measures["upstream.handles.max"], net.active_handle_count())
            flow = self._stack[-1][3] if self._stack else None
            for method in HANDLE_METHODS:
                if hasattr(handle, method):
                    setattr(handle, method, self.span("upstream.handle", getattr(handle, method)))
            setter = handle.set_callback

            def set_callback(cb):
                # the engine's registered callback is the engine.on_upstream
                # span; the host registers probe-reply callbacks the same way
                caller = sys._getframe(1).f_globals.get("__name__", "")
                name = "engine.on_upstream" if caller == "mbz.engine" else "host.probe_reply"
                setter(self.span(name, cb, flow_of=lambda _a: flow))
            handle.set_callback = set_callback
            return handle
        return traced_open

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """(calls, self_ns) per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[1]] += 1
            self_ns[span[1]] += span[6]
        calls.update(self.counts)
        return calls, self_ns

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tflow\n")
            for sid, name, start, end, parent, flow, _self in self.spans:
                fh.write(f"{sid}\t{name}\t{start}\t{end}\t{parent}\t"
                         f"{'' if flow is None else flow}\n")


_MISSING = object()
