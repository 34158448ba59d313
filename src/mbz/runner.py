"""Wires a RunConfig into a live engine and produces the run report."""

from __future__ import annotations

from pathlib import Path

from .clock import Scheduler
from .config import PLUGIN_TABLE, ParseError, RunConfig, load_scripts
from .conduit import ReplayConduit
from .engine import Engine
from .host import PluginHost
from .pcapio import PcapSpool, pcap_read, pcap_write
from .plugins import WhatIfPlugin
from .report import format_report
from .spool import EventSpool, json_line
from .trace import APP_TO_NET, TraceEvent, check_monotonic, read_trace
from .upstream import SimUpstream


def load_trace_events(config: RunConfig) -> list[TraceEvent]:
    """The run's input events in timestamp order. `read_trace` checks the
    order as it reads; a pcap input whose timestamps decrease raises
    MalformedTrace."""
    if config.trace_path is not None:
        return read_trace(config.trace_path)
    if config.pcap_path is not None:
        events = [TraceEvent(ts_us=ts, direction=APP_TO_NET, app_label="", packet=pkt)
                  for ts, pkt in pcap_read(config.pcap_path)]
        check_monotonic(events)
        return events
    raise ParseError("config has no trace or pcap input")


def install_plugins(config: RunConfig, host: PluginHost,
                    seed: int) -> dict[str, object]:
    """Build the config's plugin chain from the constructor arguments
    `load_config` converted, and register each plugin on a host under the
    descriptor `load_config` built; the what-if plugin gets `seed` and the
    host's probe service."""
    plugins: dict[str, object] = {}
    for descriptor, settings in config.plugins:
        cls = PLUGIN_TABLE[descriptor.name].plugin
        if cls is WhatIfPlugin:
            plugin = WhatIfPlugin(seed=seed, **settings).bind(host, descriptor.id)
        else:
            plugin = cls(**settings)
        plugins[host.register(descriptor, plugin)] = plugin
    return plugins


class ReplayRun:
    """One assembled replay: engine, host, plugins, and their wiring.

    The engine records its packets into `capture`, a pcap spooled to a
    temporary file as the run goes, so `write_outputs` can still copy it
    to a target named after `execute()`. The engine's sweeps and the
    plugins' probes go to `events`, a JSON-lines log spooled the same
    way. Dropping the run closes both files.
    """

    def __init__(self, config: RunConfig, seed: int | None = None):
        self.config = config
        if seed is not None:
            config.engine.seed = seed
        self.seed = config.engine.seed
        self.scheduler = Scheduler()
        self.events = EventSpool()
        self.upstream = SimUpstream(load_scripts(config.scripts_path),
                                    self.scheduler, rng_seed=self.seed)
        self.host = PluginHost(
            self.scheduler, upstream=self.upstream,
            low_battery_threshold=config.low_battery_throttle, events=self.events)
        self.plugins = install_plugins(config, self.host, self.seed)

        events = load_trace_events(config)
        self.conduit = ReplayConduit(events)
        self.capture = PcapSpool()
        self.engine = Engine(config.engine, self.conduit, self.upstream,
                             self.host, self.scheduler, sink=self.capture,
                             events=self.events)
        for at_us, device in config.device_timeline:
            self.scheduler.call_at(at_us, lambda d=device: self.host.update_context(d))

    def execute(self) -> dict:
        self.engine.run()
        return self.build_report()

    def build_report(self) -> dict:
        report = {
            "seed": self.seed,
            "counters": self.engine.counters,
            "plugins": self.host.plugin_states(),
        }
        for descriptor, _settings in self.config.plugins:
            section = PLUGIN_TABLE[descriptor.name].section
            if section is not None:
                report.setdefault(section, {})[descriptor.id] = \
                    self.plugins[descriptor.id].report()
        return report


def report_json_bytes(report: dict) -> bytes:
    return format_report(report, "json").encode("utf-8")


def write_outputs(run: ReplayRun, report: dict,
                  out_pcap: Path | None = None) -> list[Path]:
    """Write the report; beside it, the event log: the run's evictions
    and probes as they happened, then its violations and governor
    events; the optional capture of everything the engine forwarded or
    emitted; and the report in each further format the config names."""
    written: list[Path] = []
    config = run.config
    report_path = config.report_path
    if report_path is not None:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_bytes(report_json_bytes(report))
        events_path = Path(f"{report_path.with_suffix('')}.events.jsonl")
        run.events.copy_to(events_path)
        with open(events_path, "ab") as fh:
            for event, records in (("violation", run.host.violations),
                                   ("governor", run.host.governor_events)):
                for record in records:
                    fh.write(json_line({**record, "event": event}))
        written += [report_path, events_path]
    pcap_target = out_pcap or config.out_pcap
    if pcap_target is not None:
        pcap_target = Path(pcap_target)
        pcap_target.parent.mkdir(parents=True, exist_ok=True)
        pcap_write(pcap_target, run.capture)
        written.append(pcap_target)
    for fmt in config.report_formats:
        if fmt != "json":
            target = report_path.with_suffix("." + fmt)
            target.write_text(format_report(report, fmt), encoding="utf-8")
            written.append(target)
    return written
