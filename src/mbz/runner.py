"""Wires a RunConfig into a live engine and produces the run report."""

from __future__ import annotations

import json
from pathlib import Path

import yaml

from .clock import Scheduler
from .config import ParseError, PluginSpec, RunConfig
from .conduit import ReplayConduit
from .engine import Engine
from .host import PluginDescriptor, PluginHost
from .pcapio import pcap_read, pcap_write
from .plugins import (
    AdvisorPlugin, FirewallPlugin, OrgMap, SnitchPlugin, WhatIfPlugin,
)
from .plugins.firewall import FirewallRuleError, rules_from_list
from .plugins.snitch import OrgMapError
from .trace import APP_TO_NET, TraceEvent, read_trace
from .upstream import SimEndpointScript, SimUpstream


def load_scripts(path: Path | None) -> list[SimEndpointScript]:
    if path is None:
        return []
    raw = yaml.safe_load(path.read_text(encoding="utf-8")) or []
    return [SimEndpointScript.from_dict(obj) for obj in raw]


def load_trace_events(config: RunConfig) -> list[TraceEvent]:
    if config.trace_path is not None:
        return read_trace(config.trace_path)
    if config.pcap_path is not None:
        return [TraceEvent(ts_us=ts, direction=APP_TO_NET, app_label="", packet=pkt)
                for ts, pkt in pcap_read(config.pcap_path)]
    raise ParseError("config has no trace or pcap input")


def _build_plugin(spec: PluginSpec, seed: int):
    s = spec.settings
    if spec.kind == "snitch":
        return SnitchPlugin(
            OrgMap.from_csv(s["org_map"]),
            first_party_orgs=set(s.get("first_party_orgs", [])),
            burst_gap_us=int(float(s.get("burst_gap_s", 1.0)) * 1e6))
    if spec.kind == "firewall":
        rules = yaml.safe_load(Path(s["rules"]).read_text(encoding="utf-8")) or []
        return FirewallPlugin(rules_from_list(rules),
                              default_allow=s.get("default_allow", True))
    if spec.kind == "dns-whatif":
        return WhatIfPlugin(
            s.get("resolvers", []),
            probability=float(s.get("probability", 0.05)),
            seed=seed,
            timeout_us=int(float(s.get("timeout_s", 2.0)) * 1e6))
    if spec.kind == "protocol-advisor":
        return AdvisorPlugin(
            loss_rate_threshold=float(s.get("loss_rate_threshold", 0.02)),
            min_samples=int(s.get("min_samples", 20)))
    raise ParseError(f"unknown plugin kind {spec.kind!r}")


def install_plugins(config: RunConfig, host: PluginHost,
                    seed: int) -> dict[str, object]:
    """Build and register the config's plugin chain on a host. A malformed
    rules or org-map file, or a setting of the wrong type, is a ParseError
    naming the plugin (and the file, if it has one)."""
    plugins: dict[str, object] = {}
    for spec in config.plugins:
        try:
            plugin = _build_plugin(spec, seed)
        except (FirewallRuleError, OrgMapError, yaml.YAMLError,
                ValueError, TypeError, OverflowError) as exc:
            source = spec.settings.get("rules") or spec.settings.get("org_map")
            where = f" ({source})" if source else ""
            raise ParseError(f"plugin {spec.id!r}{where}: {exc}") from exc
        host.register(PluginDescriptor(
            id=spec.id, name=spec.kind, requested=spec.permissions,
            budget=spec.budget, wifi_only_export=spec.wifi_only_export),
            plugin)
        if isinstance(plugin, WhatIfPlugin):
            plugin.bind(host, spec.id)
        plugins[spec.id] = plugin
    return plugins


class ReplayRun:
    """One assembled replay: engine, host, plugins, and their wiring."""

    def __init__(self, config: RunConfig, seed: int | None = None):
        self.config = config
        if seed is not None:
            config.engine.seed = seed
        self.seed = config.engine.seed
        self.scheduler = Scheduler()
        self.upstream = SimUpstream(load_scripts(config.scripts_path),
                                    self.scheduler, rng_seed=self.seed)
        self.host = PluginHost(
            self.scheduler, upstream=self.upstream,
            low_battery_threshold=config.low_battery_throttle)
        self.plugins = install_plugins(config, self.host, self.seed)

        events = load_trace_events(config)
        self.conduit = ReplayConduit(events)
        self.engine = Engine(config.engine, self.conduit, self.upstream,
                             self.host, self.scheduler)
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
            "violations": self.host.violations,
            "governor": self.host.governor_events,
            "evictions": self.engine.eviction_reports,
        }
        for pid, plugin in self.plugins.items():
            if isinstance(plugin, SnitchPlugin):
                report.setdefault("snitch", {})[pid] = plugin.report()
            elif isinstance(plugin, WhatIfPlugin):
                report.setdefault("whatif", {})[pid] = plugin.report()
            elif isinstance(plugin, AdvisorPlugin):
                report.setdefault("advisor", {})[pid] = plugin.report()
        return report


def report_json_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def write_outputs(run: ReplayRun, report: dict,
                  out_pcap: Path | None = None) -> list[Path]:
    """Write the report, the violation/governor JSON-lines logs, and the
    optional capture of everything the engine forwarded or emitted."""
    written: list[Path] = []
    config = run.config
    report_path = config.report_path
    if report_path is not None:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_bytes(report_json_bytes(report))
        written.append(report_path)
        stem = report_path.with_suffix("")
        for name, rows in (("violations", run.host.violations),
                           ("governor", run.host.governor_events)):
            log_path = Path(f"{stem}.{name}.jsonl")
            with open(log_path, "w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
            written.append(log_path)
    pcap_target = out_pcap or config.out_pcap
    if pcap_target is not None:
        pcap_target = Path(pcap_target)
        pcap_target.parent.mkdir(parents=True, exist_ok=True)
        pcap_write(pcap_target, run.engine.capture)
        written.append(pcap_target)
    return written
