"""Run configuration: strict YAML loading and validation.

Unknown keys are rejected outright so a typo ("speeed") fails loudly at
load time instead of silently running with defaults. All referenced
files must exist at load. Paths are resolved relative to the config
file's directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .engine import EngineConfig
from .host import PERMISSION_NAMES, Permission, ResourceBudget, permissions_from_names


class ConfigLoadError(Exception):
    pass


class ParseError(ConfigLoadError):
    pass


class MissingFile(ConfigLoadError):
    pass


class DuplicatePluginId(ConfigLoadError):
    pass


PLUGIN_KINDS = ("snitch", "firewall", "dns-whatif", "protocol-advisor")

DEFAULT_PERMISSIONS = {
    "snitch": ["observe"],
    "firewall": ["observe", "block_flow", "redirect_flow", "modify_payload"],
    "dns-whatif": ["observe", "inject_packets"],
    "protocol-advisor": ["observe"],
}

_PLUGIN_SETTING_KEYS = {
    "snitch": {"org_map", "first_party_orgs", "burst_gap_s"},
    "firewall": {"rules", "default_allow"},
    "dns-whatif": {"resolvers", "probability", "timeout_s"},
    "protocol-advisor": {"loss_rate_threshold", "min_samples"},
}


@dataclass
class PluginSpec:
    id: str
    kind: str
    permissions: Permission
    budget: ResourceBudget
    wifi_only_export: bool
    settings: dict


@dataclass
class RunConfig:
    engine: EngineConfig
    plugins: list[PluginSpec]
    trace_path: Path | None
    pcap_path: Path | None
    scripts_path: Path | None
    device_timeline: list[dict]
    low_battery_throttle: int | None
    report_path: Path | None
    report_formats: list[str]
    out_pcap: Path | None


def _require_keys(obj: dict, known: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a mapping")
    unknown = set(obj) - known
    if unknown:
        raise ParseError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _existing(base: Path, raw: str, what: str) -> Path:
    path = (base / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
    if not path.exists():
        raise MissingFile(f"{what} file not found: {path}")
    return path


def _engine_from(obj: dict) -> EngineConfig:
    known = {"mtu", "socket_budget", "udp_timeout_s", "dns_timeout_s",
             "sweep_interval_s", "buffer_capacity", "local_isn"}
    _require_keys(obj, known, "engine")
    cfg = EngineConfig()
    if "mtu" in obj:
        cfg.mtu = int(obj["mtu"])
    if "socket_budget" in obj:
        cfg.socket_budget = int(obj["socket_budget"])
    if "udp_timeout_s" in obj:
        cfg.udp_timeout_us = int(float(obj["udp_timeout_s"]) * 1e6)
    if "dns_timeout_s" in obj:
        cfg.dns_timeout_us = int(float(obj["dns_timeout_s"]) * 1e6)
    if "sweep_interval_s" in obj:
        cfg.sweep_interval_us = int(float(obj["sweep_interval_s"]) * 1e6)
    if "buffer_capacity" in obj:
        cfg.buffer_capacity = int(obj["buffer_capacity"])
    isn = obj.get("local_isn", "random")
    if isn != "random":
        cfg.local_isn = int(isn)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ParseError(f"engine: {exc}") from exc
    return cfg


def _budget_from(obj: dict, where: str) -> ResourceBudget:
    known = {"max_cpu_us_per_packet", "max_mem_bytes",
             "max_emitted_bytes_per_min", "violation_grace"}
    _require_keys(obj, known, where)
    budget = ResourceBudget(**{k: int(v) for k, v in obj.items()})
    try:
        budget.validate()
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return budget


def _plugin_from(obj: dict, base: Path, index: int) -> PluginSpec:
    where = f"plugins[{index}]"
    common = {"id", "kind", "permissions", "budget", "wifi_only_export"}
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a mapping")
    kind = obj.get("kind")
    if kind not in PLUGIN_KINDS:
        raise ParseError(f"{where}: unknown plugin kind {kind!r}")
    _require_keys(obj, common | _PLUGIN_SETTING_KEYS[kind], where)
    if "id" not in obj:
        raise ParseError(f"{where}: missing id")

    perm_names = obj.get("permissions", DEFAULT_PERMISSIONS[kind])
    for name in perm_names:
        if name not in PERMISSION_NAMES:
            raise ParseError(f"{where}: unknown permission {name!r}")
    settings = {k: obj[k] for k in _PLUGIN_SETTING_KEYS[kind] if k in obj}

    if kind == "snitch":
        if "org_map" not in settings:
            raise ParseError(f"{where}: snitch requires org_map")
        settings["org_map"] = _existing(base, settings["org_map"], "org map")
    if kind == "firewall":
        if "rules" not in settings:
            raise ParseError(f"{where}: firewall requires rules")
        settings["rules"] = _existing(base, settings["rules"], "firewall rules")
    if kind == "dns-whatif":
        resolvers = []
        for target in settings.get("resolvers", []):
            try:
                host_part, port_part = str(target).rsplit(":", 1)
                resolvers.append((host_part, int(port_part)))
            except ValueError as exc:
                raise ParseError(f"{where}: bad resolver {target!r}") from exc
        settings["resolvers"] = resolvers

    return PluginSpec(
        id=str(obj["id"]),
        kind=kind,
        permissions=permissions_from_names(list(perm_names)),
        budget=_budget_from(obj.get("budget", {}), f"{where}.budget"),
        wifi_only_export=bool(obj.get("wifi_only_export", False)),
        settings=settings,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"config file not found: {path}")
    base = path.parent
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ParseError(f"not valid YAML: {exc}") from exc

    _require_keys(raw, {"engine", "seed", "io", "plugins", "host", "report"}, "config")
    engine = _engine_from(raw.get("engine") or {})
    engine.seed = int(raw.get("seed", 0))

    io = raw.get("io") or {}
    _require_keys(io, {"trace", "pcap", "scripts", "device_timeline"}, "io")
    trace_path = _existing(base, io["trace"], "trace") if "trace" in io else None
    pcap_path = _existing(base, io["pcap"], "pcap") if "pcap" in io else None
    if trace_path and pcap_path:
        raise ParseError("io: give either trace or pcap, not both")
    scripts_path = _existing(base, io["scripts"], "scripts") if "scripts" in io else None
    timeline = io.get("device_timeline") or []
    for i, entry in enumerate(timeline):
        _require_keys(entry, {"at_us", "connectivity", "battery_percent"},
                      f"io.device_timeline[{i}]")

    host_obj = raw.get("host") or {}
    _require_keys(host_obj, {"low_battery_throttle"}, "host")

    plugins = [_plugin_from(p, base, i)
               for i, p in enumerate(raw.get("plugins") or [])]
    seen_ids = set()
    for spec in plugins:
        if spec.id in seen_ids:
            raise DuplicatePluginId(f"plugin id {spec.id!r} used twice")
        seen_ids.add(spec.id)

    report = raw.get("report") or {}
    _require_keys(report, {"path", "formats", "pcap"}, "report")
    formats = list(report.get("formats", ["json"]))
    for fmt in formats:
        if fmt not in ("json", "csv", "plotdata"):
            raise ParseError(f"report: unknown format {fmt!r}")
    if any(f != "json" for f in formats) and "path" not in report:
        raise ParseError("report: formats beyond json require a path")

    return RunConfig(
        engine=engine,
        plugins=plugins,
        trace_path=trace_path,
        pcap_path=pcap_path,
        scripts_path=scripts_path,
        device_timeline=timeline,
        low_battery_throttle=host_obj.get("low_battery_throttle"),
        report_path=(base / report["path"]) if "path" in report else None,
        report_formats=formats,
        out_pcap=(base / report["pcap"]) if "pcap" in report else None,
    )
