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
from .host import (Connectivity, DeviceContext, MalformedPermissions, Permission,
                   ResourceBudget, permissions_from_names)


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

# per kind, each setting's type (object: checked when the plugin is built)
_PLUGIN_SETTING_KEYS = {
    "snitch": {"org_map": str, "first_party_orgs": list, "burst_gap_s": object},
    "firewall": {"rules": str, "default_allow": bool},
    "dns-whatif": {"resolvers": list, "probability": object, "timeout_s": object},
    "protocol-advisor": {"loss_rate_threshold": object, "min_samples": object},
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
    device_timeline: list[tuple[int, DeviceContext]]
    low_battery_throttle: int | None
    report_path: Path | None
    report_formats: list[str]
    out_pcap: Path | None


def _require_keys(obj: dict, known: set[str] | dict[str, type], where: str) -> None:
    """`obj` is a mapping with no key outside `known`; when `known` maps
    each key to a type, a key present holds a value of that type."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a mapping")
    unknown = set(obj) - set(known)
    if unknown:
        raise ParseError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    for key, kind in known.items() if isinstance(known, dict) else ():
        if key in obj and not isinstance(obj[key], kind):
            raise ParseError(f"{where}: {key} must be {kind.__name__}, got {obj[key]!r}")


def _convert(convert, value, where: str):
    """`convert(value)`, or a ParseError naming `where` if that fails."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: bad value {value!r} ({exc})") from None


def _us(seconds) -> int:
    return int(float(seconds) * 1e6)


def _existing(base: Path, raw: str, what: str) -> Path:
    path = (base / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
    if not path.exists():
        raise MissingFile(f"{what} file not found: {path}")
    return path


# engine config key: (EngineConfig field, conversion)
_ENGINE_KEYS = {
    "mtu": ("mtu", int),
    "socket_budget": ("socket_budget", int),
    "udp_timeout_s": ("udp_timeout_us", _us),
    "dns_timeout_s": ("dns_timeout_us", _us),
    "sweep_interval_s": ("sweep_interval_us", _us),
    "buffer_capacity": ("buffer_capacity", int),
}


def _engine_from(obj: dict) -> EngineConfig:
    _require_keys(obj, set(_ENGINE_KEYS) | {"local_isn"}, "engine")
    cfg = EngineConfig()
    for key, (name, convert) in _ENGINE_KEYS.items():
        if key in obj:
            setattr(cfg, name, _convert(convert, obj[key], f"engine.{key}"))
    isn = obj.get("local_isn", "random")
    if isn != "random":
        cfg.local_isn = _convert(int, isn, "engine.local_isn")
    try:
        cfg.validate()
    except ValueError as exc:
        raise ParseError(f"engine: {exc}") from exc
    return cfg


def _budget_from(obj: dict, where: str) -> ResourceBudget:
    known = ("max_cpu_us_per_packet", "max_mem_bytes",
             "max_emitted_bytes_per_min", "violation_grace")
    _require_keys(obj, dict.fromkeys(known, int), where)
    budget = ResourceBudget(**obj)
    try:
        budget.validate()
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return budget


def _plugin_from(obj: dict, base: Path, index: int) -> PluginSpec:
    where = f"plugins[{index}]"
    common = {"id": object, "kind": object, "permissions": list, "budget": object,
              "wifi_only_export": bool}
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a mapping")
    kind = obj.get("kind")
    if kind not in PLUGIN_KINDS:
        raise ParseError(f"{where}: unknown plugin kind {kind!r}")
    _require_keys(obj, common | _PLUGIN_SETTING_KEYS[kind], where)
    if "id" not in obj:
        raise ParseError(f"{where}: missing id")

    try:
        permissions = permissions_from_names(obj.get("permissions", DEFAULT_PERMISSIONS[kind]))
    except MalformedPermissions as exc:
        raise ParseError(f"{where}: {exc}") from exc
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
        permissions=permissions,
        budget=_budget_from(obj.get("budget", {}), f"{where}.budget"),
        wifi_only_export=obj.get("wifi_only_export", False),
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
    engine.seed = _convert(int, raw.get("seed", 0), "seed")

    io = raw.get("io") or {}
    _require_keys(io, {"trace": str, "pcap": str, "scripts": str, "device_timeline": list}, "io")
    trace_path = _existing(base, io["trace"], "trace") if "trace" in io else None
    pcap_path = _existing(base, io["pcap"], "pcap") if "pcap" in io else None
    if trace_path and pcap_path:
        raise ParseError("io: give either trace or pcap, not both")
    scripts_path = _existing(base, io["scripts"], "scripts") if "scripts" in io else None
    timeline = []  # (at_us, device context)
    for i, entry in enumerate(io.get("device_timeline") or []):
        where = f"io.device_timeline[{i}]"
        _require_keys(entry, {"at_us": int, "connectivity": str, "battery_percent": int}, where)
        timeline.append((entry.get("at_us", 0), _convert(lambda e: DeviceContext(
            Connectivity(e.get("connectivity", "wifi")), e.get("battery_percent", 100)),
            entry, where)))

    host_obj = raw.get("host") or {}
    _require_keys(host_obj, {"low_battery_throttle": int}, "host")

    plugins = [_plugin_from(p, base, i)
               for i, p in enumerate(raw.get("plugins") or [])]
    seen_ids = set()
    for spec in plugins:
        if spec.id in seen_ids:
            raise DuplicatePluginId(f"plugin id {spec.id!r} used twice")
        seen_ids.add(spec.id)

    report = raw.get("report") or {}
    _require_keys(report, {"path": str, "formats": list, "pcap": str}, "report")
    formats = report.get("formats", ["json"])
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
