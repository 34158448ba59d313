"""Run configuration: strict YAML loading and validation.

Unknown keys are rejected outright so a typo ("speeed") fails loudly at
load time instead of silently running with defaults. All referenced
files must exist at load. Paths are resolved relative to the config
file's directory. Each plugin setting is checked and converted to its
plugin constructor's argument at load, through `PLUGIN_TABLE`, and the
rules and org-map files are parsed there too, so building the chain
later cannot fail on the config.

Every YAML file a run reads (this config, the upstream scripts, the
firewall rules) goes through `load_yaml`: PyYAML's libyaml-backed
`CSafeLoader` when PyYAML was built with it, its pure-Python
`SafeLoader` otherwise. Both build the same objects, and a file that
does not parse is a ParseError naming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import yaml

from .engine import EngineConfig
from .host import (Connectivity, DeviceContext, MalformedPermissions, Permission,
                   ResourceBudget, permissions_from_names)
from .packet import ipv4_endpoint
from .plugins import AdvisorPlugin, FirewallPlugin, OrgMap, SnitchPlugin, WhatIfPlugin
from .plugins.firewall import rules_from_list


class ConfigLoadError(Exception):
    pass


class ParseError(ConfigLoadError):
    pass


class MissingFile(ConfigLoadError):
    pass


class DuplicatePluginId(ConfigLoadError):
    pass


YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# libyaml composes nested collections by recursing in C, so nesting tens of
# thousands deep overflows the C stack and kills the process. Every
# collection opens with one of these characters; a text with fewer than
# _C_NESTING_LIMIT of them goes to YAML_LOADER, any other to SafeLoader,
# which runs out of Python recursion instead.
_NESTING_OPENERS = "[{-?:"
_C_NESTING_LIMIT = 5000


def load_yaml(path: str | Path):
    """The objects one YAML file holds (None for an empty file)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        if sum(map(text.count, _NESTING_OPENERS)) < _C_NESTING_LIMIT:
            return yaml.load(text, Loader=YAML_LOADER)
        return yaml.load(text, Loader=yaml.SafeLoader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not valid YAML: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: not valid YAML: nested too deeply") from None


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
        raise ParseError(f"{where}: unknown key {min(unknown, key=str)!r}")
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
    try:
        path = (base / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
    except ValueError as exc:  # a NUL in the name
        raise ParseError(f"{what} file name {raw!r}: {exc}") from None
    if not path.is_file():
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


def _checked(convert, ok, rule: str):
    """`convert`, then a ValueError unless `ok` holds for its result."""
    def checked(value):
        result = convert(value)
        if not ok(result):
            raise ValueError(f"must be {rule}")
        return result
    return checked


def _typed(kind: type, convert=lambda value: value):
    """`convert`, for a value of type `kind` only."""
    def typed(value):
        if not isinstance(value, kind):
            raise TypeError(f"must be {kind.__name__}")
        return convert(value)
    return typed


_fraction = _checked(float, lambda x: 0 <= x <= 1, "from 0 to 1")


class PluginKind(NamedTuple):
    """A plugin kind: its class, an entry's permissions when it names
    none, the report section `report()` fills, and each setting as config
    key: (constructor parameter, conversion[, what the file it names
    holds]). A file setting is required; its conversion parses the file."""
    plugin: type
    permissions: tuple[str, ...]
    section: str | None
    settings: dict[str, tuple]


PLUGIN_TABLE = {
    "snitch": PluginKind(SnitchPlugin, ("observe",), "snitch", {
        "org_map": ("org_map", OrgMap.from_csv, "org map"),
        "first_party_orgs": ("first_party_orgs", _typed(list, set)),
        "burst_gap_s": ("burst_gap_us", _checked(_us, lambda us: us >= 0, "0 or more")),
    }),
    "firewall": PluginKind(
        FirewallPlugin, ("observe", "block_flow", "redirect_flow", "modify_payload"), None, {
            "rules": ("rules", lambda path: rules_from_list(load_yaml(path) or []),
                      "firewall rules"),
            "default_allow": ("default_allow", _typed(bool)),
        }),
    "dns-whatif": PluginKind(WhatIfPlugin, ("observe", "inject_packets"), "whatif", {
        "resolvers": ("alt_resolvers", _typed(list, lambda targets: tuple(
            ipv4_endpoint(target, min_port=1) for target in targets))),
        "probability": ("probability", _fraction),
        "timeout_s": ("timeout_us", _checked(_us, lambda us: us > 0, "more than 0")),
    }),
    "protocol-advisor": PluginKind(AdvisorPlugin, ("observe",), "advisor", {
        "loss_rate_threshold": ("loss_rate_threshold", _fraction),
        "min_samples": ("min_samples", _checked(int, lambda n: n >= 0, "0 or more")),
    }),
}


def _plugin_from(obj: dict, base: Path, index: int) -> PluginSpec:
    where = f"plugins[{index}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a mapping")
    name = obj.get("kind")
    if not isinstance(name, str) or name not in PLUGIN_TABLE:
        raise ParseError(f"{where}: unknown plugin kind {name!r}")
    kind = PLUGIN_TABLE[name]
    common = {"id": object, "kind": str, "permissions": list, "budget": object,
              "wifi_only_export": bool}
    _require_keys(obj, common | dict.fromkeys(kind.settings, object), where)
    if "id" not in obj:
        raise ParseError(f"{where}: missing id")
    plugin_id = str(obj["id"])

    try:
        permissions = permissions_from_names(obj.get("permissions", kind.permissions))
    except MalformedPermissions as exc:
        raise ParseError(f"{where}: {exc}") from exc
    settings = {}
    try:
        for key, (param, convert, *file) in kind.settings.items():
            if key not in obj:
                if file:
                    raise ParseError(f"{name} requires {key}")
                continue
            value = obj[key]
            if file:
                value = _convert(lambda raw: str(_existing(base, raw, file[0])), value, key)
            settings[param] = _convert(convert, value, key)
    except ParseError as exc:
        raise ParseError(f"plugin {plugin_id!r}: {exc}") from exc

    return PluginSpec(
        id=plugin_id,
        kind=name,
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
    raw = load_yaml(path) or {}

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
