"""Run configuration: strict YAML loading and validation.

Unknown keys are rejected outright so a typo ("speeed") fails loudly at
load time instead of silently running with defaults. All referenced
files must exist at load. Paths are resolved relative to the config
file's directory. Each plugin setting is checked and converted to its
plugin constructor's argument at load, through `PLUGIN_TABLE`, and the
rules and org-map files are parsed there too, so building the chain
later cannot fail on the config. The upstream scripts (`load_scripts`)
and the firewall rules (`rules_from_list`) are read here as well: each
entry goes through a key table, as the engine section does, and becomes
a `SimEndpointScript` or a `FirewallRule`.

The loader builds the objects the runtime uses (`EngineConfig`, each
`PluginDescriptor` and its `ResourceBudget`, each `DeviceContext`); each
checks its own rules when built, and a value it refuses is a ParseError.

Every YAML file a run reads (this config, the upstream scripts, the
firewall rules) goes through `load_yaml`: PyYAML's libyaml-backed
`CSafeLoader` when PyYAML was built with it, its pure-Python
`SafeLoader` otherwise. Both build the same objects, and a file that
does not parse is a ParseError naming it.
"""

from __future__ import annotations

import ipaddress
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import yaml

from .engine import EngineConfig
from .host import (Connectivity, DeviceContext, PluginDescriptor, ResourceBudget,
                   permissions_from_names)
from .packet import PROTO_TCP, PROTO_UDP
from .plugins import (AdvisorPlugin, FirewallPlugin, FirewallRule, OrgMap, SnitchPlugin,
                      WhatIfPlugin)
from .upstream import (BEHAVIOR_BLACKHOLE, BEHAVIORS, OverlappingScripts, SimEndpointScript,
                       check_disjoint)


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


class PluginSpec(NamedTuple):
    """One plugin entry: what the host registers, and the plugin
    constructor's arguments."""
    descriptor: PluginDescriptor
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
    """`convert(value)`, or a ParseError naming `where` if that fails; a
    long value is shortened, so a bad address in a large `answers` map
    does not print the whole map."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: bad value {reprlib.repr(value)} ({exc})") from None


def _built(where: str, cls: type, **fields):
    """`cls(**fields)`, or a ParseError naming `where` and the rule the
    type's own check refused."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _existing(base: Path, raw: str, what: str) -> Path:
    try:
        path = (base / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
    except ValueError as exc:  # a NUL in the name
        raise ParseError(f"{what} file name {raw!r}: {exc}") from None
    if not path.is_file():
        raise MissingFile(f"{what} file not found: {path}")
    return path


def _fields(obj: dict, table: dict, where: str, **fields) -> dict:
    """`fields`, updated from the mapping `obj` through `table`: config
    key: (field, conversion). A conversion that is itself a table reads a
    nested mapping (empty when the value is false); a field of None takes
    the several fields the conversion returns as a dict. A key outside
    the table, or a value its conversion refuses, is a ParseError."""
    _require_keys(obj, set(table), where)
    for key, (name, convert) in table.items():
        if key not in obj:
            continue
        if isinstance(convert, dict):
            value = _fields(obj[key] or {}, convert, f"{where}.{key}")
        else:
            value = _convert(convert, obj[key], f"{where}.{key}")
        if name is None:
            fields.update(value)
        else:
            fields[name] = value
    return fields


def _checked(convert, ok, rule: str):
    """`convert`, then a ValueError unless `ok` holds for its result."""
    def checked(value):
        result = convert(value)
        if not ok(result):
            raise ValueError(f"must be {rule}")
        return result
    return checked


def _typed(kind: type, convert=lambda value: value):
    """`convert`, for a value of exactly type `kind` only (so a bool is
    not an int)."""
    def typed(value):
        if type(value) is not kind:
            raise TypeError(f"must be {kind.__name__}")
        return convert(value)
    return typed


def _one_of(choices):
    """A value among `choices`; a dict of choices maps it to its entry."""
    def one_of(value):
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return choices[value] if isinstance(choices, dict) else value
    return one_of


def _real(value) -> float:
    if isinstance(value, bool):  # float() would read true as 1.0
        raise TypeError("must be a number")
    return float(value)


def _us(seconds) -> int:
    return int(_real(seconds) * 1e6)


_duration = _checked(_us, lambda us: us > 0, "above 0")
_count = _checked(_typed(int), lambda n: n >= 0, "0 or more")
_fraction = _checked(_real, lambda x: 0 <= x <= 1, "from 0 to 1")
_utf8 = _typed(str, str.encode)


def _bytes(value) -> bytes:
    """A string as UTF-8, or bytes (a YAML !!binary value) as they are."""
    return value if type(value) is bytes else _utf8(value)


def port_set(value) -> frozenset[int] | None:
    """The ports a `ports` value names: None for `any` (or no value),
    else a list of integers (not booleans) from 0 to 65535."""
    if value in ("any", None):
        return None
    if not (isinstance(value, list)
            and all(type(p) is int and 0 <= p <= 0xFFFF for p in value)):
        raise ValueError("must be 'any' or a list of port numbers")
    return frozenset(value)


def ipv4_endpoint(text, min_port: int = 0) -> tuple[str, int]:
    """(address, port) of an 'a.b.c.d:port' target: a dotted-quad IPv4
    address and a decimal port from `min_port` to 65535."""
    host, _, port = text.rpartition(":") if isinstance(text, str) else ("", "", "")
    try:
        ipaddress.IPv4Address(host)
        if port.isascii() and port.isdigit() and min_port <= int(port) <= 0xFFFF:
            return host, int(port)
    except ValueError:
        pass
    raise ValueError(f"expected IPv4:port with a port from {min_port} to 65535, "
                     f"got {text!r}")


def _addresses(value) -> list[str]:
    """A list of dotted-quad IPv4 addresses, as written."""
    if type(value) is not list or not all(type(text) is str for text in value):
        raise TypeError("must be a list of IPv4 addresses")
    for text in value:
        ipaddress.IPv4Address(text)
    return list(value)


def _answer_map(value) -> dict[str, list[str]]:
    """{domain name: [IPv4 address, ...]}"""
    return {str(name): _addresses(ips) for name, ips in _typed(dict)(value).items()}


def _entries(read, objs, where: str) -> list:
    """`read(entry, where)` for each entry of the YAML list `objs`."""
    if not isinstance(objs, list):
        raise ParseError(f"{where}: expected a list")
    return [read(obj, f"{where}[{i}]") for i, obj in enumerate(objs)]


# engine config key: (EngineConfig field, conversion)
_ENGINE_KEYS = {
    "mtu": ("mtu", _count),
    "socket_budget": ("socket_budget", _count),
    "udp_timeout_s": ("udp_timeout_us", _duration),
    "dns_timeout_s": ("dns_timeout_us", _duration),
    "sweep_interval_s": ("sweep_interval_us", _duration),
    "buffer_capacity": ("buffer_capacity", _count),
    "local_isn": ("local_isn", lambda isn: None if isn == "random" else _count(isn)),
}


# plugin budget key: (ResourceBudget field, conversion); ResourceBudget
# checks each value
_BUDGET_KEYS = {name: (name, lambda value: value) for name in (
    "max_cpu_us_per_packet", "max_mem_bytes", "max_emitted_bytes_per_min", "violation_grace")}


# device timeline entry key: (field, conversion); DeviceContext checks the
# battery's range
_TIMELINE_KEYS = {
    "at_us": ("at_us", _typed(int)),
    "connectivity": ("connectivity", _typed(str, Connectivity)),
    "battery_percent": ("battery_percent", _typed(int)),
}


# upstream script key: (SimEndpointScript field, conversion); `cidr` is
# required, and `response_hex` overrides `response`
_SCRIPT_KEYS = {
    "cidr": ("network", _typed(str, ipaddress.IPv4Network)),
    "ports": ("ports", port_set),
    "behavior": ("behavior", _one_of(BEHAVIORS)),
    "delay_us": ("delay_us", _count),
    "jitter_us": ("jitter_us", _count),
    "response": ("response", _bytes),
    "response_hex": ("response", _typed(str, bytes.fromhex)),
    "answers": ("answers", lambda answers: _answer_map(answers or {})),
    "tamper": ("tamper", {
        "override": ("override", _answer_map),
        "nxdomain_to": ("nxdomain_to", _addresses),
        "drop": ("drop", _typed(list, lambda names: [_typed(str)(n) for n in names])),
    }),
    "recv_window": ("recv_window", lambda n: None if n is None else _count(n)),
}


def script_from_dict(obj: dict, where: str = "script") -> SimEndpointScript:
    """One upstream script from its YAML mapping."""
    fields = _fields(obj, _SCRIPT_KEYS, where, ports=None, behavior=BEHAVIOR_BLACKHOLE)
    if "network" not in fields:
        raise ParseError(f"{where}: missing cidr")
    return SimEndpointScript(**fields)


def load_scripts(path: Path | None) -> list[SimEndpointScript]:
    """The upstream scripts a YAML list holds (none without a file); a
    malformed entry is a ParseError naming the file and its index."""
    raw = None if path is None else load_yaml(path)
    scripts = [] if raw is None else _entries(script_from_dict, raw, f"{path}: scripts")
    try:
        check_disjoint(scripts)
    except OverlappingScripts as exc:
        raise ParseError(f"{path}: scripts: {exc}") from None
    return scripts


def _destination(dst) -> dict:
    """The FirewallRule fields of a `dst`: `any` (or no value), a CIDR,
    or else a domain suffix."""
    if dst in ("any", None):
        return {}
    if "/" in _typed(str)(dst):
        return {"dst_network": ipaddress.IPv4Network(dst)}
    return {"dst_suffix": (dst if dst.startswith(".") else "." + dst).lower()}


def _rewrite(spec) -> dict:
    """The FirewallRule fields of a `rewrite`: `pattern` and
    `replacement` as text, or `pattern_hex` and `replacement_hex`; not
    empty, and of one length."""
    hexed = "pattern_hex" in _typed(dict)(spec)
    convert = _typed(str, bytes.fromhex if hexed else str.encode)
    pattern, replacement = (convert(spec.get(name)) for name in (
        ("pattern_hex", "replacement_hex") if hexed else ("pattern", "replacement")))
    if not pattern:
        raise ValueError("empty rewrite pattern")
    if len(pattern) != len(replacement):
        raise ValueError(f"rewrite must be length-preserving: "
                         f"{len(pattern)} != {len(replacement)}")
    return {"action": "rewrite", "pattern": pattern, "replacement": replacement}


_deny_mode = _one_of(("silent", "reset", "inject"))


def _action(action) -> dict:
    """The FirewallRule fields of an `action`: `allow`, or a mapping of
    one key, `deny`, `switch` or `rewrite`, that sets the action; `deny`
    may have a `notice` beside it."""
    if action == "allow":
        return {}
    if not isinstance(action, dict):
        raise ValueError("must be allow or a mapping")
    if len(action) > 1 and set(action) != {"deny", "notice"}:
        raise ValueError("may hold only notice beside deny")
    if "deny" in action:
        return {"action": "deny", "deny_mode": _deny_mode(action["deny"]),
                "notice": _bytes(action.get("notice", "blocked by firewall policy\n"))}
    if "switch" in action:
        return {"action": "switch", "switch_to": ipv4_endpoint(action["switch"])}
    if "rewrite" in action:
        return _rewrite(action["rewrite"])
    raise ValueError("must hold deny, switch or rewrite")


_protocol = _one_of({"tcp": PROTO_TCP, "udp": PROTO_UDP, "any": None})

# firewall rule key: (FirewallRule field, conversion)
_RULE_KEYS = {
    "match": (None, {
        "app": ("app", _typed(str)),
        "dst": (None, _destination),
        "ports": ("ports", port_set),
        "protocol": ("protocol", lambda name: _protocol(str(name).lower())),
    }),
    "action": (None, _action),
}


def rule_from_dict(obj: dict, where: str = "rule") -> FirewallRule:
    """One firewall rule from its YAML mapping."""
    return FirewallRule(**_fields(obj, _RULE_KEYS, where))


def rules_from_list(objs: list, where: str = "rules") -> list[FirewallRule]:
    """The firewall rules a YAML list holds, in order."""
    return _entries(rule_from_dict, objs, where)


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
            "rules": ("rules", lambda path: rules_from_list(
                load_yaml(path) or [], f"{path}: rules"), "firewall rules"),
            "default_allow": ("default_allow", _typed(bool)),
        }),
    "dns-whatif": PluginKind(WhatIfPlugin, ("observe", "inject_packets"), "whatif", {
        "resolvers": ("alt_resolvers", _typed(list, lambda targets: tuple(
            ipv4_endpoint(target, min_port=1) for target in targets))),
        "probability": ("probability", _fraction),
        "timeout_s": ("timeout_us", _duration),
    }),
    "protocol-advisor": PluginKind(AdvisorPlugin, ("observe",), "advisor", {
        "loss_rate_threshold": ("loss_rate_threshold", _fraction),
        "min_samples": ("min_samples", _count),
    }),
}


def _plugin_from(obj: dict, base: Path, where: str) -> PluginSpec:
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

    budget_at = f"{where}.budget"
    budget = _built(budget_at, ResourceBudget,
                    **_fields(obj.get("budget", {}), _BUDGET_KEYS, budget_at))
    requested = _convert(permissions_from_names, obj.get("permissions", kind.permissions),
                         f"{where}.permissions")
    return PluginSpec(_built(f"plugin {plugin_id!r}", PluginDescriptor, id=plugin_id,
                             name=name, requested=requested, budget=budget,
                             wifi_only_export=obj.get("wifi_only_export", False)), settings)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"config file not found: {path}")
    base = path.parent
    raw = load_yaml(path) or {}

    _require_keys(raw, {"engine", "seed", "io", "plugins", "host", "report"}, "config")
    engine = _built("engine", EngineConfig,
                    **_fields(raw.get("engine") or {}, _ENGINE_KEYS, "engine"))
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
        fields = _fields(entry, _TIMELINE_KEYS, where, at_us=0)
        at_us = fields.pop("at_us")
        timeline.append((at_us, _built(where, DeviceContext, **fields)))

    host = _fields(raw.get("host") or {},
                   {"low_battery_throttle": ("low_battery_throttle", _count)}, "host",
                   low_battery_throttle=None)

    plugins = _entries(lambda obj, where: _plugin_from(obj, base, where),
                       raw.get("plugins") or [], "plugins")
    seen_ids = set()
    for descriptor, _settings in plugins:
        if descriptor.id in seen_ids:
            raise DuplicatePluginId(f"plugin id {descriptor.id!r} used twice")
        seen_ids.add(descriptor.id)

    report = raw.get("report") or {}
    _require_keys(report, {"path": str, "formats": list, "pcap": str}, "report")
    formats = report.get("formats", ["json"])
    for fmt in formats:
        if fmt not in ("json", "csv", "plotdata"):
            raise ParseError(f"report: unknown format {fmt!r}")
    if any(f != "json" for f in formats):
        if "path" not in report:
            raise ParseError("report: formats beyond json require a path")
        if not any(descriptor.name == "snitch" for descriptor, _settings in plugins):
            # csv and plotdata project the snitch section
            raise ParseError("report: formats beyond json require a snitch plugin")

    return RunConfig(
        engine=engine,
        plugins=plugins,
        trace_path=trace_path,
        pcap_path=pcap_path,
        scripts_path=scripts_path,
        device_timeline=timeline,
        low_battery_throttle=host["low_battery_throttle"],
        report_path=(base / report["path"]) if "path" in report else None,
        report_formats=formats,
        out_pcap=(base / report["pcap"]) if "pcap" in report else None,
    )
