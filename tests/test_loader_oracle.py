"""The upstream-script and firewall-rule readers in `mbz.config` against
the readers they replaced, kept here verbatim as oracles: the classmethods
`SimEndpointScript.from_dict` and `FirewallRule.from_dict` (with
`_parse_action`), `rules_from_list`, and their helpers.

Both readers must accept and reject the same inputs and build equal
objects. Where the old reader crashed (an exception the config error
path did not catch), the new one must reject with a ParseError. Two
differences are deliberate, and the new reader rejects what the old one
accepted:
- the old rule reader passed any `app` to `fnmatch.translate`, so a list
  of strings (or an empty mapping, or empty bytes) was accepted as a glob
  of its items run together, `[mail, bank]` matching only the app
  `mailbank`; the new reader takes a string only;
- the old action reader ignored any one key beside the one that sets the
  action, so a misspelt `{deny: inject, notise: x}` loaded with the
  default notice; the new reader takes `notice` beside `deny` only.
"""

from __future__ import annotations

import ipaddress
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mbz.config import (
    ParseError, load_scripts, load_yaml, rule_from_dict, rules_from_list, script_from_dict,
)
from mbz.packet import PROTO_TCP, PROTO_UDP
from mbz.plugins.firewall import FirewallRule
from mbz.upstream import BEHAVIOR_BLACKHOLE, BEHAVIORS, SimEndpointScript

ROOT = Path(__file__).resolve().parent.parent
DATA_YAML = sorted((ROOT / "data").rglob("*.yaml"))


# ------------------------------------------------------ the old readers

class ScriptError(Exception):
    pass


class FirewallRuleError(ValueError):
    pass


def port_set(value) -> frozenset[int] | None:
    """The ports a config's `ports` value names: None for `any` (or no
    value), else a list of integers (not booleans) from 0 to 65535.
    Anything else is a ValueError."""
    if value in ("any", None):
        return None
    if not (isinstance(value, list)
            and all(type(p) is int and 0 <= p <= 0xFFFF for p in value)):
        raise ValueError(f"ports must be 'any' or a list of port numbers, got {value!r}")
    return frozenset(value)


def ipv4_endpoint(text, min_port: int = 0) -> tuple[str, int]:
    """(address, port) of an 'a.b.c.d:port' target: a dotted-quad IPv4
    address and a decimal port from `min_port` to 65535. Anything else
    is a ValueError."""
    host, _, port = text.rpartition(":") if isinstance(text, str) else ("", "", "")
    try:
        ipaddress.IPv4Address(host)
        if port.isascii() and port.isdigit() and min_port <= int(port) <= 0xFFFF:
            return host, int(port)
    except ValueError:
        pass
    raise ValueError(f"expected IPv4:port with a port from {min_port} to 65535, "
                     f"got {text!r}")


def old_script_from_dict(obj: dict) -> SimEndpointScript:
    """One script from its YAML mapping; ScriptError on any key or
    value it cannot use."""
    if not isinstance(obj, dict):
        raise ScriptError(f"expected a mapping, got {obj!r}")
    known = {"cidr", "ports", "behavior", "delay_us", "jitter_us",
             "response", "response_hex", "answers", "tamper", "recv_window"}
    unknown = set(obj) - known
    if unknown:
        raise ScriptError(f"unknown script keys {sorted(unknown)}")
    try:
        network = ipaddress.IPv4Network(_typed(obj.get("cidr"), str, "cidr"))
    except ValueError as exc:
        raise ScriptError(f"bad script cidr: {exc}") from exc
    try:
        ports = port_set(obj.get("ports", "any"))
    except ValueError as exc:
        raise ScriptError(str(exc)) from None
    response = _typed(obj.get("response", ""), (str, bytes), "response")
    if isinstance(response, str):
        response = response.encode("utf-8")
    if "response_hex" in obj:
        try:
            response = bytes.fromhex(_typed(obj["response_hex"], str, "response_hex"))
        except ValueError as exc:
            raise ScriptError(f"bad response_hex: {exc}") from exc
    tamper = dict(_typed(obj.get("tamper") or {}, dict, "tamper"))
    unknown = set(tamper) - {"override", "nxdomain_to", "drop"}
    if unknown:
        raise ScriptError(f"unknown tamper keys {sorted(unknown)}")
    if "override" in tamper:
        tamper["override"] = _answer_map(tamper["override"], "tamper.override")
    if "nxdomain_to" in tamper:
        tamper["nxdomain_to"] = _ip_list(tamper["nxdomain_to"], "tamper.nxdomain_to")
    if "drop" in tamper:
        drop = _typed(tamper["drop"], list, "tamper.drop")
        tamper["drop"] = [_typed(name, str, "tamper.drop") for name in drop]
    recv_window = obj.get("recv_window")
    behavior = obj.get("behavior", BEHAVIOR_BLACKHOLE)
    # the old SimEndpointScript.__post_init__
    if behavior not in BEHAVIORS:
        raise ScriptError(f"unknown behavior {behavior!r}")
    return SimEndpointScript(
        network=network,
        ports=ports,
        behavior=behavior,
        delay_us=_count(obj.get("delay_us", 0), "delay_us"),
        jitter_us=_count(obj.get("jitter_us", 0), "jitter_us"),
        response=response,
        answers=_answer_map(obj.get("answers") or {}, "answers"),
        tamper=tamper,
        recv_window=None if recv_window is None else _count(recv_window, "recv_window"),
    )


def _typed(value, kind, name: str):
    if not isinstance(value, kind):
        raise ScriptError(f"{name}: unexpected value {value!r}")
    return value


def _count(value, name: str) -> int:
    if type(value) is not int or value < 0:
        raise ScriptError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _is_ipv4(text) -> bool:
    if not isinstance(text, str):
        return False
    try:
        ipaddress.IPv4Address(text)
    except ValueError:
        return False
    return True


def _ip_list(value, name: str) -> list[str]:
    if not (isinstance(value, list) and all(map(_is_ipv4, value))):
        raise ScriptError(f"{name} must be a list of IPv4 addresses, got {value!r}")
    return list(value)


def _answer_map(value, name: str) -> dict[str, list[str]]:
    """{domain name: [IPv4 address, ...]}"""
    return {str(k): _ip_list(v, f"{name}[{k!r}]")
            for k, v in _typed(value, dict, name).items()}


def old_load_scripts(path: Path | None) -> list[SimEndpointScript]:
    """The upstream scripts a YAML list holds; a malformed entry is a
    ScriptError naming the file and the entry's index."""
    if path is None:
        return []
    raw = load_yaml(path)
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ScriptError(f"{path}: expected a list of scripts")
    scripts = []
    for i, obj in enumerate(raw):
        try:
            scripts.append(old_script_from_dict(obj))
        except ScriptError as exc:
            raise ScriptError(f"{path}: scripts[{i}]: {exc}") from None
    return scripts


_PROTO_BY_NAME = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "any": None}


def old_rule_from_dict(obj: dict) -> FirewallRule:
    cls = FirewallRule
    known = {"match", "action"}
    unknown = set(obj) - known
    if unknown:
        raise FirewallRuleError(f"unknown rule keys {sorted(unknown)}")
    match = obj.get("match") or {}
    mknown = {"app", "dst", "ports", "protocol"}
    munknown = set(match) - mknown
    if munknown:
        raise FirewallRuleError(f"unknown match keys {sorted(munknown)}")

    dst = match.get("dst", "any")
    dst_suffix = dst_network = None
    if dst not in ("any", None):
        if not isinstance(dst, str):
            raise FirewallRuleError(f"bad dst {dst!r}")
        if "/" in dst:
            try:
                dst_network = ipaddress.IPv4Network(dst)
            except ValueError as exc:
                raise FirewallRuleError(f"bad dst CIDR {dst!r}") from exc
        else:
            dst_suffix = (dst if dst.startswith(".") else "." + dst).lower()

    try:
        ports = port_set(match.get("ports", "any"))
    except ValueError as exc:
        raise FirewallRuleError(str(exc)) from None

    proto_name = str(match.get("protocol", "any")).lower()
    if proto_name not in _PROTO_BY_NAME:
        raise FirewallRuleError(f"bad protocol {proto_name!r}")

    rule = cls(app=match.get("app", "*"), dst_suffix=dst_suffix,
               dst_network=dst_network, ports=ports,
               protocol=_PROTO_BY_NAME[proto_name])
    _parse_action(rule, obj.get("action", "allow"))
    return rule


def _parse_action(self, action) -> None:
    if action == "allow":
        self.action = "allow"
        return
    if not isinstance(action, dict) or len(action) > 2:
        raise FirewallRuleError(f"bad action {action!r}")
    if "deny" in action:
        mode = action["deny"]
        if mode not in ("silent", "reset", "inject"):
            raise FirewallRuleError(f"bad deny mode {mode!r}")
        self.action = "deny"
        self.deny_mode = mode
        notice = action.get("notice", "blocked by firewall policy\n")
        if not isinstance(notice, (str, bytes)):
            raise FirewallRuleError(f"bad notice {notice!r}")
        self.notice = notice.encode("utf-8") if isinstance(notice, str) else notice
    elif "switch" in action:
        try:
            self.switch_to = ipv4_endpoint(action["switch"])
        except ValueError as exc:
            raise FirewallRuleError(f"bad switch target: {exc}") from None
        self.action = "switch"
    elif "rewrite" in action:
        spec = action["rewrite"]
        hexed = isinstance(spec, dict) and "pattern_hex" in spec
        names = ("pattern_hex", "replacement_hex") if hexed else ("pattern", "replacement")
        texts = [spec.get(name) if isinstance(spec, dict) else None for name in names]
        if not all(isinstance(text, str) for text in texts):
            raise FirewallRuleError(f"rewrite needs {' and '.join(names)}, got {spec!r}")
        self.pattern, self.replacement = (
            bytes.fromhex(text) if hexed else text.encode("utf-8") for text in texts)
        if not self.pattern:
            raise FirewallRuleError("empty rewrite pattern")
        if len(self.pattern) != len(self.replacement):
            raise FirewallRuleError(
                "rewrite must be length-preserving: "
                f"{len(self.pattern)} != {len(self.replacement)}")
        self.action = "rewrite"
    else:
        raise FirewallRuleError(f"bad action {action!r}")


def old_rules_from_list(objs: list[dict]) -> list[FirewallRule]:
    if not isinstance(objs, list) or not all(isinstance(o, dict) for o in objs):
        raise FirewallRuleError("rules must be a list of mappings")
    return [old_rule_from_dict(o) for o in objs]


# ----------------------------------------------------- the comparisons

REJECTED = "rejected"
CRASHED = "crashed"


def old_outcome(read, rejections, *args):
    """What the old reader made of `args`: its result, REJECTED for an
    exception its config path turned into a config error, or CRASHED."""
    try:
        return read(*args)
    except rejections:
        return REJECTED
    except Exception:  # noqa: BLE001 - a traceback and exit 1 at the time
        return CRASHED


def new_outcome(read, *args):
    try:
        return read(*args)
    except ParseError:
        return REJECTED


# the old scripts path caught ScriptError only; the old rules were read
# inside config's _convert, which caught these
SCRIPT_REJECTIONS = ScriptError
RULE_REJECTIONS = (TypeError, ValueError, OverflowError)


def _newly_rejected(objs) -> bool:
    """Some rule among `objs` (one rule, or a list of them) has an `app`
    that is not a string, or an action mapping with a key beside the one
    that sets the action, other than a `notice` beside `deny`."""
    for obj in objs if isinstance(objs, list) else [objs]:
        if not isinstance(obj, dict):
            continue
        match, action = obj.get("match"), obj.get("action")
        if isinstance(match, dict) and "app" in match and not isinstance(match["app"], str):
            return True
        if isinstance(action, dict) and len(action) > 1 \
                and set(action) != {"deny", "notice"}:
            return True
    return False


def assert_agree(old, new, newly_rejected: bool = False) -> None:
    if old is CRASHED:
        assert new is REJECTED
    elif old is REJECTED:
        assert new is REJECTED
    elif newly_rejected:
        assert new is REJECTED  # the deliberate differences (module docstring)
    else:
        assert new == old


# --------------------------------------------------------- strategies

# values of the wrong type, or out of range, for most keys
_ODD = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70_000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4), st.binary(max_size=3),
    st.lists(st.one_of(st.integers(-1, 3), st.text(max_size=2)), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_FALSE = st.sampled_from([None, False, 0, 0.0, "", [], {}])


def _entries(keys: dict, unknown: dict, required: str | None = None):
    """Three kinds of mappings of `keys` (key: (valid values, odd
    values)): all valid; all valid but one key odd, or one `unknown` key
    added; and anything. The first two always hold the `required` key."""
    valid = st.fixed_dictionaries(
        {k: keys[k][0] for k in [required] if k},
        optional={k: valid for k, (valid, _) in keys.items() if k != required})
    odd = {**{k: odd for k, (_, odd) in keys.items()}, **unknown}
    fault = st.sampled_from(sorted(odd, key=str)).flatmap(
        lambda k: st.tuples(st.just(k), odd[k]))
    return (
        valid,
        st.builds(lambda entry, fault: {**entry, fault[0]: fault[1]}, valid, fault),
        st.fixed_dictionaries({}, optional={**{k: st.one_of(valid, odd)
                                               for k, (valid, odd) in keys.items()},
                                            **unknown}),
    )


_COUNT = (st.integers(0, 10**6),
          st.one_of(st.sampled_from([True, False, -1, 1.5, 0.0, "3", None]), _ODD))
_PORTS = (st.one_of(st.sampled_from(["any", None]),
                    st.lists(st.one_of(st.integers(0, 0xFFFF), st.sampled_from([0, 53, 0xFFFF])),
                             max_size=3)),
          st.one_of(st.lists(st.one_of(st.integers(-1, 70_000), st.booleans()), min_size=1,
                             max_size=3), _ODD))
_GOOD_ADDRESS = st.sampled_from(["10.0.0.1", "8.8.8.8", "0.0.0.0", "255.255.255.255"])
_BAD_ADDRESS = st.one_of(st.sampled_from(["10.0.0.256", "1.2.3", "01.2.3.4", "x", "",
                                          " 1.2.3.4", "::1"]), st.integers(0, 9), st.none())
_ADDRESSES = (st.lists(_GOOD_ADDRESS, max_size=3),
              st.one_of(st.lists(st.one_of(_GOOD_ADDRESS, _BAD_ADDRESS), min_size=1,
                                 max_size=3), _ODD))
_NAMES = st.one_of(st.sampled_from(["a.example", "b.example", ""]), st.text(max_size=4),
                   st.integers(0, 3), st.booleans(), st.none())
_ANSWERS = (st.one_of(st.dictionaries(_NAMES, _ADDRESSES[0], max_size=3), _FALSE),
            st.one_of(st.dictionaries(_NAMES, st.one_of(*_ADDRESSES), min_size=1, max_size=3),
                      _ODD))
_HEX = (st.sampled_from(["", "00ff", "DE AD", "de ad be ef"]),
        st.one_of(st.sampled_from(["0 1", "zz", "abc", "0g"]), _ODD))
_TEXT = (st.one_of(st.text(max_size=5), st.binary(max_size=5)), _ODD)
_SCRIPT_KEYS = {
    "cidr": (st.sampled_from(["10.0.0.0/8", "8.8.8.8/32", "0.0.0.0/0", "10.0.0.0"]),
             st.one_of(st.sampled_from(["10.0.0.1/24", "10.0.0.0/33", "x/8", "::1/128"]),
                       _ODD)),
    "ports": _PORTS,
    "behavior": (st.sampled_from(BEHAVIORS), st.one_of(st.sampled_from(["teleport", "ECHO"]),
                                                       _ODD)),
    "delay_us": _COUNT,
    "jitter_us": _COUNT,
    "response": _TEXT,
    "response_hex": _HEX,
    "answers": _ANSWERS,
    "tamper": (st.one_of(*_entries({
        "override": _ANSWERS,
        "nxdomain_to": _ADDRESSES,
        "drop": (st.lists(st.text(max_size=4), max_size=3),
                 st.one_of(st.lists(st.integers(), min_size=1, max_size=2), _ODD)),
    }, {"rewrite": _ODD}), _FALSE), _ODD),
    "recv_window": (st.one_of(st.none(), _COUNT[0]), _COUNT[1]),
}
_SCRIPTS, SCRIPT_FAULTS, _ANY_SCRIPTS = _entries(_SCRIPT_KEYS, {"speed": _ODD, 7: _ODD}, "cidr")
SCRIPTS = st.one_of(_SCRIPTS, SCRIPT_FAULTS, _ANY_SCRIPTS, _ODD)

_REWRITE = (
    st.one_of(st.sampled_from([{"pattern": "abc", "replacement": "xyz"},
                               {"pattern": "é", "replacement": "ab"},
                               {"pattern_hex": "00ff", "replacement_hex": "ff00"},
                               {"pattern_hex": "00", "replacement_hex": "ff", "pattern": 7}]),
              st.builds(lambda text, extra: {"pattern": text, "replacement": text[::-1],
                                             **extra},
                        st.text(max_size=4), st.dictionaries(st.just("x"), _ODD))),
    st.one_of(st.fixed_dictionaries({}, optional={
        "pattern": st.one_of(st.sampled_from(["abc", "ab", ""]), _ODD),
        "replacement": st.one_of(st.sampled_from(["xyz", "ab", ""]), _ODD),
        "pattern_hex": st.one_of(*_HEX), "replacement_hex": st.one_of(*_HEX)}), _ODD))
_TARGET = (st.sampled_from(["10.5.5.5:8080", "10.5.5.5:0", "0.0.0.0:65535"]),
           st.one_of(st.sampled_from(["10.5.5.5:70000", "10.5.5.5", "host.example:80", ":80",
                                      "10.5.5.5:+80", "10.5.5.5:\u0663", "10.5.5.5:-1"]),
                     _ODD))
_DENY = (st.sampled_from(["silent", "reset", "inject"]),
         st.one_of(st.sampled_from(["loud", "Reset"]), _ODD))
_ACTION = (
    st.one_of(
        st.just("allow"),
        st.fixed_dictionaries({"deny": _DENY[0]}, optional={"notice": _TEXT[0]}),
        st.fixed_dictionaries({"switch": _TARGET[0]}),
        st.fixed_dictionaries({"rewrite": _REWRITE[0]})),
    st.one_of(
        st.sampled_from(["deny", "explode", "Allow"]),
        st.sampled_from([  # three keys, one too many
            {"deny": "reset", "notice": "n", "x": 1},
            {"switch": "10.5.5.5:80", "x": 1, "y": 2},
            {"rewrite": {"pattern": "a", "replacement": "b"}, "x": 1, "y": 2}]),
        st.fixed_dictionaries({"deny": st.one_of(*_DENY)},
                              optional={"notice": st.one_of(*_TEXT), "x": _ODD, "y": _ODD}),
        st.fixed_dictionaries({"switch": st.one_of(*_TARGET)},
                              optional={"rewrite": _ODD, "notice": _ODD}),
        st.fixed_dictionaries({"rewrite": st.one_of(*_REWRITE)},
                              optional={"x": _ODD, "y": _ODD}),
        st.dictionaries(st.sampled_from(["deny", "switch", "rewrite", "notice", "x"]), _ODD,
                        max_size=3),
        _ODD))
_MATCH_KEYS = {
    "app": (st.one_of(st.sampled_from(["*", "mail*", "", "b?nk", "[ab]*", "[!a]"]),
                      st.text(max_size=3)),
            st.one_of(st.lists(st.text(max_size=3), max_size=2), _ODD)),
    "dst": (st.sampled_from(["any", None, ".example.com", "Example.COM", "10.0.0.0/8", "",
                             "."]),
            st.one_of(st.sampled_from(["10.0.0.1/8", "10.0.0.0/33", "a/b"]), _ODD)),
    "ports": _PORTS,
    "protocol": (st.sampled_from(["tcp", "UDP", "any", "Any"]),
                 st.one_of(st.sampled_from(["icmp", "tcp "]), _ODD)),
}
_RULE_KEYS = {
    "match": (st.one_of(*_entries(_MATCH_KEYS, {"weird": _ODD}), _FALSE), _ODD),
    "action": _ACTION,
}
_RULES, RULE_FAULTS, _ANY_RULES = _entries(_RULE_KEYS, {"priority": _ODD})
RULES = st.one_of(_RULES, RULE_FAULTS, _ANY_RULES, _ODD)


# --------------------------------------------------------------- tests

class TestScriptReader:
    @settings(deadline=None)
    @given(obj=SCRIPTS)
    def test_agrees_with_the_old_reader(self, obj):
        assert_agree(old_outcome(old_script_from_dict, SCRIPT_REJECTIONS, obj),
                     new_outcome(script_from_dict, obj))

    @settings(deadline=None)
    @given(obj=SCRIPT_FAULTS)
    def test_one_odd_key_is_judged_alike(self, obj):
        assert_agree(old_outcome(old_script_from_dict, SCRIPT_REJECTIONS, obj),
                     new_outcome(script_from_dict, obj))

    @pytest.mark.parametrize("obj", [
        {"cidr": "10.0.0.0/8"},
        {"cidr": "8.8.8.8/32", "ports": [53], "behavior": "dns", "delay_us": 5,
         "answers": {"a.example": ["1.2.3.4"], 7: []}, "recv_window": 0,
         "tamper": {"override": {"a.example": ["6.6.6.6"]}, "nxdomain_to": ["5.5.5.5"],
                    "drop": ["b.example"]}},
        {"cidr": "10.0.0.0/8", "behavior": "static", "response": "x", "response_hex": "00ff"},
        {"cidr": "10.0.0.0/8", "response": b"\x00\x01", "tamper": 0, "answers": []},
    ])
    def test_accepted_examples_build_equal_scripts(self, obj):
        old = old_script_from_dict(obj)
        assert script_from_dict(obj) == old and old is not None


class TestRuleReader:
    @settings(deadline=None)
    @given(obj=RULES)
    def test_agrees_with_the_old_reader(self, obj):
        assert_agree(old_outcome(old_rule_from_dict, RULE_REJECTIONS, obj),
                     new_outcome(rule_from_dict, obj), _newly_rejected(obj))

    @settings(deadline=None)
    @given(obj=RULE_FAULTS)
    def test_one_odd_key_is_judged_alike(self, obj):
        assert_agree(old_outcome(old_rule_from_dict, RULE_REJECTIONS, obj),
                     new_outcome(rule_from_dict, obj), _newly_rejected(obj))

    @settings(deadline=None)
    @given(objs=st.one_of(st.lists(RULES, max_size=3), _ODD))
    def test_lists_agree_with_the_old_reader(self, objs):
        assert_agree(old_outcome(old_rules_from_list, RULE_REJECTIONS, objs),
                     new_outcome(rules_from_list, objs), _newly_rejected(objs))

    @pytest.mark.parametrize("obj", [
        {},
        {"match": None, "action": "allow"},
        {"match": {"app": "mail*", "dst": "Mail.Example", "protocol": "TCP", "ports": [993]},
         "action": {"deny": "inject", "notice": "no\n"}},
        {"match": {"dst": "192.0.2.0/24"}, "action": {"switch": "10.5.5.5:8080"}},
        {"action": {"rewrite": {"pattern_hex": "00ff", "replacement_hex": "ff00"}}},
        {"action": {"notice": "go away\n", "deny": "inject"}},
    ])
    def test_accepted_examples_build_equal_rules(self, obj):
        old = old_rule_from_dict(obj)
        assert rule_from_dict(obj) == old

    @pytest.mark.parametrize("action", [
        {"deny": "inject", "notise": "x"},
        {"switch": "10.5.5.5:8080", "x": 1},
        {"switch": "10.5.5.5:80", "notice": "x"},
        {"deny": "reset", "switch": "10.5.5.5:80"},
        {"rewrite": {"pattern": "a", "replacement": "b"}, "notice": "x"},
    ])
    def test_a_second_key_beside_the_action_is_rejected(self, action):
        # the old reader accepted these and ignored the second key
        old_rule_from_dict({"action": action})
        with pytest.raises(ParseError, match="notice beside deny"):
            rule_from_dict({"action": action})

    @pytest.mark.parametrize("app", [["mail", "bank"], [], {}, b""])
    def test_an_app_that_is_not_a_string_is_rejected(self, app):
        # the old reader accepted these as globs of their items run together
        old_rule_from_dict({"match": {"app": app}})
        with pytest.raises(ParseError, match="app"):
            rule_from_dict({"match": {"app": app}})


def _generated_yaml(tmp_path: Path, workload: str, seed: int) -> list[Path]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    gen.GENERATORS[workload](tmp_path, seed)
    return sorted(tmp_path.glob("*.yaml"))


def _assert_files_agree(paths: list[Path]) -> tuple[int, int]:
    """Each file read as scripts and as rules by both readers; the number
    of files each new reader accepted."""
    scripts = rules = 0
    for path in paths:
        old = old_outcome(old_load_scripts, SCRIPT_REJECTIONS, path)
        new = new_outcome(load_scripts, path)
        assert_agree(old, new)
        scripts += new is not REJECTED
        old = old_outcome(lambda p: old_rules_from_list(load_yaml(p) or []), RULE_REJECTIONS,
                          path)
        new = new_outcome(lambda p: rules_from_list(load_yaml(p) or []), path)
        assert_agree(old, new)
        rules += new is not REJECTED
    return scripts, rules


def test_data_files_read_alike():
    # data/golden and data/snitch each hold a scripts file; golden two rules files
    assert _assert_files_agree(DATA_YAML) == (2, 2)


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_inputs_read_alike(tmp_path, seed):
    paths = []
    for workload in ("bulk", "app-mix"):
        (tmp_path / workload).mkdir()
        paths += _generated_yaml(tmp_path / workload, workload, seed)
    names = [p.name for p in paths]
    assert names.count("scripts.yaml") == 2 and names.count("rules.yaml") == 1
    assert _assert_files_agree(paths) == (2, 1)
