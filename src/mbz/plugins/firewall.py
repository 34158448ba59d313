"""User-defined firewall: ordered first-match rules over five-tuples,
apps, and attributed domains.

Actions: Allow, Deny (silent / reset / inject a notice), Switch to
another destination, and length-preserving payload Rewrite. Rules
match on app glob, destination (domain suffix, CIDR, or any), ports,
and protocol. Domain matching uses the same on-path attribution the
snitch uses (DNS answers and SNI), so a rule by domain also catches
flows opened after the name was resolved. The first matching rule is
memoised per (protocol, destination, app, domain), up to 4096 entries;
its action still runs on every packet.
"""

from __future__ import annotations

import fnmatch
import functools
import ipaddress
import re
from dataclasses import dataclass, field

from ..host import (
    Block, BlockMode, Modify, PluginContext, PluginEvent, Redirect,
    TrafficPlugin, Verdict,
)
from .domains import DomainTracker, TLS_PORT

# verdicts are frozen, so a deny shares one; and the Enum member is read
# once here, not off its class on every packet (see `mbz.engine`)
_DROP = Block(BlockMode.DROP_SILENT)
_RESET = Block(BlockMode.RESET_APP)
_INJECT_RESPONSE = BlockMode.INJECT_RESPONSE


@dataclass
class FirewallRule:
    app: str = "*"
    dst_suffix: str | None = None
    dst_network: ipaddress.IPv4Network | None = None
    ports: frozenset[int] | None = None
    protocol: int | None = None
    action: str = "allow"  # allow | deny | switch | rewrite
    deny_mode: str = "silent"  # silent | reset | inject
    notice: bytes = b""
    switch_to: tuple[str, int] | None = None
    pattern: bytes = b""
    replacement: bytes = b""
    # the app glob compiled as fnmatch.fnmatchcase would; None for "*"
    _app_match: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._app_match = None if self.app == "*" \
            else re.compile(fnmatch.translate(self.app)).match

    def matches(self, protocol: int, dst_port: int, app_label: str, domain: str,
                dst_ip: ipaddress.IPv4Address | None) -> bool:
        """`domain` is lower-case without a trailing dot; `dst_ip` is the
        parsed destination, None when it is not an IPv4 address."""
        if self.protocol is not None and protocol != self.protocol:
            return False
        if self.ports is not None and dst_port not in self.ports:
            return False
        if self._app_match is not None and self._app_match(app_label) is None:
            return False
        if self.dst_suffix is not None:
            if not domain:
                return False
            if domain != self.dst_suffix[1:] and not domain.endswith(self.dst_suffix):
                return False
        if self.dst_network is not None:
            if dst_ip is None or dst_ip not in self.dst_network:
                return False
        return True


def _parse_ipv4(text: str) -> ipaddress.IPv4Address | None:
    try:
        return ipaddress.IPv4Address(text)
    except ValueError:
        return None


def _first_rule(rules: tuple[FirewallRule, ...], any_cidr: bool, protocol: int,
                dst: tuple[str, int], app_label: str,
                domain: str) -> FirewallRule | None:
    """The first of `rules` matching a flow to `dst` attributed to
    `domain`, or None. The destination is parsed only when some rule has
    a CIDR (`any_cidr`)."""
    domain = domain.lower().rstrip(".")
    dst_ip = _parse_ipv4(dst[0]) if any_cidr else None
    for rule in rules:
        if rule.matches(protocol, dst[1], app_label, domain, dst_ip):
            return rule
    return None


class FirewallPlugin(TrafficPlugin):
    def __init__(self, rules: list[FirewallRule], default_allow: bool = True):
        # frozen, so a later change to the caller's list cannot make the
        # memoised verdicts stale
        self.rules = tuple(rules)
        self.default_allow = default_allow
        self.tracker = DomainTracker()
        # the first matching rule per (protocol, destination, app, domain);
        # the partial holds no reference back to the plugin
        self._first_match = functools.lru_cache(maxsize=4096)(functools.partial(
            _first_rule, self.rules,
            any(rule.dst_network is not None for rule in self.rules)))

    def on_flow_open(self, event, ctx):
        self.tracker.observe_out(event, ctx)
        return self._evaluate(event, ctx, outbound=True)

    def on_packet_out(self, event, ctx):
        self.tracker.observe_out(event, ctx)
        return self._evaluate(event, ctx, outbound=True)

    def on_packet_in(self, event, ctx):
        self.tracker.observe_in(event, ctx)
        return self._evaluate(event, ctx, outbound=False)

    def on_flow_close(self, event, ctx):
        self.tracker.forget(ctx.key)

    def _evaluate(self, event: PluginEvent, ctx: PluginContext,
                  outbound: bool) -> Verdict | None:
        key = ctx.key
        rule = None if key is None else self._first_match(
            key.protocol, key.dst, ctx.app_label, self.tracker.domain_for(key))
        if rule is not None:
            return self._apply(rule, event, ctx, outbound)
        if self.default_allow:
            return None
        return _DROP

    def _apply(self, rule: FirewallRule, event: PluginEvent, ctx: PluginContext,
               outbound: bool) -> Verdict | None:
        if rule.action == "allow":
            return None
        if rule.action == "deny":
            if rule.deny_mode == "silent":
                return _DROP
            if rule.deny_mode == "reset":
                return _RESET
            # a notice cannot be injected into an encrypted flow
            if ctx.key is not None and (ctx.key.dst[1] == TLS_PORT or not outbound):
                return _RESET
            return Block(_INJECT_RESPONSE, rule.notice)
        if rule.action == "switch":
            # only a flow's way out can be switched; its replies pass
            return Redirect(rule.switch_to) if outbound else None
        # rewrite: outbound payloads only
        if outbound and rule.pattern in event.payload:
            return Modify(event.payload.replace(rule.pattern, rule.replacement))
        return None
