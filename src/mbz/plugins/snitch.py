"""Snitch: passive third-party accounting.

Counts requests per organization per app: one request per TCP flow
open, and one per outbound UDP burst (a gap of more than a second
starts a new request). Destinations are attributed to organizations
through DNS-answer sniffing, TLS SNI, and an organization map of
domain suffixes and CIDR blocks. A flow is folded into counts per (app,
organization, protocol) when it closes, so the plugin keeps a record
only for each open flow. Never touches the traffic.
"""

from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass
from pathlib import Path

from ..host import PluginContext, PluginEvent, TrafficPlugin
from ..packet import FlowKey, PROTO_TCP
from .domains import TLS_PORT, DomainTracker, looks_like_quic

UDP_BURST_GAP_US = 1_000_000
UNKNOWN_ORG = "unknown"


class OrgMapError(ValueError):
    pass


class OrgMap:
    """Ordered (domain-suffix | CIDR) -> organization rules; first match
    wins, unmatched lookups return UNKNOWN_ORG."""

    def __init__(self, rules: list[tuple[str, object, str]]):
        self.rules = rules

    @classmethod
    def from_pairs(cls, pairs: list[tuple[str, str]]) -> "OrgMap":
        rules: list[tuple[str, object, str]] = []
        for pattern, org in pairs:
            pattern = pattern.strip()
            if not pattern:
                raise OrgMapError("empty pattern")
            if "/" in pattern:
                try:
                    rules.append(("cidr", ipaddress.IPv4Network(pattern), org))
                except ValueError as exc:
                    raise OrgMapError(f"bad CIDR {pattern!r}") from exc
            else:
                suffix = pattern if pattern.startswith(".") else "." + pattern
                rules.append(("suffix", suffix.lower(), org))
        return cls(rules)

    @classmethod
    def from_csv(cls, path: str | Path) -> "OrgMap":
        pairs = []
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                for row in csv.reader(fh):
                    if not row or row[0].startswith("#"):
                        continue
                    if len(row) != 2:
                        raise OrgMapError(f"expected 'pattern,organization': {row}")
                    pairs.append((row[0], row[1].strip()))
            except csv.Error as exc:  # a field over the csv module's size limit
                raise OrgMapError(str(exc)) from None
        return cls.from_pairs(pairs)

    def lookup(self, domain: str, ip: str) -> str:
        domain = domain.lower().rstrip(".")
        addr = None
        for kind, pattern, org in self.rules:
            if kind == "suffix":
                if domain and (domain == pattern[1:] or domain.endswith(pattern)):
                    return org
            else:
                if addr is None:
                    try:
                        addr = ipaddress.IPv4Address(ip)
                    except ValueError:
                        addr = False
                if addr and addr in pattern:
                    return org
        return UNKNOWN_ORG


@dataclass(slots=True)
class SnitchRecord:
    app_label: str
    key: FlowKey
    protocol: str  # TCP | UDP | QUIC-over-UDP
    request_count: int = 1
    sni: str | None = None  # the flow's first TLS server name
    last_out_us: int = 0


class SnitchPlugin(TrafficPlugin):
    """Observe-only accounting plugin."""

    def __init__(self, org_map: OrgMap, first_party_orgs: set[str] | None = None,
                 burst_gap_us: int = UDP_BURST_GAP_US):
        self.org_map = org_map
        self.first_party_orgs = frozenset(first_party_orgs or ())
        self.burst_gap_us = burst_gap_us
        self.tracker = DomainTracker()
        self.records: dict[FlowKey, SnitchRecord] = {}  # open flows
        # (app label, organization, protocol) -> [flows, requests] of the
        # closed flows, each folded in at its close, so a flow that reuses a
        # closed flow's five-tuple is counted apart
        self.counts: dict[tuple[str, str, str], list[int]] = {}
        # (domain, address) -> organization; emptied at 4096 entries
        self._orgs: dict[tuple[str, str], str] = {}

    # -- events -------------------------------------------------------------

    def on_flow_open(self, event: PluginEvent, ctx: PluginContext):
        key = ctx.key
        if key is None:
            return None
        rec = SnitchRecord(ctx.app_label, key, "TCP" if key.protocol == PROTO_TCP else "UDP",
                           1, None, ctx.now_us)
        self.records[key] = rec
        self._observe_out(event, ctx, rec, new_flow=True)
        return None

    def on_packet_out(self, event: PluginEvent, ctx: PluginContext):
        rec = self.records.get(ctx.key) if ctx.key else None
        if rec is not None:
            self._observe_out(event, ctx, rec, new_flow=False)
        return None

    def on_packet_in(self, event: PluginEvent, ctx: PluginContext):
        self.tracker.observe_in(event, ctx)
        return None

    def on_flow_close(self, event: PluginEvent, ctx: PluginContext):
        rec = self.records.pop(ctx.key, None) if ctx.key else None
        if rec is not None:
            self._fold(rec, self.counts)
        return None

    def _fold(self, rec: SnitchRecord, counts: dict) -> None:
        """Add a flow to `counts`, under the organization the names known
        now give it."""
        dst = rec.key.dst[0]
        where = (rec.sni or self.tracker.ip_to_name.get(dst, ""), dst)
        org = self._orgs.get(where)
        if org is None:
            if len(self._orgs) >= 4096:
                self._orgs.clear()
            org = self._orgs[where] = self.org_map.lookup(*where)
        count = counts.get((rec.app_label, org, rec.protocol))
        if count is None:
            counts[rec.app_label, org, rec.protocol] = [1, rec.request_count]
        else:
            count[0] += 1
            count[1] += rec.request_count

    def _observe_out(self, event: PluginEvent, ctx: PluginContext,
                     rec: SnitchRecord, new_flow: bool) -> None:
        key = ctx.key
        if key.protocol == PROTO_TCP:
            if not rec.sni and key.dst[1] == TLS_PORT and event.payload:
                rec.sni = event.sni()
        else:
            if looks_like_quic(key.dst[1], event.payload):
                rec.protocol = "QUIC-over-UDP"
            if not new_flow and ctx.now_us - rec.last_out_us > self.burst_gap_us:
                rec.request_count += 1
            rec.last_out_us = ctx.now_us

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict:
        """Aggregate counts; ordering is count-descending then name."""
        per_app: dict[str, dict] = {}
        third_requests: dict[str, int] = {}
        third_flows: dict[str, int] = {}
        totals = {"TCP": 0, "UDP": 0, "QUIC-over-UDP": 0}
        first_party_flows = 0
        # the closed flows' counts, with the open flows folded into a copy
        folded = {triple: count[:] for triple, count in self.counts.items()}
        for rec in self.records.values():
            self._fold(rec, folded)

        for (app_label, org, protocol), (flows, requests) in folded.items():
            app = per_app.setdefault(app_label, {
                "requests_per_org": {}, "flows_per_org": {}, "protocols": {}})
            app["requests_per_org"][org] = app["requests_per_org"].get(org, 0) + requests
            app["flows_per_org"][org] = app["flows_per_org"].get(org, 0) + flows
            app["protocols"][protocol] = app["protocols"].get(protocol, 0) + flows
            if org in self.first_party_orgs:
                first_party_flows += flows
                continue
            third_requests[org] = third_requests.get(org, 0) + requests
            third_flows[org] = third_flows.get(org, 0) + flows
            totals[protocol] += flows

        def ranked(counts: dict[str, int]) -> list[list]:
            return [[org, n] for org, n in
                    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]

        total = sum(totals.values())
        udp_all = totals["UDP"] + totals["QUIC-over-UDP"]
        return {
            "per_app": {
                app: {
                    "requests_per_org": ranked(d["requests_per_org"]),
                    "flows_per_org": ranked(d["flows_per_org"]),
                    "protocols": dict(sorted(d["protocols"].items())),
                }
                for app, d in sorted(per_app.items())
            },
            "third_party": {
                "total_flows": total,
                "tcp_flows": totals["TCP"],
                "udp_flows": udp_all,
                "quic_flows": totals["QUIC-over-UDP"],
                "tcp_share_pct": round(100 * totals["TCP"] / total, 1) if total else 0.0,
                "udp_share_pct": round(100 * udp_all / total, 1) if total else 0.0,
                "organization_count": len(third_requests),
                "orgs_over_10_requests": sum(
                    1 for n in third_requests.values() if n > 10),
                "requests_per_org": ranked(third_requests),
                "flows_per_org": ranked(third_flows),
            },
            "first_party_flows": first_party_flows,
        }
