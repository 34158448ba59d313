"""Shared on-path attribution: who is this flow really talking to?

Learns IP-to-domain mappings by sniffing DNS answers, grabs TLS SNI
from outbound ClientHellos, and spots QUIC by its long header. Each
plugin owns its own tracker instance; there is no cross-plugin state.
"""

from __future__ import annotations

from ..host import PluginContext, PluginEvent
from ..packet import FlowKey

QUIC_PORT = 443
TLS_PORT = 443


def looks_like_quic(dst_port: int, payload: bytes) -> bool:
    """Heuristic: UDP/443 with the long-header bit set and a 4-byte
    version field present. Short-header-only captures are missed."""
    return dst_port == QUIC_PORT and len(payload) >= 5 and bool(payload[0] & 0x80)


class DomainTracker:
    def __init__(self):
        self.ip_to_name: dict[str, str] = {}
        self.sni_by_key: dict[FlowKey, str] = {}

    def observe_out(self, event: PluginEvent, ctx: PluginContext) -> None:
        key = ctx.key
        if key is None or not event.payload:
            return
        if key.protocol == 6 and key.dst[1] == TLS_PORT \
                and key not in self.sni_by_key:
            sni = event.sni()
            if sni:
                self.sni_by_key[key] = sni

    def observe_in(self, event: PluginEvent, ctx: PluginContext) -> None:
        key = ctx.key
        if key is None or key.protocol != 17 or key.dst[1] != 53:
            return
        msg = event.dns()
        if msg is None or not msg.is_response:
            return
        for _name, _rtype, ip in msg.answers:
            self.ip_to_name[ip] = msg.qname

    def forget(self, key: FlowKey | None) -> None:
        """Drop a closed flow's SNI."""
        self.sni_by_key.pop(key, None)

    def domain_for(self, key: FlowKey) -> str:
        sni = self.sni_by_key.get(key)
        if sni:
            return sni
        return self.ip_to_name.get(key.dst[0], "")
