"""Protocol advisor: per-path health stats and a wrap recommendation.

Tracks SYN-to-SYN/ACK round trips and app-side retransmissions (the
same seq and length seen twice) per destination. Once enough handshakes
have been observed and the loss estimate crosses the threshold, the
path is recommended for a loss-tolerant wrapper. The recommendation is
report-only; no traffic is changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..host import PluginContext, PluginEvent, TrafficPlugin
from ..packet import ACK, SYN, FlowKey, PROTO_TCP

KEEP_TCP = "KeepTcp"
WRAP_LOSS_TOLERANT = "WrapLossTolerant"


@dataclass
class PathStats:
    syn_rtts_us: list[int] = field(default_factory=list)
    data_segments: int = 0
    retransmissions: int = 0

    @property
    def sample_count(self) -> int:
        return len(self.syn_rtts_us)

    @property
    def loss_estimate(self) -> float:
        if self.data_segments == 0:
            return 0.0
        return self.retransmissions / self.data_segments


def recommend(stats: PathStats, loss_rate_threshold: float,
              min_samples: int) -> str:
    if stats.sample_count >= min_samples \
            and stats.loss_estimate > loss_rate_threshold:
        return WRAP_LOSS_TOLERANT
    return KEEP_TCP


class AdvisorPlugin(TrafficPlugin):
    def __init__(self, loss_rate_threshold: float = 0.02, min_samples: int = 20):
        self.loss_rate_threshold = loss_rate_threshold
        self.min_samples = min_samples
        self.paths: dict[tuple[str, int], PathStats] = {}
        self._syn_at: dict[FlowKey, int] = {}
        # (seq, length) of each data segment of each open flow
        self._seen: dict[FlowKey, set[tuple[int, int]]] = {}

    def _stats(self, key: FlowKey) -> PathStats:
        stats = self.paths.get(key.dst)
        if stats is None:
            stats = self.paths[key.dst] = PathStats()
        return stats

    def on_flow_open(self, event: PluginEvent, ctx: PluginContext):
        if ctx.key is not None and ctx.key.protocol == PROTO_TCP:
            self._syn_at[ctx.key] = ctx.now_us
        return None

    def on_packet_in(self, event: PluginEvent, ctx: PluginContext):
        if ctx.key is None or event.tcp_flags is None:
            return None
        if event.tcp_flags & SYN and event.tcp_flags & ACK:
            sent = self._syn_at.pop(ctx.key, None)
            if sent is not None:
                self._stats(ctx.key).syn_rtts_us.append(ctx.now_us - sent)
        return None

    def on_packet_out(self, event: PluginEvent, ctx: PluginContext):
        key = ctx.key
        if key is None or key.protocol != PROTO_TCP or not event.payload \
                or event.tcp_seq is None:
            return None
        stats = self._stats(key)
        seen = self._seen.get(key)
        if seen is None:
            seen = self._seen[key] = set()
        sig = (event.tcp_seq, len(event.payload))
        if sig in seen:
            stats.retransmissions += 1
        else:
            seen.add(sig)
        stats.data_segments += 1
        return None

    def on_flow_close(self, event, ctx):
        if ctx.key is not None:
            self._syn_at.pop(ctx.key, None)
            self._seen.pop(ctx.key, None)
        return None

    def report(self) -> list[dict]:
        out = []
        for dst in sorted(self.paths):
            stats = self.paths[dst]
            rtts = sorted(stats.syn_rtts_us)
            out.append({
                "dst": f"{dst[0]}:{dst[1]}",
                "samples": stats.sample_count,
                "syn_rtt_us_median": rtts[len(rtts) // 2] if rtts else None,
                "data_segments": stats.data_segments,
                "retransmissions": stats.retransmissions,
                "loss_estimate": round(stats.loss_estimate, 4),
                "recommendation": recommend(
                    stats, self.loss_rate_threshold, self.min_samples),
            })
        return out
