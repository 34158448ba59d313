"""DNS what-if probing: reactive measurement of resolver behavior.

Passively watches outbound DNS queries; for a seeded sample of them,
re-issues the same question to alternate resolvers through the host's
probe service and classifies how the answers diverge from what the
original resolver told the app. Original traffic is never altered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .. import dnswire
from ..host import PluginContext, PluginEvent, TrafficPlugin
from ..packet import FlowKey

DIVERGENCE_NONE = "None"
DIVERGENCE_MISMATCH = "AnswerMismatch"
DIVERGENCE_NXDOMAIN_REWRITE = "NxdomainRewrite"
DIVERGENCE_TIMEOUT = "Timeout"


@dataclass
class _Outcome:
    answered: bool = False
    timed_out: bool = False
    rcode: int | None = None
    answers: frozenset[str] = frozenset()
    rtt_us: int | None = None


@dataclass
class _PendingProbe:
    key: tuple[FlowKey, int]  # (flow, DNS id) of the original query
    qname: str
    qtype: int
    resolver: tuple[str, int]
    sent_at_us: int
    original: _Outcome = field(default_factory=_Outcome)
    alternates: dict[tuple[str, int], _Outcome] = field(default_factory=dict)
    done: bool = False


def classify(original: _Outcome, alternates: list[_Outcome]) -> str:
    """Severity order: NxdomainRewrite > AnswerMismatch > Timeout > None."""
    answered_alts = [a for a in alternates if a.answered]
    if original.answered and original.rcode == dnswire.RCODE_NXDOMAIN \
            and any(a.answers for a in answered_alts):
        return DIVERGENCE_NXDOMAIN_REWRITE
    if original.answered:
        for alt in answered_alts:
            if alt.answers != original.answers or alt.rcode != original.rcode:
                return DIVERGENCE_MISMATCH
    if original.timed_out or any(a.timed_out for a in alternates):
        return DIVERGENCE_TIMEOUT
    return DIVERGENCE_NONE


class WhatIfPlugin(TrafficPlugin):
    def __init__(self, alt_resolvers: list[tuple[str, int]],
                 probability: float = 0.05, seed: int = 0,
                 timeout_us: int = 2_000_000):
        self.alt_resolvers = list(alt_resolvers)
        self.probability = probability
        self.timeout_us = timeout_us
        self._rng = random.Random(seed)
        self._host = None
        self._plugin_id = None
        self._pending: dict[tuple[FlowKey, int], _PendingProbe] = {}
        self.probes: list[dict] = []
        self.sampled = 0

    def bind(self, host, plugin_id: str) -> "WhatIfPlugin":
        """Attach the host services used for probe I/O."""
        self._host = host
        self._plugin_id = plugin_id
        return self

    # -- events ---------------------------------------------------------------

    def on_packet_out(self, event: PluginEvent, ctx: PluginContext):
        key = ctx.key
        if key is None or key.protocol != 17 or key.dst[1] != 53:
            return None
        msg = event.dns()
        if msg is None or msg.is_response:
            return None
        pkey = (key, msg.qid)
        if pkey in self._pending:
            return None  # a retransmission of a query already under probe
        if self.probability <= 0 or ctx.throttle \
                or self._rng.random() >= self.probability:
            return None
        if self._host is None or not self.alt_resolvers:
            return None
        pending = _PendingProbe(key=pkey, qname=msg.qname, qtype=msg.qtype,
                                resolver=key.dst, sent_at_us=ctx.now_us)
        self._pending[pkey] = pending
        query = dnswire.build_query(msg.qid, msg.qname, msg.qtype)
        for alt in self.alt_resolvers:
            if not self._host.probe_datagram(
                    self._plugin_id, alt, query,
                    lambda reply, p=pending, a=alt: self._on_probe_reply(p, a, reply),
                    timeout_us=self.timeout_us):
                # refused (no inject_packets, or disabled by the governor):
                # abandon the query; replies to probes already sent find it done
                pending.done = True
                del self._pending[pkey]
                return None
        self.sampled += 1
        # the original resolver may never answer; close the book then
        self._host.call_later(self.timeout_us,
                              lambda p=pending: self._on_original_timeout(p))
        return None

    on_flow_open = on_packet_out

    def on_packet_in(self, event, ctx):
        key = ctx.key
        if key is None or key.protocol != 17 or key.dst[1] != 53:
            return None
        msg = event.dns()
        if msg is None or not msg.is_response:
            return None
        pending = self._pending.get((key, msg.qid))
        if pending is None or pending.original.answered:
            return None
        pending.original = _Outcome(
            answered=True, rcode=msg.rcode,
            answers=frozenset(ip for _n, _t, ip in msg.answers),
            rtt_us=ctx.now_us - pending.sent_at_us)
        self._maybe_finish(pending)
        return None

    # -- probe bookkeeping -------------------------------------------------------

    def _on_probe_reply(self, pending: _PendingProbe, alt: tuple[str, int],
                        reply: bytes | None) -> None:
        if reply is None:
            pending.alternates[alt] = _Outcome(timed_out=True)
        else:
            msg = dnswire.parse_message(reply)
            if msg is None:
                pending.alternates[alt] = _Outcome(timed_out=True)
            else:
                pending.alternates[alt] = _Outcome(
                    answered=True, rcode=msg.rcode,
                    answers=frozenset(ip for _n, _t, ip in msg.answers))
        self._maybe_finish(pending)

    def _on_original_timeout(self, pending: _PendingProbe) -> None:
        if not pending.done and not pending.original.answered:
            pending.original = _Outcome(timed_out=True)
            self._maybe_finish(pending)

    def _maybe_finish(self, pending: _PendingProbe) -> None:
        if pending.done:
            return
        if len(pending.alternates) < len(self.alt_resolvers):
            return
        if not (pending.original.answered or pending.original.timed_out):
            return
        pending.done = True
        del self._pending[pending.key]
        alternates = [pending.alternates[a] for a in self.alt_resolvers]
        self.probes.append({
            "qname": pending.qname,
            "qtype": pending.qtype,
            "resolver": f"{pending.resolver[0]}:{pending.resolver[1]}",
            "original": self._outcome_dict(pending.original),
            "alternates": {
                f"{a[0]}:{a[1]}": self._outcome_dict(pending.alternates[a])
                for a in self.alt_resolvers
            },
            "divergence": classify(pending.original, alternates),
        })

    @staticmethod
    def _outcome_dict(outcome: _Outcome) -> dict:
        return {
            "answered": outcome.answered,
            "timed_out": outcome.timed_out,
            "rcode": outcome.rcode,
            "answers": sorted(outcome.answers),
            "rtt_us": outcome.rtt_us,
        }

    def report(self) -> dict:
        return {"sampled_queries": self.sampled, "probes": self.probes}
