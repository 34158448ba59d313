"""Flow engine: the middlebox core.

Owns per-flow state, terminates TCP toward the app (SYN/ACK synthesis,
sequence bookkeeping, teardown), proxies bytes to upstream streams,
forwards UDP NAT-style with inactivity timeouts, and keeps the upstream
handle count inside the descriptor budget with periodic sweeps.

Everything runs on one logical event loop: conduit packets, upstream
completions, and sweep ticks are serialized through the scheduler, so
no flow state is ever touched concurrently.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .clock import Scheduler
from .conduit import PacketConduit
from .host import Block, BlockMode, EffectiveAction, EventKind, PluginHost
from .packet import (
    ACK, FIN, PSH, RST, SYN, BadChecksum, FlowKey, NoTransport,
    OversizedPacket, Packet, PacketError, PROTO_TCP, PROTO_UDP, TcpHeader,
    extract_mss, flow_key_of, make_tcp_packet, make_udp_packet, mss_option,
    parse_packet, serialize_packet,
)
from .upstream import (
    EV_CONNECTED, EV_EOF, EV_READABLE, EV_REFUSED, EV_RESET, EV_WRITABLE,
    DatagramHandle, StreamHandle, UpstreamNetwork,
)

Addr = tuple[str, int]

_SEQ_MOD = 1 << 32
DNS_PORT = 53


def seq_add(a: int, n: int) -> int:
    return (a + n) % _SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """a - b in sequence space, as a signed number near zero."""
    return ((a - b + (1 << 31)) % _SEQ_MOD) - (1 << 31)


class ConfigError(ValueError):
    pass


@dataclass
class EngineConfig:
    mtu: int = 1500
    socket_budget: int = 512
    udp_timeout_us: int = 30_000_000
    dns_timeout_us: int = 10_000_000
    sweep_interval_us: int = 1_000_000
    buffer_capacity: int = 65536
    local_isn: int | None = None  # None: random per flow; fixed value for tests
    seed: int = 0

    def validate(self) -> "EngineConfig":
        for name in ("mtu", "socket_budget", "udp_timeout_us", "dns_timeout_us",
                     "sweep_interval_us", "buffer_capacity"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"engine {name} must be positive")
        if self.dns_timeout_us > self.udp_timeout_us:
            raise ConfigError("dns_timeout must not exceed udp_timeout")
        if self.local_isn is not None and not 0 <= self.local_isn < _SEQ_MOD:
            raise ConfigError("local_isn out of 32-bit range")
        return self


class TcpState(enum.Enum):
    UPSTREAM_CONNECTING = "upstream_connecting"
    ESTABLISHED = "established"
    CLOSED = "closed"


@dataclass(slots=True)
class TcpFlow:
    key: FlowKey
    app_label: str
    state: TcpState
    app_isn: int
    local_isn: int
    effective_dst: Addr
    mss: int
    app_window: int
    next_seq_to_app: int = 0
    next_expected_from_app: int = 0
    acked_by_app: int = 0
    # None on an open flow that a plugin's notice answers in the upstream's place
    stream: StreamHandle | None = None
    to_app: bytearray = field(default_factory=bytearray)
    to_net: bytearray = field(default_factory=bytearray)
    last_activity: int = 0
    app_fin_seen: bool = False
    fin_sent: bool = False
    fin_acked: bool = False
    upstream_eof: bool = False
    notice: bytes | None = None  # a plugin's answer, sent on the app's next segment
    # app bytes that came before our SYN/ACK, as the chain left them, and
    # how many bytes the app sent for them (what the ACK covers)
    deferred_payload: bytes = b""
    deferred_app_len: int = 0
    # every segment the engine writes toward the app: addresses and ports
    # inverted once, the rest set before each write
    out: Packet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.out = make_tcp_packet(self.key.dst, self.key.src, 0, 0, 0)


@dataclass(slots=True)
class UdpFlow:
    key: FlowKey
    app_label: str
    effective_dst: Addr
    handle: DatagramHandle
    last_activity: int
    shared_key: tuple[str, Addr] | None = None  # set for DNS flows
    out: Packet = field(init=False, repr=False, compare=False)  # datagrams toward the app

    def __post_init__(self) -> None:
        self.out = make_udp_packet(self.key.dst, self.key.src)


@dataclass
class _SharedDatagram:
    """One upstream socket for the DNS flows from one app address to one
    resolver. Each query goes out under an id no other query on the
    socket holds, so its answer finds its flow: `ids` maps the id on the
    wire to (flow key, the app's id) until the answer comes back or the
    flow is evicted, which bounds it to the 65536 ids."""
    handle: DatagramHandle
    refs: int = 0
    ids: dict[int, tuple[FlowKey, int]] = field(default_factory=dict)

    def claim_id(self, key: FlowKey, app_id: int) -> int | None:
        """The app's own id if free (or already this query's), else the
        next free one; None when every id awaits an answer."""
        for n in range(0x10000):
            wire_id = (app_id + n) & 0xFFFF
            if self.ids.setdefault(wire_id, (key, app_id)) == (key, app_id):
                return wire_id
        return None


_COUNTER_KEYS = (
    "tcp_flows_created", "tcp_flows_closed", "tcp_flows_reset",
    "tcp_refused_budget", "tcp_refused_upstream", "tcp_dup_syn",
    "tcp_out_of_order_dropped", "tcp_retransmissions", "tcp_rst_no_state",
    "tcp_backpressure_stalls",
    "udp_flows_created", "udp_flows_evicted_idle", "udp_flows_evicted_pressure",
    "udp_refused_budget", "udp_inbound_unroutable",
    "blocked_flow_opens", "blocked_packets", "injected_responses",
    "redirected_flows", "redirects_ignored", "modified_packets",
    "unsupported_transport_dropped", "parse_errors", "checksum_warnings",
    "emit_oversized_dropped",
    "closed_flow_drops", "shutdown_closed", "budget_high_water",
)


# the counter each close reason adds to; any other reason is a reset
_CLOSE_COUNTERS = {"teardown": "tcp_flows_closed", "shutdown": "shutdown_closed",
                   "refused": "tcp_refused_upstream"}


class Engine:
    def __init__(self, config: EngineConfig, conduit: PacketConduit,
                 upstream: UpstreamNetwork, host: PluginHost,
                 scheduler: Scheduler):
        self.config = config.validate()
        self.conduit = conduit
        self.upstream = upstream
        self.host = host
        self.scheduler = scheduler
        self.flows: dict[FlowKey, TcpFlow | UdpFlow] = {}
        self.counters: dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        # the run's only packet record and the pcap's source: every app packet
        # the chain passed (even one the engine then refuses or answers itself)
        # and every packet the engine wrote toward the app
        self.capture: list[tuple[int, bytes]] = []
        self.eviction_reports: list[dict] = []
        self._rng = random.Random(config.seed)
        self._dns_shared: dict[tuple[str, Addr], _SharedDatagram] = {}
        self._tick_timer = None
        self._mss_to_app = min(1460, config.mtu - 40)

    # ------------------------------------------------------------------ run

    def run(self) -> dict[str, int]:
        """Drive the conduit to exhaustion under the virtual clock, then
        drain and shut down. Returns the counters."""
        if self.scheduler.mode != "virtual":
            raise ConfigError("run() requires a virtual clock; use pump() under wall time")
        self._schedule_tick()
        while True:
            t_pkt = self.conduit.next_ready_us()
            if t_pkt is None and self._pending_work() == 0:
                break
            t_evt = self.scheduler.peek_us()
            if t_pkt is not None and (t_evt is None or t_pkt <= t_evt):
                self.scheduler.advance_to(t_pkt)
                ts, data, label = self.conduit.read_packet()
                self.on_app_packet(ts, data, label)
            else:
                self.scheduler.step()
        self._drain_and_shutdown()
        return dict(self.counters)

    def pump(self) -> None:
        """Process everything currently runnable (bench / test driver)."""
        while True:
            t_pkt = self.conduit.next_ready_us()
            if t_pkt is not None and t_pkt <= self.scheduler.now_us():
                ts, data, label = self.conduit.read_packet()
                self.on_app_packet(ts, data, label)
                continue
            if self._pending_work() > 0:
                self.scheduler.step()
                continue
            break

    def _pending_work(self) -> int:
        """Scheduled entries other than the engine's own periodic tick."""
        return self.scheduler.pending() - (self._tick_timer is not None)

    def _schedule_tick(self) -> None:
        """Every sweep interval: the plugin governor's tick, then a sweep."""
        def tick():
            self.host.governor_tick()
            self.sweep()
            self._tick_timer = self.scheduler.call_later(self.config.sweep_interval_us, tick)
        self._tick_timer = self.scheduler.call_later(self.config.sweep_interval_us, tick)

    def _drain_and_shutdown(self) -> None:
        # let inactivity timeouts run their course, then close what's left
        horizon = self.scheduler.now_us() + self.config.udp_timeout_us \
            + 2 * self.config.sweep_interval_us
        while True:
            t = self.scheduler.peek_us()
            if t is None or t > horizon:
                break
            self.scheduler.step()
        if self._tick_timer is not None:
            self.scheduler.cancel(self._tick_timer)
            self._tick_timer = None
        for flow in list(self.flows.values()):
            if isinstance(flow, TcpFlow):
                self._close_tcp(flow, "shutdown")
            else:
                self._evict_udp(flow, "shutdown")
        self.sweep()

    # ------------------------------------------------------- packet ingress

    def on_app_packet(self, ts_us: int, data: bytes, app_label: str = "") -> None:
        try:
            pkt = parse_packet(data)
        except BadChecksum as exc:
            # traces often carry offload-zeroed checksums; warn and proceed
            self.counters["checksum_warnings"] += 1
            pkt = exc.packet
        except PacketError:
            self.counters["parse_errors"] += 1
            return
        try:
            key = flow_key_of(pkt)
        except NoTransport:
            self.counters["unsupported_transport_dropped"] += 1
            return
        if pkt.is_tcp:
            self._tcp_ingress(pkt, key, app_label, data)
        else:
            self._udp_ingress(pkt, key, app_label, data)

    def _offer_out(self, pkt: Packet, key: FlowKey, app_label: str, raw: bytes,
                   flow: TcpFlow | UdpFlow | None, creating: bool) -> EffectiveAction:
        """Run the chain over an app packet: FLOW_OPEN when it opens a
        flow, else PACKET_OUT. Counts a block; otherwise records the packet
        in the capture, even one the engine then refuses or answers with an
        RST, and counts a redirect, honoured only on an open."""
        kind = EventKind.FLOW_OPEN if creating else EventKind.PACKET_OUT
        tcp_flags = tcp_seq = None
        if pkt.is_tcp:
            tcp_flags, tcp_seq = pkt.transport.flags, pkt.transport.seq
        action = self.host.dispatch(kind, key, app_label, pkt.payload, tcp_flags, tcp_seq)
        if action.block is not None:
            self.counters["blocked_flow_opens" if creating else "blocked_packets"] += 1
            return action
        if action.modified:
            self.counters["modified_packets"] += 1
            rebuilt = Packet(ip=pkt.ip, transport=pkt.transport, payload=action.payload)
            try:
                raw = serialize_packet(rebuilt, mtu=self.config.mtu)
            except OversizedPacket:
                raw = None  # forwarded upstream anyway; just not capturable
        if raw is not None:
            self.capture.append((self.scheduler.now_us(), raw))
        if action.redirect is not None:
            if creating:
                self.counters["redirected_flows"] += 1
            elif flow is not None:
                self.counters["redirects_ignored"] += 1
        return action

    def _offer_in(self, flow: TcpFlow | UdpFlow, payload: bytes) -> EffectiveAction:
        """Run the chain over bytes from upstream; counts a block or a rewrite."""
        action = self.host.dispatch(EventKind.PACKET_IN, flow.key, flow.app_label, payload)
        if action.block is not None:
            self.counters["blocked_packets"] += 1
        elif action.modified:
            self.counters["modified_packets"] += 1
        return action

    # --------------------------------------------------------------- emit

    def _emit(self, pkt: Packet) -> None:
        try:
            data = serialize_packet(pkt, mtu=self.config.mtu)
        except OversizedPacket:
            # nothing sensible to do at the tun boundary but drop
            self.counters["emit_oversized_dropped"] += 1
            return
        self.conduit.write_packet(data)
        self.capture.append((self.scheduler.now_us(), data))

    def _advertised_window(self, flow: TcpFlow) -> int:
        # reflects spare receive capacity for app payload (the to_net queue)
        return max(0, min(65535, self.config.buffer_capacity - len(flow.to_net)))

    def _emit_tcp(self, flow: TcpFlow, flags: int, payload: bytes = b"",
                  seq: int | None = None, ack: int | None = None,
                  options: bytes = b"") -> None:
        """A segment on the flow's outbound packet; seq and ack default to
        the flow's next byte toward the app and from it."""
        out = flow.out
        tcp = out.transport
        tcp.seq = flow.next_seq_to_app if seq is None else seq
        tcp.ack = flow.next_expected_from_app if ack is None else ack
        tcp.flags = flags
        tcp.window = self._advertised_window(flow)
        tcp.options = options
        out.payload = payload
        self._emit(out)

    def _emit_rst(self, key: FlowKey, ack: int, seq: int = 0,
                  flags: int = RST | ACK) -> None:
        """Reset toward the app from outside any flow's sequence space."""
        self._emit(make_tcp_packet(src=key.dst, dst=key.src, seq=seq, ack=ack,
                                   flags=flags, window=0))

    # ----------------------------------------------------------- TCP path

    def _tcp_ingress(self, pkt: Packet, key: FlowKey, app_label: str,
                     raw: bytes) -> None:
        tcp: TcpHeader = pkt.transport
        flow = self.flows.get(key)
        if isinstance(flow, TcpFlow) and flow.state is TcpState.CLOSED:
            # no resurrection: nothing is emitted for a closed flow
            self.counters["closed_flow_drops"] += 1
            return
        syn_only = tcp.has(SYN) and not tcp.has(ACK)
        creating = flow is None and syn_only
        action = self._offer_out(pkt, key, app_label, raw, flow, creating)
        if action.block is not None:
            self._apply_tcp_block(pkt, key, app_label, flow, action.block, creating)
        elif creating:
            self._handle_syn(pkt, key, app_label, action.payload,
                             action.redirect and action.redirect.dst)
        elif flow is None:
            self._rst_for_orphan(pkt, key)
        elif syn_only:
            self._handle_dup_syn(flow, tcp)
        else:
            self._handle_tcp_segment(flow, pkt, action.payload)

    def _handle_syn(self, pkt: Packet, key: FlowKey, app_label: str, payload: bytes,
                    redirect: Addr | None, notice: bytes | None = None) -> None:
        """Open a flow toward upstream, or, given a plugin's notice, a flow
        that answers with the notice and needs no upstream handle."""
        tcp: TcpHeader = pkt.transport
        if notice is None and self.upstream.active_handle_count() >= self.config.socket_budget:
            self.counters["tcp_refused_budget"] += 1
            self._emit_rst(key, seq_add(tcp.seq, 1))
            return
        flow = TcpFlow(
            key=key, app_label=app_label, state=TcpState.UPSTREAM_CONNECTING,
            app_isn=tcp.seq, local_isn=self._pick_isn(),
            effective_dst=redirect or key.dst,
            mss=self._clamp_mss(extract_mss(tcp.options)),
            app_window=tcp.window,
            last_activity=self.scheduler.now_us(),
            deferred_payload=payload if pkt.payload else b"",
            deferred_app_len=len(pkt.payload), notice=notice,
        )
        self.flows[key] = flow
        self.counters["tcp_flows_created"] += 1
        if notice is not None:
            self._establish(flow)
            return
        stream = self.upstream.open_stream(flow.effective_dst)
        flow.stream = stream
        stream.set_callback(lambda ev, f=flow: self._on_stream_event(f, ev))
        self._note_budget()

    def _pick_isn(self) -> int:
        if self.config.local_isn is not None:
            return self.config.local_isn
        return self._rng.getrandbits(32)

    def _clamp_mss(self, advertised: int | None) -> int:
        # segments toward the app must fit the virtual-interface MTU
        # regardless of what the SYN claimed
        return min(advertised or 1460, max(1, self.config.mtu - 40))

    def _handle_dup_syn(self, flow: TcpFlow, tcp: TcpHeader) -> None:
        self.counters["tcp_dup_syn"] += 1  # retransmit absorbed
        if flow.state is TcpState.ESTABLISHED and not (flow.app_fin_seen or flow.fin_sent) \
                and tcp.seq == flow.app_isn:
            self._emit_syn_ack(flow)  # our SYN/ACK may have been lost

    def _emit_syn_ack(self, flow: TcpFlow) -> None:
        self._emit_tcp(flow, SYN | ACK, seq=flow.local_isn, ack=seq_add(flow.app_isn, 1),
                       options=mss_option(self._mss_to_app))

    def _on_stream_event(self, flow: TcpFlow, event: str) -> None:
        if flow.state is TcpState.CLOSED:
            return
        flow.last_activity = self.scheduler.now_us()
        if event == EV_CONNECTED:
            if flow.state is TcpState.UPSTREAM_CONNECTING:
                self._establish(flow)
        elif event == EV_REFUSED:
            self._reset_flow(flow, "refused")
        elif event in (EV_READABLE, EV_WRITABLE):
            self._pump_flow(flow)
        elif event == EV_EOF:
            flow.upstream_eof = True
            self._pump_flow(flow)
        elif event == EV_RESET:
            self._reset_flow(flow, "upstream_reset")

    def _establish(self, flow: TcpFlow) -> None:
        """Answer the app's SYN once the flow has somewhere to go: a
        connected upstream, or a plugin's notice in its place."""
        flow.state = TcpState.ESTABLISHED
        flow.next_seq_to_app = seq_add(flow.local_isn, 1)
        flow.next_expected_from_app = seq_add(flow.app_isn, 1)
        flow.acked_by_app = flow.next_seq_to_app
        self._emit_syn_ack(flow)
        # the engine's own control packets are observable, not actionable
        self.host.dispatch(EventKind.PACKET_IN, flow.key, flow.app_label, tcp_flags=SYN | ACK)
        if flow.deferred_app_len:
            deferred, sent = flow.deferred_payload, flow.deferred_app_len
            flow.deferred_payload, flow.deferred_app_len = b"", 0
            self._accept_app_bytes(flow, deferred, original_len=sent)
        self._pump_flow(flow)

    def _handle_tcp_segment(self, flow: TcpFlow, pkt: Packet,
                            effective_payload: bytes) -> None:
        tcp: TcpHeader = pkt.transport
        flow.last_activity = self.scheduler.now_us()
        flow.app_window = tcp.window

        if tcp.has(RST):
            self._close_tcp(flow, "reset_by_app")
            return

        if flow.state is TcpState.UPSTREAM_CONNECTING:
            # data racing ahead of our SYN/ACK: defer in order while it fits
            # the buffer, drop the rest; the app retransmits after the SYN/ACK
            if not pkt.payload:
                return
            expected = seq_add(flow.app_isn, 1 + flow.deferred_app_len)
            if tcp.seq != expected:
                if seq_diff(tcp.seq, expected) < 0:
                    self.counters["tcp_retransmissions"] += 1
                else:
                    self.counters["tcp_out_of_order_dropped"] += 1
            elif len(flow.deferred_payload) + len(effective_payload) \
                    > self.config.buffer_capacity:
                self.counters["tcp_backpressure_stalls"] += 1
            else:
                flow.deferred_payload += effective_payload
                flow.deferred_app_len += len(pkt.payload)
            return

        if flow.notice is not None:
            self._answer_with_notice(flow)

        if tcp.has(ACK):
            self._note_app_ack(flow, tcp.ack)

        if pkt.payload:
            if tcp.seq == flow.next_expected_from_app:
                self._accept_app_bytes(flow, effective_payload,
                                       original_len=len(pkt.payload))
            else:
                if seq_diff(tcp.seq, flow.next_expected_from_app) < 0:
                    self.counters["tcp_retransmissions"] += 1
                else:
                    self.counters["tcp_out_of_order_dropped"] += 1
                self._emit_tcp(flow, ACK)  # duplicate ACK, app will retransmit

        if tcp.has(FIN):
            if not flow.app_fin_seen \
                    and seq_add(tcp.seq, len(pkt.payload)) == flow.next_expected_from_app:
                flow.app_fin_seen = True
                flow.next_expected_from_app = seq_add(flow.next_expected_from_app, 1)
                self._emit_tcp(flow, ACK)
                if flow.stream is not None and not flow.to_net:
                    flow.stream.half_close()
            else:
                self._emit_tcp(flow, ACK)  # a repeated or out-of-order FIN

        self._pump_flow(flow)

    def _note_app_ack(self, flow: TcpFlow, ack: int) -> None:
        if seq_diff(ack, flow.acked_by_app) > 0:
            flow.acked_by_app = ack
        if flow.fin_sent and not flow.fin_acked \
                and seq_diff(ack, flow.next_seq_to_app) >= 0:
            flow.fin_acked = True
        self._maybe_finish(flow)

    def _accept_app_bytes(self, flow: TcpFlow, payload: bytes,
                          original_len: int | None = None) -> None:
        """In-order app payload: queue toward upstream and ACK it. The ACK
        covers the original bytes even if a plugin rewrote them."""
        advance = len(payload) if original_len is None else original_len
        if flow.stream is not None:  # a notice flow drops what the app sends
            if len(flow.to_net) + len(payload) > self.config.buffer_capacity:
                # backpressure: withhold ACK advancement, app will retransmit
                self.counters["tcp_backpressure_stalls"] += 1
                self._emit_tcp(flow, ACK)
                return
            flow.to_net.extend(payload)
        flow.next_expected_from_app = seq_add(flow.next_expected_from_app, advance)
        self._emit_tcp(flow, ACK)
        self._flush_to_net(flow)

    def _flush_to_net(self, flow: TcpFlow) -> None:
        if flow.stream is None or not flow.to_net:
            return
        sent = flow.stream.send(bytes(flow.to_net))
        if sent:
            del flow.to_net[:sent]
        if flow.app_fin_seen and not flow.to_net and flow.stream is not None:
            flow.stream.half_close()

    def _pump_flow(self, flow: TcpFlow) -> None:
        if flow.state in (TcpState.CLOSED, TcpState.UPSTREAM_CONNECTING):
            return
        self._flush_to_net(flow)
        stream = flow.stream
        if stream is not None:
            while stream.readable_bytes():
                space = self.config.buffer_capacity - len(flow.to_app)
                if space <= 0:
                    break
                chunk = stream.recv(space)
                if not chunk:
                    break
                action = self._offer_in(flow, chunk)
                block = action.block
                if block is None:
                    flow.to_app.extend(action.payload)
                elif block.mode is BlockMode.RESET_APP:
                    self._reset_flow(flow, "plugin")
                    return
        self._send_data_to_app(flow)
        if flow.upstream_eof and not flow.to_app and not flow.fin_sent \
                and (stream is None or (not stream.readable_bytes() and stream.at_eof())):
            self._send_fin(flow)
        self._maybe_finish(flow)

    def _send_data_to_app(self, flow: TcpFlow) -> None:
        while flow.to_app:
            in_flight = seq_diff(flow.next_seq_to_app, flow.acked_by_app)
            allowed = flow.app_window - max(0, in_flight)
            if allowed <= 0:
                break
            n = min(len(flow.to_app), flow.mss, allowed)
            self._emit_tcp(flow, PSH | ACK, payload=flow.to_app[:n])
            flow.next_seq_to_app = seq_add(flow.next_seq_to_app, n)
            del flow.to_app[:n]

    def _send_fin(self, flow: TcpFlow) -> None:
        if flow.fin_sent:
            return
        self._emit_tcp(flow, FIN | ACK)
        flow.fin_sent = True
        flow.next_seq_to_app = seq_add(flow.next_seq_to_app, 1)
        self.host.dispatch(EventKind.PACKET_IN, flow.key, flow.app_label, tcp_flags=FIN | ACK)

    def _maybe_finish(self, flow: TcpFlow) -> None:
        if flow.state is TcpState.CLOSED:
            return
        if flow.app_fin_seen and flow.fin_sent and flow.fin_acked:
            self._close_tcp(flow, "teardown")

    def _reset_flow(self, flow: TcpFlow, reason: str) -> None:
        if flow.state is TcpState.CLOSED:
            return
        if flow.state is TcpState.UPSTREAM_CONNECTING:
            # the app is in SYN-SENT and accepts only a reset that acks its SYN
            self._emit_rst(flow.key, seq_add(flow.app_isn, 1))
        else:
            self._emit_tcp(flow, RST | ACK)
        self._close_tcp(flow, reason)

    def _close_tcp(self, flow: TcpFlow, reason: str) -> None:
        if flow.state is TcpState.CLOSED:
            return
        self.counters[_CLOSE_COUNTERS.get(reason, "tcp_flows_reset")] += 1
        if flow.stream is not None:
            flow.stream.close()
            flow.stream = None
        flow.state = TcpState.CLOSED
        flow.to_app.clear()
        flow.to_net.clear()
        self.host.dispatch(EventKind.FLOW_CLOSE, flow.key, flow.app_label)

    def _rst_for_orphan(self, pkt: Packet, key: FlowKey) -> None:
        """Standard endpoint behavior: a segment with no matching state
        elicits a reset."""
        tcp: TcpHeader = pkt.transport
        self.counters["tcp_rst_no_state"] += 1
        if tcp.has(ACK):
            self._emit_rst(key, 0, seq=tcp.ack, flags=RST)
        else:
            self._emit_rst(key, seq_add(tcp.seq, len(pkt.payload)
                                        + (1 if tcp.has(SYN) else 0)
                                        + (1 if tcp.has(FIN) else 0)))

    def _apply_tcp_block(self, pkt: Packet, key: FlowKey, app_label: str,
                         flow: TcpFlow | None, block: Block, creating: bool) -> None:
        tcp: TcpHeader = pkt.transport
        if block.mode is BlockMode.DROP_SILENT:
            return
        if block.mode is BlockMode.RESET_APP:
            if flow is not None:
                self._reset_flow(flow, "plugin")
            else:
                self._emit_rst(key, seq_add(
                    tcp.seq, len(pkt.payload) + (1 if tcp.has(SYN) else 0)))
            return
        # inject response
        if flow is not None:
            self._inject_on_flow(flow, pkt, block.response)
        elif creating:
            self._handle_syn(pkt, key, app_label, pkt.payload, None, notice=block.response)
        else:
            self._rst_for_orphan(pkt, key)

    def _inject_on_flow(self, flow: TcpFlow, pkt: Packet, notice: bytes) -> None:
        if flow.state is TcpState.UPSTREAM_CONNECTING:
            # cannot deliver a payload before establishment; fall back to reset
            self._reset_flow(flow, "plugin")
            return
        if flow.stream is not None:  # the first notice on this flow replaces its upstream
            if flow.fin_sent:
                # our FIN already ended the stream to the app; nothing may follow it
                self._reset_flow(flow, "plugin")
                return
            flow.notice = notice
        self._handle_tcp_segment(flow, pkt, pkt.payload)

    def _answer_with_notice(self, flow: TcpFlow) -> None:
        """The notice takes the upstream's place: the app receives it and
        then a FIN, as if the upstream had answered and closed, and what
        the app sends from now on is dropped."""
        if flow.stream is not None:
            flow.stream.close()
            flow.stream = None
        flow.to_net.clear()
        flow.to_app[:] = flow.notice
        flow.notice = None
        flow.upstream_eof = True
        self.counters["injected_responses"] += 1

    # ----------------------------------------------------------- UDP path

    def _udp_ingress(self, pkt: Packet, key: FlowKey, app_label: str,
                     raw: bytes) -> None:
        flow = self.flows.get(key)
        action = self._offer_out(pkt, key, app_label, raw, flow, flow is None)
        block = action.block
        if block is not None:
            if block.mode is BlockMode.INJECT_RESPONSE:
                inv = key.invert()
                self._emit(make_udp_packet(src=inv.src, dst=inv.dst,
                                           payload=block.response))
                self.counters["injected_responses"] += 1
            return
        if flow is None:
            flow = self._open_udp_flow(key, app_label, action.redirect and action.redirect.dst)
            if flow is None:
                return

        flow.last_activity = self.scheduler.now_us()
        payload = action.payload
        if flow.shared_key is not None and len(payload) >= 2:
            wire_id = self._dns_shared[flow.shared_key].claim_id(
                key, int.from_bytes(payload[:2], "big"))
            if wire_id is None:
                return  # no id left on the shared socket: drop, as a full queue would
            payload = wire_id.to_bytes(2, "big") + payload[2:]
        flow.handle.send_to(flow.effective_dst, payload)

    def _open_udp_flow(self, key: FlowKey, app_label: str,
                       redirect: Addr | None) -> UdpFlow | None:
        effective_dst = redirect or key.dst
        is_dns = effective_dst[1] == DNS_PORT
        shared_key = None
        handle = None
        if is_dns:
            shared_key = (key.src[0], effective_dst)
            shared = self._dns_shared.get(shared_key)
            if shared is not None:
                shared.refs += 1
                handle = shared.handle
        if handle is None:
            if self.upstream.active_handle_count() >= self.config.socket_budget:
                self.counters["udp_refused_budget"] += 1
                return None
            handle = self.upstream.open_datagram()
            self._note_budget()
            if is_dns:
                shared = _SharedDatagram(handle=handle, refs=1)
                self._dns_shared[shared_key] = shared
                handle.set_callback(
                    lambda addr, data, sk=shared_key: self._on_dns_datagram(sk, addr, data))
            else:
                handle.set_callback(
                    lambda addr, data, k=key: self._on_udp_datagram(k, addr, data))
        flow = UdpFlow(key=key, app_label=app_label, effective_dst=effective_dst,
                       handle=handle, last_activity=self.scheduler.now_us(),
                       shared_key=shared_key)
        self.flows[key] = flow
        self.counters["udp_flows_created"] += 1
        return flow

    def _on_udp_datagram(self, key: FlowKey, _from_addr: Addr, data: bytes) -> None:
        flow = self.flows.get(key)
        if not isinstance(flow, UdpFlow):
            self.counters["udp_inbound_unroutable"] += 1
            return
        self._deliver_udp(flow, data)

    def _on_dns_datagram(self, shared_key: tuple[str, Addr], _from_addr: Addr,
                         data: bytes) -> None:
        shared = self._dns_shared.get(shared_key)
        if shared is None or len(data) < 2:
            self.counters["udp_inbound_unroutable"] += 1
            return
        holder = shared.ids.pop(int.from_bytes(data[:2], "big"), None)
        flow = self.flows.get(holder[0]) if holder is not None else None
        if not isinstance(flow, UdpFlow):
            self.counters["udp_inbound_unroutable"] += 1
            return
        self._deliver_udp(flow, holder[1].to_bytes(2, "big") + data[2:])

    def _deliver_udp(self, flow: UdpFlow, data: bytes) -> None:
        flow.last_activity = self.scheduler.now_us()
        action = self._offer_in(flow, data)
        if action.block is not None:
            return
        flow.out.payload = action.payload
        self._emit(flow.out)

    def _evict_udp(self, flow: UdpFlow, reason: str) -> None:
        if flow.shared_key is not None:
            shared = self._dns_shared.get(flow.shared_key)
            if shared is not None:
                shared.refs -= 1
                if shared.refs <= 0:
                    shared.handle.close()
                    del self._dns_shared[flow.shared_key]
                else:
                    shared.ids = {i: h for i, h in shared.ids.items() if h[0] != flow.key}
        else:
            flow.handle.close()
        del self.flows[flow.key]
        if reason == "idle":
            self.counters["udp_flows_evicted_idle"] += 1
        elif reason == "pressure":
            self.counters["udp_flows_evicted_pressure"] += 1
        self.host.dispatch(EventKind.FLOW_CLOSE, flow.key, flow.app_label)

    # --------------------------------------------------------------- sweep

    def sweep(self) -> None:
        """Evict idle UDP flows, drop Closed TCP entries, and relieve
        descriptor pressure by evicting least-recently-active UDP flows."""
        now = self.scheduler.now_us()
        evicted: list[str] = []
        removed: list[str] = []
        for flow in list(self.flows.values()):
            if isinstance(flow, UdpFlow):
                timeout = self.config.dns_timeout_us if flow.shared_key is not None \
                    else self.config.udp_timeout_us
                if now - flow.last_activity > timeout:
                    self._evict_udp(flow, "idle")
                    evicted.append(str(flow.key))
            elif flow.state is TcpState.CLOSED:
                del self.flows[flow.key]
                removed.append(str(flow.key))

        threshold = 0.9 * self.config.socket_budget
        if self.upstream.active_handle_count() > threshold:
            lru = sorted((f for f in self.flows.values() if isinstance(f, UdpFlow)),
                         key=lambda f: (f.last_activity, str(f.key)))
            for flow in lru:
                if self.upstream.active_handle_count() <= threshold:
                    break
                self._evict_udp(flow, "pressure")
                evicted.append(str(flow.key))

        if evicted or removed:
            self.eviction_reports.append(
                {"ts_us": now, "evicted": evicted, "removed_closed": removed})

    def _note_budget(self) -> None:
        active = self.upstream.active_handle_count()
        if active > self.counters["budget_high_water"]:
            self.counters["budget_high_water"] = active
