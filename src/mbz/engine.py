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
from .host import (
    Block, BlockMode, EffectiveAction, EventKind, PluginEvent, PluginHost,
    DIR_IN, DIR_OUT,
)
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
    APP_FIN_WAIT = "app_fin_wait"          # app closed its side, upstream still open
    UPSTREAM_FIN_WAIT = "upstream_fin_wait"  # we sent FIN, waiting for the app
    CLOSED = "closed"


@dataclass
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
    stream: StreamHandle | None = None
    to_app: bytearray = field(default_factory=bytearray)
    to_net: bytearray = field(default_factory=bytearray)
    last_activity: int = 0
    app_fin_seen: bool = False
    fin_sent: bool = False
    fin_acked: bool = False
    upstream_eof: bool = False
    local_only: bool = False
    inject_pending: bytes = b""
    inject_sent: bool = False
    deferred_payload: bytes = b""


@dataclass
class UdpFlow:
    key: FlowKey
    app_label: str
    effective_dst: Addr
    handle: DatagramHandle
    last_activity: int
    is_dns: bool
    shared_key: tuple[str, Addr] | None = None


@dataclass
class _SharedDatagram:
    handle: DatagramHandle
    refs: int = 0
    txid_to_key: dict[int, FlowKey] = field(default_factory=dict)


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
        # the run's only packet record, both directions; the pcap is written from it
        self.capture: list[tuple[int, bytes]] = []
        self.eviction_reports: list[dict] = []
        self._rng = random.Random(config.seed)
        self._dns_shared: dict[tuple[str, Addr], _SharedDatagram] = {}
        self._sweep_timer = None
        self._mss_to_app = min(1460, config.mtu - 40)

    # ------------------------------------------------------------------ run

    def run(self) -> dict[str, int]:
        """Drive the conduit to exhaustion under the virtual clock, then
        drain and shut down. Returns the counters."""
        if self.scheduler.mode != "virtual":
            raise ConfigError("run() requires a virtual clock; use pump() under wall time")
        self._schedule_sweep()
        while True:
            t_pkt = self.conduit.next_ready_us()
            if t_pkt is None and self.scheduler.pending(exclude_kinds=("sweep",)) == 0:
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
            if self.scheduler.pending(exclude_kinds=("sweep",)) > 0:
                self.scheduler.step()
                continue
            break

    def _schedule_sweep(self) -> None:
        def tick():
            self.sweep()
            self._sweep_timer = self.scheduler.call_later(
                self.config.sweep_interval_us, tick, kind="sweep")
        self._sweep_timer = self.scheduler.call_later(
            self.config.sweep_interval_us, tick, kind="sweep")

    def _drain_and_shutdown(self) -> None:
        # let inactivity timeouts run their course, then close what's left
        horizon = self.scheduler.now_us() + self.config.udp_timeout_us \
            + 2 * self.config.sweep_interval_us
        while True:
            t = self.scheduler.peek_us()
            if t is None or t > horizon:
                break
            self.scheduler.step()
        if self._sweep_timer is not None:
            self.scheduler.cancel(self._sweep_timer)
            self._sweep_timer = None
        for flow in list(self.flows.values()):
            if isinstance(flow, TcpFlow):
                if flow.state is not TcpState.CLOSED:
                    self.counters["shutdown_closed"] += 1
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
        pkt.captured_at = ts_us
        try:
            key = flow_key_of(pkt)
        except NoTransport:
            self.counters["unsupported_transport_dropped"] += 1
            return
        if pkt.is_tcp:
            self._tcp_ingress(pkt, key, app_label, data)
        else:
            self._udp_ingress(pkt, key, app_label, data)

    def _flow_close_event(self, key: FlowKey, app_label: str) -> None:
        self.host.dispatch(EventKind.FLOW_CLOSE, key, app_label, DIR_OUT,
                           PluginEvent(EventKind.FLOW_CLOSE))

    def _control_in_event(self, flow: TcpFlow, flags: int) -> None:
        # engine-synthesized control packets are observable, not actionable
        self.host.dispatch(EventKind.PACKET_IN, flow.key, flow.app_label, DIR_IN,
                           PluginEvent(EventKind.PACKET_IN, tcp_flags=flags))

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

    def _record_forwarded(self, pkt: Packet, raw: bytes, action: EffectiveAction) -> None:
        if action.modified:
            self.counters["modified_packets"] += 1
            rebuilt = Packet(ip=pkt.ip, transport=pkt.transport, payload=action.payload)
            try:
                wire = serialize_packet(rebuilt, mtu=self.config.mtu)
            except OversizedPacket:
                return  # forwarded upstream anyway; just not capturable
            self.capture.append((self.scheduler.now_us(), wire))
        else:
            self.capture.append((self.scheduler.now_us(), raw))

    def _advertised_window(self, flow: TcpFlow) -> int:
        # reflects spare receive capacity for app payload (the to_net queue)
        return max(0, min(65535, self.config.buffer_capacity - len(flow.to_net)))

    def _emit_tcp(self, flow: TcpFlow, flags: int, payload: bytes = b"",
                  options: bytes = b"") -> None:
        inv = flow.key.invert()
        self._emit(make_tcp_packet(
            src=inv.src, dst=inv.dst, seq=flow.next_seq_to_app,
            ack=flow.next_expected_from_app, flags=flags,
            window=self._advertised_window(flow),
            payload=payload, options=options))

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
        kind = EventKind.FLOW_OPEN if creating else EventKind.PACKET_OUT
        event = PluginEvent(kind, payload=pkt.payload, packet=pkt,
                            tcp_flags=tcp.flags, tcp_seq=tcp.seq)
        action = self.host.dispatch(kind, key, app_label, DIR_OUT, event)

        block = action.block
        if block is not None:
            self._apply_tcp_block(pkt, key, flow, block, creating)
            return
        self._record_forwarded(pkt, raw, action)

        if flow is None:
            if syn_only:
                redirect = action.redirect.dst if action.redirect else None
                if action.redirect:
                    self.counters["redirected_flows"] += 1
                self._handle_syn(pkt, key, app_label, redirect)
            else:
                self._rst_for_orphan(pkt, key)
            return
        if action.redirect is not None:
            self.counters["redirects_ignored"] += 1
        if syn_only:
            self._handle_dup_syn(flow, tcp)
            return
        self._handle_tcp_segment(flow, pkt, action.payload)

    def _handle_syn(self, pkt: Packet, key: FlowKey, app_label: str,
                    redirect: Addr | None) -> None:
        tcp: TcpHeader = pkt.transport
        if self.upstream.active_handle_count() >= self.config.socket_budget:
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
            deferred_payload=pkt.payload,
        )
        self.flows[key] = flow
        self.counters["tcp_flows_created"] += 1
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
        if flow.state is TcpState.ESTABLISHED and tcp.seq == flow.app_isn:
            self._emit_syn_ack(flow)  # our SYN/ACK may have been lost

    def _emit_syn_ack(self, flow: TcpFlow) -> None:
        inv = flow.key.invert()
        self._emit(make_tcp_packet(
            src=inv.src, dst=inv.dst, seq=flow.local_isn,
            ack=seq_add(flow.app_isn, 1), flags=SYN | ACK,
            window=self._advertised_window(flow),
            options=mss_option(self._mss_to_app)))

    def _on_stream_event(self, flow: TcpFlow, event: str) -> None:
        if flow.state is TcpState.CLOSED:
            return
        flow.last_activity = self.scheduler.now_us()
        if event == EV_CONNECTED:
            if flow.state is not TcpState.UPSTREAM_CONNECTING:
                return
            flow.state = TcpState.ESTABLISHED
            flow.next_seq_to_app = seq_add(flow.local_isn, 1)
            flow.next_expected_from_app = seq_add(flow.app_isn, 1)
            flow.acked_by_app = flow.next_seq_to_app
            self._emit_syn_ack(flow)
            self._control_in_event(flow, SYN | ACK)
            if flow.deferred_payload:
                deferred, flow.deferred_payload = flow.deferred_payload, b""
                self._accept_app_bytes(flow, deferred)
            self._pump_flow(flow)
        elif event == EV_REFUSED:
            self.counters["tcp_refused_upstream"] += 1
            self._emit_rst(flow.key, seq_add(flow.app_isn, 1))
            self._close_tcp(flow, "refused")
        elif event in (EV_READABLE, EV_WRITABLE):
            self._pump_flow(flow)
        elif event == EV_EOF:
            flow.upstream_eof = True
            self._pump_flow(flow)
        elif event == EV_RESET:
            self._reset_flow(flow, "upstream_reset")

    def _handle_tcp_segment(self, flow: TcpFlow, pkt: Packet,
                            effective_payload: bytes) -> None:
        tcp: TcpHeader = pkt.transport
        flow.last_activity = self.scheduler.now_us()
        flow.app_window = tcp.window

        if tcp.has(RST):
            self.counters["tcp_flows_reset"] += 1
            self._close_tcp(flow, "reset_by_app")
            return

        if flow.state is TcpState.UPSTREAM_CONNECTING:
            # data racing ahead of our SYN/ACK; defer in order, drop the rest
            if pkt.payload and tcp.seq == seq_add(
                    flow.app_isn, 1 + len(flow.deferred_payload)):
                flow.deferred_payload += pkt.payload
            return

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
            fin_seq = seq_add(tcp.seq, len(pkt.payload))
            if flow.app_fin_seen:
                self._emit_tcp(flow, ACK)
            elif fin_seq == flow.next_expected_from_app:
                flow.app_fin_seen = True
                flow.next_expected_from_app = seq_add(flow.next_expected_from_app, 1)
                self._emit_tcp(flow, ACK)
                if flow.stream is not None and not flow.to_net:
                    flow.stream.half_close()
                if flow.state is TcpState.ESTABLISHED:
                    flow.state = TcpState.APP_FIN_WAIT
            else:
                self._emit_tcp(flow, ACK)  # out-of-order FIN

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
        if not flow.local_only \
                and len(flow.to_net) + len(payload) > self.config.buffer_capacity:
            # backpressure: withhold ACK advancement, app will retransmit
            self.counters["tcp_backpressure_stalls"] += 1
            self._emit_tcp(flow, ACK)
            return
        flow.next_expected_from_app = seq_add(flow.next_expected_from_app, advance)
        if flow.local_only:
            self._emit_tcp(flow, ACK)
            self._serve_injection(flow)
            return
        flow.to_net.extend(payload)
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
                event = PluginEvent(EventKind.PACKET_IN, payload=chunk)
                action = self.host.dispatch(EventKind.PACKET_IN, flow.key,
                                            flow.app_label, DIR_IN, event)
                block = action.block
                if block is not None:
                    self.counters["blocked_packets"] += 1
                    if block.mode is BlockMode.RESET_APP:
                        self._reset_flow(flow, "plugin")
                        return
                    continue  # silently dropped chunk
                flow.to_app.extend(action.payload)
                if action.modified:
                    self.counters["modified_packets"] += 1
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
            payload = bytes(flow.to_app[:n])
            self._emit_tcp(flow, PSH | ACK, payload=payload)
            flow.next_seq_to_app = seq_add(flow.next_seq_to_app, n)
            del flow.to_app[:n]

    def _send_fin(self, flow: TcpFlow) -> None:
        if flow.fin_sent:
            return
        self._emit_tcp(flow, FIN | ACK)
        flow.fin_sent = True
        flow.next_seq_to_app = seq_add(flow.next_seq_to_app, 1)
        if flow.state in (TcpState.ESTABLISHED, TcpState.UPSTREAM_FIN_WAIT):
            flow.state = TcpState.UPSTREAM_FIN_WAIT
        self._control_in_event(flow, FIN | ACK)

    def _maybe_finish(self, flow: TcpFlow) -> None:
        if flow.state is TcpState.CLOSED:
            return
        if flow.app_fin_seen and flow.fin_sent and flow.fin_acked:
            self.counters["tcp_flows_closed"] += 1
            self._close_tcp(flow, "teardown")

    def _serve_injection(self, flow: TcpFlow) -> None:
        if flow.inject_sent or not flow.inject_pending:
            return
        flow.inject_sent = True
        data = flow.inject_pending
        mss = flow.mss
        for i in range(0, len(data), mss):
            self._emit_tcp(flow, PSH | ACK, payload=data[i:i + mss])
            flow.next_seq_to_app = seq_add(flow.next_seq_to_app, len(data[i:i + mss]))
        self._send_fin(flow)
        self.counters["injected_responses"] += 1

    def _reset_flow(self, flow: TcpFlow, reason: str) -> None:
        if flow.state is TcpState.CLOSED:
            return
        self._emit_tcp(flow, RST | ACK)
        self.counters["tcp_flows_reset"] += 1
        self._close_tcp(flow, reason)

    def _close_tcp(self, flow: TcpFlow, reason: str) -> None:
        if flow.state is TcpState.CLOSED:
            return
        if flow.stream is not None:
            flow.stream.close()
            flow.stream = None
        flow.state = TcpState.CLOSED
        flow.to_app.clear()
        flow.to_net.clear()
        self._flow_close_event(flow.key, flow.app_label)

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

    def _apply_tcp_block(self, pkt: Packet, key: FlowKey, flow: TcpFlow | None,
                         block: Block, creating: bool) -> None:
        tcp: TcpHeader = pkt.transport
        self.counters["blocked_flow_opens" if creating else "blocked_packets"] += 1
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
        if flow is None:
            if not (tcp.has(SYN) and not tcp.has(ACK)):
                self._rst_for_orphan(pkt, key)
                return
            self._open_local_only(pkt, key, block.response)
            return
        self._inject_on_flow(flow, pkt, block.response)

    def _open_local_only(self, pkt: Packet, key: FlowKey, response: bytes) -> None:
        """Locally terminated flow used to deliver a notice: handshake is
        synthesized without ever opening an upstream handle."""
        tcp: TcpHeader = pkt.transport
        flow = TcpFlow(
            key=key, app_label="", state=TcpState.ESTABLISHED,
            app_isn=tcp.seq, local_isn=self._pick_isn(),
            effective_dst=key.dst,
            mss=self._clamp_mss(extract_mss(tcp.options)),
            app_window=tcp.window,
            last_activity=self.scheduler.now_us(),
            local_only=True, inject_pending=response,
        )
        flow.next_seq_to_app = seq_add(flow.local_isn, 1)
        flow.next_expected_from_app = seq_add(flow.app_isn, 1)
        flow.acked_by_app = flow.next_seq_to_app
        self.flows[key] = flow
        self.counters["tcp_flows_created"] += 1
        self._emit_syn_ack(flow)

    def _inject_on_flow(self, flow: TcpFlow, pkt: Packet, response: bytes) -> None:
        tcp: TcpHeader = pkt.transport
        flow.last_activity = self.scheduler.now_us()
        if tcp.has(ACK):
            self._note_app_ack(flow, tcp.ack)
        if flow.state is TcpState.UPSTREAM_CONNECTING:
            # cannot deliver a payload before establishment; fall back to reset
            self._emit_rst(flow.key, seq_add(flow.app_isn, 1))
            self._close_tcp(flow, "plugin")
            self.counters["tcp_flows_reset"] += 1
            return
        if pkt.payload and tcp.seq == flow.next_expected_from_app:
            flow.next_expected_from_app = seq_add(
                flow.next_expected_from_app, len(pkt.payload))
        self._emit_tcp(flow, ACK)
        if not flow.inject_sent:
            flow.inject_pending = flow.inject_pending or response
            if flow.stream is not None:
                flow.stream.close()
                flow.stream = None
                flow.local_only = True
            self._serve_injection(flow)
        if tcp.has(FIN) and not flow.app_fin_seen:
            fin_seq = seq_add(tcp.seq, len(pkt.payload))
            if fin_seq == flow.next_expected_from_app:
                flow.app_fin_seen = True
                flow.next_expected_from_app = seq_add(flow.next_expected_from_app, 1)
                self._emit_tcp(flow, ACK)
        self._maybe_finish(flow)

    # ----------------------------------------------------------- UDP path

    def _udp_ingress(self, pkt: Packet, key: FlowKey, app_label: str,
                     raw: bytes) -> None:
        flow = self.flows.get(key)
        creating = flow is None
        kind = EventKind.FLOW_OPEN if creating else EventKind.PACKET_OUT
        event = PluginEvent(kind, payload=pkt.payload, packet=pkt)
        action = self.host.dispatch(kind, key, app_label, DIR_OUT, event)

        block = action.block
        if block is not None:
            self.counters["blocked_flow_opens" if creating else "blocked_packets"] += 1
            if block.mode is BlockMode.INJECT_RESPONSE:
                inv = key.invert()
                self._emit(make_udp_packet(src=inv.src, dst=inv.dst,
                                           payload=block.response))
                self.counters["injected_responses"] += 1
            return
        self._record_forwarded(pkt, raw, action)

        if flow is None:
            redirect = action.redirect.dst if action.redirect else None
            if action.redirect:
                self.counters["redirected_flows"] += 1
            flow = self._open_udp_flow(key, app_label, redirect)
            if flow is None:
                return
        elif action.redirect is not None:
            self.counters["redirects_ignored"] += 1

        flow.last_activity = self.scheduler.now_us()
        payload = action.payload
        if flow.is_dns and len(payload) >= 2 and flow.shared_key is not None:
            txid = (payload[0] << 8) | payload[1]
            self._dns_shared[flow.shared_key].txid_to_key[txid] = key
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
                       is_dns=is_dns, shared_key=shared_key)
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
        txid = (data[0] << 8) | data[1]
        key = shared.txid_to_key.get(txid)
        flow = self.flows.get(key) if key is not None else None
        if not isinstance(flow, UdpFlow):
            self.counters["udp_inbound_unroutable"] += 1
            return
        self._deliver_udp(flow, data)

    def _deliver_udp(self, flow: UdpFlow, data: bytes) -> None:
        flow.last_activity = self.scheduler.now_us()
        event = PluginEvent(EventKind.PACKET_IN, payload=data)
        action = self.host.dispatch(EventKind.PACKET_IN, flow.key, flow.app_label,
                                    DIR_IN, event)
        block = action.block
        if block is not None:
            self.counters["blocked_packets"] += 1
            return
        if action.modified:
            self.counters["modified_packets"] += 1
        inv = flow.key.invert()
        self._emit(make_udp_packet(src=inv.src, dst=inv.dst, payload=action.payload))

    def _evict_udp(self, flow: UdpFlow, reason: str) -> None:
        if flow.shared_key is not None:
            shared = self._dns_shared.get(flow.shared_key)
            if shared is not None:
                shared.refs -= 1
                if shared.refs <= 0:
                    shared.handle.close()
                    del self._dns_shared[flow.shared_key]
        else:
            flow.handle.close()
        del self.flows[flow.key]
        if reason == "idle":
            self.counters["udp_flows_evicted_idle"] += 1
        elif reason == "pressure":
            self.counters["udp_flows_evicted_pressure"] += 1
        self._flow_close_event(flow.key, flow.app_label)

    # --------------------------------------------------------------- sweep

    def sweep(self, now_us: int | None = None) -> dict:
        """Evict idle UDP flows, drop Closed TCP entries, and relieve
        descriptor pressure by evicting least-recently-active UDP flows."""
        now = self.scheduler.now_us() if now_us is None else now_us
        evicted: list[str] = []
        removed: list[str] = []
        for flow in list(self.flows.values()):
            if isinstance(flow, UdpFlow):
                timeout = self.config.dns_timeout_us if flow.is_dns \
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

        report = {"ts_us": now, "evicted": evicted, "removed_closed": removed}
        if evicted or removed:
            self.eviction_reports.append(report)
        return report

    def _note_budget(self) -> None:
        active = self.upstream.active_handle_count()
        if active > self.counters["budget_high_water"]:
            self.counters["budget_high_water"] = active
