"""Flow engine: the middlebox core.

Owns per-flow state, terminates TCP toward the app (SYN/ACK synthesis,
sequence bookkeeping, teardown), proxies bytes to upstream streams,
forwards UDP NAT-style with inactivity timeouts, and keeps the upstream
handle count inside the descriptor budget with sweeps.

Everything runs on one event loop, `pump`, under either clock: conduit
packets, scheduler timers (upstream completions, plugin probes) and
sweeps are taken one at a time in time order, so no flow state is ever
touched concurrently. A sweep runs only when one is due: no timer
wakes the loop while nothing can expire.
"""

from __future__ import annotations

import enum
import functools
import random
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from . import dnswire
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

# module globals, read on every dispatch: reading an Enum member off its
# class takes about ten times as long on Python 3.11 (some 150 ns)
_FLOW_OPEN = EventKind.FLOW_OPEN
_PACKET_OUT = EventKind.PACKET_OUT
_PACKET_IN = EventKind.PACKET_IN
_FLOW_CLOSE = EventKind.FLOW_CLOSE
_DROP_SILENT = BlockMode.DROP_SILENT
_RESET_APP = BlockMode.RESET_APP
_INJECT_RESPONSE = BlockMode.INJECT_RESPONSE

_SYN_ACK = SYN | ACK
_FIN_ACK = FIN | ACK
_PSH_ACK = PSH | ACK
_RST_ACK = RST | ACK


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

    def __post_init__(self):
        for name in ("socket_budget", "udp_timeout_us", "dns_timeout_us",
                     "sweep_interval_us", "buffer_capacity"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # RFC 791's minimum datagram, and the most the total-length field holds
        if not 68 <= self.mtu <= 65535:
            raise ConfigError("mtu must be between 68 and 65535")
        if self.dns_timeout_us > self.udp_timeout_us:
            raise ConfigError("dns_timeout must not exceed udp_timeout")
        if self.local_isn is not None and not 0 <= self.local_isn < _SEQ_MOD:
            raise ConfigError("local_isn out of 32-bit range")


class TcpState(enum.Enum):
    UPSTREAM_CONNECTING = "upstream_connecting"
    ESTABLISHED = "established"
    CLOSED = "closed"


# the engine reads the states only through these (see `_FLOW_OPEN`)
_CONNECTING = TcpState.UPSTREAM_CONNECTING
_ESTABLISHED = TcpState.ESTABLISHED
_CLOSED = TcpState.CLOSED


@dataclass(slots=True)
class TcpFlow:
    """One proxied TCP flow. The engine builds it positionally, the cheaper
    call, in the order of the fields: the first twelve as the SYN sets
    them, the rest at their defaults."""
    key: FlowKey
    app_label: str
    state: TcpState
    app_isn: int
    local_isn: int
    effective_dst: Addr
    mss: int
    app_window: int
    # None on an open flow that a plugin's notice answers in the upstream's place
    stream: StreamHandle | None = None
    notice: bytes | None = None  # a plugin's answer, sent on the app's next segment
    # app bytes that came before our SYN/ACK, as the chain left them, and
    # how many bytes the app sent for them (what the ACK covers)
    deferred_payload: bytes = b""
    deferred_app_len: int = 0
    next_seq_to_app: int = 0
    next_expected_from_app: int = 0
    acked_by_app: int = 0
    to_app: bytearray = field(default_factory=bytearray)
    to_net: bytearray = field(default_factory=bytearray)
    app_fin_seen: bool = False
    fin_sent: bool = False
    fin_acked: bool = False
    upstream_eof: bool = False


@dataclass(slots=True)
class UdpFlow:
    key: FlowKey
    app_label: str
    effective_dst: Addr
    handle: DatagramHandle
    shared_key: tuple[str, Addr] | None = None  # set for DNS flows


@dataclass
class _SharedDatagram:
    """One upstream socket for the DNS flows from one app address to one
    resolver. Each query goes out under an id no other query on the
    socket holds, so its answer finds its flow: `ids` maps the id on the
    wire to (flow key, the app's id, the query's question) until the
    answer comes back or the flow is evicted, which bounds it to the
    65536 ids. An answer to another question under a held id (a late
    answer to an evicted flow's query) leaves the id held; a query whose
    question does not parse holds an empty one, which any answer fits.
    `held` is the reverse map, each flow's wire ids, with an entry only
    while the flow holds one."""
    handle: DatagramHandle
    refs: int = 0
    ids: dict[int, tuple[FlowKey, int, bytes]] = field(default_factory=dict)
    held: dict[FlowKey, set[int]] = field(default_factory=dict)

    def claim_id(self, key: FlowKey, app_id: int, question: bytes) -> int | None:
        """The app's own id if free (or already this query's), else the
        next free one; None when every id awaits an answer."""
        holder = (key, app_id, question)
        for n in range(0x10000):
            wire_id = (app_id + n) & 0xFFFF
            if self.ids.setdefault(wire_id, holder) == holder:
                held = self.held.get(key)
                if held is None:
                    held = self.held[key] = set()
                held.add(wire_id)
                return wire_id
        return None

    def release_id(self, wire_id: int) -> None:
        """Free an answered id."""
        key = self.ids.pop(wire_id)[0]
        ids = self.held[key]
        ids.discard(wire_id)
        if not ids:
            del self.held[key]

    def release_flow(self, key: FlowKey) -> None:
        """Free every id an evicted flow holds."""
        for wire_id in self.held.pop(key, ()):
            del self.ids[wire_id]


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
                 scheduler: Scheduler, sink=None, events=None):
        self.config = config
        self.conduit = conduit
        self.upstream = upstream
        self.host = host
        self.scheduler = scheduler
        self.flows: dict[FlowKey, TcpFlow | UdpFlow] = {}
        self.counters: dict[str, int] = dict.fromkeys(_COUNTER_KEYS, 0)
        # where the owner records packets, if anywhere: any object with
        # `.append((ts_us, data))` (a replay's pcap spool, a test's list) gets
        # every app packet the chain passed (even one the engine then refuses
        # or answers itself) and every packet the engine wrote toward the app
        self.sink = sink
        # where the owner logs the run's events, if anywhere: any object with
        # `.append(record)` (a replay's event spool, a test's list) gets a
        # record for each sweep that evicted or removed a flow
        self.events = events
        self._dns_shared: dict[tuple[str, Addr], _SharedDatagram] = {}
        # each UDP flow's last activity, oldest first: plain UDP, then DNS
        self._activity: tuple[OrderedDict[FlowKey, int], ...] = (OrderedDict(), OrderedDict())
        self._closed: list[TcpFlow] = []  # closed since the last sweep
        self._grid = scheduler.reached_us + config.sweep_interval_us  # sweep grid's lower bound
        # read on every segment: segments toward the app must fit the
        # interface's MTU whatever MSS the app's SYN claimed, and every
        # SYN/ACK carries the same MSS option
        self._mtu = config.mtu
        self._mss_clamp = config.mtu - 40
        self._syn_ack_options = mss_option(min(1460, self._mss_clamp))
        # the host's probes open through the same gate, bound to a proxy so
        # that the host keeps no reference cycle back to the engine
        host.open_datagram = functools.partial(Engine._open, weakref.proxy(self))

    # ------------------------------------------------------------------ run

    def run(self) -> dict[str, int]:
        """`pump`, kept going while a sweep is due, then the shutdown that
        closes every flow still open. Returns the counters."""
        self.pump()
        while self._sweep_before(None):
            self.pump()
        self._shutdown()
        return dict(self.counters)

    def _shutdown(self) -> None:
        """Close every flow still open, then sweep them away."""
        for flow in list(self.flows.values()):
            if isinstance(flow, TcpFlow):
                self._close_tcp(flow, "shutdown")
            else:
                self._evict_udp(flow, "shutdown")
        self.sweep()

    def pump(self) -> None:
        """The engine's one loop, under either clock: each step takes the
        earliest of the next app packet, the next timer and the next sweep
        (`_sweep_before`), in that order at equal times, once the clock is at
        its time (`Scheduler.advance_to`). Returns once no packet and no timer
        is left, leaving a sweep still due for a later call."""
        sched, conduit, timers = self.scheduler, self.conduit, self.scheduler.timers
        t_pkt = conduit.next_ready_us()  # changed by reading a packet only
        while timers or t_pkt is not None:
            if timers and (t_pkt is None or timers[0][0] < t_pkt):
                t_evt = timers[0][0]
                if self._grid < t_evt and self._sweep_before(t_evt):
                    continue
                sched.step()
            else:
                if self._grid < t_pkt and self._sweep_before(t_pkt):
                    continue
                if t_pkt > sched.reached_us:
                    sched.advance_to(t_pkt)
                self.on_app_packet(*conduit.read_packet())
                t_pkt = conduit.next_ready_us()

    def _sweep_before(self, t_next: int | None) -> bool:
        """Sweep, behind a governor tick, at the first grid point after the last
        sweep and at or after `_sweep_due_us` if it comes before `t_next` (None:
        no work is left), and return True; else move the grid's lower bound up."""
        grid, interval = self._grid, self.config.sweep_interval_us
        due = self._sweep_due_us(t_next is not None)
        if due is not None:
            t_sweep = max(grid, due + (grid - due) % interval)
            if t_next is None or t_sweep < t_next:
                self.scheduler.advance_to(t_sweep)
                self.host.governor_tick()
                self.sweep()
                self._grid = t_sweep + interval
                return True
        if t_next is not None:
            self._grid = t_next + (grid - t_next) % interval
        return False

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
        if key.protocol == PROTO_TCP:
            self._tcp_ingress(pkt, key, app_label, data)
        else:
            self._udp_ingress(pkt, key, app_label, data)

    def _offer_out(self, pkt: Packet, key: FlowKey, app_label: str, raw: bytes,
                   flow: TcpFlow | UdpFlow | None, creating: bool) -> EffectiveAction | None:
        """Run the chain over an app packet: FLOW_OPEN when it opens a
        flow, else PACKET_OUT. Counts a block; otherwise records the packet
        in the sink, even one the engine then refuses or answers with an
        RST, and counts a redirect, honoured only on an open. None, as
        from `dispatch`, when the packet goes on untouched."""
        kind = _FLOW_OPEN if creating else _PACKET_OUT
        tcp_flags = tcp_seq = None
        if key.protocol == PROTO_TCP:
            tcp_flags, tcp_seq = pkt.transport.flags, pkt.transport.seq
        action = self.host.dispatch(kind, key, app_label, pkt.payload, tcp_flags, tcp_seq)
        if action is not None:
            if action.block is not None:
                self.counters["blocked_flow_opens" if creating else "blocked_packets"] += 1
                return action
            if action.modified:
                self.counters["modified_packets"] += 1
                rebuilt = Packet(ip=pkt.ip, transport=pkt.transport, payload=action.payload)
                try:
                    raw = serialize_packet(rebuilt, self._mtu)
                except OversizedPacket:
                    raw = None  # forwarded upstream anyway; just not capturable
            if action.redirect is not None:
                if creating:
                    self.counters["redirected_flows"] += 1
                elif flow is not None:
                    self.counters["redirects_ignored"] += 1
        if raw is not None and self.sink is not None:
            self.sink.append((self.scheduler.now_us(), raw))
        return action

    def _offer_in(self, flow: TcpFlow | UdpFlow, payload: bytes) -> EffectiveAction | None:
        """Run the chain over bytes from upstream; counts a block or a
        rewrite. None, as from `dispatch`, when the bytes go on untouched."""
        action = self.host.dispatch(_PACKET_IN, flow.key, flow.app_label, payload)
        if action is not None:
            if action.block is not None:
                self.counters["blocked_packets"] += 1
            elif action.modified:
                self.counters["modified_packets"] += 1
        return action

    # --------------------------------------------------------------- emit

    # what the engine writes toward the app on a flow: one packet per
    # protocol, stamped with the flow's inverted addresses and ports and
    # the rest of the header before each write; each is built at its first
    # use, so a stack that writes nothing never builds it
    @functools.cached_property
    def _tcp_out(self) -> Packet:
        return make_tcp_packet(("0.0.0.0", 0), ("0.0.0.0", 0), 0, 0, 0)

    @functools.cached_property
    def _udp_out(self) -> Packet:
        return make_udp_packet(("0.0.0.0", 0), ("0.0.0.0", 0))

    def _emit(self, pkt: Packet) -> None:
        try:
            data = serialize_packet(pkt, self._mtu)
        except OversizedPacket:
            # nothing sensible to do at the tun boundary but drop
            self.counters["emit_oversized_dropped"] += 1
            return
        self.conduit.write_packet(data)
        if self.sink is not None:
            self.sink.append((self.scheduler.now_us(), data))

    def _emit_tcp(self, flow: TcpFlow, flags: int, payload: bytes = b"",
                  seq: int | None = None, ack: int | None = None,
                  options: bytes = b"") -> None:
        """A segment on the engine's outbound TCP packet, stamped with the
        flow's addresses and ports; seq and ack default to the flow's next
        byte toward the app and from it. Callers pass every argument by
        position, the cheaper call."""
        out = self._tcp_out
        ip, tcp = out.ip, out.transport
        # the key runs app to network; the segment the other way
        _, (ip.dst_addr, tcp.dst_port), (ip.src_addr, tcp.src_port) = flow.key
        tcp.seq = flow.next_seq_to_app if seq is None else seq
        tcp.ack = flow.next_expected_from_app if ack is None else ack
        tcp.flags = flags
        # the window advertises the spare room for app payload (to_net)
        room = self.config.buffer_capacity - len(flow.to_net)
        tcp.window = 0 if room < 0 else 65535 if room > 65535 else room
        tcp.options = options
        out.payload = payload
        self._emit(out)

    def _emit_rst(self, key: FlowKey, ack: int, seq: int = 0,
                  flags: int = _RST_ACK) -> None:
        """Reset toward the app from outside any flow's sequence space."""
        self._emit(make_tcp_packet(key.dst, key.src, seq, ack, flags, 0))

    # ----------------------------------------------------------- TCP path

    def _tcp_ingress(self, pkt: Packet, key: FlowKey, app_label: str,
                     raw: bytes) -> None:
        tcp: TcpHeader = pkt.transport
        flow = self.flows.get(key)
        if isinstance(flow, TcpFlow) and flow.state is _CLOSED:
            # no resurrection: nothing is emitted for a closed flow
            self.counters["closed_flow_drops"] += 1
            return
        syn_only = (tcp.flags & (SYN | ACK)) == SYN
        creating = flow is None and syn_only
        action = self._offer_out(pkt, key, app_label, raw, flow, creating)
        payload, redirect = pkt.payload, None
        if action is not None:
            if action.block is not None:
                self._apply_tcp_block(pkt, key, app_label, flow, action.block, creating)
                return
            payload = action.payload
            redirect = action.redirect and action.redirect.dst
        if creating:
            self._handle_syn(pkt, key, app_label, payload, redirect)
        elif flow is None:
            self._rst_for_orphan(pkt, key)
        elif syn_only:
            self._handle_dup_syn(flow, tcp)
        else:
            self._handle_tcp_segment(flow, pkt, payload)

    def _handle_syn(self, pkt: Packet, key: FlowKey, app_label: str, payload: bytes,
                    redirect: Addr | None, notice: bytes | None = None) -> None:
        """Open a flow toward upstream, or, given a plugin's notice, a flow
        that answers with the notice and needs no upstream handle."""
        tcp: TcpHeader = pkt.transport
        effective_dst = redirect or key.dst
        stream = None
        if notice is None:
            stream = self._open(effective_dst)
            if stream is None:
                self.counters["tcp_refused_budget"] += 1
                self._emit_rst(key, (tcp.seq + 1) % _SEQ_MOD)
                return
        sent = len(pkt.payload)
        flow = TcpFlow(key, app_label, _CONNECTING, tcp.seq, self._pick_isn(), effective_dst,
                       min(extract_mss(tcp.options) or 1460, self._mss_clamp), tcp.window,
                       stream, notice, payload if sent else b"", sent)
        self.flows[key] = flow
        self.counters["tcp_flows_created"] += 1
        if stream is None:
            self._establish(flow)
            return
        stream.set_callback(functools.partial(Engine._on_stream_event, self, flow))

    @functools.cached_property
    def _rng(self) -> random.Random:
        # seeded at the first draw, so a run with a fixed ISN never builds it
        return random.Random(self.config.seed)

    def _pick_isn(self) -> int:
        if self.config.local_isn is not None:
            return self.config.local_isn
        return self._rng.getrandbits(32)

    def _handle_dup_syn(self, flow: TcpFlow, tcp: TcpHeader) -> None:
        self.counters["tcp_dup_syn"] += 1  # retransmit absorbed
        if flow.state is _ESTABLISHED and not (flow.app_fin_seen or flow.fin_sent) \
                and tcp.seq == flow.app_isn:
            self._emit_syn_ack(flow)  # our SYN/ACK may have been lost

    def _emit_syn_ack(self, flow: TcpFlow) -> None:
        self._emit_tcp(flow, _SYN_ACK, b"", flow.local_isn, (flow.app_isn + 1) % _SEQ_MOD,
                       self._syn_ack_options)

    def _on_stream_event(self, flow: TcpFlow, event: str) -> None:
        state = flow.state
        if state is _CLOSED:
            return
        if event == EV_CONNECTED:
            if state is _CONNECTING:
                self._establish(flow)
        elif event == EV_REFUSED:
            self._reset_flow(flow, "refused")
        elif event == EV_READABLE or event == EV_WRITABLE:
            self._pump_flow(flow)
        elif event == EV_EOF:
            flow.upstream_eof = True
            self._pump_flow(flow)
        elif event == EV_RESET:
            self._reset_flow(flow, "upstream_reset")

    def _establish(self, flow: TcpFlow) -> None:
        """Answer the app's SYN once the flow has somewhere to go: a
        connected upstream, or a plugin's notice in its place."""
        flow.state = _ESTABLISHED
        flow.next_seq_to_app = (flow.local_isn + 1) % _SEQ_MOD
        flow.next_expected_from_app = (flow.app_isn + 1) % _SEQ_MOD
        flow.acked_by_app = flow.next_seq_to_app
        self._emit_syn_ack(flow)
        # the engine's own control packets are observable, not actionable
        self.host.dispatch(_PACKET_IN, flow.key, flow.app_label, b"", _SYN_ACK)
        if flow.deferred_app_len:
            deferred, sent = flow.deferred_payload, flow.deferred_app_len
            flow.deferred_payload, flow.deferred_app_len = b"", 0
            self._accept_app_bytes(flow, deferred, sent)
        self._pump_flow(flow)

    def _handle_tcp_segment(self, flow: TcpFlow, pkt: Packet,
                            effective_payload: bytes) -> None:
        tcp: TcpHeader = pkt.transport
        flags = tcp.flags

        if flags & RST:
            self._close_tcp(flow, "reset_by_app")
            return

        if flow.state is _CONNECTING:
            # data racing ahead of our SYN/ACK: defer in order while it fits
            # the buffer, drop the rest; the app retransmits after the SYN/ACK
            flow.app_window = tcp.window
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

        if flags & ACK:
            ack = tcp.ack
            if 0 < (ack - flow.next_seq_to_app) % _SEQ_MOD < 1 << 31:
                # RFC 9293 section 3.10.7.4: an ACK of bytes never sent is
                # answered with an ACK, and its window, data and FIN unused
                self._emit_tcp(flow, ACK)
                return
            if 0 < (ack - flow.acked_by_app) % _SEQ_MOD < 1 << 31:
                flow.acked_by_app = ack
            if flow.fin_sent and ack == flow.next_seq_to_app:
                flow.fin_acked = True
                self._maybe_finish(flow)
        flow.app_window = tcp.window

        if flow.notice is not None:
            self._answer_with_notice(flow)

        if pkt.payload:
            if tcp.seq == flow.next_expected_from_app:
                self._accept_app_bytes(flow, effective_payload, len(pkt.payload))
            else:
                if seq_diff(tcp.seq, flow.next_expected_from_app) < 0:
                    self.counters["tcp_retransmissions"] += 1
                else:
                    self.counters["tcp_out_of_order_dropped"] += 1
                self._emit_tcp(flow, ACK)  # duplicate ACK, app will retransmit

        if flags & FIN:
            if not flow.app_fin_seen \
                    and (tcp.seq + len(pkt.payload)) % _SEQ_MOD == flow.next_expected_from_app:
                flow.app_fin_seen = True
                flow.next_expected_from_app = (flow.next_expected_from_app + 1) % _SEQ_MOD
                self._emit_tcp(flow, ACK)
                if flow.stream is not None and not flow.to_net:
                    flow.stream.half_close()
            else:
                self._emit_tcp(flow, ACK)  # a repeated or out-of-order FIN

        self._pump_flow(flow)

    def _accept_app_bytes(self, flow: TcpFlow, payload: bytes, advance: int) -> None:
        """In-order app payload: queue toward upstream and ACK it. The ACK
        advances over the `advance` bytes the app sent, even if a plugin
        rewrote them."""
        if flow.stream is not None:  # a notice flow drops what the app sends
            if len(flow.to_net) + len(payload) > self.config.buffer_capacity:
                # backpressure: withhold ACK advancement, app will retransmit
                self.counters["tcp_backpressure_stalls"] += 1
                self._emit_tcp(flow, ACK)
                return
            flow.to_net.extend(payload)
        flow.next_expected_from_app = (flow.next_expected_from_app + advance) % _SEQ_MOD
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
        """Move what can move: app bytes to upstream, upstream bytes through
        the chain toward the app, then our FIN and the close. Each helper
        is called only when it has work."""
        if flow.state is not _ESTABLISHED:
            return
        if flow.to_net:
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
                if action is None:
                    flow.to_app.extend(chunk)
                elif action.block is None:
                    flow.to_app.extend(action.payload)
                elif action.block.mode is _RESET_APP:
                    self._reset_flow(flow, "plugin")
                    return
        if flow.to_app:
            self._send_data_to_app(flow)
        if flow.upstream_eof and not flow.to_app and not flow.fin_sent \
                and (stream is None or (not stream.readable_bytes() and stream.at_eof())):
            self._send_fin(flow)
        if flow.fin_acked:
            self._maybe_finish(flow)

    def _send_data_to_app(self, flow: TcpFlow) -> None:
        while flow.to_app:
            # never negative: an ACK past what was sent is dropped unused
            allowed = flow.app_window - (flow.next_seq_to_app - flow.acked_by_app) % _SEQ_MOD
            if allowed <= 0:
                break
            n = min(len(flow.to_app), flow.mss, allowed)
            self._emit_tcp(flow, _PSH_ACK, flow.to_app[:n])
            flow.next_seq_to_app = (flow.next_seq_to_app + n) % _SEQ_MOD
            del flow.to_app[:n]

    def _send_fin(self, flow: TcpFlow) -> None:
        if flow.fin_sent:
            return
        self._emit_tcp(flow, _FIN_ACK)
        flow.fin_sent = True
        flow.next_seq_to_app = (flow.next_seq_to_app + 1) % _SEQ_MOD
        self.host.dispatch(_PACKET_IN, flow.key, flow.app_label, b"", _FIN_ACK)

    def _maybe_finish(self, flow: TcpFlow) -> None:
        if flow.state is _CLOSED:
            return
        if flow.app_fin_seen and flow.fin_sent and flow.fin_acked:
            self._close_tcp(flow, "teardown")

    def _reset_flow(self, flow: TcpFlow, reason: str) -> None:
        state = flow.state
        if state is _CLOSED:
            return
        if state is _CONNECTING:
            # the app is in SYN-SENT and accepts only a reset that acks its SYN
            self._emit_rst(flow.key, (flow.app_isn + 1) % _SEQ_MOD)
        else:
            self._emit_tcp(flow, _RST_ACK)
        self._close_tcp(flow, reason)

    def _close_tcp(self, flow: TcpFlow, reason: str) -> None:
        if flow.state is _CLOSED:
            return
        self.counters[_CLOSE_COUNTERS.get(reason, "tcp_flows_reset")] += 1
        if flow.stream is not None:
            flow.stream.close()
            flow.stream = None
        flow.state = _CLOSED
        self._closed.append(flow)
        flow.to_app.clear()
        flow.to_net.clear()
        self.host.dispatch(_FLOW_CLOSE, flow.key, flow.app_label)

    def _rst_for_orphan(self, pkt: Packet, key: FlowKey) -> None:
        """Standard endpoint behavior: a segment with no matching state
        elicits a reset."""
        self.counters["tcp_rst_no_state"] += 1
        self._rst_for_segment(pkt, key)

    def _rst_for_segment(self, pkt: Packet, key: FlowKey) -> None:
        """The reset RFC 9293 section 3.10.7.1 answers a segment with: its
        ack as our seq if it has ACK set, else an ack of all it holds."""
        tcp: TcpHeader = pkt.transport
        if tcp.flags & ACK:
            self._emit_rst(key, 0, seq=tcp.ack, flags=RST)
        else:
            self._emit_rst(key, seq_add(tcp.seq, len(pkt.payload)
                                        + (1 if tcp.flags & SYN else 0)
                                        + (1 if tcp.flags & FIN else 0)))

    def _apply_tcp_block(self, pkt: Packet, key: FlowKey, app_label: str,
                         flow: TcpFlow | None, block: Block, creating: bool) -> None:
        mode = block.mode
        if mode is _DROP_SILENT:
            return
        if mode is _RESET_APP:
            if flow is not None:
                self._reset_flow(flow, "plugin")
            else:
                self._rst_for_segment(pkt, key)
            return
        # inject response
        if flow is not None:
            self._inject_on_flow(flow, pkt, block.response)
        elif creating:
            self._handle_syn(pkt, key, app_label, pkt.payload, None, notice=block.response)
        else:
            self._rst_for_orphan(pkt, key)

    def _inject_on_flow(self, flow: TcpFlow, pkt: Packet, notice: bytes) -> None:
        if flow.state is _CONNECTING:
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
        payload, redirect = pkt.payload, None
        if action is not None:
            block = action.block
            if block is not None:
                if block.mode is _INJECT_RESPONSE:
                    self._emit(make_udp_packet(key.dst, key.src, block.response))
                    self.counters["injected_responses"] += 1
                return
            payload = action.payload
            redirect = action.redirect and action.redirect.dst
        if flow is None:
            flow = self._open_udp_flow(key, app_label, redirect)
            if flow is None:
                return

        self._touch(flow)
        if flow.shared_key is not None and len(payload) >= 2:
            wire_id = self._dns_shared[flow.shared_key].claim_id(
                key, int.from_bytes(payload[:2], "big"),
                payload[12:dnswire.question_end(payload)])
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
            handle = self._open()
            if handle is None:
                self.counters["udp_refused_budget"] += 1
                return None
            if is_dns:
                shared = _SharedDatagram(handle, 1)
                self._dns_shared[shared_key] = shared
                handle.set_callback(functools.partial(Engine._on_dns_datagram, self, shared_key))
            else:
                handle.set_callback(functools.partial(Engine._on_udp_datagram, self, key))
        flow = UdpFlow(key, app_label, effective_dst, handle, shared_key)
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
        wire_id = int.from_bytes(data[:2], "big")
        holder = shared.ids.get(wire_id)
        if holder is None or holder[2] and holder[2] != data[12:dnswire.question_end(data)]:
            self.counters["udp_inbound_unroutable"] += 1
            return
        shared.release_id(wire_id)
        flow = self.flows.get(holder[0])
        if not isinstance(flow, UdpFlow):
            self.counters["udp_inbound_unroutable"] += 1
            return
        self._deliver_udp(flow, holder[1].to_bytes(2, "big") + data[2:])

    def _touch(self, flow: UdpFlow) -> None:
        order = self._activity[flow.shared_key is not None]
        order[flow.key] = self.scheduler.now_us()
        order.move_to_end(flow.key)

    def _deliver_udp(self, flow: UdpFlow, data: bytes) -> None:
        """A datagram toward the app on the engine's outbound UDP packet,
        stamped with the flow's addresses and ports."""
        self._touch(flow)
        action = self._offer_in(flow, data)
        if action is not None:
            if action.block is not None:
                return
            data = action.payload
        out = self._udp_out
        ip, udp = out.ip, out.transport
        _, (ip.dst_addr, udp.dst_port), (ip.src_addr, udp.src_port) = flow.key
        out.payload = data
        self._emit(out)

    def _evict_udp(self, flow: UdpFlow, reason: str) -> None:
        if flow.shared_key is not None:
            shared = self._dns_shared.get(flow.shared_key)
            if shared is not None:
                shared.refs -= 1
                if shared.refs <= 0:
                    shared.handle.close()
                    del self._dns_shared[flow.shared_key]
                else:
                    shared.release_flow(flow.key)
        else:
            flow.handle.close()
        del self.flows[flow.key], self._activity[flow.shared_key is not None][flow.key]
        if reason == "idle":
            self.counters["udp_flows_evicted_idle"] += 1
        elif reason == "pressure":
            self.counters["udp_flows_evicted_pressure"] += 1
        self.host.dispatch(_FLOW_CLOSE, flow.key, flow.app_label)

    # --------------------------------------------------------------- sweep

    def sweep(self) -> None:
        """Evict idle UDP flows, drop Closed TCP entries, and relieve
        descriptor pressure by evicting least-recently-active UDP flows."""
        now = self.scheduler.now_us()
        evicted: list[FlowKey] = []
        for order, timeout in zip(self._activity, (self.config.udp_timeout_us,
                                                   self.config.dns_timeout_us)):
            while order and now - next(iter(order.values())) > timeout:
                key = next(iter(order))
                self._evict_udp(self.flows[key], "idle")
                evicted.append(key)
        closed, self._closed = self._closed, []
        for flow in closed:
            del self.flows[flow.key]

        while self._over_pressure() and any(self._activity):
            # the older front; on a tie, plain UDP's
            order = min(filter(None, self._activity), key=lambda o: next(iter(o.values())))
            key = next(iter(order))
            self._evict_udp(self.flows[key], "pressure")
            evicted.append(key)

        # keys are formatted only for a log that keeps them
        if (evicted or closed) and self.events is not None:
            self.events.append({"event": "eviction", "ts_us": now,
                                "evicted": [str(key) for key in evicted],
                                "removed_closed": [str(flow.key) for flow in closed]})

    def _sweep_due_us(self, busy: bool) -> int | None:
        """The earliest time a sweep could act, or None: now while closed
        TCP flows wait for removal, while the handle count is over the
        pressure threshold with a UDP flow to evict, and, while `busy`
        (packets or timers remain), while a plugin reports its memory to
        the governor; else the first time an activity order's front is
        past its timeout. The handle count is the upstream's, read each
        time: a probe's handle opens through `_open` but closes inside the
        host, where the engine does not see it."""
        activity = self._activity
        if self._closed or (busy and self.host.memory_sampled) or (
                any(activity) and self._over_pressure()):
            return self.scheduler.now_us()
        timeouts = (self.config.udp_timeout_us, self.config.dns_timeout_us)
        return min((next(iter(order.values())) + timeout + 1
                    for order, timeout in zip(activity, timeouts) if order), default=None)

    def _over_pressure(self) -> bool:
        """Whether the upstream's handle count is over 90 % of `socket_budget`."""
        return self.upstream.active_handle_count() > 0.9 * self.config.socket_budget

    def _open(self, dst: Addr | None = None) -> StreamHandle | DatagramHandle | None:
        """The one gate for upstream handles, the host's probes' too: a
        stream to `dst`, or a datagram handle when `dst` is None; None,
        opening nothing, while `socket_budget` handles are open. Keeps
        `budget_high_water`."""
        upstream = self.upstream
        if upstream.active_handle_count() >= self.config.socket_budget:
            return None
        handle = upstream.open_datagram() if dst is None else upstream.open_stream(dst)
        active = upstream.active_handle_count()
        if active > self.counters["budget_high_water"]:
            self.counters["budget_high_water"] = active
        return handle
