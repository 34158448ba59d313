"""Test harness: a model app-side TCP endpoint and an engine driver.

AppPeer is an independent implementation of correct client-side TCP
behavior (handshake, cumulative ACKs, go-back-N retransmission,
teardown) used as the oracle for the engine's proxy behavior: it talks
to the engine through the in-memory conduit exactly as an app stack
would talk through a tun device.
"""

from __future__ import annotations

import random

from mbz.clock import Scheduler
from mbz.conduit import InMemoryConduit
from mbz.engine import Engine, EngineConfig, seq_add
from mbz.host import PluginHost
from mbz.packet import (
    ACK, FIN, PSH, RST, SYN,
    flow_key_of, make_tcp_packet, mss_option, parse_packet, serialize_packet,
)
from mbz.upstream import SimEndpointScript, SimUpstream


def build_engine(scripts, config=None, host=None, seed=0):
    sched = Scheduler()
    conduit = InMemoryConduit(sched)
    upstream = SimUpstream(
        [SimEndpointScript.from_dict(s) if isinstance(s, dict) else s
         for s in scripts], sched, rng_seed=seed)
    host = host or PluginHost(sched, upstream=upstream)
    config = config or EngineConfig(local_isn=5000)
    engine = Engine(config, conduit, upstream, host, sched)
    return engine


def plugin_state(host: PluginHost, plugin_id: str) -> dict:
    """The plugin's entry in `host.plugin_states()`."""
    return next(s for s in host.plugin_states() if s["id"] == plugin_id)


class AppPeer:
    """Scripted app endpoint on the far side of the conduit."""

    def __init__(self, engine: Engine, src, dst, isn=1000, app_label="",
                 window=65535, mss=1460):
        self.engine = engine
        self.conduit = engine.conduit
        self.src = src
        self.dst = dst
        self.isn = isn
        self.app_label = app_label
        self.window = window
        self.mss = mss
        self.snd_nxt = seq_add(isn, 1)  # after SYN
        self.snd_una = seq_add(isn, 1)
        self.rcv_nxt = None
        self.established = False
        self.fin_sent = False
        self.fin_seq = None
        self.fin_acked = False
        self.engine_fin_seen = False
        self.reset_seen = False
        self.received = bytearray()
        self.data_packets = []  # (seq, payload) engine data segments
        self.packets_seen = []
        self.sent_log = bytearray()
        self._unacked = bytearray()
        self._refused = False
        self.last_window = 65535  # engine's most recently advertised window

    # -- actions -----------------------------------------------------------

    def _inject(self, pkt):
        self.conduit.inject(serialize_packet(pkt), app_label=self.app_label)

    def syn(self, payload=b""):
        self._inject(make_tcp_packet(
            self.src, self.dst, seq=self.isn, ack=0, flags=SYN,
            window=self.window, payload=payload, options=mss_option(self.mss)))

    def send(self, data: bytes, chunks=None):
        """Queue app payload; sent as segments once established."""
        self.sent_log.extend(data)
        self._unacked.extend(data)
        offsets = chunks or [self.mss] * ((len(data) + self.mss - 1) // self.mss)
        base = seq_add(self.snd_nxt, 0)
        pos = 0
        for size in offsets:
            chunk = data[pos:pos + size]
            if not chunk:
                break
            self._send_segment(seq_add(base, pos), chunk)
            pos += len(chunk)
        self.snd_nxt = seq_add(base, len(data))

    def _send_segment(self, seq, chunk):
        self._inject(make_tcp_packet(
            self.src, self.dst, seq=seq, ack=self.rcv_nxt or 0,
            flags=PSH | ACK, window=self.window, payload=chunk))

    def retransmit(self):
        """Go-back-N from the first unacknowledged byte, respecting the
        engine's advertised window."""
        if not self.unacked_bytes():
            return False
        start = self.snd_una
        limit = max(1, self.last_window)
        backlog = bytes(self._unacked[-self.unacked_bytes():])[:limit]
        pos = 0
        seg = min(self.mss, limit)
        while pos < len(backlog):
            chunk = backlog[pos:pos + seg]
            self._send_segment(seq_add(start, pos), chunk)
            pos += len(chunk)
        return True

    def unacked_bytes(self) -> int:
        d = (self.snd_nxt - self.snd_una) % (1 << 32)
        return d if not self.fin_sent else max(0, d - 1)

    def fin(self):
        self.fin_sent = True
        self.fin_seq = self.snd_nxt
        self._inject(make_tcp_packet(
            self.src, self.dst, seq=self.snd_nxt, ack=self.rcv_nxt or 0,
            flags=FIN | ACK, window=self.window))
        self.snd_nxt = seq_add(self.snd_nxt, 1)

    def rst(self):
        self._inject(make_tcp_packet(
            self.src, self.dst, seq=self.snd_nxt, ack=self.rcv_nxt or 0,
            flags=RST, window=0))

    def ack_now(self):
        self._inject(make_tcp_packet(
            self.src, self.dst, seq=self.snd_nxt, ack=self.rcv_nxt,
            flags=ACK, window=self.window))

    # -- reactions -----------------------------------------------------------

    def feed(self, pkt):
        """Handle one engine-emitted packet addressed to this peer."""
        tcp = pkt.transport
        self.packets_seen.append(pkt)
        self.last_window = tcp.window
        if tcp.has(RST):
            if self.established or not tcp.has(ACK):
                self.reset_seen = True
            else:
                self._refused = True
                self.reset_seen = True
            return
        if tcp.has(SYN) and tcp.has(ACK):
            if self.established:
                self.ack_now()  # duplicate SYN/ACK
                return
            assert tcp.ack == seq_add(self.isn, 1)
            self.rcv_nxt = seq_add(tcp.seq, 1)
            self.established = True
            self.ack_now()
            return
        if tcp.has(ACK):
            # ACK sanity: never beyond what this endpoint has sent
            # (SYN + in-order bytes + FIN)
            sent = (self.snd_nxt - self.isn) % (1 << 32)
            acked = (tcp.ack - self.isn) % (1 << 32)
            assert acked <= sent, f"engine over-acked: {acked} > {sent}"
            if ((tcp.ack - self.snd_una) % (1 << 32)) <= 2 ** 31 - 1:
                self.snd_una = tcp.ack
            if self.fin_sent and tcp.ack == seq_add(self.fin_seq, 1):
                self.fin_acked = True
        if pkt.payload:
            if tcp.seq == self.rcv_nxt:
                self.received.extend(pkt.payload)
                self.rcv_nxt = seq_add(self.rcv_nxt, len(pkt.payload))
                self.data_packets.append((tcp.seq, pkt.payload))
                self.ack_now()
            else:
                self.ack_now()  # engine should not reorder; dup-ack anyway
        if tcp.has(FIN):
            fin_at = seq_add(tcp.seq, len(pkt.payload))
            if fin_at == self.rcv_nxt:
                self.rcv_nxt = seq_add(self.rcv_nxt, 1)
                self.engine_fin_seen = True
                self.ack_now()

    @property
    def refused(self):
        return self._refused


class Driver:
    """Pumps the engine and routes emitted packets back to peers until
    the exchange is quiescent."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.conduit = engine.conduit
        self.peers: dict[tuple, AppPeer] = {}
        self.unrouted = []

    def add_peer(self, peer: AppPeer) -> AppPeer:
        self.peers[peer.src] = peer
        return peer

    def drive(self, max_rounds=200):
        for _ in range(max_rounds):
            self.engine.pump()
            emitted = self.conduit.take_emitted()
            if not emitted:
                return
            for _ts, data in emitted:
                pkt = parse_packet(data)
                if pkt.is_tcp or pkt.is_udp:
                    dst = (pkt.ip.dst_addr, pkt.transport.dst_port)
                    peer = self.peers.get(dst)
                    if peer is not None:
                        peer.feed(pkt)
                        continue
                self.unrouted.append(pkt)
        raise AssertionError("exchange did not quiesce")

    def drive_with_retransmits(self, peer: AppPeer, max_loops=50):
        self.drive()
        for _ in range(max_loops):
            if not (peer.established and peer.unacked_bytes()):
                return
            peer.retransmit()
            self.drive()
        raise AssertionError("retransmission did not converge")


def exchange(driver, peer, payload, chunks=None, ending="fin"):
    """Run one full app exchange; returns after teardown is quiescent."""
    peer.syn()
    driver.drive()
    assert peer.established or peer.refused or peer.reset_seen
    if not peer.established:
        return
    if payload:
        peer.send(payload, chunks=chunks)
        driver.drive_with_retransmits(peer)
    if ending == "fin":
        peer.fin()
        driver.drive()
    elif ending == "rst":
        peer.rst()
        driver.drive()


def random_chunks(rng: random.Random, total: int) -> list[int]:
    sizes = []
    left = total
    while left > 0:
        n = min(left, rng.randint(1, 1460))
        sizes.append(n)
        left -= n
    return sizes
