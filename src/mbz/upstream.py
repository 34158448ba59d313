"""Network-side upstream abstraction and the scripted simulator.

The engine talks to the upstream world through stream/datagram handles
whose completion events arrive on the shared scheduler, one at a time.
SimUpstream implements the contract against per-destination scripts
(echo, static response, DNS responder, blackhole, reset-on-connect) so
the whole middlebox runs unprivileged and deterministically.
"""

from __future__ import annotations

import functools
import ipaddress
import random
from dataclasses import dataclass, field

from . import dnswire
from .clock import Scheduler

Addr = tuple[str, int]

# stream events delivered to the engine callback
EV_CONNECTED = "connected"
EV_REFUSED = "refused"
EV_READABLE = "readable"
EV_WRITABLE = "writable"
EV_EOF = "eof"
EV_RESET = "reset"

BEHAVIOR_ECHO = "echo"
BEHAVIOR_STATIC = "static"
BEHAVIOR_DNS = "dns"
BEHAVIOR_BLACKHOLE = "blackhole"
BEHAVIOR_RESET = "reset"

BEHAVIORS = (BEHAVIOR_ECHO, BEHAVIOR_STATIC, BEHAVIOR_DNS,
             BEHAVIOR_BLACKHOLE, BEHAVIOR_RESET)


class OverlappingScripts(Exception):
    pass


@dataclass
class SimEndpointScript:
    """One scripted endpoint: an address match plus a behavior.

    `ports` of None matches any port. `delay_us` is the one-way
    propagation delay; `jitter_us` adds a seeded random extra.
    `recv_window` caps how many bytes the endpoint will buffer before
    the sender must wait (None = unlimited), used to exercise
    backpressure. `tamper` optionally rewrites DNS answers:
    {"override": {name: [ips]}, "nxdomain_to": [ips], "drop": [names]}.
    """

    network: ipaddress.IPv4Network
    ports: frozenset[int] | None
    behavior: str
    delay_us: int = 0
    jitter_us: int = 0
    response: bytes = b""
    answers: dict[str, list[str]] = field(default_factory=dict)
    tamper: dict = field(default_factory=dict)
    recv_window: int | None = None

    def matches(self, addr: Addr) -> bool:
        ip, port = addr
        if self.ports is not None and port not in self.ports:
            return False
        return ipaddress.IPv4Address(ip) in self.network

    def overlaps(self, other: "SimEndpointScript") -> bool:
        if not self.network.overlaps(other.network):
            return False
        if self.ports is None or other.ports is None:
            return True
        return bool(self.ports & other.ports)


@dataclass(slots=True)
class StreamTranscript:
    """Byte-level record of one simulated stream, for test oracles."""
    dst: Addr
    received: bytearray = field(default_factory=bytearray)  # endpoint got these
    saw_eof: bool = False


class UpstreamNetwork:
    """Contract: open handles toward remote endpoints; all completion
    and data events are delivered serially via the scheduler."""

    def open_stream(self, dst: Addr) -> "StreamHandle":
        raise NotImplementedError

    def open_datagram(self) -> "DatagramHandle":
        raise NotImplementedError

    def active_handle_count(self) -> int:
        raise NotImplementedError


class StreamHandle:
    __slots__ = ()

    def set_callback(self, cb) -> None:
        raise NotImplementedError

    def send(self, data: bytes) -> int:
        raise NotImplementedError

    def recv(self, max_bytes: int) -> bytes:
        raise NotImplementedError

    def readable_bytes(self) -> int:
        raise NotImplementedError

    def at_eof(self) -> bool:
        raise NotImplementedError

    def half_close(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class DatagramHandle:
    __slots__ = ()

    def set_callback(self, cb) -> None:
        raise NotImplementedError

    def send_to(self, addr: Addr, data: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _SimStream(StreamHandle):
    # slotted, one per open TCP flow; `__dict__` stays, created only when
    # something sets an attribute of its own on one handle (a tracer that
    # wraps its methods)
    __slots__ = ("_net", "_script", "_cb", "_to_engine", "_eof_pending",
                 "_engine_half_closed", "_endpoint_closed_write", "_static_responded",
                 "_capacity", "closed", "transcript", "__dict__")

    def __init__(self, net: "SimUpstream", dst: Addr, script: SimEndpointScript | None):
        self._net = net
        self._script = script
        self._cb = None
        self._to_engine = bytearray()
        self._eof_pending = False
        self._engine_half_closed = False
        self._endpoint_closed_write = False
        self._static_responded = False
        self._capacity = script.recv_window if script else None
        self.closed = False
        self.transcript = StreamTranscript(dst)
        net.transcripts.append(self.transcript)
        self._start()

    # -- engine-facing ----------------------------------------------------

    def set_callback(self, cb) -> None:
        self._cb = cb

    def send(self, data: bytes) -> int:
        if self.closed or self._engine_half_closed:
            return 0
        behavior = self._script.behavior if self._script else BEHAVIOR_BLACKHOLE
        if behavior == BEHAVIOR_BLACKHOLE:
            return len(data)  # swallowed
        n = len(data)
        if self._capacity is not None:
            n = min(n, self._capacity)
            self._capacity -= n
        if n > 0:
            chunk = bytes(data[:n])
            self._net._later(self._script, lambda: self._endpoint_on_data(chunk))
        return n

    def recv(self, max_bytes: int) -> bytes:
        buf = self._to_engine
        if len(buf) <= max_bytes:  # drained with one copy
            out = bytes(buf)
            buf.clear()
        else:
            out = bytes(buf[:max_bytes])
            del buf[:max_bytes]
        return out

    def readable_bytes(self) -> int:
        return len(self._to_engine)

    def at_eof(self) -> bool:
        return self._eof_pending and not self._to_engine

    def half_close(self) -> None:
        if self.closed or self._engine_half_closed:
            return
        self._engine_half_closed = True
        if self._script is not None and self._script.behavior != BEHAVIOR_BLACKHOLE:
            self._net._later(self._script, self._endpoint_on_eof)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._net._release()

    # -- simulated endpoint side ------------------------------------------

    def _start(self) -> None:
        script = self._script
        if script is None or script.behavior == BEHAVIOR_BLACKHOLE:
            return  # connect never completes
        # DNS endpoints speak UDP only, so a stream to one is refused too
        refused = script.behavior in (BEHAVIOR_RESET, BEHAVIOR_DNS)
        self._net._later(script, lambda: self._emit(EV_REFUSED if refused else EV_CONNECTED))

    def _emit(self, event: str) -> None:
        if self.closed:
            return
        if self._cb is not None:
            self._cb(event)

    def _endpoint_on_data(self, data: bytes) -> None:
        self.transcript.received.extend(data)
        freed = False
        if self._capacity is not None:
            self._capacity += len(data)  # endpoint consumed it
            freed = True
        if self._script.behavior == BEHAVIOR_ECHO:
            self._endpoint_send(bytes(data))
        elif self._script.behavior == BEHAVIOR_STATIC and not self._static_responded:
            self._static_responded = True
            self._endpoint_send(bytes(self._script.response))
            self._endpoint_close_write()
        if freed and not self.closed:
            self._emit(EV_WRITABLE)

    def _endpoint_on_eof(self) -> None:
        self.transcript.saw_eof = True
        if self._script.behavior == BEHAVIOR_ECHO:
            self._endpoint_close_write()
        elif self._script.behavior == BEHAVIOR_STATIC and not self._static_responded:
            self._static_responded = True
            self._endpoint_send(bytes(self._script.response))
            self._endpoint_close_write()

    def _endpoint_send(self, data: bytes) -> None:
        if data:
            self._net._later(self._script, lambda: self._deliver(data))

    def _endpoint_close_write(self) -> None:
        if not self._endpoint_closed_write:
            self._endpoint_closed_write = True
            self._net._later(self._script, self._deliver_eof)

    def _deliver(self, data: bytes) -> None:
        if self.closed:
            return
        self._to_engine.extend(data)
        self._emit(EV_READABLE)

    def _deliver_eof(self) -> None:
        if self.closed:
            return
        self._eof_pending = True
        self._emit(EV_EOF)


class _SimDatagram(DatagramHandle):
    __slots__ = ("_net", "_cb", "closed", "__dict__")  # as _SimStream's

    def __init__(self, net: "SimUpstream"):
        self._net = net
        self._cb = None
        self.closed = False

    def set_callback(self, cb) -> None:
        self._cb = cb

    def send_to(self, addr: Addr, data: bytes) -> None:
        if self.closed:
            return
        data = bytes(data)
        self._net.datagram_log.append((addr, data))
        script = self._net.find_script(addr)
        if script is None:
            return  # blackhole
        if script.behavior == BEHAVIOR_ECHO:
            self._reply_later(script, addr, data)
        elif script.behavior == BEHAVIOR_STATIC:
            self._reply_later(script, addr, bytes(script.response))
        elif script.behavior == BEHAVIOR_DNS:
            reply = self._dns_reply(script, data)
            if reply is not None:
                self._reply_later(script, addr, reply)
        # blackhole / reset: swallowed

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._net._release()

    def _reply_later(self, script: SimEndpointScript, from_addr: Addr, data: bytes) -> None:
        def deliver():
            if not self.closed and self._cb is not None:
                self._cb(from_addr, data)
        self._net._later(script, deliver)

    def _dns_reply(self, script: SimEndpointScript, query: bytes) -> bytes | None:
        """The reply `script` sends to `query`, or None. After its id a
        reply depends only on the script and the question, so each one is
        built once and then sent under the query's own id."""
        msg = dnswire.parse_message(query)
        if msg is None or msg.is_response:
            return None
        replies = self._net._dns_replies
        key = (id(script), msg.qname, msg.qtype)
        try:
            tail = replies[key]
        except KeyError:
            reply = _build_dns_reply(script, msg)
            tail = None if reply is None else reply[2:]
            if len(replies) >= _DNS_REPLY_STORE_SIZE:
                replies.clear()
            replies[key] = tail
        return None if tail is None else query[:2] + tail


def _build_dns_reply(script: SimEndpointScript, msg: dnswire.DnsMessage) -> bytes | None:
    tamper = script.tamper
    if msg.qname in tamper.get("drop", ()):
        return None
    override = tamper.get("override", {})
    rcode = dnswire.RCODE_OK
    if msg.qname in override:
        ips = list(override[msg.qname])
    elif msg.qname in script.answers:
        ips = list(script.answers[msg.qname])
    elif tamper.get("nxdomain_to"):
        ips = list(tamper["nxdomain_to"])
    else:
        ips, rcode = [], dnswire.RCODE_NXDOMAIN
    try:
        return dnswire.build_response(msg.qid, msg.qname, msg.qtype, ips, rcode)
    except ValueError:  # a label the parse decoded from non-ASCII bytes, or over 63 bytes
        return dnswire.build_error(msg.qid, dnswire.RCODE_FORMERR)


_SCRIPT_CACHE_SIZE = 4096
_DNS_REPLY_STORE_SIZE = 4096
_UNSEEN = object()


def check_disjoint(scripts: list[SimEndpointScript]) -> None:
    """OverlappingScripts unless each (address, port) matches one script
    at most."""
    for i, a in enumerate(scripts):
        for b in scripts[i + 1:]:
            if a.overlaps(b):
                raise OverlappingScripts(f"{a.network} and {b.network} overlap")


def _first_script(scripts: tuple[SimEndpointScript, ...],
                  addr: Addr) -> SimEndpointScript | None:
    for script in scripts:
        if script.matches(addr):
            return script
    return None


class SimUpstream(UpstreamNetwork):
    """Deterministic scripted upstream; unmatched destinations blackhole."""

    def __init__(self, scripts: list[SimEndpointScript], scheduler: Scheduler,
                 rng_seed: int = 0):
        check_disjoint(scripts)
        # frozen, so the cached lookups below cannot go stale
        self.scripts = tuple(scripts)
        # the one script serving each destination seen (scripts never
        # overlap); a plain dict, because simulators are built often (one
        # per connect batch in the benchmark) and creating an lru_cache
        # costs several microseconds
        self._script_of: dict[Addr, SimEndpointScript | None] = {}
        # each DNS reply after its 2-byte id (None: no reply), by
        # (id(script), qname, qtype); self.scripts holds every script for
        # the simulator's life, so an id names one script
        self._dns_replies: dict[tuple[int, str, int], bytes | None] = {}
        self._scheduler = scheduler
        self._rng_seed = rng_seed
        self._active = 0
        self.transcripts: list[StreamTranscript] = []
        self.datagram_log: list[tuple[Addr, bytes]] = []

    def find_script(self, addr: Addr) -> SimEndpointScript | None:
        cache = self._script_of
        script = cache.get(addr, _UNSEEN)
        if script is _UNSEEN:
            if len(cache) >= _SCRIPT_CACHE_SIZE:
                cache.clear()
            script = cache[addr] = _first_script(self.scripts, addr)
        return script

    def open_stream(self, dst: Addr) -> StreamHandle:
        self._active += 1
        return _SimStream(self, dst, self.find_script(dst))

    def open_datagram(self) -> DatagramHandle:
        self._active += 1
        return _SimDatagram(self)

    def active_handle_count(self) -> int:
        return self._active

    def _release(self) -> None:
        self._active -= 1

    @functools.cached_property
    def _rng(self) -> random.Random:
        # seeded at the first draw, so a run with no jitter never builds it
        return random.Random(self._rng_seed)

    def _later(self, script: SimEndpointScript, fn) -> None:
        delay = script.delay_us
        if script.jitter_us:
            delay += self._rng.randint(0, script.jitter_us)
        scheduler = self._scheduler
        scheduler.call_at(scheduler.now_us() + delay, fn)
