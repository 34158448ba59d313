"""Machine-speed gauge for benchmarking on a shared host.

On a shared host the same process runs up to twice as fast at one
moment as a fraction of a second later, and process CPU time slows
with wall time, so dividing by CPU time does not help. The benchmark
therefore times a fixed pure-Python reference kernel next to, or
during, every measured interval and reports times as they would read
on a machine where the kernel takes its reference time. The kernels
import nothing from `mbz`, so a change to the program never moves
them: a faster program still reads faster, while a slower moment of
the host cancels out.

Two kernels, because the host's slow moments slow interpreter-bound
and byte-bound code by different amounts: `packet_kernel` gauges the
connect batches (small packets, no payload), `byte_kernel` gauges the
replays, whose time goes mostly to checksums, copies and decoding.
Short runs of `packet_kernel` interleaved with the connections gauge
the latency tail, which the host's interruptions set more than its
speed.
"""

from __future__ import annotations

import base64
import signal
import statistics
import struct
import time

PACKET_REFERENCE_US = 5.0  # per packet_kernel packet
BYTE_REFERENCE_US = 30.0  # per byte_kernel segment
KERNEL_PACKETS = 200  # one run before a connect batch
TAIL_KERNEL_PACKETS = 20  # one tail-gauge run: about as long as one connection
# p99 of tail-gauge runs at the reference speed: the reference time of a
# run times 1.4, the ratio of their p99 to their median on a typical
# moment of the 2-core host the benchmark was tuned on
TAIL_REFERENCE_NS = PACKET_REFERENCE_US * TAIL_KERNEL_PACKETS * 1000 * 1.4
SAMPLER_WARMUP_SEGMENTS = 1  # untimed: refills caches the interrupted code evicted
SAMPLER_SEGMENTS = 12  # timed part of one sampler tick
SAMPLER_INTERVAL_S = 0.05
_HEADER = struct.Struct("!4s4sHHIB")
_PAYLOAD = bytes(range(64))
_SEGMENT = bytes((i * 7) & 255 for i in range(1460))
_SEGMENT_B64 = base64.b64encode(_SEGMENT * 2)


class _Header:
    __slots__ = ("src", "dst", "sport", "dport", "seq", "flags", "payload")

    def __init__(self, src, dst, sport, dport, seq, flags, payload):
        self.src, self.dst, self.sport, self.dport = src, dst, sport, dport
        self.seq, self.flags, self.payload = seq, flags, payload


def packet_kernel(packets: int) -> int:
    """A frozen miniature of a packet path: pack, unpack, build an
    object, look up a flow table, queue bytes, fold a checksum."""
    table: dict = {}
    out = []
    for i in range(packets):
        raw = _HEADER.pack(b"\x0a\x00\x00\x02", b"\x7f\x00\x00\x01", 20000 + (i & 255),
                           443, i * 7919, 0x12) + _PAYLOAD
        src, dst, sport, dport, seq, flags = _HEADER.unpack(raw[:_HEADER.size])
        hdr = _Header("%d.%d.%d.%d" % tuple(src), "%d.%d.%d.%d" % tuple(dst),
                      sport, dport, seq, flags, raw[_HEADER.size:])
        key = (hdr.src, hdr.sport, hdr.dst, hdr.dport)
        flow = table.get(key)
        if flow is None:
            table[key] = flow = [0, bytearray()]
        flow[0] += 1
        flow[1].extend(hdr.payload)
        total = sum(struct.unpack("!%dH" % (len(raw) // 2), raw[:len(raw) // 2 * 2]))
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        out.append(struct.pack("!H", ~total & 0xFFFF) + bytes(flow[1][:8]))
    return len(out)


def byte_kernel(segments: int) -> int:
    """A frozen miniature of the per-byte work: decode a segment, fold
    its checksum, queue it and copy a chunk back out."""
    queue = bytearray()
    out = 0
    for _ in range(segments):
        data = base64.b64decode(_SEGMENT_B64)[:1460]
        total = sum(struct.unpack("!730H", data))
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        queue.extend(data)
        chunk = bytes(queue[:1000])
        del queue[:1000]
        out += total + len(chunk)
    return out


def packet_factor(packets: int = KERNEL_PACKETS) -> float:
    """Speed factor from one packet_kernel run: multiply times by it,
    divide rates by it, to get figures at the reference speed."""
    t0 = time.perf_counter_ns()
    packet_kernel(packets)
    return PACKET_REFERENCE_US * packets * 1000 / (time.perf_counter_ns() - t0)


def tail_gauge_ns() -> int:
    """Time of one short packet_kernel run. Run after each timed
    connection, these meet the host's interruptions as often as the
    connections do, so their p99 gauges the tail (see
    `measure.ConnectLoop.p99`)."""
    t0 = time.perf_counter_ns()
    packet_kernel(TAIL_KERNEL_PACKETS)
    return time.perf_counter_ns() - t0


class Sampler:
    """While active, runs byte_kernel on every SIGALRM tick, so an
    interval too long to bracket with kernel runs (a whole replay) is
    gauged from inside. `spent_ns` is the time the ticks took, to be
    subtracted from the interval they interrupted."""

    def __init__(self):
        self.samples: list[float] = []  # µs per segment
        self.spent_ns = 0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter_ns()
        byte_kernel(SAMPLER_WARMUP_SEGMENTS)
        t1 = time.perf_counter_ns()
        byte_kernel(SAMPLER_SEGMENTS)
        t2 = time.perf_counter_ns()
        self.samples.append((t2 - t1) / 1000 / SAMPLER_SEGMENTS)
        self.spent_ns += t2 - t0

    def factor(self) -> float:
        """Speed factor over the ticks so far (1.0 if there were none)."""
        if not self.samples:
            return 1.0
        return BYTE_REFERENCE_US / statistics.median(self.samples)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLER_INTERVAL_S, SAMPLER_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
