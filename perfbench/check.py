"""Correctness gate for replay runs.

Reads the run's outputs (report, pcap, upstream transcripts) and
compares them with the generator's ground truth. Packets are decoded
here from fixed byte offsets, not with `mbz.packet`, so a codec change
in the program cannot also change the checker.
"""

from __future__ import annotations

import hashlib
import struct
from collections import defaultdict

SYN, RST, FIN, ACK = 0x02, 0x04, 0x01, 0x10
PROTO_TCP, PROTO_UDP = 6, 17


def read_pcap(data: bytes) -> list[bytes]:
    """IP packets of a little-endian classic pcap, as `mbz` writes them."""
    packets = []
    offset = 24
    while offset + 16 <= len(data):
        incl = struct.unpack_from("<I", data, offset + 8)[0]
        offset += 16
        packets.append(data[offset:offset + incl])
        offset += incl
    return packets


def to_app(packets: list[bytes], app_ip: str) -> dict[tuple[int, int], list]:
    """Packets addressed to the app, grouped by (protocol, app port).
    TCP entries are (flags, seq, ack, payload); UDP entries are payloads."""
    dst = bytes(int(x) for x in app_ip.split("."))
    flows: dict[tuple[int, int], list] = defaultdict(list)
    for pkt in packets:
        if pkt[16:20] != dst:
            continue
        ihl = (pkt[0] & 0x0F) * 4
        proto = pkt[9]
        total = struct.unpack_from("!H", pkt, 2)[0]
        port = struct.unpack_from("!H", pkt, ihl + 2)[0]
        if proto == PROTO_TCP:
            seq, ack = struct.unpack_from("!II", pkt, ihl + 4)
            off = (pkt[ihl + 12] >> 4) * 4
            flows[(proto, port)].append((pkt[ihl + 13], seq, ack, pkt[ihl + off:total]))
        elif proto == PROTO_UDP:
            flows[(proto, port)].append(pkt[ihl + 8:total])
    return flows


def flow_ok(flow: dict, got: list) -> bool:
    """Whether what the engine sent the app on one flow matches the
    generator's expected outcome."""
    outcome = flow["outcome"]
    if outcome == "silent":
        return not got
    if flow["proto"] == "udp":
        return len(got) == 1 and _matches(flow, got[0])
    if outcome == "tcp_reset":
        return len(got) == 1 and bool(got[0][0] & RST) and not got[0][0] & SYN
    synacks = [p for p in got if p[0] & (SYN | ACK) == SYN | ACK]
    return (len(synacks) == 1
            and synacks[0][2] == (flow["isn"] + 1) % (1 << 32)
            and not any(p[0] & RST for p in got)
            and sum(1 for p in got if p[0] & FIN) == 1
            and _matches(flow, b"".join(p[3] for p in got)))


def _matches(flow: dict, data: bytes) -> bool:
    return len(data) == flow["back_len"] \
        and hashlib.sha256(data).hexdigest() == flow["back_sha"]


def check_replay(inputs: dict, report: dict, pcap: bytes, run) -> tuple[int, list[str], int]:
    """Returns (flows failed, gate failures, packets the engine wrote to
    the app). A gate failure is anything wrong beyond single flows."""
    problems: list[str] = []
    counters = report.get("counters", {})
    for key, want in sorted(inputs["counters"].items()):
        if counters.get(key) != want:
            problems.append(f"counter {key}={counters.get(key)} expected {want}")
    transcripts = sorted([t.dst[0], t.dst[1], hashlib.sha256(t.received).hexdigest()]
                         for t in run.upstream.transcripts)
    if transcripts != inputs["upstream"]:
        problems.append("bytes received upstream differ from the bytes the trace sent")
    handles = run.upstream.active_handle_count()
    if handles != 0:
        problems.append(f"{handles} upstream handles still open at the end")
    overruns = [g for g in report.get("governor", []) if "CpuOverrun" in str(g)]
    if overruns:
        problems.append(f"{len(overruns)} CpuOverrun governor events: {overruns[0]}")

    flows = to_app(read_pcap(pcap), inputs["app_ip"])
    failed = 0
    for flow in inputs["flows"]:
        proto = PROTO_TCP if flow["proto"] == "tcp" else PROTO_UDP
        if not flow_ok(flow, flows.get((proto, flow["port"]), [])):
            failed += 1
    written = sum(len(v) for v in flows.values())
    return failed, problems, written
