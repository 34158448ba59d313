"""Seeded workload generator for the mbz benchmark.

Each workload is written to its own directory as the inputs the program
reads (trace, endpoint scripts, org map, firewall rules, config) plus
`inputs.json`, which holds what the benchmark alone needs: the input
size, the expected engine counters and the expected outcome of every
flow. Inputs are built with the public `mbz.packet`, `mbz.dnswire`,
`mbz.tlswire` and `mbz.trace` builders; the same seed gives
byte-identical files.

The app side of a replay trace is scripted, not reactive, so the config
pins the engine's ISN (`LOCAL_ISN`) and every app ACK in the trace
acknowledges exactly the bytes a correct engine has sent by then. The
upstream scripts answer with zero delay, so an echo completes before
the next trace packet, whose timestamps are strictly increasing.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from mbz import dnswire, tlswire
from mbz.packet import (
    ACK, FIN, PSH, SYN, make_tcp_packet, make_udp_packet, mss_option,
    serialize_packet,
)
from mbz.trace import APP_TO_NET, TraceEvent, write_trace

APP_IP = "10.0.0.2"
RESOLVER = ("8.8.8.8", 53)
ALT_RESOLVER = ("9.9.9.9", 53)
LOCAL_ISN = 5000
MSS = 1460
SEQ_MOD = 1 << 32

WHY = {
    "connect": "closed loop, one client, SYN to SYN/ACK with an empty plugin "
               "chain under the wall clock: the paper's connect-overhead "
               "metric at the smallest packet",
    "bulk": "4 long TCP echo flows of 1460-byte segments with a light chain "
            "(snitch, advisor): per-byte cost of checksums, queue copies "
            "and capture",
    "app-mix": "thousands of short DNS + TLS/QUIC exchanges, Zipf over 150 "
               "domains, full chain (firewall, snitch, dns-whatif, advisor): "
               "per-packet, per-flow and sweep cost",
}

# Counters that must read zero on every replay workload.
ZERO_COUNTERS = (
    "tcp_flows_reset", "tcp_refused_budget", "tcp_refused_upstream",
    "tcp_dup_syn", "tcp_out_of_order_dropped", "tcp_retransmissions",
    "tcp_rst_no_state", "tcp_backpressure_stalls",
    "udp_flows_evicted_pressure", "udp_refused_budget",
    "udp_inbound_unroutable", "injected_responses", "redirected_flows",
    "redirects_ignored", "unsupported_transport_dropped", "parse_errors",
    "checksum_warnings", "emit_oversized_dropped", "closed_flow_drops",
    "shutdown_closed",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TraceBuilder:
    """App-side trace plus the ground truth for every flow in it."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self.flows: list[dict] = []
        self.upstream: list[list] = []  # [ip, port, sha256 of bytes received]
        self.payload_bytes = 0  # app payload to upstream plus to the app
        self._port = 20000

    def port(self) -> int:
        self._port += 1
        return self._port

    def add(self, ts_us: int, pkt, app: str) -> None:
        self.events.append(TraceEvent(ts_us=ts_us, direction=APP_TO_NET,
                                      app_label=app, packet=serialize_packet(pkt)))

    def flow(self, proto: str, port: int, outcome: str, back: bytes = b"",
             isn: int | None = None) -> None:
        self.flows.append({"proto": proto, "port": port, "outcome": outcome,
                           "isn": isn, "back_len": len(back), "back_sha": _sha(back)})

    def tcp_echo(self, times: list[int], dst, app: str, isn: int,
                 segments: list[bytes], delivered: bytes | None = None) -> None:
        """Full lifecycle against a zero-delay echo endpoint: SYN, ACK of
        the SYN/ACK, data segments that piggyback the ACK of everything
        echoed so far, FIN, and the final ACK of the echo plus its FIN.
        `delivered` is what the endpoint receives when a plugin rewrites
        the request (length-preserving); it is echoed back as is."""
        src = (APP_IP, self.port())
        sent = b"".join(segments)
        delivered = sent if delivered is None else delivered
        t = iter(times)
        seq = isn
        self.add(next(t), make_tcp_packet(src, dst, seq=seq, ack=0, flags=SYN,
                                          options=mss_option(MSS)), app)
        seq = (seq + 1) % SEQ_MOD
        self.add(next(t), make_tcp_packet(src, dst, seq=seq, ack=LOCAL_ISN + 1,
                                          flags=ACK), app)
        echoed = 0
        for seg in segments:
            self.add(next(t), make_tcp_packet(
                src, dst, seq=seq, ack=LOCAL_ISN + 1 + echoed, flags=PSH | ACK,
                payload=seg), app)
            seq = (seq + len(seg)) % SEQ_MOD
            echoed += len(seg)
        self.add(next(t), make_tcp_packet(src, dst, seq=seq, ack=LOCAL_ISN + 1 + echoed,
                                          flags=FIN | ACK), app)
        seq = (seq + 1) % SEQ_MOD
        self.add(next(t), make_tcp_packet(src, dst, seq=seq, ack=LOCAL_ISN + 2 + echoed,
                                          flags=ACK), app)
        self.flow("tcp", src[1], "tcp_ok", delivered, isn)
        self.upstream.append([dst[0], dst[1], _sha(delivered)])
        self.payload_bytes += 2 * len(sent)

    def tcp_denied(self, ts_us: int, dst, app: str, isn: int, outcome: str) -> None:
        """A SYN the firewall refuses; the app sends nothing more."""
        src = (APP_IP, self.port())
        self.add(ts_us, make_tcp_packet(src, dst, seq=isn, ack=0, flags=SYN,
                                        options=mss_option(MSS)), app)
        self.flow("tcp", src[1], outcome, isn=isn)

    def udp(self, ts_us: int, dst, app: str, payload: bytes, outcome: str,
            back: bytes = b"") -> None:
        src = (APP_IP, self.port())
        self.add(ts_us, make_udp_packet(src, dst, payload=payload), app)
        self.flow("udp", src[1], outcome, back)
        if outcome != "silent":
            self.payload_bytes += len(payload) + len(back)

    def summary(self) -> dict:
        return {
            "flows": len(self.flows),
            "tcp_flows": sum(1 for f in self.flows if f["proto"] == "tcp"),
            "udp_flows": sum(1 for f in self.flows if f["proto"] == "udp"),
            "packets": len(self.events),
            "payload_bytes": self.payload_bytes,
        }


def _write_inputs(out: Path, name: str, seed: int, tb: TraceBuilder,
                  counters: dict, extra: dict, files: dict[str, str]) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    for fname, text in files.items():
        (out / fname).write_text(text, encoding="utf-8")
    write_trace(out / "trace.jsonl", tb.events)
    digest = hashlib.sha256()
    for fname in sorted(list(files) + ["trace.jsonl"]):
        digest.update((out / fname).read_bytes())
    expected = dict.fromkeys(ZERO_COUNTERS, 0)
    expected.update(counters)
    inputs = {
        "workload": name, "seed": seed, "why": WHY[name],
        "size": tb.summary(), "inputs_sha256": digest.hexdigest(),
        "app_ip": APP_IP, "counters": expected,
        "flows": tb.flows, "upstream": sorted(tb.upstream),
        **extra,
    }
    (out / "inputs.json").write_text(json.dumps(inputs, sort_keys=True), encoding="utf-8")
    return inputs


# ------------------------------------------------------------------ bulk

BULK_FLOWS = 4
BULK_BYTES = 2 * 1024 * 1024
BULK_STEP_US = 40


def gen_bulk(out: Path, seed: int) -> dict:
    rng = random.Random(seed)
    tb = TraceBuilder()
    plans = []
    for j in range(BULK_FLOWS):
        data = rng.randbytes(BULK_BYTES)
        segments = [data[i:i + MSS] for i in range(0, len(data), MSS)]
        # SYN, ACK, data..., FIN, final ACK
        plans.append(((f"10.200.{j + 1}.1", 8080), rng.getrandbits(32),
                      segments, len(segments) + 4))
    # round-robin the flows' packets so all four are open at once
    slots: list[list[int]] = [[] for _ in plans]
    t, k = 100_000, 0
    while any(len(slots[j]) < plans[j][3] for j in range(len(plans))):
        j = k % len(plans)
        if len(slots[j]) < plans[j][3]:
            slots[j].append(t)
            t += BULK_STEP_US
        k += 1
    for (dst, isn, segments, _n), times in zip(plans, slots):
        tb.tcp_echo(times, dst, "backup", isn, segments)
    tb.events.sort(key=lambda e: e.ts_us)

    files = {
        "scripts.yaml": "- {cidr: 10.200.0.0/16, behavior: echo}\n",
        "orgs.csv": "10.200.0.0/16,bulkstore\n",
        "config.yaml": (
            f"engine: {{local_isn: {LOCAL_ISN}}}\n"
            f"seed: {seed}\n"
            "io: {trace: trace.jsonl, scripts: scripts.yaml}\n"
            "report: {path: out/report.json}\n"
            "plugins:\n"
            "  - {id: snitch, kind: snitch, org_map: orgs.csv}\n"
            "  - {id: advisor, kind: protocol-advisor}\n"),
    }
    counters = {"tcp_flows_created": BULK_FLOWS, "tcp_flows_closed": BULK_FLOWS,
                "udp_flows_created": 0, "blocked_flow_opens": 0,
                "blocked_packets": 0, "modified_packets": 0,
                "udp_flows_evicted_idle": 0}
    extra = {"probe_dst": ["10.200.250.1", 7777], "dns_packets": 0}
    return _write_inputs(out, "bulk", seed, tb, counters, extra, files)


# --------------------------------------------------------------- app-mix

APPMIX_EXCHANGES = 2000
APPMIX_GAP_US = 2_500  # 400 exchanges per virtual second
APPMIX_STEP_US = 250  # spacing of one exchange's packets
N_DOMAINS = 150
APPS = ("browser", "social", "maps", "mail", "news", "video", "game", "leakyapp")
TCP_SHARE = 0.7
TRACKERS = frozenset({3, 11, 42, 77, 120})  # denied by domain suffix, reset
CIDR_BLOCKED = frozenset({5, 23, 64, 101})  # denied by CIDR, silent
IMEI = b"imei=356938035643809"
IMEI_MASK = b"imei=000000000000000"
WHATIF_PROBE_BYTES_MAX = 32 * 1024  # half the default emitted-bytes budget


def _domain(i: int) -> tuple[str, str, str]:
    """(name, ip, org) of domain i."""
    if i in TRACKERS:
        return f"px{i:03d}.adtrack.example", f"10.100.{i}.1", "adtrack"
    ip = f"10.101.0.{i}" if i in CIDR_BLOCKED else f"10.100.{i}.1"
    return f"api{i:03d}.org{i:03d}.example", ip, f"org{i:03d}"


def _firewall_rules() -> str:
    rules = [
        "- match: {dst: .adtrack.example}\n  action: {deny: reset}\n",
        "- match: {dst: 10.101.0.0/24}\n  action: {deny: silent}\n",
    ]
    # rules that never match this traffic but are scanned on every event
    rules += [f"- match: {{dst: .blocked{k}.example}}\n  action: {{deny: reset}}\n"
              for k in range(6)]
    rules += [
        "- match: {dst: 10.250.0.0/16}\n  action: {deny: silent}\n",
        "- match: {app: 'game*', ports: [3074]}\n  action: {deny: silent}\n",
        "- match: {app: mail, protocol: udp, ports: [25]}\n  action: {deny: reset}\n",
        "- match: {app: 'leaky*', protocol: tcp}\n"
        f"  action: {{rewrite: {{pattern: '{IMEI.decode()}',"
        f" replacement: '{IMEI_MASK.decode()}'}}}}\n",
        "- match: {dst: 10.100.0.0/16, ports: [443]}\n  action: allow\n",
    ]
    return "".join(rules)


def gen_app_mix(out: Path, seed: int) -> dict:
    rng = random.Random(seed)
    domains = [_domain(i) for i in range(N_DOMAINS)]
    ranks = list(range(N_DOMAINS))
    rng.shuffle(ranks)
    weights = [1.0 / (r + 1) for r in ranks]  # Zipf-like popularity, s = 1

    tb = TraceBuilder()
    c = dict.fromkeys(("tcp_flows_created", "tcp_flows_closed", "udp_flows_created",
                       "blocked_flow_opens", "modified_packets"), 0)
    dns_queries = 0
    query_bytes = 0
    for k in range(APPMIX_EXCHANGES):
        t = 100_000 + k * APPMIX_GAP_US
        times = [t + APPMIX_STEP_US * (m + 1) for m in range(5)]
        app = rng.choice(APPS)
        i = rng.choices(range(N_DOMAINS), weights)[0]
        name, ip, _org = domains[i]
        qid = k & 0xFFFF
        query = dnswire.build_query(qid, name)
        tb.udp(t, RESOLVER, app, query, "dns",
               dnswire.build_response(qid, name, dnswire.QTYPE_A, [ip]))
        dns_queries += 1
        query_bytes += len(query)
        c["udp_flows_created"] += 1
        blocked = i in TRACKERS or i in CIDR_BLOCKED
        mode = "tcp_reset" if i in TRACKERS else "silent"
        isn = rng.getrandbits(32)
        if rng.random() < TCP_SHARE:
            if blocked:
                tb.tcp_denied(times[0], (ip, 443), app, isn, mode)
                c["blocked_flow_opens"] += 1
                continue
            hello = tlswire.build_client_hello(name)
            if app == "leakyapp":
                tail = b"&" + IMEI + b"&v=%d" % rng.randrange(100)
                tb.tcp_echo(times, (ip, 443), app, isn, [hello + tail],
                            delivered=hello + tail.replace(IMEI, IMEI_MASK))
                c["modified_packets"] += 1
            else:
                tb.tcp_echo(times, (ip, 443), app, isn, [hello])
            c["tcp_flows_created"] += 1
            c["tcp_flows_closed"] += 1
        else:
            datagram = bytes([0xC3, 0, 0, 0, 1]) + rng.randbytes(rng.randint(40, 200))
            if blocked:
                tb.udp(times[0], (ip, 443), app, datagram, "silent")
                c["blocked_flow_opens"] += 1
            else:
                tb.udp(times[0], (ip, 443), app, datagram, "udp_echo", datagram)
                c["udp_flows_created"] += 1
    # every UDP flow idles out during the engine's post-trace drain
    c["udp_flows_evicted_idle"] = c["udp_flows_created"]
    c["blocked_packets"] = 0

    # sample as many queries as fit in half the probe budget, so the
    # governor never disables dns-whatif part-way through
    probability = min(0.25, WHATIF_PROBE_BYTES_MAX / query_bytes)
    answers = ", ".join(f"{n}: [{ip}]" for n, ip, _o in domains)
    tampered = ", ".join(f"{domains[i][0]}: [10.66.0.{i}]" for i in range(0, N_DOMAINS, 10))
    files = {
        "scripts.yaml": (
            f"- {{cidr: {RESOLVER[0]}/32, ports: [53], behavior: dns,"
            f" answers: {{{answers}}}}}\n"
            f"- {{cidr: {ALT_RESOLVER[0]}/32, ports: [53], behavior: dns,"
            f" answers: {{{answers}}}, tamper: {{override: {{{tampered}}}}}}}\n"
            "- {cidr: 10.100.0.0/16, behavior: echo}\n"
            "- {cidr: 10.101.0.0/24, behavior: echo}\n"),
        "orgs.csv": "".join(f".{n.split('.', 1)[1]},{o}\n" for n, _ip, o in domains
                            if o != "adtrack")
                    + ".adtrack.example,adtrack\n8.8.8.8/32,resolver\n",
        "rules.yaml": _firewall_rules(),
        "config.yaml": (
            f"engine: {{local_isn: {LOCAL_ISN}, socket_budget: 4096}}\n"
            f"seed: {seed}\n"
            "io: {trace: trace.jsonl, scripts: scripts.yaml}\n"
            "report: {path: out/report.json}\n"
            "plugins:\n"
            "  - {id: fw, kind: firewall, rules: rules.yaml}\n"
            "  - {id: snitch, kind: snitch, org_map: orgs.csv,"
            " first_party_orgs: [resolver]}\n"
            f"  - {{id: whatif, kind: dns-whatif, resolvers: ['{ALT_RESOLVER[0]}:53'],"
            f" probability: {probability!r}}}\n"
            "  - {id: advisor, kind: protocol-advisor}\n"),
    }
    # DNS packets crossing the engine: each query in and its answer out
    extra = {"probe_dst": ["10.100.250.1", 7777], "dns_packets": 2 * dns_queries}
    return _write_inputs(out, "app-mix", seed, tb, c, extra, files)


# --------------------------------------------------------------- connect

def gen_connect(out: Path, seed: int) -> dict:
    """The connect workload builds its SYNs in the measuring process from
    the seed, in batches before each timed interval; only the endpoint
    script is an input file."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "scripts.yaml").write_text("- {cidr: 127.0.0.1/32, behavior: echo}\n",
                                      encoding="utf-8")
    inputs = {"workload": "connect", "seed": seed, "why": WHY["connect"],
              "size": "one SYN, one 64-byte request and two ACKs per connection",
              "app_ip": APP_IP, "probe_dst": ["127.0.0.1", 7777]}
    (out / "inputs.json").write_text(json.dumps(inputs, sort_keys=True), encoding="utf-8")
    return inputs


GENERATORS = {"connect": gen_connect, "bulk": gen_bulk, "app-mix": gen_app_mix}
