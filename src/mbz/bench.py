"""Connection-time overhead benchmark.

Two wall-clock passes against the same in-memory loopback endpoint: a
baseline that opens upstream streams directly, and an engine pass that
measures SYN-write to SYN/ACK-read through the full engine with an
empty plugin chain. The per-connection difference is the engine's added
connect latency; the summary and CDF are what the report renders.
"""

from __future__ import annotations

import ipaddress
import time
from dataclasses import dataclass, field

from .clock import Scheduler
from .conduit import InMemoryConduit
from .engine import Engine, EngineConfig
from .host import PluginHost
from .packet import SYN, make_tcp_packet, parse_packet, serialize_packet
from .report import delta_cdf, summarize_deltas
from .upstream import BEHAVIOR_ECHO, EV_CONNECTED, SimEndpointScript, SimUpstream

LOOPBACK = "127.0.0.1"
ECHO_PORT = 7777
MIN_SAMPLES = 30


class InsufficientSamples(ValueError):
    pass


@dataclass
class BenchResult:
    samples: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"samples": self.samples, "summary": self.summary}

    def table(self) -> str:
        s = self.summary
        lines = [
            "connections:        %d" % s["count"],
            "median delta:       %d us" % s["median_us"],
            "p90 delta:          %d us" % s["p90_us"],
            "p99 delta:          %d us" % s["p99_us"],
        ]
        return "\n".join(lines)


def _loopback_script() -> SimEndpointScript:
    return SimEndpointScript(ipaddress.IPv4Network(f"{LOOPBACK}/32"), None, BEHAVIOR_ECHO)


def _direct_pass(n: int) -> list[int]:
    """Baseline: connect to the simulated endpoint with no engine."""
    sched = Scheduler(mode="wall")
    net = SimUpstream([_loopback_script()], sched, rng_seed=0)
    times = []
    for _ in range(n):
        done = []
        t0 = time.perf_counter_ns()
        handle = net.open_stream((LOOPBACK, ECHO_PORT))
        handle.set_callback(lambda ev: done.append(ev))
        while not done:
            sched.step()
        t1 = time.perf_counter_ns()
        assert done[0] == EV_CONNECTED
        handle.close()
        times.append((t1 - t0) // 1000)
    return times


def app_endpoint(i: int) -> tuple[str, int]:
    """The app address and port of the engine pass's connection `i`:
    ports 1024 to 51023 on each address, addresses from 10.0.0.2 up."""
    block = i // 50_000
    return (f"10.{block >> 8 & 0xFF}.{block & 0xFF}.2", 1024 + i % 50_000)


def _engine_pass(n: int, concurrency: int, install_plugins=None) -> list[int]:
    """SYN write to SYN/ACK read through the engine. The chain is empty
    unless a plugin installer is supplied (isolates engine overhead by
    default, mirrors a full deployment when asked)."""
    sched = Scheduler(mode="wall")
    conduit = InMemoryConduit(sched)
    net = SimUpstream([_loopback_script()], sched, rng_seed=0)
    host = PluginHost(sched, upstream=net)
    if install_plugins is not None:
        install_plugins(host)
    config = EngineConfig(local_isn=12345, socket_budget=max(1024, n + 16))
    engine = Engine(config, conduit, net, host, sched)

    times: list[int] = []
    done = 0
    while done < n:
        batch = min(concurrency, n - done)
        starts: dict[tuple[str, int], int] = {}
        for i in range(done, done + batch):
            app = app_endpoint(i)
            syn = serialize_packet(make_tcp_packet(
                app, (LOOPBACK, ECHO_PORT), seq=1, ack=0, flags=SYN))
            starts[app] = time.perf_counter_ns()
            conduit.inject(syn)
        got = 0
        while got < batch:
            engine.pump()
            for _ts, data in conduit.take_emitted():
                t1 = time.perf_counter_ns()
                pkt = parse_packet(data)
                app = (pkt.ip.dst_addr, pkt.transport.dst_port)
                if app in starts:
                    times.append((t1 - starts.pop(app)) // 1000)
                    got += 1
        done += batch
    return times


def run_bench(n_connections: int, concurrency: int = 1,
              install_plugins=None) -> BenchResult:
    if n_connections < MIN_SAMPLES:
        raise InsufficientSamples(
            f"need at least {MIN_SAMPLES} connections, got {n_connections}")
    if concurrency < 1:
        raise InsufficientSamples("concurrency must be at least 1")
    direct = _direct_pass(n_connections)
    engine = _engine_pass(n_connections, concurrency, install_plugins)
    samples = [
        {"direct_connect_us": d, "engine_connect_us": e, "delta_us": e - d}
        for d, e in zip(direct, engine)
    ]
    deltas = [s["delta_us"] for s in samples]
    return BenchResult(samples=samples, summary=summarize_deltas(deltas))


def bench_cdf(result: BenchResult) -> list[list[float]]:
    return delta_cdf([s["delta_us"] for s in result.samples])
