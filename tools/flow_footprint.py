#!/usr/bin/env python3
"""What one open flow costs the engine: bytes and GC-tracked objects.

Opens N TCP flows (SYNs to an echo endpoint, each answered with a
SYN/ACK) or N UDP flows (datagrams to an echo endpoint, each answered)
on an in-memory stack with an empty plugin chain, and leaves them open.
Prints, per flow, the memory tracemalloc sees allocated and the growth
of `gc.get_objects()`, each taken after a full collection.

    PYTHONPATH=src python3 tools/flow_footprint.py [--flows 5000]
"""

from __future__ import annotations

import argparse
import gc
import ipaddress
import tracemalloc

from mbz.clock import Scheduler
from mbz.conduit import InMemoryConduit
from mbz.engine import Engine, EngineConfig
from mbz.host import PluginHost
from mbz.packet import SYN, make_tcp_packet, make_udp_packet, serialize_packet
from mbz.upstream import BEHAVIOR_ECHO, SimEndpointScript, SimUpstream

ECHO = ("93.184.216.34", 7)
PROTOCOLS = ("tcp", "udp")


def _first_packet(protocol: str, i: int) -> bytes:
    """The packet that opens flow `i`: one app address per 50,000 ports."""
    src = (f"10.0.{i // 50_000}.2", 1024 + i % 50_000)
    if protocol == "tcp":
        return serialize_packet(make_tcp_packet(src, ECHO, 1000, 0, SYN))
    return serialize_packet(make_udp_packet(src, ECHO, b"ping"))


def _stack(n_flows: int) -> Engine:
    sched = Scheduler()
    upstream = SimUpstream([SimEndpointScript(
        network=ipaddress.IPv4Network(f"{ECHO[0]}/32"), ports=None,
        behavior=BEHAVIOR_ECHO)], sched)
    config = EngineConfig(socket_budget=n_flows + 1, local_isn=5000)
    return Engine(config, InMemoryConduit(sched), upstream, PluginHost(sched), sched)


def _open(engine: Engine, packets: list[bytes]) -> None:
    for data in packets:
        engine.conduit.inject(data)
    engine.pump()
    engine.conduit.take_emitted()


def _collect() -> None:
    """A full collection, twice: a collection untracks a tuple that holds
    only untracked values, but a tuple holding such a tuple may be seen
    before it, and is untracked only by the next one."""
    gc.collect()
    gc.collect()


def footprint(protocol: str, n_flows: int) -> tuple[float, float]:
    """(bytes, GC-tracked objects) per open flow, over `n_flows` flows of
    `protocol` ("tcp" or "udp"). One flow is opened first, so what the
    stack builds once (caches, its random stream) is not counted."""
    packets = [_first_packet(protocol, i) for i in range(n_flows + 1)]
    engine = _stack(n_flows + 1)
    _open(engine, packets[:1])
    _collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        _open(engine, packets[1:])
        _collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    objects = len(gc.get_objects()) - objects
    assert len(engine.flows) == n_flows + 1, "every flow must still be open"
    return size / n_flows, objects / n_flows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flows", type=int, default=5000)
    args = parser.parse_args(argv)
    for protocol in PROTOCOLS:
        size, objects = footprint(protocol, args.flows)
        print(f"{protocol}: {size:,.0f} B and {objects:.2f} GC-tracked objects per open flow "
              f"({args.flows:,} flows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
