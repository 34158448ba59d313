"""Measuring process of the mbz benchmark: one workload, one process.

Started by `run.py` on inputs the generator has written, so that peak
RSS is that of a process that ran only this workload. Prints a
readable table and, as its last line, the JSON result.

connect: closed loop with one client. Each iteration times a direct
`SimUpstream.open_stream` -> EV_CONNECTED, then the SYN injected into
the conduit -> SYN/ACK written by the engine; the sample is the
difference. The flow is then torn down (request echo, FINs, sweep)
outside the timed interval, so the flow table holds at most one flow.

bulk, app-mix: repeated `load_config` -> `ReplayRun` -> `execute()` ->
`write_outputs(out_pcap=...)`, the path of `mbz replay --out-pcap`,
after the same connect loop run through the workload's own plugin
chain for a share of the run. Replay has no offered rate: it reports
work completed per wall second at the generator's fixed input size.

Every timed interval is gauged with the reference kernel in
`calibrate.py`: a run before each connect batch, a short run after
each timed connection for the p99, and a sampler that interrupts each
replay every 50 ms. The JSON reports times and rates
at the kernel's reference speed; the table also shows the raw
wall-clock figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

from mbz import runner
from mbz.clock import Scheduler
from mbz.conduit import InMemoryConduit
from mbz.config import load_config
from mbz.engine import Engine, EngineConfig
from mbz.host import PluginHost
from mbz.packet import ACK, FIN, PSH, SYN, make_tcp_packet, mss_option, serialize_packet
from mbz.upstream import EV_CONNECTED, SimUpstream

import calibrate
import check
import spans

APP_IP = "10.0.0.2"
CONNECT_ISN = 12345
REQUEST_BYTES = 64
BATCH = 100  # timed connections per engine stack; their SYNs are serialized first
P99_WINDOW_BATCHES = 10  # 1,000 samples: 10 lie beyond each window's p99
MIN_CONNECT_SAMPLES = 2000  # at least two p99 windows
TRACED_CONNECTS = 4000
PROBE_SHARE = 0.3  # replay workloads: share of the run spent on the connect loop
REPLAY_METRICS = ("pkts_per_s", "goodput_MBps", "flows_per_s", "setup_s")
UNITS = {
    "connect_added_us_p50": "us", "connect_added_us_p99": "us",
    "pkts_per_s": "packets/s", "goodput_MBps": "MB/s", "flows_per_s": "flows/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def nearest_rank(sorted_values: list, fraction: float):
    return sorted_values[max(math.ceil(len(sorted_values) * fraction), 1) - 1]


def at_reference(value: float, unit: str, factor: float) -> float:
    """Convert a wall-clock figure to the reference speed."""
    if unit.endswith("/s"):
        return value / factor
    if unit in ("us", "s"):
        return value * factor
    return value


# ----------------------------------------------------------------- connect

class ConnectStack:
    """Wall-clock engine with an in-memory conduit, as `mbz bench` builds it."""

    def __init__(self, scripts, install):
        self.scheduler = Scheduler(mode="wall")
        self.conduit = InMemoryConduit(self.scheduler)
        self.net = SimUpstream(scripts, self.scheduler, rng_seed=0)
        self.host = PluginHost(self.scheduler, upstream=self.net)
        install(self.host)
        self.engine = Engine(EngineConfig(local_isn=CONNECT_ISN, socket_budget=1024),
                             self.conduit, self.net, self.host, self.scheduler)


def _tcp_fields(data: bytes) -> tuple[int, int, int, bytes]:
    """(dst port, flags, ack, payload) read from fixed offsets."""
    ihl = (data[0] & 0x0F) * 4
    total = int.from_bytes(data[2:4], "big")
    off = (data[ihl + 12] >> 4) * 4
    return (int.from_bytes(data[ihl + 2:ihl + 4], "big"), data[ihl + 13],
            int.from_bytes(data[ihl + 8:ihl + 12], "big"), data[ihl + off:total])


def _connect_batch(rng: random.Random, dst, first: int) -> list[tuple]:
    """BATCH + 1 connections: the first one warms the fresh stack up."""
    batch = []
    for i in range(BATCH + 1):
        src = (APP_IP, 20000 + (first + i) % 40000)
        isn = rng.getrandbits(32)
        request = rng.randbytes(REQUEST_BYTES)
        syn = make_tcp_packet(src, dst, seq=isn, ack=0, flags=SYN, options=mss_option(1460))
        data = make_tcp_packet(src, dst, seq=isn + 1, ack=CONNECT_ISN + 1,
                               flags=PSH | ACK | FIN, payload=request)
        last = make_tcp_packet(src, dst, seq=isn + 2 + REQUEST_BYTES,
                               ack=CONNECT_ISN + 2 + REQUEST_BYTES, flags=ACK)
        batch.append((src[1], isn, request, serialize_packet(syn),
                      serialize_packet(data), serialize_packet(last)))
    return batch


class Batch(NamedTuple):
    """Samples are kept in arrays, so the benchmark's own memory hardly
    grows with the number of connections and peak RSS stays the
    program's."""
    deltas: array  # added-latency samples, ns
    packets: int
    engine_ns: int
    setup_s: float
    factor: float  # speed factor from the kernel run before the batch
    gauge_ns: array  # one tail-gauge kernel run after each timed connection


class ConnectLoop:
    """Closed-loop handshakes in batches. Each batch runs on a freshly
    built stack, whose construction time is a set-up sample, and a fresh
    direct upstream, so state kept per run (capture, transcripts) does
    not grow with the number of connections. The first connection of a
    batch is checked but not timed: it would measure the cold caches
    of the rebuilt stack, which a long-lived engine does not have."""

    def __init__(self, scripts, install, dst, rng: random.Random):
        self.scripts, self.install, self.dst, self.rng = scripts, install, dst, rng
        self.batches: list[Batch] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.stack: ConnectStack | None = None

    @property
    def samples(self) -> int:
        return sum(len(b.deltas) for b in self.batches)

    def run(self, seconds: float, min_samples: int = 0) -> None:
        deadline = time.perf_counter() + seconds
        while self.samples < min_samples or time.perf_counter() < deadline:
            self._batch()

    def _batch(self) -> None:
        factor = calibrate.packet_factor()
        batch = _connect_batch(self.rng, self.dst, self.attempted)
        t0 = time.perf_counter()
        stack = ConnectStack(self.scripts, self.install)
        setup = time.perf_counter() - t0
        self.stack = stack  # frees the previous batch's stack, outside the timing
        conduit, engine, dst = stack.conduit, stack.engine, self.dst
        direct_sched = Scheduler(mode="wall")
        direct_net = SimUpstream(self.scripts, direct_sched, rng_seed=0)
        clock = time.perf_counter_ns
        deltas = array("q")
        gauge = array("q")
        engine_ns = packets = 0
        for i, (port, isn, request, syn, data, last) in enumerate(batch):
            done: list[str] = []
            t0 = clock()
            handle = direct_net.open_stream(dst)
            handle.set_callback(done.append)
            while not done:
                direct_sched.step()
            direct = clock() - t0
            handle.close()

            t0 = clock()
            conduit.inject(syn)
            engine.pump()
            t1 = clock()
            handshake = [_tcp_fields(d) for _ts, d in conduit.take_emitted()]

            t2 = clock()
            conduit.inject(data)
            engine.pump()
            conduit.inject(last)
            engine.pump()
            engine.sweep()
            t3 = clock()
            rest = [_tcp_fields(d) for _ts, d in conduit.take_emitted()]

            ok = (done[0] == EV_CONNECTED and len(handshake) == 1
                  and handshake[0][:3] == (port, SYN | ACK, (isn + 1) % (1 << 32))
                  and b"".join(f[3] for f in rest if f[0] == port) == request
                  and sum(1 for f in rest if f[1] & FIN) == 1)
            self.attempted += 1
            self.failed += not ok
            if i:
                deltas.append(t1 - t0 - direct)
                engine_ns += t1 - t0 + t3 - t2
                packets += 3 + len(handshake) + len(rest)
                gauge.append(calibrate.tail_gauge_ns())
        self.batches.append(Batch(deltas, packets, engine_ns, setup, factor, gauge))
        counters = engine.counters
        if counters["tcp_flows_created"] != len(batch) \
                or counters["tcp_flows_closed"] != len(batch):
            self.problems.append(
                f"connect: {counters['tcp_flows_created']} flows opened and "
                f"{counters['tcp_flows_closed']} closed by teardown, expected {len(batch)}")
        for net in (direct_net, stack.net):
            if net.active_handle_count():
                self.problems.append(
                    f"connect: {net.active_handle_count()} upstream handles left open")

    def factors(self, calibrated: bool = True) -> list[float]:
        """Speed factor of each batch: the median of its own kernel run
        and those of its two neighbours on either side."""
        factors = [b.factor for b in self.batches]
        if not calibrated:
            return [1.0] * len(factors)
        return [statistics.median(factors[max(0, i - 2):i + 3]) for i in range(len(factors))]

    def p99(self, calibrated: bool = True) -> float:
        """Median over windows of P99_WINDOW_BATCHES batches of each
        window's p99, so one noisy moment of the host moves one window,
        not the figure. The host's interruptions, not its speed, make
        the tail, so a window's p99 is gauged by the p99 of the tail
        gauge runs interleaved with its connections."""
        windows = [self.batches[i:i + P99_WINDOW_BATCHES] for i in
                   range(0, len(self.batches) - P99_WINDOW_BATCHES + 1, P99_WINDOW_BATCHES)]
        values = []
        for window in windows or [self.batches]:
            p99 = nearest_rank(sorted(d for b in window for d in b.deltas), 0.99)
            if calibrated:
                gauge = nearest_rank(sorted(g for b in window for g in b.gauge_ns), 0.99)
                p99 *= calibrate.TAIL_REFERENCE_NS / gauge
            values.append(p99)
        return statistics.median(values)

    def metrics(self, calibrated: bool = True) -> dict[str, float]:
        """Median latency over all samples, p99 as `p99` gives it, rates
        and set-up as the median over batches."""
        factors = self.factors(calibrated)
        samples = sorted(d * f for b, f in zip(self.batches, factors) for d in b.deltas)
        per_batch = [(len(b.deltas), b.packets, b.engine_ns * f, b.setup_s * f)
                     for b, f in zip(self.batches, factors)]
        return {
            "connect_added_us_p50": statistics.median(samples) / 1000,
            "connect_added_us_p99": self.p99(calibrated) / 1000,
            "pkts_per_s": statistics.median(p / ns * 1e9 for _n, p, ns, _s in per_batch),
            "goodput_MBps": statistics.median(
                2 * REQUEST_BYTES * n / ns * 1e3 for n, _p, ns, _s in per_batch),
            "flows_per_s": statistics.median(n / ns * 1e9 for n, _p, ns, _s in per_batch),
            "setup_s": statistics.median(s for _n, _p, _ns, s in per_batch),
        }

    def engine_us_per_conn(self) -> float:
        """Engine time per connection at the reference speed."""
        total = sum(b.engine_ns * f for b, f in zip(self.batches, self.factors()))
        return total / self.samples / 1000


# ------------------------------------------------------------------ replay

class Replay:
    """Repeated replays of one generated input, checked after each rep."""

    def __init__(self, workdir: Path, inputs: dict):
        self.inputs = inputs
        self.config_path = workdir / "config.yaml"
        self.out_pcap = workdir / "out" / "capture.pcap"
        self.reference: tuple[str, str] | None = None
        self.written = 0
        self.attempted = self.failed = self.first_failed = 0
        self.problems: list[str] = []

    def rep(self) -> dict:
        """One replay: its raw wall figures, without the time the speed
        sampler took, the speed factor the sampler saw, the run and its
        report."""
        gc.collect()
        sampler = calibrate.Sampler()
        with sampler:
            t0 = time.perf_counter()
            run = runner.ReplayRun(load_config(self.config_path))
            t1 = time.perf_counter()
            spent_setup = sampler.spent_ns
            report = run.execute()
            runner.write_outputs(run, report, out_pcap=self.out_pcap)
            t2 = time.perf_counter()
        self._check(run, report)
        setup_s = t1 - t0 - spent_setup / 1e9
        exec_s = t2 - t1 - (sampler.spent_ns - spent_setup) / 1e9
        counters = report["counters"]
        size = self.inputs["size"]
        return {
            "run": run, "report": report, "factor": sampler.factor(),
            "setup_s": setup_s, "exec_s": exec_s,
            "pkts_per_s": (size["packets"] + self.written) / exec_s,
            "goodput_MBps": size["payload_bytes"] / exec_s / 1e6,
            "flows_per_s": (counters["tcp_flows_created"]
                            + counters["udp_flows_created"]) / exec_s,
        }

    def _check(self, run, report: dict) -> None:
        """Full check of the first rep, and of any later rep whose report
        or pcap differs from it; a rep with identical outputs has the
        first rep's outcome."""
        pcap = self.out_pcap.read_bytes()
        digest = (hashlib.sha256(run.config.report_path.read_bytes()).hexdigest(),
                  hashlib.sha256(pcap).hexdigest())
        self.attempted += len(self.inputs["flows"])
        if digest == self.reference:
            self.failed += self.first_failed
            return
        failed, problems, written = check.check_replay(self.inputs, report, pcap, run)
        self.failed += failed
        if self.reference is None:
            self.reference, self.first_failed, self.written = digest, failed, written
        else:
            problems.append("report or pcap differs between replays of one seed")
        self.problems += [p for p in problems if p not in self.problems]


def replay_metrics(reps: list[dict], calibrated: bool = True) -> dict[str, float]:
    return {k: statistics.median(at_reference(r[k], UNITS[k], r["factor"] if calibrated else 1)
                                 for r in reps)
            for k in REPLAY_METRICS}


def probe_chain(workdir: Path, seed: int):
    """Installer of the workload's plugin chain on a connect-loop host."""
    config = load_config(workdir / "config.yaml")

    def install(host):
        runner.install_plugins(config, host, seed)
    return runner.load_scripts(config.scripts_path), install


# ------------------------------------------------------------------- trace

def layer_metrics(workload: str, tracer: spans.Tracer, engine, host, net, conduit,
                  counters: dict, dns_packets: int, factor: float):
    """Per-layer metrics of one traced run (times at the reference speed)
    and the wrapped names that recorded no call though they should."""
    calls, self_ns = tracer.totals()
    ingress = sorted(tracer.ingress_ns) or [0]
    m: dict[str, tuple[float, str]] = {}

    def timed(prefix: str, with_calls: bool = True):
        if with_calls:
            m[f"{prefix}.calls"] = (calls.get(prefix, 0), "count")
        m[f"{prefix}.self_us"] = (self_ns.get(prefix, 0) / 1000 * factor, "us")

    timed("packet.parse")
    timed("packet.serialize")
    timed("packet.checksum")
    m["packet.checksum.bytes"] = (tracer.measures["packet.checksum.bytes"], "bytes")
    timed("engine.ingress")
    m["engine.ingress.p50_us"] = (statistics.median(ingress) / 1000 * factor, "us")
    m["engine.ingress.p99_us"] = (nearest_rank(ingress, 0.99) / 1000 * factor, "us")
    timed("engine.on_upstream")
    timed("engine.sweep")
    m["engine.sweep.flows_scanned"] = (tracer.measures["engine.sweep.flows_scanned"], "count")
    m["engine.flows.max"] = (tracer.measures["engine.flows.max"], "count")
    m["engine.capture.retained"] = (len(getattr(engine, "capture", ())), "count")
    for key in ("tcp_retransmissions", "tcp_backpressure_stalls",
                "udp_flows_evicted_pressure"):
        m[f"engine.{key}"] = (counters.get(key, 0), "count")
    m["engine.refused"] = (sum(counters.get(k, 0) for k in (
        "tcp_refused_budget", "tcp_refused_upstream", "udp_refused_budget")), "count")
    timed("host.dispatch")
    timed("host.governor_tick", with_calls=False)
    m["host.violations"] = (len(host.violations), "count")
    m["host.governor_events"] = (len(host.governor_events), "count")
    for _cls, short in spans.PLUGINS:
        timed(f"plugins.{short}")
    timed("dnswire.parse")
    m["dnswire.parses_per_dns_pkt"] = (
        calls.get("dnswire.parse", 0) / dns_packets if dns_packets else 0, "ratio")
    m["tlswire.sni.calls"] = (calls.get("tlswire.sni", 0), "count")
    m["upstream.open.calls"] = (calls.get("upstream.open", 0), "count")
    timed("upstream.handle", with_calls=False)
    timed("upstream.find_script")
    m["upstream.handles.max"] = (tracer.measures["upstream.handles.max"], "count")
    m["upstream.handles.at_end"] = (net.active_handle_count(), "count")
    timed("clock.step")
    m["clock.call_at.calls"] = (calls.get("clock.call_at", 0), "count")
    m["conduit.read.calls"] = (calls.get("conduit.read", 0), "count")
    m["conduit.write.calls"] = (calls.get("conduit.write", 0), "count")
    m["conduit.emitted.retained"] = (len(getattr(conduit, "emitted", ())), "count")
    timed("trace.read", with_calls=False)
    timed("runner.build_report", with_calls=False)
    timed("runner.write_outputs", with_calls=False)
    m["pcapio.write.bytes"] = (tracer.measures["pcapio.write.bytes"], "bytes")
    m["trace.spans"] = (len(tracer.spans), "count")
    missing = [n for n in spans.EXPECTED_CALLS[workload] if not calls.get(n)]
    return m, missing


def peak_rss_mb() -> float:
    """Peak resident set so far; taken before the results are sorted,
    so it is the workload's, not the summary's."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _proc_metrics() -> dict:
    return {"proc.cpu_s": (time.process_time(), "s"),
            "proc.gc.collections": (sum(g["collections"] for g in gc.get_stats()), "count")}


# -------------------------------------------------------------------- main

def run_connect(inputs: dict, workdir: Path, seconds: float, traced: bool) -> tuple:
    scripts = runner.load_scripts(workdir / "scripts.yaml")
    dst = tuple(inputs["probe_dst"])
    rng = random.Random(inputs["seed"])
    no_plugins = lambda host: None  # noqa: E731 - the empty chain
    plain = ConnectLoop(scripts, no_plugins, dst, rng)
    plain.run(seconds / 2 if traced else seconds, MIN_CONNECT_SAMPLES)
    rss = peak_rss_mb()
    info = {"connects": plain.attempted, "raw wall": plain.metrics(calibrated=False)}
    if not traced:
        metrics = {k: (v, UNITS[k]) for k, v in plain.metrics().items()}
        metrics["peak_rss_mb"] = (rss, "MB")
        return metrics, plain.attempted, plain.failed, plain.problems, info
    loop = ConnectLoop(scripts, no_plugins, dst, rng)
    tracer = spans.Tracer().install()
    try:
        loop.run(0, TRACED_CONNECTS)
    finally:
        tracer.uninstall()
    stack = loop.stack
    factor = statistics.median(b.factor for b in loop.batches)
    layer, missing = layer_metrics("connect", tracer, stack.engine, stack.host, stack.net,
                                   stack.conduit, stack.engine.counters, 0, factor)
    overhead = loop.engine_us_per_conn() / plain.engine_us_per_conn() - 1
    layer["trace.overhead_pct"] = (100 * overhead, "%")
    problems = plain.problems + loop.problems
    problems += [f"traced run recorded no calls of {n}" for n in missing]
    info.update(tracer=tracer, traced=loop.metrics(), untraced=plain.metrics())
    return (layer, plain.attempted + loop.attempted, plain.failed + loop.failed,
            problems, info)


def run_replay(workload: str, inputs: dict, workdir: Path, seconds: float,
               traced: bool) -> tuple:
    replay = Replay(workdir, inputs)
    start = time.perf_counter()
    if not traced:
        scripts, install = probe_chain(workdir, inputs["seed"])
        probe = ConnectLoop(scripts, install, tuple(inputs["probe_dst"]),
                            random.Random(inputs["seed"]))
        # the connect loop first, on a heap no replay has churned yet
        probe.run(seconds * PROBE_SHARE, MIN_CONNECT_SAMPLES)
        reps = []
        while not reps or time.perf_counter() - start < seconds:
            rep = replay.rep()
            del rep["run"], rep["report"]
            reps.append(rep)
        rss = peak_rss_mb()
        raw = replay_metrics(reps, calibrated=False)
        raw.update((k, v) for k, v in probe.metrics(calibrated=False).items()
                   if k.startswith("connect_added"))
        metrics = {k: (v, UNITS[k]) for k, v in replay_metrics(reps).items()}
        for k, v in probe.metrics().items():
            if k.startswith("connect_added"):
                metrics[k] = (v, UNITS[k])
        metrics["peak_rss_mb"] = (rss, "MB")
        return (metrics, replay.attempted + probe.attempted,
                replay.failed + probe.failed, replay.problems + probe.problems,
                {"reps": len(reps), "connects": probe.attempted, "raw wall": raw,
                 "outputs sha256": "report %s pcap %s" % replay.reference})
    plain, layers, traced_reps, missing = [], [], [], set()
    tracer = None
    while not layers or time.perf_counter() - start < seconds:
        rep = replay.rep()
        del rep["run"], rep["report"]
        plain.append(rep)
        tracer = spans.Tracer().install()
        try:
            rep = replay.rep()
        finally:
            tracer.uninstall()
        run = rep.pop("run")
        layer, miss = layer_metrics(workload, tracer, run.engine, run.host, run.upstream,
                                    run.conduit, rep.pop("report")["counters"],
                                    inputs["dns_packets"], rep["factor"])
        del run
        missing.update(miss)
        layers.append(layer)
        traced_reps.append(rep)
    # counts repeat exactly from rep to rep; times are medians over reps
    metrics = {k: (statistics.median(s[k][0] for s in layers) if unit == "us" else value, unit)
               for k, (value, unit) in layers[0].items()}
    untraced, traced_e2e = replay_metrics(plain), replay_metrics(traced_reps)
    overhead = untraced["pkts_per_s"] / traced_e2e["pkts_per_s"] - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    problems = replay.problems + [f"traced run recorded no calls of {n}" for n in sorted(missing)]
    return (metrics, replay.attempted, replay.failed, problems,
            {"tracer": tracer, "reps": len(plain), "traced": traced_e2e, "untraced": untraced,
             "outputs sha256": "report %s pcap %s" % replay.reference})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("connect", "bulk", "app-mix"))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs = json.loads((args.dir / "inputs.json").read_text(encoding="utf-8"))
    traced = bool(args.trace)
    if args.workload == "connect":
        metrics, attempted, failed, problems, info = run_connect(
            inputs, args.dir, args.seconds, traced)
    else:
        metrics, attempted, failed, problems, info = run_replay(
            args.workload, inputs, args.dir, args.seconds, traced)
    if traced:
        metrics.update(_proc_metrics())
        info.pop("tracer").write(args.dir / "spans.tsv")

    print(f"workload {args.workload}  seed {inputs['seed']}  input {inputs['size']}  "
          f"sha256 {inputs.get('inputs_sha256', '-')}")
    for key, value in info.items():
        if isinstance(value, dict):
            value = "  ".join(f"{k}={v:.6g}" for k, v in value.items())
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not traced:
        print(f"  {'fail_ratio':32s} {failed / max(attempted, 1):14.6g} failed/attempted")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
