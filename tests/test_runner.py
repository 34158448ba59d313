"""Runner wiring: ingestion paths, device timeline, engine edge counters."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from helpers import build_engine, spool_of, written_capture

from mbz.config import load_config
from mbz.host import Connectivity
from mbz.packet import (
    SYN, make_tcp_packet, make_udp_packet, parse_packet, serialize_packet,
)
from mbz.pcapio import pcap_write
from mbz.runner import ReplayRun, write_outputs

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = DATA.parent / "src"


class TestIngestion:
    def test_pcap_input_path(self, tmp_path):
        records = [(1000, serialize_packet(make_udp_packet(
            ("10.0.0.2", 6001), ("203.0.113.1", 9), payload=b"hi")))]
        pcap_write(tmp_path / "in.pcap", spool_of(records))
        (tmp_path / "config.yaml").write_text(
            "engine: {local_isn: 5000}\nio: {pcap: in.pcap}\n")
        run = ReplayRun(load_config(tmp_path / "config.yaml"))
        report = run.execute()
        assert report["counters"]["udp_flows_created"] == 1

    def test_outputs_written(self, tmp_path):
        config = load_config(DATA / "golden" / "config.yaml")
        config.report_path = tmp_path / "out" / "report.json"
        run = ReplayRun(config)
        report = run.execute()
        written = write_outputs(run, report, out_pcap=tmp_path / "cap.pcap")
        names = {p.name for p in written}
        assert names == {"report.json", "report.events.jsonl", "cap.pcap"}
        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        assert loaded["counters"] == report["counters"]


# sha256 of the capture each committed config writes; a change to the
# wire bytes must update these on purpose
PINNED_PCAPS = {
    "golden/config.yaml":
        "58bb1563af0bab2377d04b33718400a2cf105a7135e24cfcabbfb3f79ad54ec1",
    "golden/config_deny.yaml":
        "ef34e994dd9170c8fe28e332154f67e162e28ab44c6d773e17419a6ffc022fe1",
    "golden/config_rewrite.yaml":
        "83a99dd44061eebbc963279f60fed6e73a11e2c9b76b603f9d8aa8999c961727",
    "snitch/config.yaml":
        "1ccd3728203cce1f9c79efb64b83f280161408b8a59a99975cedb9cb0b942b8c",
}


class TestPinnedCaptures:
    @pytest.mark.parametrize("config_name", sorted(PINNED_PCAPS))
    def test_capture_matches_pinned_digest(self, tmp_path, config_name):
        config = load_config(DATA / config_name)
        config.report_path = tmp_path / "report.json"
        run = ReplayRun(config)
        report = run.execute()
        # the spool is copied, not consumed: a second target gets the same bytes
        for pcap in (tmp_path / "out.pcap", tmp_path / "again.pcap"):
            write_outputs(run, report, out_pcap=pcap)
            assert hashlib.sha256(pcap.read_bytes()).hexdigest() == PINNED_PCAPS[config_name]


class TestCaptureSpool:
    def replay(self, tmp_path):
        config = load_config(DATA / "golden" / "config.yaml")
        config.report_path = tmp_path / "report.json"
        run = ReplayRun(config)
        return run, run.execute()

    @pytest.mark.parametrize("write", [False, True])
    def test_dropped_run_closes_its_spool(self, tmp_path, monkeypatch, write):
        # an unclosed file warns as it is collected; the warning, an error
        # under this suite's filters, would surface here
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        run, report = self.replay(tmp_path)
        if write:
            write_outputs(run, report)
        spool_file = run.capture._file
        assert not spool_file.closed
        del run, report
        gc.collect()
        assert spool_file.closed
        assert unraisable == []

    def test_no_pcap_without_a_target(self, tmp_path):
        run, report = self.replay(tmp_path)
        assert run.config.out_pcap is None
        written = write_outputs(run, report)
        assert not any(p.suffix == ".pcap" for p in written)
        assert not list(tmp_path.rglob("*.pcap"))


# replays each config given after the output directory into <out>/<i>/
_REPLAY_EACH = """
import sys
from pathlib import Path
from mbz.config import load_config
from mbz.runner import ReplayRun, write_outputs
out = Path(sys.argv[1])
for i, name in enumerate(sys.argv[2:]):
    config = load_config(name)
    config.report_path = out / str(i) / "report.json"
    run = ReplayRun(config)
    write_outputs(run, run.execute(), out_pcap=out / str(i) / "out.pcap")
"""


class TestHashSeedIndependence:
    def test_replay_bytes_do_not_depend_on_pythonhashseed(self, tmp_path):
        # string hashing, and so set and dict-of-set order, changes with
        # the seed; nothing in a report or a capture may follow it
        configs = [str(DATA / name) for name in sorted(PINNED_PCAPS)]
        outputs = {}
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-c", _REPLAY_EACH, str(tmp_path / seed),
                            *configs], env=env, check=True)
            outputs[seed] = [(tmp_path / seed / str(i) / "report.json").read_bytes()
                             + (tmp_path / seed / str(i) / "out.pcap").read_bytes()
                             for i in range(len(configs))]
        assert all(outputs["0"])
        for i, config in enumerate(configs):
            assert outputs["0"][i] == outputs["1"][i], config


class TestSnitchPassivity:
    def test_snitch_only_output_identical_to_no_plugin_run(self, tmp_path):
        # with only the snitch installed, engine output over a trace is
        # byte-identical to the plugin-free run
        golden = DATA / "golden"
        for name in ("trace.jsonl", "scripts.yaml", "orgs.csv"):
            (tmp_path / name).write_bytes((golden / name).read_bytes())
        common = ("engine: {local_isn: 5000}\nseed: 0\n"
                  "io: {trace: trace.jsonl, scripts: scripts.yaml}\n")
        (tmp_path / "bare.yaml").write_text(common + "plugins: []\n")
        (tmp_path / "snitch.yaml").write_text(
            common + "plugins:\n"
            "  - {id: snitch, kind: snitch, org_map: orgs.csv}\n")

        def emitted(cfg):
            run = ReplayRun(load_config(tmp_path / cfg))
            run.execute()
            return written_capture(run, tmp_path / f"{cfg}.pcap")

        assert emitted("bare.yaml") == emitted("snitch.yaml")


class TestBenchWithPlugins:
    def test_plugin_chain_included_on_request(self, tmp_path):
        from mbz.bench import run_bench
        from mbz.runner import install_plugins

        (tmp_path / "trace.jsonl").write_text("")
        (tmp_path / "orgs.csv").write_text(".x.example,x\n")
        (tmp_path / "config.yaml").write_text(
            "engine: {local_isn: 5000}\n"
            "io: {trace: trace.jsonl}\n"
            "plugins:\n  - {id: s, kind: snitch, org_map: orgs.csv}\n")
        config = load_config(tmp_path / "config.yaml")
        seen = {}

        def installer(host):
            seen["plugins"] = install_plugins(config, host, 0)

        result = run_bench(30, install_plugins=installer)
        assert result.summary["count"] == 30
        snitch = seen["plugins"]["s"]
        assert len(snitch.records) == 30  # the chain really ran


class TestBoundedBench:
    @staticmethod
    def retained(engine) -> list[str]:
        """Names of the engine's non-empty lists and deques."""
        return [name for name, value in vars(engine).items()
                if isinstance(value, (list, deque)) and value]

    def test_engine_without_a_sink_keeps_no_packet_record(self):
        engine = build_engine([{"cidr": "10.1.0.0/24", "behavior": "echo"}])
        for port in range(40000, 40020):
            engine.conduit.inject(serialize_packet(make_tcp_packet(
                ("10.0.0.2", port), ("10.1.0.1", 80), seq=1, ack=0, flags=SYN)))
            engine.pump()
        assert len(engine.conduit.take_emitted()) == 20  # one SYN/ACK each
        assert engine.sink is None
        assert not hasattr(engine, "capture")
        assert self.retained(engine) == []

    def test_run_bench_builds_its_engine_without_a_sink(self, monkeypatch):
        from mbz import bench
        built = []

        class Recorded(bench.Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(bench, "Engine", Recorded)
        bench.run_bench(30)
        (engine,) = built
        assert engine.sink is None
        assert self.retained(engine) == []

    def test_every_connection_gets_its_own_valid_endpoint(self):
        from mbz.bench import app_endpoint
        # the 45,536th connection was the first whose port passed 65535
        indices = [45_534, 45_535, 45_536, 45_537, 1_000_000]
        endpoints = [app_endpoint(i) for i in indices]
        assert len(set(endpoints)) == len(indices)
        for app in endpoints:
            syn = parse_packet(serialize_packet(make_tcp_packet(
                app, ("127.0.0.1", 7777), seq=1, ack=0, flags=SYN)))
            assert (syn.ip.src_addr, syn.transport.src_port) == app

    def test_connections_across_an_address_boundary_are_each_timed(self, monkeypatch):
        from mbz import bench
        endpoint = bench.app_endpoint
        # 10 connections on 10.0.19.2, then 20 on 10.0.20.2
        monkeypatch.setattr(bench, "app_endpoint", lambda i: endpoint(999_990 + i))
        assert bench.run_bench(30, concurrency=4).summary["count"] == 30


class TestRandomIsnSeeding:
    def _config(self, tmp_path):
        from mbz.trace import APP_TO_NET, TraceEvent, write_trace
        events = [TraceEvent(i * 1000, APP_TO_NET, "app", serialize_packet(
            make_tcp_packet(("10.0.0.2", 40000 + i), ("10.9.0.1", 80),
                            seq=100, ack=0, flags=SYN))) for i in range(2)]
        write_trace(tmp_path / "trace.jsonl", events)
        (tmp_path / "scripts.yaml").write_text(
            "- {cidr: 10.9.0.1/32, behavior: echo}\n")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(  # no local_isn: random per flow, seeded
            "io: {trace: trace.jsonl, scripts: scripts.yaml}\nseed: 0\n")
        return cfg

    def test_same_seed_identical_capture(self, tmp_path):
        cfg = self._config(tmp_path)

        def capture(seed):
            run = ReplayRun(load_config(cfg), seed=seed)
            run.execute()
            return written_capture(run, tmp_path / f"{seed}.pcap")

        assert capture(7) == capture(7)
        a, b = capture(7), capture(8)
        assert [t for t, _d in a] == [t for t, _d in b]  # same timing
        assert a != b  # different ISNs on the wire

    def test_seed_recorded_in_report(self, tmp_path):
        cfg = self._config(tmp_path)
        run = ReplayRun(load_config(cfg), seed=99)
        assert run.execute()["seed"] == 99


class TestDeviceTimeline:
    def test_timeline_drives_context(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        (tmp_path / "config.yaml").write_text(
            "engine: {local_isn: 5000}\n"
            "io:\n"
            "  trace: trace.jsonl\n"
            "  device_timeline:\n"
            "    - {at_us: 0, connectivity: cellular, battery_percent: 42}\n")
        run = ReplayRun(load_config(tmp_path / "config.yaml"))
        run.execute()
        assert run.host.device.connectivity is Connectivity.CELLULAR
        assert run.host.device.battery_percent == 42


class TestEngineEdgeCounters:
    def test_unsupported_transport_dropped_with_counter(self):
        engine = build_engine([])
        icmp = make_udp_packet(("10.0.0.2", 0), ("203.0.113.1", 0))
        icmp.ip.protocol = 1
        icmp.transport = None
        icmp.payload = b"\x08\x00\x00\x00"
        engine.conduit.inject(serialize_packet(icmp))
        engine.pump()
        assert engine.counters["unsupported_transport_dropped"] == 1
        assert engine.conduit.take_emitted() == []

    def test_bad_transport_checksum_processed_with_warning(self):
        # offload-zeroed or corrupted checksums are warnings, not drops
        engine = build_engine([{"cidr": "10.1.0.1/32", "behavior": "echo"}])
        wire = bytearray(serialize_packet(make_tcp_packet(
            ("10.0.0.2", 40000), ("10.1.0.1", 80), seq=9, ack=0, flags=SYN)))
        wire[36] ^= 0xFF  # corrupt the TCP checksum
        engine.conduit.inject(bytes(wire))
        engine.pump()
        assert engine.counters["checksum_warnings"] == 1
        out = [parse_packet(d) for _t, d in engine.conduit.take_emitted()]
        assert len(out) == 1  # SYN/ACK still synthesized

    def test_garbage_counts_parse_error(self):
        engine = build_engine([])
        engine.conduit.inject(b"\x45\x00junk")
        engine.pump()
        assert engine.counters["parse_errors"] == 1

    def test_udp_redirect_changes_upstream_target_only(self):
        from mbz.host import Permission, PluginDescriptor
        from mbz.config import rules_from_list
        from mbz.plugins.firewall import FirewallPlugin

        engine = build_engine([{"cidr": "10.5.5.5/32", "behavior": "echo"}])
        fw = FirewallPlugin(rules_from_list([
            {"match": {"protocol": "udp", "dst": "203.0.113.0/24"},
             "action": {"switch": "10.5.5.5:9"}}]))
        engine.host.register(PluginDescriptor(
            id="fw", name="fw",
            requested=Permission.OBSERVE | Permission.REDIRECT_FLOW), fw)
        engine.conduit.inject(serialize_packet(make_udp_packet(
            ("10.0.0.2", 6001), ("203.0.113.7", 9000), payload=b"ping")))
        engine.pump()
        assert engine.upstream.datagram_log == [(("10.5.5.5", 9), b"ping")]
        reply = parse_packet(engine.conduit.take_emitted()[0][1])
        # app still sees the address it asked for
        assert (reply.ip.src_addr, reply.transport.src_port) == ("203.0.113.7", 9000)
