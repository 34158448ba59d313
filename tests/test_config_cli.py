"""Config loading strictness, CLI exit codes, report formats."""

import json
import shutil
import struct
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from mbz.cli import main
from mbz.clock import Scheduler
from mbz.config import (
    PLUGIN_TABLE, ConfigLoadError, DuplicatePluginId, MissingFile, ParseError, load_config,
)
from mbz.host import (PERMISSION_NAMES, HostError, PluginDescriptor, PluginHost,
                      ResourceBudget, TrafficPlugin, permissions_from_names)
from mbz.packet import (
    ACK, PSH, SYN, make_tcp_packet, make_udp_packet, mss_option, serialize_packet,
)
from mbz.pcapio import pcap_read
from mbz.runner import ReplayRun, install_plugins
from mbz.trace import APP_TO_NET, TraceEvent, write_trace
from mbz.upstream import SimUpstream
from mbz.report import (
    BadReport, delta_cdf, format_report, load_report, summarize_deltas,
)

DATA = Path(__file__).resolve().parent.parent / "data"
README = DATA.parent / "README.md"


def _golden_with(tmp_path: Path, path: tuple, value) -> Path:
    """The config of a copy of the golden run, with `value` at `path`."""
    shutil.copytree(DATA / "golden", tmp_path, dirs_exist_ok=True)
    raw = yaml.safe_load((tmp_path / "config.yaml").read_text())
    parent = raw
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(raw))
    return tmp_path / "config.yaml"


def _mbz_lines(capsys) -> list[str]:
    """The lines the command wrote to stderr itself (not log records)."""
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("mbz")]


def write_min_config(tmp_path: Path, extra: str = "", plugins: str = "plugins: []\n") -> Path:
    (tmp_path / "trace.jsonl").write_text("")
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        "engine: {local_isn: 5000}\n"
        "seed: 0\n"
        "io: {trace: trace.jsonl}\n"
        + plugins + extra)
    return cfg


class TestLoadConfig:
    def test_minimal_config_valid(self, tmp_path):
        config = load_config(write_min_config(tmp_path))
        assert config.engine.local_isn == 5000
        assert config.plugins == []
        assert config.engine.mtu == 1500  # defaults in place

    def test_readme_example_loads(self, tmp_path):
        # every key the README documents must pass the strict loader
        example = README.read_text(encoding="utf-8").split("```yaml\n", 1)[1].split("```")[0]
        raw = yaml.safe_load(example)
        files = [raw["io"][k] for k in ("trace", "pcap", "scripts") if k in raw["io"]]
        files += [p[k] for p in raw["plugins"] for k in ("org_map", "rules") if k in p]
        for name in files:
            (tmp_path / name).write_text("")
        (tmp_path / "config.yaml").write_text(example)
        config = load_config(tmp_path / "config.yaml")
        assert [p.descriptor.id for p in config.plugins] == [p["id"] for p in raw["plugins"]]

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("io: {trace: trace.jsonl, speeed: 1.0}\n")
        with pytest.raises(ParseError, match="speeed"):
            load_config(cfg)

    def test_unknown_keys_of_mixed_types_rejected(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("io: {trace: trace.jsonl, 5: 1, speeed: 1.0}\n")
        with pytest.raises(ParseError, match="unknown key"):
            load_config(cfg)

    def test_missing_rules_file_named(self, tmp_path):
        cfg = write_min_config(
            tmp_path,
            plugins="plugins:\n  - {id: fw, kind: firewall, rules: absent.yaml}\n")
        with pytest.raises(MissingFile, match="absent.yaml"):
            load_config(cfg)

    def test_duplicate_plugin_id(self, tmp_path):
        (tmp_path / "orgs.csv").write_text(".x.example,x\n")
        cfg = write_min_config(
            tmp_path,
            plugins=("plugins:\n"
                     "  - {id: s, kind: snitch, org_map: orgs.csv}\n"
                     "  - {id: s, kind: snitch, org_map: orgs.csv}\n"))
        with pytest.raises(DuplicatePluginId):
            load_config(cfg)

    def test_bad_engine_values_rejected(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("engine: {mtu: -5}\nio: {trace: trace.jsonl}\n")
        with pytest.raises(ParseError):
            load_config(cfg)

    def test_dns_timeout_must_not_exceed_udp(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(
            "engine: {udp_timeout_s: 5, dns_timeout_s: 10}\n"
            "io: {trace: trace.jsonl}\n")
        with pytest.raises(ParseError):
            load_config(cfg)

    def test_unknown_plugin_kind(self, tmp_path):
        cfg = write_min_config(
            tmp_path, plugins="plugins:\n  - {id: x, kind: teleporter}\n")
        with pytest.raises(ParseError, match="teleporter"):
            load_config(cfg)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_config(tmp_path / "nope.yaml")

    def test_non_json_formats_require_a_path(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("io: {trace: trace.jsonl}\nreport: {formats: [csv]}\n")
        with pytest.raises(ParseError, match="require a path"):
            load_config(cfg)

    @pytest.mark.parametrize("fmt", ["csv", "plotdata"])
    def test_projected_formats_require_a_snitch_plugin_exit_2(self, tmp_path, capsys, fmt):
        # csv and plotdata project the snitch section; without a snitch
        # plugin the config is refused before the replay runs
        cfg = write_min_config(
            tmp_path, extra=f"report: {{path: out/report.json, formats: [json, {fmt}]}}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "require a snitch plugin" in err
        assert not (tmp_path / "out").exists()

    def test_csv_format_written_alongside_report(self, tmp_path):
        data = Path(__file__).resolve().parent.parent / "data" / "golden"
        for name in ("trace.jsonl", "scripts.yaml", "orgs.csv"):
            (tmp_path / name).write_bytes((data / name).read_bytes())
        cfg = tmp_path / "config.yaml"
        cfg.write_text(
            "engine: {local_isn: 5000}\n"
            "io: {trace: trace.jsonl, scripts: scripts.yaml}\n"
            "plugins:\n"
            "  - {id: snitch, kind: snitch, org_map: orgs.csv}\n"
            "report: {path: out/report.json, formats: [json, csv]}\n")
        assert main(["replay", "--config", str(cfg)]) == 0
        csv_text = (tmp_path / "out" / "report.csv").read_text()
        assert csv_text.startswith("organization,requests\n")

    @pytest.mark.parametrize("engine, plugin, key", [
        ("{udp_timeout_s: 0}", "", "udp_timeout_s"),
        ("{dns_timeout_s: -1}", "", "dns_timeout_s"),
        ("{sweep_interval_s: .inf}", "", "sweep_interval_s"),
        ("{sweep_interval_s: 0.0000004}", "", "sweep_interval_s"),  # 0 us
        ("{}", "{id: w1, kind: dns-whatif, timeout_s: true}", "timeout_s"),
        ("{udp_timeout_s: .nan}", "", "udp_timeout_s"),
        ("{dns_timeout_s: false}", "", "dns_timeout_s"),
    ], ids=["udp-timeout", "dns-timeout", "sweep-interval-long", "sweep-interval-short",
            "whatif-timeout", "udp-timeout-nan", "dns-timeout-bool"])
    def test_durations_out_of_bounds_exit_2(self, tmp_path, capsys, engine, plugin, key):
        # a duration is a number of seconds that comes to 1 us or more
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"engine: {engine}\nio: {{trace: trace.jsonl}}\nplugins: [{plugin}]\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and f"{key}: bad value" in err

    def test_durations_at_their_bounds_load(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(
            "engine: {udp_timeout_s: 0.000001, dns_timeout_s: 0.000001,"
            " sweep_interval_s: 0.000001}\n"
            "io: {trace: trace.jsonl}\n"
            "plugins: [{id: w1, kind: dns-whatif, timeout_s: 0.000001}]\n")
        config = load_config(cfg)
        engine = config.engine
        assert (engine.udp_timeout_us, engine.dns_timeout_us, engine.sweep_interval_us) == (
            1, 1, 1)
        assert config.plugins[0].settings["timeout_us"] == 1

    @pytest.mark.parametrize("engine, plugin, field, us", [
        ("{udp_timeout_s: 3601}", "", "udp_timeout_us", 3_601_000_000),
        ("{udp_timeout_s: 3601, dns_timeout_s: 3601}", "", "dns_timeout_us", 3_601_000_000),
        ("{sweep_interval_s: 3601}", "", "sweep_interval_us", 3_601_000_000),
        ("{sweep_interval_s: 0.009}", "", "sweep_interval_us", 9_000),
        ("{}", "{id: w1, kind: dns-whatif, timeout_s: 3601}", "timeout_us", 3_601_000_000),
    ], ids=["udp-timeout", "dns-timeout", "sweep-interval-long", "sweep-interval-short",
            "whatif-timeout"])
    def test_durations_past_an_hour_or_under_10_ms_load(self, tmp_path, engine, plugin,
                                                        field, us):
        # a replay sweeps only when a flow can expire, so a long duration costs no idle sweeps
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"engine: {engine}\nio: {{trace: trace.jsonl}}\nplugins: [{plugin}]\n")
        config = load_config(cfg)
        values = config.plugins[0].settings if plugin else vars(config.engine)
        assert values[field] == us

    def test_rfc_5382_idle_timeout_replays_in_few_sweeps(self, tmp_path):
        # the golden run with flows idle for up to 7,440 s (2 h 4 min): the
        # run sweeps only when a flow can expire or a closed flow waits
        cfg = _golden_with(tmp_path, ("engine",),
                           {"local_isn": 5000, "udp_timeout_s": 7440, "dns_timeout_s": 7440})
        config = load_config(cfg)
        run = ReplayRun(config)
        sweeps = []
        sweep = run.engine.sweep
        run.engine.sweep = lambda: (sweeps.append(run.scheduler.now_us()), sweep())
        report = run.execute()
        run.events.copy_to(tmp_path / "events.jsonl")
        events = map(json.loads, (tmp_path / "events.jsonl").read_text().splitlines())
        evictions = [e for e in events if e["event"] == "eviction"]
        assert len(sweeps) <= len(evictions) + 1
        # the last UDP flow goes 7,440 s after its last activity, past the last packet
        idle = [e for e in evictions if e["evicted"]]
        assert idle and idle[-1]["ts_us"] > 7_440_000_000
        assert report["counters"]["udp_flows_evicted_idle"] == \
            report["counters"]["udp_flows_created"]


class TestCliExitCodes:
    def test_replay_ok_and_outputs(self, tmp_path, capsys):
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(
            "engine: {local_isn: 5000}\n"
            "io: {trace: trace.jsonl}\n"
            "report: {path: out/report.json}\n")
        code = main(["replay", "--config", str(cfg)])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(v == 0 for v in report["counters"].values())
        assert (tmp_path / "out" / "report.events.jsonl").read_bytes() == b""
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["report.events.jsonl", "report.json"]

    def test_replay_empty_trace_zero_counters_exit_0(self, tmp_path, capsys):
        cfg = write_min_config(tmp_path)
        assert main(["replay", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(v == 0 for v in report["counters"].values())

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_text("io: {trace: missing.jsonl}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("rules", [
        "- {match: {dst: 10.0.0.0/33}, action: deny}\n",
        "- {match: {app: '*'}, action: {deny: loud}}\n",
        "- 42\n",
        "- {match: {ports: '80'}, action: {deny: reset}}\n",
        "- {match: {ports: [70000]}, action: {deny: reset}}\n",
        "- {match: {ports: [true]}, action: {deny: reset}}\n",
        "- {match: {dst: [10.0.0.1]}, action: {deny: reset}}\n",
        "- {match: {app: '*'}, action: {switch: 'upstream.example:8080'}}\n",
        "- {match: {app: '*'}, action: {switch: '10.5.5.5:70000'}}\n",
        "- {match: {app: '*'}, action: {switch: '10.5.5.5'}}\n",
        "- {match: {app: '*'}, action: {deny: inject, notice: 5}}\n",
        "- {match: {app: '*'}, action: {rewrite: {pattern: abc}}}\n",
    ], ids=["cidr-33", "deny-loud", "not-a-mapping", "ports-string", "port-out-of-range",
            "port-bool", "dst-list", "switch-hostname", "switch-port-out-of-range",
            "switch-no-port", "notice-int", "rewrite-no-replacement"])
    def test_malformed_firewall_rules_exit_2(self, tmp_path, capsys, rules):
        (tmp_path / "rules.yaml").write_text(rules)
        cfg = write_min_config(
            tmp_path, plugins="plugins:\n  - {id: fw1, kind: firewall, rules: rules.yaml}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "'fw1'" in err and "rules.yaml" in err

    @pytest.mark.parametrize("plugins", ["5", "true", "abc", "{id: p0, kind: snitch}"])
    def test_plugins_not_a_list_exit_2(self, tmp_path, capsys, plugins):
        cfg = write_min_config(tmp_path, plugins=f"plugins: {plugins}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        assert "mbz: config error: plugins" in capsys.readouterr().err

    def test_malformed_org_map_exit_2(self, tmp_path, capsys):
        (tmp_path / "orgs.csv").write_text(".x.example,x\na,b,c\n")
        cfg = write_min_config(
            tmp_path, plugins="plugins:\n  - {id: sn1, kind: snitch, org_map: orgs.csv}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "'sn1'" in err and "orgs.csv" in err

    def test_rules_file_not_yaml_exit_2(self, tmp_path, capsys):
        (tmp_path / "rules.yaml").write_text("- {match: [unclosed\n")
        cfg = write_min_config(
            tmp_path, plugins="plugins:\n  - {id: fw2, kind: firewall, rules: rules.yaml}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "'fw2'" in err and "rules.yaml" in err

    @pytest.mark.parametrize("plugin", [
        "{id: w1, kind: dns-whatif, probability: lots}",
        "{id: w1, kind: dns-whatif, timeout_s: [2]}",
        "{id: w1, kind: dns-whatif, timeout_s: .inf}",
        "{id: w1, kind: protocol-advisor, min_samples: many}",
        "{id: w1, kind: protocol-advisor, loss_rate_threshold: high}",
    ], ids=["probability-word", "timeout-list", "timeout-inf", "min-samples-word",
            "threshold-word"])
    def test_non_numeric_plugin_setting_exit_2(self, tmp_path, capsys, plugin):
        cfg = write_min_config(tmp_path, plugins=f"plugins:\n  - {plugin}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "plugin 'w1':" in err

    @pytest.mark.parametrize("path, value", [
        (("plugins", 0, "permissions"), None),
        (("plugins", 0, "permissions"), 7),
        (("plugins", 0, "permissions"), "observe"),
        (("plugins", 0, "permissions"), [["observe"]]),
        (("plugins", 0, "budget"), {"max_cpu_us_per_packet": "lots"}),
        (("plugins", 0, "wifi_only_export"), "no"),
        (("plugins", 0, "first_party_orgs"), "resolver"),
        (("plugins", 1, "resolvers"), "9.9.9.9:53"),
        (("plugins", 1, "resolvers"), ["dns.google:53"]),
        (("plugins", 1, "resolvers"), ["9.9.9.9:99999"]),
        (("plugins", 1, "resolvers"), ["9.9.9.9:0"]),
        (("plugins", 1, "resolvers"), ["9.9.9.9"]),
        (("plugins", 1, "probability"), 1.5),
        (("plugins", 1, "probability"), -0.1),
        (("plugins", 1, "probability"), float("nan")),
        (("plugins", 1, "probability"), True),
        (("plugins", 1, "timeout_s"), -1),
        (("plugins", 1, "timeout_s"), 0),
        (("plugins", 2, "loss_rate_threshold"), 2),
        (("plugins", 2, "loss_rate_threshold"), -0.5),
        (("plugins", 2, "loss_rate_threshold"), True),
        (("plugins", 2, "min_samples"), -1),
        (("plugins", 0, "burst_gap_s"), -1),
        (("plugins", 0, "org_map"), 7),
        (("engine", "mtu"), "lots"),
        (("engine", "udp_timeout_s"), "lots"),
        (("engine", "sweep_interval_s"), float("nan")),
        (("engine", "local_isn"), "lots"),
        (("seed",), "lots"),
        (("io", "device_timeline"), [{"connectivity": "satellite"}]),
        (("io", "device_timeline"), [{"battery_percent": 150}]),
        (("io", "device_timeline"), [{"at_us": "lots"}]),
        (("io", "device_timeline"), {"at_us": 0}),
        (("io", "scripts"), 7),
        (("io", "scripts"), "scripts\x00.yaml"),
        (("host",), {"low_battery_throttle": "lots"}),
        (("report",), {"formats": "json"}),
        (("report",), {"path": 7}),
        # integers only: not a boolean, a float or a numeric string
        (("engine", "mtu"), "1500"),
        (("engine", "mtu"), 1500.9),
        (("engine", "socket_budget"), 16.0),
        (("engine", "buffer_capacity"), "65536"),
        (("engine", "local_isn"), True),
        (("engine", "local_isn"), 5000.5),
        (("plugins", 0, "budget"), {"max_cpu_us_per_packet": True}),
        (("plugins", 0, "budget"), {"violation_grace": 3.5}),
        (("plugins", 2, "min_samples"), True),
        (("plugins", 2, "min_samples"), 20.5),
        (("host",), {"low_battery_throttle": True}),
        (("host",), {"low_battery_throttle": "20"}),
        (("host",), {"low_battery_throttle": -1}),
        (("io", "device_timeline"), [{"at_us": True}]),
        (("io", "device_timeline"), [{"battery_percent": True}]),
        (("io", "device_timeline"), [{"battery_percent": 50.5}]),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else repr(v))
    def test_malformed_value_exit_2(self, tmp_path, capsys, path, value):
        # each case edits one value of a copy of the golden run's config
        assert main(["replay", "--config", str(_golden_with(tmp_path, path, value))]) == 2
        assert "mbz: config error" in capsys.readouterr().err

    def test_non_numeric_snitch_gap_names_the_plugin(self, tmp_path, capsys):
        (tmp_path / "orgs.csv").write_text(".x.example,x\n")
        cfg = write_min_config(tmp_path, plugins=(
            "plugins:\n  - {id: sn1, kind: snitch, org_map: orgs.csv, burst_gap_s: soon}\n"))
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "'sn1'" in err and "soon" in err

    @pytest.mark.parametrize("scripts", [
        b"- {cidr: [unclosed\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo}\n- \xff\n",
        b"{cidr: 10.200.0.0/16, behavior: echo}\n",
        b"- 42\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo, delay_us: abc}\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo, delay_us: 1.5}\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo, jitter_us: -1}\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo, recv_window: true}\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo, ports: [x]}\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo, ports: '80'}\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo, ports: [70000]}\n",
        b"- {cidr: 10.200.0.0/33, behavior: echo}\n",
        b"- {behavior: echo}\n",
        b"- {cidr: 10.200.0.0/16, behavior: teleport}\n",
        b"- {cidr: 10.200.0.0/16, behavior: static, response: 5}\n",
        b"- {cidr: 10.200.0.0/16, behavior: static, response_hex: zz}\n",
        b"- {cidr: 8.8.8.8/32, behavior: dns, answers: [a.example]}\n",
        b"- {cidr: 8.8.8.8/32, behavior: dns, answers: {a.example: 10.0.0.1}}\n",
        b"- {cidr: 8.8.8.8/32, behavior: dns, answers: {a.example: [10.0.0.256]}}\n",
        b"- {cidr: 8.8.8.8/32, behavior: dns, tamper: {drop: a.example}}\n",
        b"- {cidr: 8.8.8.8/32, behavior: dns, tamper: {nxdomain_to: [x]}}\n",
        b"- {cidr: 8.8.8.8/32, behavior: dns, tamper: {override: {a.example: [1]}}}\n",
        b"- {cidr: 8.8.8.8/32, behavior: dns, tamper: {rewrite: []}}\n",
    ], ids=["not-yaml", "not-utf8", "top-level-mapping", "entry-not-a-mapping",
            "delay-word", "delay-float", "jitter-negative", "window-bool", "ports-word",
            "ports-string", "port-out-of-range", "cidr-33", "cidr-missing",
            "behavior-unknown", "response-int", "response-hex-odd", "answers-list",
            "answer-not-a-list", "answer-bad-ip", "drop-string", "nxdomain-bad-ip",
            "override-int-ip", "tamper-unknown-key"])
    def test_malformed_scripts_exit_2(self, tmp_path, capsys, scripts):
        # each case replaces the golden run's scripts file
        shutil.copytree(DATA / "golden", tmp_path, dirs_exist_ok=True)
        (tmp_path / "scripts.yaml").write_bytes(scripts)
        assert main(["replay", "--config", str(tmp_path / "config.yaml")]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "scripts.yaml" in err

    @pytest.mark.parametrize("line", [
        b'{"ts_us": true, "dir": "out", "app": "", "pkt_b64": ""}',
        b'{"ts_us": 1.5, "dir": "out", "app": "", "pkt_b64": ""}',
        b'{"ts_us": -1, "dir": "out", "app": "", "pkt_b64": ""}',
        b'{"ts_us": ' + b"9" * 5000 + b', "dir": "out", "app": "", "pkt_b64": ""}',
        b'{"ts_us": 0, "dir": "out", "app": 5, "pkt_b64": ""}',
        b'{"ts_us": 0, "dir": "out", "app": null, "pkt_b64": ""}',
        rb'{"ts_us": 0, "dir": "out", "app": "", "pkt_b64": "\u00e9AAA"}',
        b'{"ts_us": 0, "dir": "out", "app": "", "pkt_b64": 7}',
        b'{"ts_us": 0, "dir": ["out"], "app": "", "pkt_b64": ""}',
        b'{"ts_us": 0, "dir": "out", "app": ""}',
        b'[0, "out", "", ""]',
        b"[" * 100_000,
        b'{"ts_us": 0, "dir": "out", "app": "\xff", "pkt_b64": ""}',
    ], ids=["ts-bool", "ts-float", "ts-negative", "ts-5000-digits", "app-int", "app-null",
            "pkt-non-ascii", "pkt-int", "dir-list", "pkt-missing", "not-an-object",
            "deep-nesting", "not-utf8"])
    def test_hostile_trace_line_exit_3(self, tmp_path, capsys, line):
        (tmp_path / "trace.jsonl").write_bytes(line + b"\n")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("io: {trace: trace.jsonl}\n")
        assert main(["replay", "--config", str(cfg)]) == 3
        assert "mbz: i/o error: line 1" in capsys.readouterr().err

    def test_io_error_exit_3(self, tmp_path, capsys):
        (tmp_path / "trace.jsonl").write_text("this is not json\n")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("io: {trace: trace.jsonl}\n")
        assert main(["replay", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("scripts", [
        b"- {cidr: 10.200.0.0/16, behavior: teleport}\n",
        b"- {cidr: 10.200.0.0/16, behavior: echo, delay_us: 1.5}\n",
        b"{cidr: 10.200.0.0/16, behavior: echo}\n",
        b"- {cidr: [unclosed\n",
    ], ids=["behavior-unknown", "delay-float", "top-level-mapping", "not-yaml"])
    def test_run_checks_the_scripts(self, tmp_path, capsys, scripts):
        shutil.copytree(DATA / "golden", tmp_path, dirs_exist_ok=True)
        (tmp_path / "scripts.yaml").write_bytes(scripts)
        assert main(["replay", "--config", str(tmp_path / "config.yaml")]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "scripts.yaml" in err

    def test_root_name_query_replays(self, tmp_path, capsys):
        # the resolver's reply to an NS query for the root names the root
        shutil.copytree(DATA / "golden", tmp_path, dirs_exist_ok=True)
        query = struct.pack("!HHHHHH", 1, 0x0100, 1, 0, 0, 0) + b"\x00\x00\x02\x00\x01"
        packet = serialize_packet(make_udp_packet(("10.0.0.2", 40000), ("8.8.8.8", 53), query))
        write_trace(tmp_path / "trace.jsonl", [TraceEvent(0, APP_TO_NET, "app", packet)])
        assert main(["replay", "--config", str(tmp_path / "config.yaml")]) == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert counters["udp_inbound_unroutable"] == 0

    @pytest.mark.parametrize("plugin, org_map", [
        ("{id: w1, kind: dns-whatif, probability: lots}", ""),
        ("{id: w1, kind: snitch, org_map: orgs.csv}", ".x.example,x\na,b,c\n"),
    ], ids=["probability-word", "org-map-three-columns"])
    def test_run_checks_plugin_settings(self, tmp_path, capsys, plugin, org_map):
        (tmp_path / "orgs.csv").write_text(org_map)
        cfg = write_min_config(tmp_path, plugins=f"plugins:\n  - {plugin}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "plugin 'w1'" in err

    def test_bench_too_few_samples_exit_2(self, capsys):
        assert main(["bench", "--n", "10"]) == 2

    def test_report_missing_file_exit_3(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 3

    def test_report_malformed_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["report", str(bad)]) == 3

    def test_report_renders_golden_csv(self, tmp_path, capsys):
        assert main(["report", str(DATA / "golden" / "golden_report.json"),
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if l]
        assert lines[0] == "organization,requests"
        # row count equals org count
        report = load_report(DATA / "golden" / "golden_report.json")
        orgs = report["snitch"]["snitch"]["third_party"]["requests_per_org"]
        assert len(lines) - 1 == len(orgs)


def _largest_reply_run(tmp_path: Path, mtu: int) -> Path:
    """A flow whose SYN offers an MSS of 65535 to a server that answers
    65,535 bytes, so each segment toward the app is as large as `mtu` allows."""
    app, server = ("10.0.0.2", 40000), ("10.200.1.1", 8080)
    packets = [make_tcp_packet(app, server, 1000, 0, SYN, options=mss_option(65535)),
               make_tcp_packet(app, server, 1001, 5001, ACK),
               make_tcp_packet(app, server, 1001, 5001, ACK | PSH, payload=b"GET")]
    write_trace(tmp_path / "trace.jsonl", [
        TraceEvent(1000 * i, APP_TO_NET, "app", serialize_packet(p))
        for i, p in enumerate(packets)])
    (tmp_path / "scripts.yaml").write_text(yaml.safe_dump([{
        "cidr": "10.200.0.0/16", "ports": [8080], "behavior": "static",
        "response": "x" * 65535}]))
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "engine": {"local_isn": 5000, "mtu": mtu},
        "io": {"trace": "trace.jsonl", "scripts": "scripts.yaml"}, "plugins": []}))
    return cfg


class TestMtuBounds:
    """`engine.mtu` runs from RFC 791's 68-byte minimum datagram to the
    65,535 bytes the IPv4 total-length field holds; outside that range the
    engine cannot write its own segments."""

    @pytest.mark.parametrize("mtu", [39, 67, 65536])
    def test_out_of_range_exit_2_naming_engine(self, tmp_path, capsys, mtu):
        # 39: the MSS it implies is negative, which the MSS option cannot hold
        assert main(["replay", "--config", str(_golden_with(tmp_path, ("engine", "mtu"), mtu))]) == 2
        assert "mbz: config error: engine" in capsys.readouterr().err

    @pytest.mark.parametrize("mtu", [68, 65535])
    def test_bounds_load_and_replay(self, tmp_path, mtu):
        cfg = _golden_with(tmp_path, ("engine", "mtu"), mtu)
        assert load_config(cfg).engine.mtu == mtu
        assert main(["replay", "--config", str(cfg)]) == 0

    def test_a_segment_past_the_total_length_field_is_refused(self, tmp_path, capsys):
        cfg = _largest_reply_run(tmp_path, 70000)
        assert main(["replay", "--config", str(cfg)]) == 2
        assert "mbz: config error: engine" in capsys.readouterr().err

    def test_largest_mtu_writes_full_size_segments(self, tmp_path):
        cfg = _largest_reply_run(tmp_path, 65535)
        assert main(["replay", "--config", str(cfg), "--out-pcap", str(tmp_path / "out.pcap")]) == 0
        assert max(len(data) for _ts, data in pcap_read(tmp_path / "out.pcap")) == 65535


# values wrong for most plugin settings: words, wrong types, negative and
# non-finite numbers, lists, booleans and out-of-range ports; each setting
# draws from these or from its own valid values (`_SETTINGS`)
_ODD = st.one_of(
    st.booleans(), st.none(), st.integers(-70_000, 70_000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["lots", "", "-1", "0.5", "any", "9.9.9.9:53", "orgs.csv"]),
    st.lists(st.one_of(st.integers(-1, 70_000), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(), max_size=2),
)
_TARGETS = st.sampled_from(["9.9.9.9:53", "1.1.1.1:5353", "9.9.9.9:99999", "9.9.9.9:0",
                            "dns.google:53", "9.9.9.9", "9.9.9.9:-53", ":53"])
_SETTINGS = {
    "snitch": {
        "org_map": st.sampled_from(["orgs.csv", "orgs-3col.csv", "absent.csv"]),
        "first_party_orgs": st.lists(st.sampled_from(["resolver", "x"]), max_size=2),
        "burst_gap_s": st.floats(0, 5),
    },
    "firewall": {
        "rules": st.sampled_from(["rules.yaml", "rules-bad.yaml", "absent.yaml"]),
        "default_allow": st.booleans(),
    },
    "dns-whatif": {
        "resolvers": st.lists(_TARGETS, max_size=3),
        "probability": st.floats(0, 1),
        "timeout_s": st.floats(0.001, 10),
    },
    "protocol-advisor": {
        "loss_rate_threshold": st.floats(0, 1),
        "min_samples": st.integers(0, 100),
    },
}
_ENTRY = st.one_of([
    st.fixed_dictionaries({"kind": st.just(kind)}, optional={
        key: st.one_of(valid, _ODD) for key, valid in settings.items()})
    for kind, settings in _SETTINGS.items()])


class TestPluginSettingsCheckedAtLoad:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("settings")
        (path / "trace.jsonl").write_text("")
        (path / "orgs.csv").write_text(".x.example,x\n8.8.8.8/32,resolver\n")
        (path / "orgs-3col.csv").write_text(".x.example,x\na,b,c\n")
        (path / "rules.yaml").write_text(
            "- {match: {ports: [53]}, action: {switch: '10.5.5.5:53'}}\n")
        (path / "rules-bad.yaml").write_text("- {match: {ports: '80'}, action: allow}\n")
        return path

    # `too_slow` times only the drawing of `entries`, a few ms per example:
    # it fails only when the host stalls for a second during a draw
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(entries=st.lists(_ENTRY, min_size=1, max_size=4))
    def test_a_loaded_config_installs(self, workdir, entries):
        # every setting is checked in one phase: what `load_config`
        # accepts, `install_plugins` builds
        plugins = [dict(entry, id=f"p{i}") for i, entry in enumerate(entries)]
        cfg = workdir / "config.yaml"
        cfg.write_text(yaml.safe_dump({"io": {"trace": "trace.jsonl"}, "plugins": plugins}))
        try:
            config = load_config(cfg)
        except ConfigLoadError:
            return
        scheduler = Scheduler()
        host = PluginHost(scheduler, upstream=SimUpstream([], scheduler))
        assert list(install_plugins(config, host, 0)) == [p["id"] for p in plugins]


class TestEachRuleFailsAtLoad:
    """Each config type checks its own rules when the loader builds it, so
    a bad value is one config error that names its section once, exit 2,
    on every command that reads the config."""

    @pytest.mark.parametrize("path, value, line", [
        (("engine", "mtu"), 39, "engine: mtu must be between 68 and 65535"),
        (("plugins", 2, "budget"), {"violation_grace": 0},
         "plugins[2].budget: violation_grace must be a positive integer, got 0"),
        (("plugins", 2, "permissions"), ["block_flow"],
         "plugin 'advisor': any permission implies observe"),
    ], ids=["mtu", "budget", "permissions"])
    def test_the_message_names_its_section_once(self, tmp_path, capsys, path, value, line):
        assert main(["replay", "--config", str(_golden_with(tmp_path, path, value))]) == 2
        assert _mbz_lines(capsys) == [f"mbz: config error: {line}"]

    @pytest.mark.parametrize("argv", [
        ["replay", "--config"], ["bench", "--n", "30", "--plugins-config"],
    ], ids=["replay", "bench"])
    def test_a_permission_without_observe_exits_2(self, tmp_path, capsys, argv):
        cfg = _golden_with(tmp_path, ("plugins", 2, "permissions"), ["block_flow"])
        assert main(argv + [str(cfg)]) == 2
        [line] = _mbz_lines(capsys)
        assert line.startswith("mbz: config error:") and "'advisor'" in line

    def test_export_off_device_is_no_permission(self, tmp_path, capsys):
        cfg = _golden_with(tmp_path, ("plugins", 2, "permissions"),
                           ["observe", "export_off_device"])
        assert main(["replay", "--config", str(cfg)]) == 2
        [line] = _mbz_lines(capsys)
        assert line.startswith("mbz: config error:") and "'export_off_device'" in line

    @pytest.mark.parametrize("command", ["replay"])
    def test_overlapping_scripts_exit_2(self, tmp_path, capsys, command):
        shutil.copytree(DATA / "golden", tmp_path, dirs_exist_ok=True)
        (tmp_path / "scripts.yaml").write_text(
            "- {cidr: 8.8.8.8/32, ports: [53], behavior: dns}\n"
            "- {cidr: 0.0.0.0/0, behavior: echo}\n")
        assert main([command, "--config", str(tmp_path / "config.yaml")]) == 2
        [line] = _mbz_lines(capsys)
        assert line.startswith("mbz: config error:")
        assert "scripts.yaml" in line and "overlap" in line


# plugin entries whose permissions, budget and id decide whether they load:
# subsets of the five permission names (empty among them) and named
# permissions without observe; budget fields of 0, negative, boolean and
# large values; ids drawn from three, so some repeat
_NAMES = sorted(PERMISSION_NAMES)
_BUDGET_FIELDS = ("max_cpu_us_per_packet", "max_mem_bytes", "max_emitted_bytes_per_min",
                  "violation_grace")
_HOST_ENTRY = st.fixed_dictionaries({
    "id": st.sampled_from(["a", "b", "c"]),
    "kind": st.sampled_from(["protocol-advisor", "dns-whatif"]),
}, optional={
    "permissions": st.one_of(
        st.lists(st.sampled_from(_NAMES), unique=True),
        st.lists(st.sampled_from([n for n in _NAMES if n != "observe"]), min_size=1,
                 unique=True)),
    "budget": st.dictionaries(st.sampled_from(_BUDGET_FIELDS), st.one_of(
        st.integers(-3, 3), st.booleans(), st.integers(2**31, 2**70)), max_size=4),
})


def _registers(entries: list[dict]) -> bool:
    """Whether a fresh host takes a descriptor built from each entry."""
    host = PluginHost(Scheduler())
    try:
        for entry in entries:
            names = entry.get("permissions", PLUGIN_TABLE[entry["kind"]].permissions)
            host.register(PluginDescriptor(
                id=entry["id"], name=entry["kind"], requested=permissions_from_names(names),
                budget=ResourceBudget(**entry.get("budget", {}))), TrafficPlugin())
    except (HostError, ValueError):
        return False
    return True


class TestPluginEntriesLoadAsTheHostRegisters:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("entries")
        (path / "trace.jsonl").write_text("")
        return path

    @given(entries=st.lists(_HOST_ENTRY, max_size=4))
    def test_load_config_accepts_what_the_host_registers(self, workdir, entries):
        cfg = workdir / "config.yaml"
        cfg.write_text(yaml.safe_dump({"io": {"trace": "trace.jsonl"}, "plugins": entries}))
        try:
            config = load_config(cfg)
        except ConfigLoadError:
            assert not _registers(entries)
            return
        assert _registers(entries)
        scheduler = Scheduler()
        host = PluginHost(scheduler, upstream=SimUpstream([], scheduler))
        assert list(install_plugins(config, host, 0)) == [entry["id"] for entry in entries]


class TestReportFormats:
    def test_summary_matches_recomputation(self):
        deltas = [5, 1, 9, 3, 7]
        summary = summarize_deltas(deltas)
        assert summary == {"count": 5, "median_us": 5, "p90_us": 9, "p99_us": 9}

    def test_cdf_monotone_both_columns(self):
        cdf = delta_cdf([30, 10, 20, 20, 50])
        xs = [row[0] for row in cdf]
        ys = [row[1] for row in cdf]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_bench_report_consistency_checked(self, tmp_path):
        good = {
            "samples": [{"direct_connect_us": 1, "engine_connect_us": 4,
                         "delta_us": 3}] * 3,
            "summary": summarize_deltas([3, 3, 3]),
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(good))
        load_report(path)  # fine
        good["summary"]["median_us"] = 99
        path.write_text(json.dumps(good))
        with pytest.raises(BadReport):
            load_report(path)

    def test_plotdata_for_bench(self):
        report = {
            "samples": [{"direct_connect_us": 1, "engine_connect_us": 3,
                         "delta_us": 2},
                        {"direct_connect_us": 1, "engine_connect_us": 5,
                         "delta_us": 4}],
            "summary": summarize_deltas([2, 4]),
        }
        text = format_report(report, "plotdata")
        assert "# delta_cdf" in text
        assert "2\t0.5" in text and "4\t1.0" in text

    def test_plotdata_for_replay_report(self):
        report = load_report(DATA / "golden" / "golden_report.json")
        text = format_report(report, "plotdata")
        assert "# requests_per_org" in text
        assert "rank\trequests\torganization" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(BadReport):
            format_report({}, "pie-chart")
