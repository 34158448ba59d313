"""Config loading strictness, CLI exit codes, report formats."""

import json
import shutil
from pathlib import Path

import pytest
import yaml

from mbz.cli import main
from mbz.config import (
    DuplicatePluginId, MissingFile, ParseError, load_config,
)
from mbz.report import (
    BadReport, delta_cdf, format_report, load_report, summarize_deltas,
)

DATA = Path(__file__).resolve().parent.parent / "data"
README = DATA.parent / "README.md"


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
        assert [p.id for p in config.plugins] == [p["id"] for p in raw["plugins"]]

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("io: {trace: trace.jsonl, speeed: 1.0}\n")
        with pytest.raises(ParseError, match="speeed"):
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
        assert (tmp_path / "out" / "report.violations.jsonl").exists()
        assert (tmp_path / "out" / "report.governor.jsonl").exists()

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
    ], ids=["cidr-33", "deny-loud", "not-a-mapping"])
    def test_malformed_firewall_rules_exit_2(self, tmp_path, capsys, rules):
        (tmp_path / "rules.yaml").write_text(rules)
        cfg = write_min_config(
            tmp_path, plugins="plugins:\n  - {id: fw1, kind: firewall, rules: rules.yaml}\n")
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "'fw1'" in err and "rules.yaml" in err

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
        (("host",), {"low_battery_throttle": "lots"}),
        (("report",), {"formats": "json"}),
        (("report",), {"path": 7}),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else repr(v))
    def test_malformed_value_exit_2(self, tmp_path, capsys, path, value):
        # each case edits one value of a copy of the golden run's config
        shutil.copytree(DATA / "golden", tmp_path, dirs_exist_ok=True)
        raw = yaml.safe_load((tmp_path / "config.yaml").read_text())
        parent = raw
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(raw))
        assert main(["replay", "--config", str(tmp_path / "config.yaml")]) == 2
        assert "mbz: config error" in capsys.readouterr().err

    def test_non_numeric_snitch_gap_names_the_plugin(self, tmp_path, capsys):
        (tmp_path / "orgs.csv").write_text(".x.example,x\n")
        cfg = write_min_config(tmp_path, plugins=(
            "plugins:\n  - {id: sn1, kind: snitch, org_map: orgs.csv, burst_gap_s: soon}\n"))
        assert main(["replay", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mbz: config error" in err and "'sn1'" in err and "soon" in err

    def test_io_error_exit_3(self, tmp_path, capsys):
        (tmp_path / "trace.jsonl").write_text("this is not json\n")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("io: {trace: trace.jsonl}\n")
        assert main(["replay", "--config", str(cfg)]) == 3

    def test_run_is_an_extension_point(self, tmp_path, capsys):
        cfg = write_min_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "PacketConduit" in capsys.readouterr().err

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
