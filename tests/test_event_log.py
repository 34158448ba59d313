"""The event log: one JSON line per eviction, probe, violation and
governor event, written beside the report, which keeps counts only."""

import collections
import json
import shutil
from pathlib import Path

import pytest
import yaml

from mbz.cli import main
from mbz.config import load_config
from mbz.plugins.whatif import DIVERGENCES
from mbz.runner import ReplayRun, write_outputs
from mbz.spool import FLUSH_AT, EventSpool, json_line

DATA = Path(__file__).resolve().parent.parent / "data"

# the four per-event lists the report carried before the event log
# (commit 80f626c): `evictions`, `violations`, `governor` and each what-if
# plugin's `probes`, recorded from each case below
REPORT_LISTS = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "report_event_lists.json").read_text())

# each case is a committed config, or the golden one with one setting of
# its what-if plugin changed, so that it logs violations or a governor
# event too
CASES = {
    "golden/config.yaml": None,
    "golden/config_deny.yaml": None,
    "golden/config_rewrite.yaml": None,
    "snitch/config.yaml": None,
    "golden/config.yaml, what-if without inject_packets": ("permissions", ["observe"]),
    "golden/config.yaml, what-if over its emitted budget":
        ("budget", {"max_emitted_bytes_per_min": 20, "violation_grace": 1}),
}


def replay(tmp_path: Path, case: str) -> tuple[dict, list[dict], bytes]:
    """The case's report, its event log's records and the log's bytes."""
    name = case.split(",")[0]
    dataset, config_name = name.split("/")
    shutil.copytree(DATA / dataset, tmp_path, dirs_exist_ok=True)
    cfg = tmp_path / config_name
    if CASES[case] is not None:
        key, value = CASES[case]
        raw = yaml.safe_load(cfg.read_text())
        next(p for p in raw["plugins"] if p["kind"] == "dns-whatif")[key] = value
        cfg.write_text(yaml.safe_dump(raw))
    config = load_config(cfg)
    config.report_path = tmp_path / "out" / "report.json"
    run = ReplayRun(config)
    report = run.execute()
    write_outputs(run, report)
    data = (tmp_path / "out" / "report.events.jsonl").read_bytes()
    return report, [json.loads(line) for line in data.splitlines()], data


@pytest.mark.parametrize("case", sorted(CASES))
class TestEventLog:
    def test_the_log_holds_the_reports_old_lists(self, tmp_path, case):
        _report, records, data = replay(tmp_path, case)
        # each line is its record with sorted keys
        assert data == b"".join(map(json_line, records))
        got = {"evictions": [], "violations": [], "governor": [], "probes": {}}
        lists = {"eviction": got["evictions"], "violation": got["violations"],
                 "governor": got["governor"]}
        for record in records:
            event = record.pop("event")
            if event == "probe":
                got["probes"].setdefault(record.pop("plugin"), []).append(record)
            else:
                lists[event].append(record)
        want = REPORT_LISTS[case]
        # a plugin that finished no probe logs no line
        want_probes = {pid: probes for pid, probes in want["probes"].items() if probes}
        assert got == {**want, "probes": want_probes}

    def test_the_report_keeps_counts(self, tmp_path, case):
        report, records, _data = replay(tmp_path, case)
        assert not {"evictions", "violations", "governor"} & report.keys()
        for pid, section in report.get("whatif", {}).items():
            assert "probes" not in section
            tally = collections.Counter(r["divergence"] for r in records
                                        if r["event"] == "probe" and r["plugin"] == pid)
            assert section["divergences"] == {c: tally[c] for c in DIVERGENCES}
        violations = collections.Counter(r["plugin"] for r in records
                                         if r["event"] == "violation")
        assert {s["id"]: s["violations"] for s in report["plugins"]} == \
            {s["id"]: violations[s["id"]] for s in report["plugins"]}

    def test_replays_of_one_seed_write_the_same_log(self, tmp_path, case):
        assert replay(tmp_path / "a", case)[2] == replay(tmp_path / "b", case)[2]


class TestNoReportPath:
    def test_stdout_report_carries_no_event_lists(self, tmp_path, capsys):
        shutil.copytree(DATA / "golden", tmp_path, dirs_exist_ok=True)
        before = set(tmp_path.iterdir())
        assert main(["replay", "--config", str(tmp_path / "config.yaml")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not {"evictions", "violations", "governor"} & report.keys()
        assert report["whatif"]["whatif"] == {
            "sampled_queries": 2, "divergences": {**dict.fromkeys(DIVERGENCES, 0), "None": 2}}
        assert set(tmp_path.iterdir()) == before


class TestEventSpool:
    def test_lines_across_flushes_copy_whole(self, tmp_path):
        spool = EventSpool()
        records = [{"event": "eviction", "ts_us": i, "evicted": ["x" * 100]}
                   for i in range(2 * FLUSH_AT // 100)]
        for i, record in enumerate(records):
            spool.append(record)
            if i == len(records) // 2:
                spool.copy_to(tmp_path / "half.jsonl")
        spool.copy_to(tmp_path / "all.jsonl")
        lines = [json_line(r) for r in records]
        assert (tmp_path / "half.jsonl").read_bytes() == b"".join(lines[:len(lines) // 2 + 1])
        assert (tmp_path / "all.jsonl").read_bytes() == b"".join(lines)
