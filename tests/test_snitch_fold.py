"""The snitch folds each flow into counts when it closes.

`old_report` is the report-time aggregation the snitch used when it kept
every closed flow's record to the end of the run, kept here as the
oracle. Over generated flows, where no DNS answer names a closed flow's
address after it closed, `report()` must equal it. The growth test
replays a trace N and 2N times and checks that the state of the engine,
the simulator, the host and the plugins does not grow with run length,
apart from the containers named in `STILL_GROWS`.
"""

from __future__ import annotations

import collections
import itertools
import json
import shutil
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mbz import dnswire, tlswire
from mbz.config import load_config
from mbz.host import DeviceContext, EventKind, PluginContext, PluginEvent
from mbz.packet import FlowKey
from mbz.runner import ReplayRun
from mbz.plugins.snitch import OrgMap, SnitchPlugin

DATA = Path(__file__).resolve().parent.parent / "data"


# ------------------------------------------------------------- the oracle

def old_report(snitch: SnitchPlugin, closed: list) -> dict:
    """The report as the snitch built it from its closed records and its
    open ones, each attributed with the names known at report time."""
    per_app: dict[str, dict] = {}
    third_requests: dict[str, int] = {}
    third_flows: dict[str, int] = {}
    totals = {"TCP": 0, "UDP": 0, "QUIC-over-UDP": 0}
    first_party_flows = 0
    org_of: dict[tuple[str, str], str] = {}  # (domain, address) -> org

    for rec in itertools.chain(closed, snitch.records.values()):
        where = (rec.sni or snitch.tracker.ip_to_name.get(rec.key.dst[0], ""), rec.key.dst[0])
        org = org_of.get(where)
        if org is None:
            org = org_of[where] = snitch.org_map.lookup(*where)
        app = per_app.setdefault(rec.app_label, {
            "requests_per_org": {}, "flows_per_org": {}, "protocols": {}})
        app["requests_per_org"][org] = \
            app["requests_per_org"].get(org, 0) + rec.request_count
        app["flows_per_org"][org] = app["flows_per_org"].get(org, 0) + 1
        app["protocols"][rec.protocol] = app["protocols"].get(rec.protocol, 0) + 1
        if org in snitch.first_party_orgs:
            first_party_flows += 1
            continue
        third_requests[org] = third_requests.get(org, 0) + rec.request_count
        third_flows[org] = third_flows.get(org, 0) + 1
        totals[rec.protocol] += 1

    def ranked(counts: dict[str, int]) -> list[list]:
        return [[org, n] for org, n in
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]

    total = sum(totals.values())
    udp_all = totals["UDP"] + totals["QUIC-over-UDP"]
    return {
        "per_app": {
            app: {
                "requests_per_org": ranked(d["requests_per_org"]),
                "flows_per_org": ranked(d["flows_per_org"]),
                "protocols": dict(sorted(d["protocols"].items())),
            }
            for app, d in sorted(per_app.items())
        },
        "third_party": {
            "total_flows": total,
            "tcp_flows": totals["TCP"],
            "udp_flows": udp_all,
            "quic_flows": totals["QUIC-over-UDP"],
            "tcp_share_pct": round(100 * totals["TCP"] / total, 1) if total else 0.0,
            "udp_share_pct": round(100 * udp_all / total, 1) if total else 0.0,
            "organization_count": len(third_requests),
            "orgs_over_10_requests": sum(
                1 for n in third_requests.values() if n > 10),
            "requests_per_org": ranked(third_requests),
            "flows_per_org": ranked(third_flows),
        },
        "first_party_flows": first_party_flows,
    }


# ------------------------------------------------------- a snitch harness

ORGS = [(".tracker.example", "tracker"), (".first.example", "first"),
        (".appspot.com", "appspot"), ("203.0.113.0/24", "cidr-org"),
        ("8.8.8.8/32", "resolver")]
ADDRESSES = ["10.9.0.1", "10.9.0.2", "203.0.113.5", "8.8.8.8"]
DOMAINS = ["ads.tracker.example", "cdn.first.example", "thing.appspot.com",
           "x.other.example"]
RESOLVER_KEY = FlowKey(17, ("10.0.0.2", 5353), ("8.8.8.8", 53))


class Harness:
    """Calls the snitch's callbacks as the host would, and keeps each
    record the snitch closes, for the oracle."""

    def __init__(self, burst_gap_us: int = 1_000_000):
        self.snitch = SnitchPlugin(OrgMap.from_pairs(ORGS), first_party_orgs={"first"},
                                   burst_gap_us=burst_gap_us)
        self.closed: list = []
        self.now_us = 0

    def ctx(self, key, kind, app="app", direction="out"):
        return PluginContext(key=key, app_label=app, direction=direction, kind=kind,
                             device=DeviceContext(), now_us=self.now_us)

    def open(self, key, app, payload=b""):
        self.snitch.on_flow_open(PluginEvent(EventKind.FLOW_OPEN, payload=payload),
                                 self.ctx(key, EventKind.FLOW_OPEN, app))

    def out(self, key, payload):
        self.snitch.on_packet_out(PluginEvent(EventKind.PACKET_OUT, payload=payload),
                                  self.ctx(key, EventKind.PACKET_OUT))

    def answer(self, qname, ips):
        self.snitch.on_packet_in(
            PluginEvent(EventKind.PACKET_IN,
                        payload=dnswire.build_response(1, qname, dnswire.QTYPE_A, ips)),
            self.ctx(RESOLVER_KEY, EventKind.PACKET_IN, direction="in"))

    def close(self, key):
        rec = self.snitch.records.get(key)
        self.snitch.on_flow_close(PluginEvent(EventKind.FLOW_CLOSE),
                                  self.ctx(key, EventKind.FLOW_CLOSE))
        if rec is not None:
            self.closed.append(rec)

    def names_a_closed_address(self, ips) -> bool:
        return any(rec.key.dst[0] in ips for rec in self.closed)


_KEYS = st.builds(
    lambda proto, sport, addr, dport: FlowKey(proto, ("10.0.0.2", sport), (addr, dport)),
    st.sampled_from([6, 17, 17]), st.sampled_from([40000, 40001]),
    st.sampled_from(ADDRESSES), st.sampled_from([443, 80]))
_PAYLOADS = st.one_of(
    st.just(b""),
    st.sampled_from(DOMAINS).map(tlswire.build_client_hello),
    st.just(bytes([0xC3, 0, 0, 0, 1]) + b"quic-initial"),
    st.binary(max_size=6))


def _ops(keys: list[FlowKey]):
    """Events on a few flow keys, so flows open, send, close and reopen
    on the same five-tuple; sends are drawn three times as often, with
    gaps on both sides of the one-second burst gap."""
    key = st.sampled_from(keys)
    op = {
        "open": st.tuples(st.just("open"), key, st.sampled_from(["mail", "game"]), _PAYLOADS),
        "out": st.tuples(st.just("out"), key, _PAYLOADS,
                         st.sampled_from([0, 400_000, 1_000_000, 1_000_001, 2_500_000])),
        "answer": st.tuples(st.just("answer"), st.sampled_from(DOMAINS),
                            st.lists(st.sampled_from(ADDRESSES), min_size=1, max_size=2)),
        "close": st.tuples(st.just("close"), key),
        "report": st.just(("report",)),
    }
    kinds = ["open", "out", "out", "out", "answer", "close", "report"]
    return st.lists(st.sampled_from(kinds).flatmap(op.get), min_size=10, max_size=60)


_OPS = st.lists(_KEYS, min_size=1, max_size=3, unique=True).flatmap(_ops)


class TestFoldOracle:
    @settings(deadline=None)
    @given(ops=_OPS)
    def test_report_equals_the_report_time_aggregation(self, ops):
        harness = Harness()
        for op in ops:
            if op[0] == "open":
                harness.open(op[1], op[2], op[3])
            elif op[0] == "out":
                harness.now_us += op[3]
                harness.out(op[1], op[2])
            elif op[0] == "answer":
                if not harness.names_a_closed_address(op[2]):
                    harness.answer(op[1], op[2])
            elif op[0] == "close":
                harness.close(op[1])
            else:
                assert harness.snitch.report() == old_report(harness.snitch, harness.closed)
        # the report reads the counts and leaves them as they were
        report = harness.snitch.report()
        assert report == old_report(harness.snitch, harness.closed)
        assert harness.snitch.report() == report

    def test_org_memo_is_bounded(self):
        harness = Harness()
        for i in range(5000):
            key = FlowKey(17, ("10.0.0.2", 40000), (f"203.0.{i // 256}.{i % 256}", 80))
            harness.open(key, "mail")
            harness.close(key)
        assert len(harness.snitch._orgs) <= 4096
        assert harness.snitch.report() == old_report(harness.snitch, harness.closed)

    def test_a_closed_flow_keeps_the_names_known_at_its_close(self):
        harness = Harness()
        key = FlowKey(6, ("10.0.0.2", 40000), ("10.9.0.1", 80))
        harness.open(key, "mail")
        harness.close(key)
        harness.answer("ads.tracker.example", ["10.9.0.1"])
        report = harness.snitch.report()
        assert report["third_party"]["flows_per_org"] == [["unknown", 1]]
        # the old aggregation named the flow after the later answer
        assert old_report(harness.snitch, harness.closed)["third_party"]["flows_per_org"] \
            == [["tracker", 1]]


# ----------------------------------------------------------- growth

# containers that still hold one entry per event of the run: the advisor's
# handshake RTT samples, and the simulator's stream transcripts and
# datagram log
STILL_GROWS = {"advisor.syn_rtts_us", "upstream.transcripts", "upstream.datagram_log"}


def replay_copies(tmp_path: Path, copies: int) -> ReplayRun:
    """The golden deny run (firewall, snitch, what-if, advisor) over
    `copies` copies of its trace, each shifted past the UDP timeout."""
    shutil.copytree(DATA / "golden", tmp_path, dirs_exist_ok=True)
    events = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    shift_us = events[-1]["ts_us"] + 60_000_000
    with open(tmp_path / "trace.jsonl", "w", encoding="utf-8") as fh:
        for i in range(copies):
            for event in events:
                fh.write(json.dumps({**event, "ts_us": event["ts_us"] + i * shift_us}) + "\n")
    run = ReplayRun(load_config(tmp_path / "config_deny.yaml"))
    run.execute()
    return run


def container_sizes(run: ReplayRun) -> dict[str, object]:
    """The size of each container the engine, the simulator, the host,
    the plugins and their trackers hold."""
    owners = {"engine": run.engine, "upstream": run.upstream, "host": run.host}
    for plugin_id, plugin in run.plugins.items():
        owners[plugin_id] = plugin
        if hasattr(plugin, "tracker"):
            owners[f"{plugin_id}.tracker"] = plugin.tracker
    sizes: dict[str, object] = {}
    for owner, obj in owners.items():
        for name, value in vars(obj).items():
            if isinstance(value, (list, dict, set, collections.deque)):
                sizes[f"{owner}.{name}"] = len(value)
            elif isinstance(value, tuple) and value \
                    and all(isinstance(item, dict) for item in value):
                sizes[f"{owner}.{name}"] = tuple(map(len, value))
    sizes["advisor.syn_rtts_us"] = sum(
        len(stats.syn_rtts_us) for stats in run.plugins["advisor"].paths.values())
    return sizes


class TestGrowth:
    def test_state_does_not_grow_with_run_length(self, tmp_path):
        short = replay_copies(tmp_path / "n", 2)
        long = replay_copies(tmp_path / "2n", 4)
        for run in (short, long):
            engine = run.engine
            assert engine.flows == {} and engine._closed == [] and engine._dns_shared == {}
            assert all(not order for order in engine._activity)
            assert run.plugins["snitch"].records == {}
            assert run.plugins["whatif"]._pending == {}

        counts, counts_long = (run.plugins["snitch"].counts for run in (short, long))
        assert counts and counts_long.keys() == counts.keys()
        assert all(counts_long[k] == [2 * n for n in counts[k]] for k in counts)
        assert long.plugins["advisor"].paths.keys() == short.plugins["advisor"].paths.keys()

        sizes, sizes_long = container_sizes(short), container_sizes(long)
        assert sizes.keys() == sizes_long.keys()
        grown = {name for name in sizes if sizes[name] != sizes_long[name]}
        # each named container really grows, so the list stays current
        assert grown == STILL_GROWS

        # the engine's evictions and the what-if probes go to the event
        # spool as they happen: the log grows on disk instead
        logged = []
        for run in (short, long):
            path = tmp_path / f"{len(logged)}.events.jsonl"
            run.events.copy_to(path)
            logged.append(collections.Counter(
                json.loads(line)["event"] for line in path.read_text().splitlines()))
        assert logged[0]["eviction"] and logged[0]["probe"]
        assert logged[1] == {event: 2 * n for event, n in logged[0].items()}
