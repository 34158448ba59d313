"""Command line: mbz replay | bench | report.

Exit codes: 0 success, 2 configuration error, 3 I/O or data error.
MBZ_LOG selects the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .bench import InsufficientSamples, BenchResult, bench_cdf, run_bench
from .config import ConfigLoadError, load_config
from .pcapio import PcapError
from .report import BadReport, format_report, load_report
from .runner import ReplayRun, write_outputs
from .trace import MalformedTrace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

log = logging.getLogger("mbz")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbz", description="userspace middlebox engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="drive a trace through the engine")
    replay.add_argument("--config", required=True)
    replay.add_argument("--out-pcap", default=None,
                        help="write the app packets the plugin chain passed "
                             "and the packets the engine wrote toward the app; "
                             "the run spools them to a temporary file and "
                             "copies it here at the end")
    replay.add_argument("--seed", type=int, default=None)

    bench = sub.add_parser("bench", help="measure engine-added connect latency")
    bench.add_argument("--n", type=int, default=1000)
    bench.add_argument("--concurrency", type=int, default=1)
    bench.add_argument("--json-out", default=None)
    bench.add_argument("--plugins-config", default=None,
                       help="include this config's plugin chain in the "
                            "engine pass (default: empty chain)")

    report = sub.add_parser("report", help="render a report file")
    report.add_argument("path")
    report.add_argument("--format", default="json",
                        choices=["json", "csv", "plotdata"])
    return parser


def _cmd_replay(args) -> int:
    config = load_config(args.config)
    run = ReplayRun(config, seed=args.seed)
    report = run.execute()
    out_pcap = Path(args.out_pcap) if args.out_pcap else None
    written = write_outputs(run, report, out_pcap=out_pcap)
    if config.report_path is None:
        sys.stdout.write(format_report(report, "json"))
    for path in written:
        log.info("wrote %s", path)
    return EXIT_OK


def _cmd_bench(args) -> int:
    installer = None
    if args.plugins_config:
        from .runner import install_plugins
        plugin_config = load_config(args.plugins_config)
        installer = lambda host: install_plugins(
            plugin_config, host, plugin_config.engine.seed)
    result: BenchResult = run_bench(args.n, concurrency=args.concurrency,
                                    install_plugins=installer)
    sys.stdout.write(result.table() + "\n")
    payload = result.to_dict()
    payload["cdf"] = bench_cdf(result)
    text = format_report(payload, "json")
    if args.json_out:
        Path(args.json_out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_report(args) -> int:
    report = load_report(args.path)
    sys.stdout.write(format_report(report, args.format))
    return EXIT_OK


_COMMANDS = {
    "replay": _cmd_replay,
    "bench": _cmd_bench,
    "report": _cmd_report,
}

_CONFIG_ERRORS = (ConfigLoadError, InsufficientSamples)
_IO_ERRORS = (MalformedTrace, PcapError, BadReport, OSError)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("MBZ_LOG", "WARNING").upper())
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CONFIG_ERRORS as exc:
        log.error("%s", exc)
        sys.stderr.write(f"mbz: config error: {exc}\n")
        return EXIT_CONFIG
    except _IO_ERRORS as exc:
        log.error("%s", exc)
        sys.stderr.write(f"mbz: i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
