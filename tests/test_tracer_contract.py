"""The benchmark's tracer finds every layer boundary it wraps.

`perfbench/spans.py` wraps the program's functions by name
(`packet.serialize_packet`, `Scheduler.call_at`, ...), and the benchmark
fails a traced run when a wrapped name records no call: a write that
bypasses `serialize_packet`, or a timer that bypasses `call_at`, hides
its layer's time. These tests run the benchmark's own connect loop and
one replay of a generated `bulk` input under the tracer, as a traced
benchmark run does, and assert that every expected name records a call.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from mbz import runner

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's modules, imported from its own directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
        import measure
        import spans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return gen, measure, spans


def _unrecorded(spans, workload: str, tracer) -> list[str]:
    calls, _self_ns = tracer.totals()
    return [name for name in spans.EXPECTED_CALLS[workload] if not calls.get(name)]


def test_connect_loop_records_every_expected_call(perfbench, tmp_path):
    gen, measure, spans = perfbench
    inputs = gen.GENERATORS["connect"](tmp_path, 1)
    loop = measure.ConnectLoop(runner.load_scripts(tmp_path / "scripts.yaml"),
                               lambda host: None, tuple(inputs["probe_dst"]),
                               random.Random(1))
    tracer = spans.Tracer().install()
    try:
        loop.run(0, 100)
    finally:
        tracer.uninstall()
    assert loop.attempted >= 100 and loop.failed == 0 and not loop.problems
    assert _unrecorded(spans, "connect", tracer) == []


def test_bulk_replay_records_every_expected_call(perfbench, tmp_path):
    gen, measure, spans = perfbench
    gen.GENERATORS["bulk"](tmp_path, 1)
    inputs = json.loads((tmp_path / "inputs.json").read_text(encoding="utf-8"))
    replay = measure.Replay(tmp_path, inputs)
    tracer = spans.Tracer().install()
    try:
        replay.rep()
    finally:
        tracer.uninstall()
    assert replay.failed == 0 and not replay.problems
    assert _unrecorded(spans, "bulk", tracer) == []
