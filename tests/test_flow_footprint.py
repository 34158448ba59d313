"""What an open flow costs, counted by tools/flow_footprint.py: the
engine holds few GC-tracked objects per flow, so a large flow table
adds little work for the cyclic collector."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _flow_footprint():
    spec = importlib.util.spec_from_file_location(
        "flow_footprint", REPO / "tools" / "flow_footprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("protocol, most", [
    # the flow, its key, the simulator's handle, the handle's callback
    # and its arguments; a TCP flow's stream also keeps a transcript
    ("tcp", 6),
    ("udp", 5),
])
def test_gc_tracked_objects_per_open_flow(protocol, most):
    _bytes, objects = _flow_footprint().footprint(protocol, 200)
    assert objects <= most
