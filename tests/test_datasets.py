"""The committed datasets regenerate byte for byte from tools/gen_traces.py."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _gen_traces():
    spec = importlib.util.spec_from_file_location(
        "gen_traces", REPO / "tools" / "gen_traces.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dataset", ["golden", "snitch"])
def test_committed_dataset_regenerates(tmp_path, dataset):
    getattr(_gen_traces(), f"gen_{dataset}")(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written
    for name in written:
        committed = REPO / "data" / dataset / name
        assert (tmp_path / name).read_bytes() == committed.read_bytes(), name
