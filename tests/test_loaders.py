"""YAML loading: libyaml and the pure-Python fallback build the same
objects and fail the same way."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import mbz.config
from mbz.config import ParseError, load_yaml

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
DATA_YAML = sorted(DATA.rglob("*.yaml"))


@pytest.fixture(params=["CSafeLoader", "SafeLoader"])
def loader(request, monkeypatch):
    """Make load_yaml parse with one PyYAML loader."""
    if not hasattr(yaml, request.param):
        pytest.skip(f"PyYAML was built without {request.param}")
    monkeypatch.setattr(mbz.config, "YAML_LOADER", getattr(yaml, request.param))
    return request.param


def _generated_yaml(tmp_path: Path, workload: str, seed: int) -> list[Path]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    gen.GENERATORS[workload](tmp_path, seed)
    return sorted(tmp_path.glob("*.yaml"))


def _reference(path: Path):
    return yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)


def test_data_files_found():
    assert len(DATA_YAML) >= 8


@pytest.mark.parametrize("path", DATA_YAML, ids=lambda p: str(p.relative_to(DATA)))
def test_data_file_parses_to_equal_objects(loader, path):
    assert load_yaml(path) == _reference(path)


@pytest.mark.parametrize("workload", ["bulk", "app-mix"])
@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_inputs_parse_to_equal_objects(loader, tmp_path, workload, seed):
    paths = _generated_yaml(tmp_path, workload, seed)
    assert {p.name for p in paths} >= {"config.yaml", "scripts.yaml"}
    for path in paths:
        assert load_yaml(path) == _reference(path), path.name


@pytest.mark.parametrize("text", [
    b"- {cidr: [unclosed\n",
    b"a: b: c\n",
    b"key: 'open quote\n",
    b"- \xff\xfe not utf-8\n",
], ids=["unclosed-flow", "mapping-in-plain-scalar", "open-quote", "not-utf8"])
def test_malformed_file_is_a_parse_error_naming_it(loader, tmp_path, text):
    path = tmp_path / "broken.yaml"
    path.write_bytes(text)
    with pytest.raises(ParseError, match="broken.yaml: not valid YAML"):
        load_yaml(path)


def test_empty_file_is_none(loader, tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_yaml(path) is None


def test_deep_nesting_exits_2_without_crashing(tmp_path):
    # libyaml alone overflows the C stack at this depth and kills the process
    (tmp_path / "trace.jsonl").write_text("")
    (tmp_path / "scripts.yaml").write_text("[" * 40_000 + "]" * 40_000)
    (tmp_path / "config.yaml").write_text("io: {trace: trace.jsonl, scripts: scripts.yaml}\n")
    done = subprocess.run(
        [sys.executable, "-m", "mbz.cli", "replay", "--config", str(tmp_path / "config.yaml")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))})
    assert done.returncode == 2, done.stderr[-500:]
    assert "mbz: config error" in done.stderr and "nested too deeply" in done.stderr


def test_only_config_imports_yaml():
    importers = [p.name for p in (ROOT / "src" / "mbz").rglob("*.py")
                 if "import yaml" in p.read_text(encoding="utf-8")]
    assert importers == ["config.py"]
