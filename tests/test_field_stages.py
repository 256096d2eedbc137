"""Smoke test of tools/field_stages.py, the per-stage timing of the field
command that claims about its layers rest on."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _field_stages():
    spec = importlib.util.spec_from_file_location(
        "field_stages", ROOT / "tools" / "field_stages.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(tmp_path: Path, name: str) -> Path:
    cfg = json.loads((ROOT / "configs" / "thick_outside.json").read_text())
    cfg["field"].update(n1=9, n2=9)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_stages_print_one_row_of_medians_per_config(tmp_path, capsys):
    """Two 9 x 9 configs: each gets a non-negative median per stage and a
    total no smaller than the largest stage."""
    stages = _field_stages()
    configs = [_config(tmp_path, "a.json"), _config(tmp_path, "b.json")]
    argv = ["--root", str(ROOT), "--calls", "3"]
    assert stages.main(argv + [arg for c in configs for arg in ("--config", str(c))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# calr_lab ") and "median of 3 calls" in lines[0]
    assert lines[1].split() == ["config", *stages.STAGES, "total"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["a.json", "b.json"]
    for row in rows:
        times = [float(t) for t in row[1:]]
        assert len(times) == len(stages.STAGES) + 1 and min(times) >= 0.0
        assert times[-1] >= max(times[:-1])


def test_stages_refuse_a_config_the_command_refuses(tmp_path, capsys):
    path = _config(tmp_path, "bad.json")
    cfg = json.loads(path.read_text())
    cfg["field"]["n1"] = 1
    path.write_text(json.dumps(cfg))
    assert _field_stages().main(["--config", str(path), "--calls", "1"]) == 1
    assert "calr-lab field exits 2" in capsys.readouterr().err
