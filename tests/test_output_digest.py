"""Smoke test of tools/output_digest.py, the digest that byte-identity
claims about the CLI outputs rest on."""

from __future__ import annotations

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_cover_every_command(tmp_path):
    """One bundled config under a checkout-shaped root: each of the five
    commands exits 0 and prints `config command rc file sha256` lines for
    its stdout, its stderr and its output file."""
    digest = _output_digest()
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "thick_outside.json", tmp_path / "configs")

    lines = digest.digest_lines(tmp_path)
    fields = [line.split(" ") for line in lines]
    assert all(len(f) == 5 and re.fullmatch(r"[0-9a-f]{64}", f[4]) for f in fields)
    assert {f[0] for f in fields} == {"thick_outside.json"}
    assert [f[1] for f in fields if f[3] == "<stdout>"] == list(digest.COMMANDS)
    assert all(f[2] == "0" for f in fields)
    files = {(f[1], f[3]) for f in fields if not f[3].startswith("<")}
    assert files == {
        ("spectrum", "out/spectrum.csv"),
        ("critical-radius", "out/critical_radius.json"),
        ("sweep", "out/sweep.csv"),
        ("sweep", "out/sweep_classification.json"),
        ("field", "out/field.csv"),
        ("validate", "out/validate.json"),
    }
