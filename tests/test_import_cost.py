"""Smoke test of tools/import_cost.py, the start-up A/B that claims about
the package's import cost rest on."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_cost():
    spec = importlib.util.spec_from_file_location(
        "import_cost", ROOT / "tools" / "import_cost.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_self_times_reads_calr_lab_modules_only():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1740 |     151516 |       numpy\n"
        "import time:      7963 |       7963 |       calr_lab.source\n"
        "import time:      1059 |     211414 |   calr_lab\n"
        "import time:       120 |        120 |   calr_labx\n"
    )
    assert _import_cost().self_times(text) == {"calr_lab.source": 7963e-6, "calr_lab": 1059e-6}


def test_two_roots_print_a_module_table_and_pair_wins(tmp_path, capsys):
    """The same checkout twice, under two roots: both columns list the
    package and the CLI, the oracle is never imported, and every pair is
    counted as won, lost or tied."""
    cost = _import_cost()
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    assert cost.main(["--root", str(ROOT), "--root", str(tmp_path), "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["A", "B"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:] if line.startswith("calr_lab")}
    for name in ("calr_lab", "calr_lab.cli", "calr_lab.solver"):
        assert len(rows[name]) == 2
    assert rows["calr_lab.*"][0] == "total"
    assert "calr_lab.oracle" not in rows
    walls = [line for line in lines if "build_parser wall median" in line]
    assert [line.split()[0] for line in walls] == ["A", "B"]
    match = re.search(r"B faster in (\d+) of 2 pairs, slower in (\d+)", "\n".join(lines))
    assert match and int(match[1]) + int(match[2]) <= 2
