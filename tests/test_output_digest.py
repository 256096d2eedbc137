"""Smoke test of tools/output_digest.py, the digest that byte-identity
claims about the CLI outputs rest on, and the check of the outputs on the
bundled configs against the digest recorded in tests/golden."""

from __future__ import annotations

import difflib
import importlib
import importlib.util
import platform
import re
import shutil
import warnings
from pathlib import Path

import numpy as np

from calr_lab import cli
from calr_lab.errors import TruncationWarning

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "output_digest.txt"


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


def test_configs_option_digests_another_directory(tmp_path, capsys):
    """--configs DIR runs every *.json in DIR, not CHECKOUT/configs, with
    the program from --root; the lines name the configs of DIR only."""
    digest = _output_digest()
    (tmp_path / "critical_only.json").write_text(
        '{"geometry": {"R": 1.0, "rho_i": 0.5, "rho_e": 0.8}}', encoding="utf-8"
    )
    (tmp_path / "notes.txt").write_text("not a config", encoding="utf-8")
    assert digest.main(["--root", str(ROOT), "--configs", str(tmp_path)]) == 0
    fields = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    assert {f[0] for f in fields} == {"critical_only.json"}
    assert [f[1] for f in fields if f[3] == "<stdout>"] == list(digest.COMMANDS)
    rc = {f[1]: f[2] for f in fields}
    assert rc["critical-radius"] == rc["spectrum"] == "0"
    assert rc["sweep"] == rc["field"] == "2"  # no source block
    assert ("critical-radius", "out/critical_radius.json") in {(f[1], f[3]) for f in fields}


WORKLOAD_CONFIGS = [
    "dipole_inside.json", "dipole_outside.json", "thick_inside.json",
    "thick_outside.json", "validate_default.json",
]


def test_seed_digests_the_benchmark_workload_configs(tmp_path, monkeypatch, capsys):
    """seeded_configs writes the five configs of perfbench's
    workloads.write_configs for the seed, byte for byte, and each repeated
    --seed N digests its own five under lines named seedN/<config>.  The
    CLI is not run: digest_lines is replaced by a stub that lists what it
    is given."""
    digest = _output_digest()
    written = digest.seeded_configs(71, tmp_path / "seed71")
    assert sorted(p.name for p in written.iterdir()) == WORKLOAD_CONFIGS
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    (tmp_path / "direct").mkdir()
    for name, path in workloads.write_configs(71, tmp_path / "direct").items():
        assert (written / f"{name}.json").read_bytes() == path.read_bytes()

    seen = []

    def stub(root, configs):
        seen.append((root, sorted(p.name for p in configs.glob("*.json"))))
        return [f"{name} spectrum 0 <stdout> {'0' * 64}" for name in seen[-1][1]]

    monkeypatch.setattr(digest, "digest_lines", stub)
    assert digest.main(["--root", str(ROOT), "--seed", "71", "--seed", "911"]) == 0
    assert seen == [(ROOT, WORKLOAD_CONFIGS)] * 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines] == (
        [f"seed71/{name}" for name in WORKLOAD_CONFIGS]
        + [f"seed911/{name}" for name in WORKLOAD_CONFIGS]
    )


def _assert_recorded(configs: Path, golden: Path) -> None:
    """The digest lines of every config in ``configs``, run in this
    process, equal those recorded in ``golden``.  The failure names the
    numpy and Python versions the lines were recorded with, since another
    numpy or libm can move last bits, and shows the lines that differ."""
    digest = _output_digest()
    text = golden.read_text(encoding="utf-8").splitlines()
    recorded = dict(re.fullmatch(r"# (numpy|python) (\S+)", line).groups()
                    for line in text if re.fullmatch(r"# (numpy|python) \S+", line))
    want = [line for line in text if not line.startswith("#")]
    got = digest.in_process_lines(configs)
    diff = "\n".join(difflib.unified_diff(want, got, "recorded", "this run", lineterm="", n=0))
    assert got == want, (
        f"outputs differ from {golden.relative_to(ROOT)}, recorded with numpy"
        f" {recorded['numpy']} and Python {recorded['python']} (this run: numpy"
        f" {np.__version__}, Python {platform.python_version()}):\n{diff}"
    )


def test_outputs_match_the_recorded_digest():
    """Every output file, standard output, standard error and exit code of
    the five commands on the bundled configs, run in this process, has the
    digest line recorded in tests/golden/output_digest.txt."""
    _assert_recorded(ROOT / "configs", GOLDEN)


def test_source_variants_match_the_recorded_digest():
    """The same for the two source variants the bundled configs (all
    dipoles) leave out, in tests/golden/configs: a charge pair, whose
    potential takes the closed form, and a Coefficients source of 12
    nonzero pairs, whose potential is its series (source._series).  Field
    evaluates the series at 1112 points, past the panel add's size, and
    blanks 550 cells past its radius; sweep and validate evaluate it at a
    few points, within that size."""
    _assert_recorded(ROOT / "tests" / "golden" / "configs",
                     ROOT / "tests" / "golden" / "source_variants_digest.txt")


def test_seed71_workloads_match_the_recorded_digest(tmp_path):
    """The same for the five benchmark workload configs of seed 71
    (seeded_configs), recorded in tests/golden/seed71_digest.txt: the
    seeded byte claim, checked in tier-1."""
    configs = _output_digest().seeded_configs(71, tmp_path / "seed71")
    _assert_recorded(configs, ROOT / "tests" / "golden" / "seed71_digest.txt")


def test_seed71_validate_checks_keep_the_benchmark_contract(tmp_path, monkeypatch):
    """On the five seed-71 workload configs every validate check reports
    pass or fail, the checks include perfbench's VALIDATE_CHECKS, and the
    failing ones are within its KNOWN_VALIDATE_DEFECTS of the config: a
    check failing outside them turns every benchmark validate run into a
    failed run."""
    configs = _output_digest().seeded_configs(71, tmp_path / "seed71")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for path in sorted(configs.glob("*.json")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            checks = cli._validate_checks(cli.load_config(path))
        status = {c["name"]: c["status"] for c in checks}
        assert set(status.values()) <= {"pass", "fail"}, (path.name, status)
        assert workloads.VALIDATE_CHECKS <= set(status), path.name
        failing = {name for name, s in status.items() if s == "fail"}
        assert failing <= workloads.KNOWN_VALIDATE_DEFECTS.get(path.stem, set()), path.name
