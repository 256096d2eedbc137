"""Digest of every calr-lab output on the bundled configs.

    python3 tools/output_digest.py [--root CHECKOUT] [--configs DIR | --seed N ...]

Runs the five subcommands (spectrum, critical-radius, sweep, field,
validate) on every ``*.json`` in DIR (default: CHECKOUT/configs), each in
a fresh temporary directory with the program imported from CHECKOUT's
``src/`` (CHECKOUT defaults to the checkout holding this script).  So
``--configs`` digests other configs against any checkout.  Each
``--seed N`` (repeatable) digests instead the five benchmark workload
configs of seed N, written by ``perfbench/workloads.write_configs`` of the
checkout holding this script into a temporary directory; their lines name
the config ``seedN/<name>.json``.  Prints one line per output,

    config command rc file sha256

where ``file`` is an output file, ``<stdout>`` or ``<stderr>``.  Printed
paths are relative to the temporary directory, and warnings print as
``Category: message`` without the source file and line they were raised
at, so two checkouts that produce the same bytes print the same lines,
and a byte-identity claim is a ``diff`` of two runs.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("spectrum", "critical-radius", "sweep", "field", "validate")
THIS_CHECKOUT = Path(__file__).resolve().parent.parent

# calr_lab.cli.main with warnings formatted free of checkout paths and line numbers.
_RUN_CLI = (
    "import sys, warnings\n"
    "warnings.formatwarning = lambda m, c, *a, **k: f'{c.__name__}: {m}\\n'\n"
    "from calr_lab.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(root: Path, configs: Path | None = None) -> list[str]:
    """The `config command rc file sha256` lines for one checkout, over
    the configs in ``configs`` (default: root/configs)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    lines = []
    for config in sorted((configs or root / "configs").glob("*.json")):
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                proc = subprocess.run(
                    [sys.executable, "-c", _RUN_CLI, command,
                     "--config", str(config), "--out", "out"],
                    cwd=tmp, env=env, capture_output=True,
                )
                outputs = {"<stdout>": proc.stdout, "<stderr>": proc.stderr}
                out_dir = Path(tmp) / "out"
                if out_dir.is_dir():
                    for path in sorted(out_dir.rglob("*")):
                        if path.is_file():
                            outputs[path.relative_to(tmp).as_posix()] = path.read_bytes()
                for name, data in outputs.items():
                    lines.append(f"{config.name} {command} {proc.returncode} {name} {_sha256(data)}")
    return lines


def seeded_configs(seed: int, directory: Path) -> Path:
    """Write the benchmark workload configs of one seed into directory with
    perfbench/workloads.write_configs of this checkout; returns directory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", THIS_CHECKOUT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up there
    spec.loader.exec_module(workloads)
    directory.mkdir(parents=True, exist_ok=True)
    workloads.write_configs(seed, directory)
    return directory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=THIS_CHECKOUT,
        help="checkout whose src/ is run (default: this one)",
    )
    inputs = parser.add_mutually_exclusive_group()
    inputs.add_argument(
        "--configs",
        type=Path,
        help="directory whose *.json configs are run (default: CHECKOUT/configs)",
    )
    inputs.add_argument(
        "--seed",
        type=int,
        action="append",
        help="run the benchmark workload configs of this seed (repeatable)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        runs = [("", args.configs.resolve() if args.configs else None)]
        if args.seed:
            runs = [(f"seed{n}/", seeded_configs(n, Path(tmp) / f"seed{n}")) for n in args.seed]
        for prefix, configs in runs:
            for line in digest_lines(root, configs):
                print(prefix + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
