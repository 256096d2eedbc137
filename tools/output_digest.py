"""Digest of every calr-lab output on the bundled configs.

    python3 tools/output_digest.py [--root CHECKOUT]

Runs the five subcommands (spectrum, critical-radius, sweep, field,
validate) on every ``configs/*.json`` of CHECKOUT (default: the checkout
holding this script), each in a fresh temporary directory with the
program imported from CHECKOUT's ``src/``.  Prints one line per output,

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
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("spectrum", "critical-radius", "sweep", "field", "validate")

# calr_lab.cli.main with warnings formatted free of checkout paths and line numbers.
_RUN_CLI = (
    "import sys, warnings\n"
    "warnings.formatwarning = lambda m, c, *a, **k: f'{c.__name__}: {m}\\n'\n"
    "from calr_lab.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(root: Path) -> list[str]:
    """The `config command rc file sha256` lines for one checkout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    lines = []
    for config in sorted((root / "configs").glob("*.json")):
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ and configs/ are used (default: this one)",
    )
    args = parser.parse_args(argv)
    for line in digest_lines(args.root.resolve()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
