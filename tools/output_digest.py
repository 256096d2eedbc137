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

``in_process_lines`` prints the same lines from ``calr_lab.cli.main`` run
in the calling process, on whichever ``calr_lab`` it imports; the tier-1
test ``tests/test_output_digest.py`` compares them with the lines recorded
in ``tests/golden/output_digest.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
import warnings
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


def _lines(configs: Path, run) -> list[str]:
    """The digest lines of every config and command, each run as
    ``run(config, command, tmp) -> (rc, stdout, stderr)`` with ``tmp`` a
    fresh temporary directory and its ``out`` the output directory."""
    lines = []
    for config in sorted(configs.glob("*.json")):
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                rc, stdout, stderr = run(config, command, tmp)
                outputs = {"<stdout>": stdout, "<stderr>": stderr}
                out_dir = Path(tmp) / "out"
                if out_dir.is_dir():
                    for path in sorted(out_dir.rglob("*")):
                        if path.is_file():
                            outputs[path.relative_to(tmp).as_posix()] = path.read_bytes()
                for name, data in outputs.items():
                    lines.append(f"{config.name} {command} {rc} {name} {_sha256(data)}")
    return lines


def digest_lines(root: Path, configs: Path | None = None) -> list[str]:
    """The `config command rc file sha256` lines for one checkout, over
    the configs in ``configs`` (default: root/configs)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(config, command, tmp):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_CLI, command, "--config", str(config), "--out", "out"],
            cwd=tmp, env=env, capture_output=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return _lines(configs or root / "configs", run)


def in_process_lines(configs: Path) -> list[str]:
    """digest_lines over ``configs``, from calr_lab.cli.main run in this
    process on the calr_lab it imports.  Each run starts in its temporary
    directory with the warning filters of a fresh interpreter and
    warnings printed as in _RUN_CLI, and standard output and error
    captured."""
    from calr_lab.cli import main

    def show(message, category, *args, **kwargs):
        sys.stderr.write(f"{category.__name__}: {message}\n")

    def run(config, command, tmp):
        stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.resetwarnings()
            for category in (DeprecationWarning, PendingDeprecationWarning,
                             ImportWarning, ResourceWarning):
                warnings.simplefilter("ignore", category)
            warnings.showwarning = show
            os.chdir(tmp)
            try:
                rc = main([command, "--config", str(config), "--out", "out"])
            finally:
                os.chdir(cwd)
        return rc, stdout.getvalue().encode(), stderr.getvalue().encode()

    return _lines(configs.resolve(), run)


@functools.cache
def workloads():
    """perfbench/workloads.py of the checkout holding this script, loaded once."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", THIS_CHECKOUT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up there
    spec.loader.exec_module(module)
    return module


def seeded_configs(seed: int, directory: Path) -> Path:
    """Write the benchmark workload configs of one seed into directory with
    perfbench/workloads.write_configs of this checkout; returns directory."""
    directory.mkdir(parents=True, exist_ok=True)
    workloads().write_configs(seed, directory)
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
