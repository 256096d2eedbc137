"""Start-up cost of calr_lab in fresh interpreters, for one or two checkouts.

    python3 tools/import_cost.py [--root A [--root B]] [--pairs N]

Each run is a fresh interpreter started with ``-X importtime`` and the
program imported from its checkout's ``src/``; it times ``import
calr_lab.cli`` plus ``build_parser()``, the set-up every CLI call pays.
With two roots the runs are interleaved in pairs, A then B and B then A
by turns, so slow drifts of the machine fall on both sides alike.
Prints, per root, the median ``-X importtime`` self time of each
``calr_lab.*`` module (``-`` where a root never imports it) and their
sum, the median and quartiles of the in-interpreter wall time, and, with
two roots, how many pairs B won.  Interpreter start-up itself, equal on
both sides, is not counted.  Whether compiled bytecode may be cached
(``PYTHONDONTWRITEBYTECODE``) changes what an import costs, so it is
printed with the results.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

# Import the CLI and build its parser; print the wall time and where the
# CLI was imported from.
_SETUP = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import calr_lab.cli as c\n"
    "c.build_parser()\n"
    "print(time.perf_counter() - start, c.__file__)\n"
)

_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def self_times(importtime: str) -> dict[str, float]:
    """Seconds of self time per calr_lab module from ``-X importtime`` output."""
    times = {}
    for line in importtime.splitlines():
        match = _LINE.match(line)
        if match and match[2].split(".")[0] == "calr_lab":
            times[match[2]] = int(match[1]) * 1e-6
    return times


def run_once(root: Path) -> tuple[float, dict[str, float]]:
    """Wall seconds of import plus build_parser and the per-module self
    times, from one fresh interpreter importing root/src."""
    src = root / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _SETUP],
        cwd=src, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    elapsed, cli_file = proc.stdout.split()
    if not Path(cli_file).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"import_cost: calr_lab imported from {cli_file}, not {src}")
    return float(elapsed), self_times(proc.stderr)


def measure(roots: list[Path], pairs: int) -> list[list[tuple[float, dict[str, float]]]]:
    """``pairs`` runs per root, in alternating order; runs[k][i] is root k's i-th."""
    runs: list[list] = [[] for _ in roots]
    for i in range(pairs):
        order = range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))
        for k in order:
            runs[k].append(run_once(roots[k]))
    return runs


def report(roots: list[Path], runs) -> list[str]:
    """The per-module table, the wall-time line and, for two roots, the wins."""
    def ms(seconds: float) -> str:
        return f"{seconds * 1e3:9.2f}"

    def cell(side, name: str) -> str:
        seen = [times[name] for _, times in side if name in times]
        return ms(statistics.median(seen)) if seen else f"{'-':>9}"

    names = sorted({m for side in runs for _, times in side for m in times})
    labels = [chr(ord("A") + k) for k in range(len(roots))]
    lines = [f"{'module (median self ms)':28}" + "".join(f"{x:>9}" for x in labels)]
    for name in names:
        lines.append(f"{name:28}" + "".join(cell(side, name) for side in runs))
    totals = [statistics.median(sum(t.values()) for _, t in side) for side in runs]
    lines.append(f"{'calr_lab.* total':28}" + "".join(ms(t) for t in totals))
    for k, side in enumerate(runs):
        q1, q2, q3 = statistics.quantiles([w for w, _ in side], n=4, method="inclusive")
        lines.append(
            f"{labels[k]} {roots[k]}: import calr_lab.cli + build_parser wall median"
            f" {q2 * 1e3:.2f} ms (quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f}) over {len(side)} runs"
        )
    if len(runs) == 2:
        deltas = [b - a for (a, _), (b, _) in zip(*runs)]
        wins, losses = sum(d < 0 for d in deltas), sum(d > 0 for d in deltas)
        lines.append(
            f"B faster in {wins} of {len(deltas)} pairs, slower in {losses};"
            f" median B - A {statistics.median(deltas) * 1e3:+.2f} ms"
        )
    cache = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    lines.append(f"python {platform.python_version()}, bytecode cache {cache}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, action="append",
        help="checkout whose src/ is imported; give it once or twice (default: this one)",
    )
    parser.add_argument("--pairs", type=int, default=40, help="runs per root (default 40)")
    args = parser.parse_args(argv)
    roots = [r.resolve() for r in args.root or [Path(__file__).resolve().parent.parent]]
    if len(roots) > 2:
        parser.error("--root: give one or two checkouts")
    if args.pairs < 2:
        parser.error("--pairs: need at least 2")
    for line in report(roots, measure(roots, args.pairs)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
