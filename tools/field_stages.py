"""Raw per-stage wall times of ``calr-lab field`` for one checkout.

    python3 tools/field_stages.py [--root CHECKOUT] [--seed N ... | --config FILE ...]
                                  [--calls N]

Runs ``calr_lab.cli.main(["field", ...])``, with the program imported
from CHECKOUT's ``src/`` (default: the checkout holding this script),
and takes ``time.perf_counter`` laps around the calls the command
already makes, each wrapped in place for the run:

    coefficients  main up to the end of newtonian_coefficients: the
                  arguments, the config, n_max, the source coefficients
    grid          up to solve_densities: the grid, its inversion to
                  (rho, omega), the blank cells
    solve         solve_densities
    layers        eval_potentials up to the end of solver._layer_sums
    F             the rest of eval_potentials: the source potential, added
    text          the field.csv rows: the value columns and cli._field_rows
    write         the rest of cli._write_rows and of the command

The stages are the command's own calls, so they cannot drift from it.
A command that exits non-zero makes the tool exit 1.  Each ``--seed N``
(repeatable; default 71) runs the benchmark's field workload configs of
seed N, written by ``perfbench/workloads.py`` of the checkout holding
this script; ``--config`` runs the given configs instead.  Prints, per config, the
median over ``--calls`` calls of each stage and of their sum, in
milliseconds.  The times are raw: not scaled by any speed calibration,
so compare two checkouts by alternating runs on one host.  Uses the
standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

THIS_CHECKOUT = Path(__file__).resolve().parent.parent
STAGES = ("coefficients", "grid", "solve", "layers", "F", "text", "write")


def _import_cli(root: Path):
    """calr_lab.cli imported from root/src; refuses another copy already imported."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import calr_lab.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"calr_lab is already imported from {cli.__file__}, not {src}")
    return cli


def _field_configs(seed: int, directory: Path) -> list[Path]:
    """The field workload configs of one benchmark seed, written into directory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", THIS_CHECKOUT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up there
    spec.loader.exec_module(workloads)
    directory.mkdir(parents=True, exist_ok=True)
    workloads.write_configs(seed, directory)
    return [directory / f"{name}.json" for _, name in workloads.WORKLOADS["field"][0]]


def field_stages(cli, config: Path, out_dir: Path) -> tuple[int, dict[str, float]]:
    """The exit code of one field command on config, written to out_dir,
    and the seconds it spent in each stage it passed through."""
    solver = sys.modules["calr_lab.solver"]
    times: dict[str, float] = {}
    start = 0.0

    def lap(stage):
        nonlocal start
        now = time.perf_counter()
        times[stage] = times.get(stage, 0.0) + now - start
        start = now

    def timed(fn, before, after):
        def call(*args, **kwargs):
            if before:
                lap(before)
            out = fn(*args, **kwargs)
            lap(after)
            return out
        return call

    def timed_rows(rows):
        lap("write")  # the header line
        for row in rows:
            lap("text")
            yield row
            lap("write")
        lap("text")

    write_rows = cli._write_rows
    laps = [  # module, name, the call put in its place, laps before and after it
        (cli, "newtonian_coefficients", cli.newtonian_coefficients, None, "coefficients"),
        (cli, "solve_densities", cli.solve_densities, "grid", "solve"),
        (solver, "_layer_sums", solver._layer_sums, None, "layers"),
        (cli, "eval_potentials", cli.eval_potentials, None, "F"),
        (cli, "_write_rows",
         lambda path, header, rows=(): write_rows(path, header, timed_rows(rows)),
         "text", "write"),
    ]
    with contextlib.ExitStack() as patched:
        for module, name, fn, before, after in laps:
            patched.enter_context(mock.patch.object(module, name, timed(fn, before, after)))
        patched.enter_context(contextlib.redirect_stdout(io.StringIO()))
        start = time.perf_counter()
        rc = cli.main(["field", "--config", str(config), "--out", str(out_dir)])
        lap("write")  # the command's closing lines
    return rc, times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=THIS_CHECKOUT,
        help="checkout whose src/ is run (default: this one)",
    )
    inputs = parser.add_mutually_exclusive_group()
    inputs.add_argument(
        "--seed", type=int, action="append",
        help="run the field workload configs of this benchmark seed (repeatable; default 71)",
    )
    inputs.add_argument("--config", type=Path, action="append", help="config file (repeatable)")
    parser.add_argument("--calls", type=int, default=50, help="timed calls per config")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls: need at least 1")
    cli = _import_cli(args.root)
    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = [c.resolve() for c in args.config or []]
        for seed in [] if configs else args.seed or [71]:
            configs += _field_configs(seed, tmp / f"seed{seed}")
        print(f"# calr_lab {Path(cli.__file__).parent}; numpy {np.__version__};"
              f" median of {args.calls} calls; raw wall ms")
        print("config " + " ".join(STAGES) + " total")
        for config in configs:
            out_dir = tmp / "out"
            calls = []
            for _ in range(1 + args.calls):  # the first warms the caches up, untimed
                # A fresh file each call, as the benchmark writes.
                (out_dir / "field.csv").unlink(missing_ok=True)
                rc, times = field_stages(cli, config, out_dir)
                if rc != 0:
                    print(f"{config}: calr-lab field exits {rc}", file=sys.stderr)
                    return 1
                calls.append(times)
            calls = calls[1:]
            medians = [statistics.median(c[s] for c in calls) for s in STAGES]
            total = statistics.median(sum(c.values()) for c in calls)
            name = config.relative_to(tmp).as_posix() if config.is_relative_to(tmp) else config.name
            print(name, " ".join(f"{1e3 * t:.3f}" for t in medians + [total]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
