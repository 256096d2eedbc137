"""Benchmark of the calr-lab command line, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,field,validate} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

The program is driven in-process through ``calr_lab.cli.main(argv)`` as a
closed loop with one client: each call starts when the previous one
returns.  Every call is checked (see workloads.py).  The calls of a
workload cycle over its configs in whole passes until ``--seconds`` have
passed.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to a
reference machine speed (see ``CALIBRATIONS``), because the shared host
this runs on changes speed by up to 1.8x for seconds at a time.
``--trace 1`` reports the per-layer metrics: it alternates untraced passes,
traced passes with spans recorded around each layer (see spans.py), and
``sweep --threads 1`` against ``--threads nproc`` on the workload's configs
that have a sweep block.
``--workload all`` runs every workload in both modes, each in a fresh
process, and prints one table; ``perfbench/selftest.py`` checks the
benchmark itself.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Generated configs and CLI outputs
go to a temporary directory under ``.perfbench_tmp/`` (ignored by git), so
no tracked file is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from workloads import OUTPUT_FILES, WORKLOADS, Outcome, check, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"

# Fresh interpreters timed per run for setup_s, spread over the run; the
# median is reported.
SETUP_REPEATS = 7
# Every config of a workload is called at least this often per loop, so
# that each has a median.
MIN_PASSES = 3

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("call_s_p50", "s", "lower"),
    ("call_s_p75", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "ratio", "higher"),
]

PER_LAYER = [
    ("solver.dissipated_power_direct.self_s", "s", "lower"),
    ("solver.dissipated_power_direct.calls", "count", "lower"),
    ("solver.dissipated_power_direct.nodes", "count", "lower"),
    ("spectrum.mode_table.self_s", "s", "lower"),
    ("spectrum.mode_table.calls", "count", "lower"),
    ("spectrum.mode_table.modes", "count", "lower"),
    ("source.newtonian_coefficients.self_s", "s", "lower"),
    ("source.newtonian_coefficients.calls", "count", "lower"),
    ("solver.boundary_forcing.self_s", "s", "lower"),
    ("solver.mode_projections.self_s", "s", "lower"),
    ("solver.solve_densities.self_s", "s", "lower"),
    ("solver.dissipated_power_spectral.self_s", "s", "lower"),
    ("solver.sweep.self_s", "s", "lower"),
    ("solver.sweep.calls", "count", "lower"),
    ("solver.sweep.pool_speedup", "ratio", "higher"),
    ("solver.eval_potential.self_s", "s", "lower"),
    ("solver.eval_potential.calls", "count", "lower"),
    ("geometry.to_elliptic.self_s", "s", "lower"),
    ("geometry.to_elliptic.calls", "count", "lower"),
    ("solver.calr_classify.self_s", "s", "lower"),
    ("source.gap_condition_report.self_s", "s", "lower"),
    ("oracle.block_np_for.self_s", "s", "lower"),
    ("oracle.numeric_spectrum.self_s", "s", "lower"),
    ("oracle.matrix_dim", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.warnings", "count", "lower"),
    ("trace.call_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Shares of the traced call time that motivated the workloads, as measured
# by hand before this benchmark existed; the report prints the measured
# share beside each.
REFERENCE_SHARES = {
    "sweep": {"solver.dissipated_power_direct": "~95%"},
    "field": {
        "solver.eval_potential": "82-85%",
        "geometry.to_elliptic": "~7%",
        "cli": "~8%",
    },
    "validate": {"oracle": "about half", "solver": "~31%"},
}

NOISE_NOTE = (
    "noise: on a shared 2-core host the same field call takes 0.45 s or 0.85 s as "
    "the host switches between a fast and a slow state every few seconds, and the "
    "mix of states differs between runs (24 s medians of raw wall time spread by "
    "10-25% IQR/median); so every timed call and set-up is bracketed by the "
    "{kernel} calibration kernel and scaled to the speed at which that kernel takes "
    "{ref:g} s, which brings that spread to 2-6%; each run is a {seconds:g} s closed "
    "loop reporting per-config medians, and setup_s is the median of {repeats} "
    "fresh interpreters spread over the run"
)

_CALIBRATION_VECTOR = np.linspace(0.0, 1.0, 64)


def _interpreter_kernel() -> None:
    acc = 0
    for i in range(90000):
        acc += i * i % 7


def _numpy_kernel() -> None:
    acc = 0.0
    for i in range(1500):
        acc += float(np.cos(_CALIBRATION_VECTOR * i) @ _CALIBRATION_VECTOR)


# Calibration kernels that do not use calr_lab, with the seconds each takes
# on the reference machine: a quiet 2-core x86-64 host of the kind the
# benchmark was tuned on (the fast state of the host above).
CALIBRATIONS = {
    "interpreter": (_interpreter_kernel, 0.006),
    "numpy": (_numpy_kernel, 0.005),
}

# The kernel whose speed tracks each workload's call time most closely.
# Chosen from 150 s of calls per workload with both kernels timed after
# every call: the spread (IQR/median) of 24 s medians of call time divided
# by kernel time was, for interpreter and numpy, sweep 3.7% and 10.3%,
# validate 1.6% and 18.6%, field 6.2% and 2.2% (raw: 10.6%, 17.7%, 12.0%).
KERNEL_OF = {"sweep": "interpreter", "field": "numpy", "validate": "interpreter"}


def load_cli():
    """Import calr_lab.cli from this checkout's src/, and only from there."""
    if not (SRC / "calr_lab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'calr_lab'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from calr_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: calr_lab imported from {cli.__file__}, not {SRC}")
    return cli


def time_setup() -> float:
    """Seconds from spawning a fresh interpreter until calr_lab.cli is imported
    and its parser built; the child reads the system-wide monotonic clock."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import calr_lab.cli as c; "
        "c.build_parser(); print(time.monotonic())"
    )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True, capture_output=True, text=True
    )
    return float(proc.stdout) - start


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, or 'unknown'."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"provenance: nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} blas_threads={blas_threads()} "
        f"commit={git_commit()}"
    )


class Bench:
    """One workload's configs, output directories and call loop."""

    def __init__(self, cli, workload: str, seed: int, tmp: Path):
        self.cli = cli
        self.kernel = KERNEL_OF[workload]
        self.ops, self.why = WORKLOADS[workload]
        (tmp / "configs").mkdir()
        self.paths = write_configs(seed, tmp / "configs")
        self.configs = {name: json.loads(p.read_text()) for name, p in self.paths.items()}
        self.out = tmp / "out"

    def calibration_s(self) -> float:
        """Seconds the workload's calibration kernel takes now."""
        start = time.perf_counter()
        CALIBRATIONS[self.kernel][0]()
        return time.perf_counter() - start

    def scaled(self, elapsed: float, before: float, after: float) -> float:
        """``elapsed`` in seconds at the reference speed, given the
        calibration times measured just before and just after it."""
        return elapsed * CALIBRATIONS[self.kernel][1] / (0.5 * (before + after))

    def call(self, sub: str, name: str, extra=()) -> tuple[float, Outcome, Path]:
        out = self.out / f"{sub}-{name}"
        out.mkdir(parents=True, exist_ok=True)
        for f in OUTPUT_FILES[sub]:
            (out / f).unlink(missing_ok=True)
        argv = [sub, "--config", str(self.paths[name]), "--out", str(out), *extra]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:
                elapsed = time.perf_counter() - start
                return elapsed, Outcome("failed", 0, traceback.format_exc(limit=4)), out
            elapsed = time.perf_counter() - start
        return elapsed, check(sub, self.configs[name], name, out, rc), out

    def run_pass(self, tally: "Tally", tracer: spans.Tracer | None = None,
                 scale: bool = False) -> None:
        """Call every operation of the workload once.

        With ``scale``, a calibration runs before the first call and after
        each call, and the samples are scaled to the reference speed; the
        raw wall times go to ``tally.raw``.
        """
        before = self.calibration_s() if scale else 0.0
        for sub, name in self.ops:
            if tracer is None:
                elapsed, outcome, _ = self.call(sub, name)
            else:
                first = len(tracer.spans)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    elapsed, outcome, out = self.call(sub, name)
                tally.traced_ops.append((first, len(tracer.spans), elapsed))
                tally.warnings += len(caught)
                tally.bytes_written += sum(f.stat().st_size for f in out.iterdir())
            tally.raw.setdefault((sub, name), []).append(elapsed)
            if scale:
                after = self.calibration_s()
                tally.calibrations.append(after)
                elapsed, before = self.scaled(elapsed, before, after), after
            tally.samples.setdefault((sub, name), []).append(elapsed)
            tally.outcomes.append((sub, name, outcome))
        tally.passes += 1

    def loop(self, seconds: float, min_passes: int = MIN_PASSES, setups: list | None = None) -> "Tally":
        """Closed loop over whole passes for at least ``seconds``, with every
        call time scaled to the reference speed.

        With ``setups``, a fresh-interpreter setup is timed between passes
        every seconds / SETUP_REPEATS, scaled likewise, so the setup samples
        are spread over the run as the call samples are.
        """
        tally = Tally()
        start = time.perf_counter()
        while tally.passes < min_passes or time.perf_counter() - start < seconds:
            if setups is not None and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
                before = self.calibration_s()
                elapsed = time_setup()
                setups.append(self.scaled(elapsed, before, self.calibration_s()))
            self.run_pass(tally, scale=True)
        return tally

    def pool_pass(self, totals: dict[int, float]) -> None:
        """Add each sweep's wall time with --threads 1 and --threads nproc to totals."""
        for name in (name for _, name in self.ops if "sweep" in self.configs[name]):
            for threads in totals:
                elapsed, outcome, _ = self.call("sweep", name, ("--threads", str(threads)))
                if outcome.status != "ok":
                    raise SystemExit(f"perfbench: sweep --threads {threads} on {name}: {outcome.detail}")
                totals[threads] += elapsed


@dataclass
class Tally:
    """What a loop measured: call times per (subcommand, config), scaled when
    the pass was calibrated and raw, calibration times, and outcomes."""

    samples: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    calibrations: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    passes: int = 0
    traced_ops: list = field(default_factory=list)
    bytes_written: int = 0
    warnings: int = 0


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean_of_config_medians(samples: dict) -> float:
    """Each config's median call time, averaged over the configs.

    Configs differ in cost, so a pooled median would sit between the
    configs' clusters and jump with tiny shifts; per-config medians do not.
    """
    return statistics.fmean(statistics.median(s) for s in samples.values())


def pooled_p75(samples: dict) -> float:
    """p75 call time: the p75 of every call relative to its config's median,
    pooled over the configs, times the mean of the config medians.

    Pooling puts more samples beyond the percentile than any one config has.
    p75 is the highest percentile with at least ten calls beyond it on every
    workload: a run of field makes about 40 calls.
    """
    ratios = [t / statistics.median(s) for s in samples.values() for t in s]
    return mean_of_config_medians(samples) * quantile(ratios, 75)


def end_to_end(bench: Bench, seconds: float, report: list[str]) -> tuple[dict, list]:
    warm = bench.loop(0.0, min_passes=1)  # lazy set-up, caches, page faults
    setups: list[float] = []
    run = bench.loop(seconds, setups=setups)
    samples = run.samples
    busy = sum(sum(s) for s in samples.values())
    items = sum(o.items for _, _, o in run.outcomes)
    outcomes = warm.outcomes + run.outcomes
    ok = sum(o.status == "ok" for _, _, o in outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_s_p50": mean_of_config_medians(samples),
        "call_s_p75": pooled_p75(samples),
        "items_per_s": items / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": ok / len(outcomes),
    }
    report.append(
        f"samples: {len(run.outcomes)} timed calls in {run.passes} passes "
        f"({', '.join(f'{n}={len(s)}' for (_, n), s in samples.items())}); "
        f"p50 is the mean of the config medians, p75 is pooled over configs relative "
        f"to each config's median; times are at the reference speed"
    )
    cal = run.calibrations
    report.append(
        f"{bench.kernel} calibration kernel: median {statistics.median(cal):.4f} s, "
        f"range {min(cal):.4f}-{max(cal):.4f} s over {len(cal)} runs "
        f"(reference {CALIBRATIONS[bench.kernel][1]:g} s)"
    )
    for (sub, name), s in samples.items():
        raw = run.raw[(sub, name)]
        report.append(
            f"  {sub} {name}: p50={quantile(s, 50):.4f} s p75={quantile(s, 75):.4f} s n={len(s)} "
            f"(raw wall p50={quantile(raw, 50):.4f} s)"
        )
    return metrics, outcomes


def per_layer(bench: Bench, seconds: float, report: list[str], workload: str) -> tuple[dict, list]:
    """Alternate untraced, traced and thread-pool passes for ``seconds``.

    Alternating keeps slow drifts of the machine out of the traced over
    untraced ratio and out of the pool speed-up.
    """
    warm = bench.loop(0.0, min_passes=1)
    plain, traced = Tally(), Tally()
    pool = {1: 0.0, len(os.sched_getaffinity(0)): 0.0}
    tracer = spans.Tracer()
    start = time.perf_counter()
    while traced.passes < MIN_PASSES or time.perf_counter() - start < seconds:
        bench.run_pass(plain)
        tracer.install()
        try:
            bench.run_pass(traced, tracer)
        finally:
            tracer.uninstall()
        bench.pool_pass(pool)
    n_ops = len(traced.traced_ops)
    totals = spans.layer_totals(tracer.spans, traced.traced_ops)
    metrics = {name: totals[name] for name, _, _ in PER_LAYER if name in totals}
    counts = tracer.counts
    metrics["solver.dissipated_power_direct.nodes"] = counts["solver.dissipated_power_direct.nodes"] / n_ops
    metrics["spectrum.mode_table.modes"] = counts["spectrum.mode_table.modes"] / n_ops
    oracle_calls = totals["oracle.block_np_for.calls"] * n_ops
    metrics["oracle.matrix_dim"] = (
        counts["oracle.block_np_for.matrix_dim"] / oracle_calls if oracle_calls else 0.0
    )
    metrics["solver.sweep.pool_speedup"] = pool[1] / pool[max(pool)]
    metrics["cli.bytes_written"] = traced.bytes_written / n_ops
    metrics["cli.warnings"] = traced.warnings / n_ops
    metrics["trace.overhead_ratio"] = (
        mean_of_config_medians(traced.samples) / mean_of_config_medians(plain.samples)
    )

    call_s = totals["trace.call_s"]
    report.append(f"traced: {n_ops} calls; self time as a share of the traced call time {call_s:.4f} s")
    shares = {name: totals[f"{name}.self_s"] / call_s for name in spans.LAYER_NAMES}
    shares["cli"] = totals["cli.self_s"] / call_s
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share > 0.0:
            report.append(f"  {share:7.2%}  {name}")
    grouped = {
        "oracle": sum(v for k, v in shares.items() if k.startswith("oracle.")),
        "solver": sum(v for k, v in shares.items() if k.startswith("solver.")),
    }
    for name, figure in REFERENCE_SHARES[workload].items():
        measured = grouped.get(name, shares.get(name, 0.0))
        report.append(f"  share of {name}: measured {measured:.1%} (figure before this benchmark: {figure})")
    report.append("median inclusive span by n_max (per-delta cost):")
    by_layer: dict[str, list[str]] = {}
    for (name, n_max), (median, count) in spans.span_medians_by_n_max(tracer.spans).items():
        by_layer.setdefault(name, []).append(f"n{n_max}={median * 1e3:.3f}ms/{count}")
    for name, cells in by_layer.items():
        report.append(f"  {name}: {' '.join(cells)}")
    return metrics, warm.outcomes + plain.outcomes + traced.outcomes


def run_workload(args) -> int:
    cli = load_cli()
    TMP_PARENT.mkdir(exist_ok=True)
    report = [
        f"calr-lab benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "loop: closed, one client, in-process calr_lab.cli.main(argv), --threads 1",
    ]
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
        bench = Bench(cli, args.workload, args.seed, Path(tmp))
        report.append(f"why: {bench.why}")
        for name in sorted({name for _, name in bench.ops}):
            digest = hashlib.sha256(bench.paths[name].read_bytes()).hexdigest()
            report.append(f"config {name}: sha256={digest}")
        report.append(provenance())
        report.append(NOISE_NOTE.format(
            seconds=args.seconds, repeats=SETUP_REPEATS, kernel=bench.kernel,
            ref=CALIBRATIONS[bench.kernel][1],
        ))
        if args.trace:
            metrics, outcomes = per_layer(bench, args.seconds, report, args.workload)
            specs = PER_LAYER
        else:
            metrics, outcomes = end_to_end(bench, args.seconds, report)
            specs = END_TO_END

    flagged = [(sub, name, o) for sub, name, o in outcomes if o.status == "flagged"]
    failed = [(sub, name, o) for sub, name, o in outcomes if o.status == "failed"]
    ops = bench.ops
    flagged_configs = sorted({name for _, name, _ in flagged})
    report.append(
        f"fail_ratio (program-reported failures): {len(flagged)}/{len(outcomes)} calls, "
        f"{len(flagged_configs)} of {len(ops)} configs"
        + (f": {', '.join(flagged_configs)} ({flagged[0][2].detail})" if flagged else "")
    )
    for sub, name, o in failed[:5]:
        report.append(f"FAILED {sub} {name}: {o.detail}")
    for name, unit, _ in specs:
        report.append(f"{name} = {metrics[name]:.6g} {unit}")
    print("\n".join(report))
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in both modes, each in a fresh process; returns the results."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: {workload} trace={trace} failed:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            results[(workload, trace)] = (json.loads(lines[-1]), lines[:-1])
    return results


def print_all(results: dict) -> None:
    names = list(WORKLOADS)
    print(f"{'metric':42} {'unit':6} " + " ".join(f"{n:>12}" for n in names))
    for trace, specs in ((0, END_TO_END), (1, PER_LAYER)):
        for metric, unit, _ in specs:
            cells = [results[(n, trace)][0]["metrics"][metric]["value"] for n in names]
            print(f"{metric:42} {unit:6} " + " ".join(f"{v:12.6g}" for v in cells))
    for (workload, trace), (result, lines) in results.items():
        fail = next(line for line in lines if line.startswith("fail_ratio"))
        print(f"{workload} trace={trace}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}; {fail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        print_all(run_all(args.seed, args.seconds))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
