"""Self-test of the benchmark; not part of the repository's test suite.

    python3 perfbench/selftest.py

Runs every workload at minimal length in both modes and checks that:
every metric of BENCHMARK.json is reported, finite and in its unit; each
run is correct; the traced self times plus cli.self_s add up to the traced
call time; validate names the dipole_inside defect; and the benchmark
refuses to run, without printing a result, where the program is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import spans

SECONDS = 0.1  # every loop still runs run.MIN_PASSES whole passes


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["why"] for m in spec["workloads"]}
    assert declared == {name: why for name, (_, why) in run.WORKLOADS.items()}, declared
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == table, f"BENCHMARK.json {key} differs from run.py"


def check_results(results: dict) -> None:
    for (workload, trace), (result, lines) in results.items():
        where = f"{workload} trace={trace}"
        assert result["correct"] and result["failed"] == 0, (where, result)
        assert result["attempted"] >= 1, where
        specs = run.PER_LAYER if trace else run.END_TO_END
        metrics = result["metrics"]
        assert list(metrics) == [name for name, _, _ in specs], where
        for name, unit, _ in specs:
            value = metrics[name]["value"]
            assert metrics[name]["unit"] == unit, (where, name)
            assert isinstance(value, (int, float)) and math.isfinite(value), (where, name, value)
        if trace:
            parts = [metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYER_NAMES]
            assert min(parts) >= 0.0, (where, parts)
            total = sum(parts) + metrics["cli.self_s"]["value"]
            call_s = metrics["trace.call_s"]["value"]
            assert math.isclose(total, call_s, rel_tol=1e-9), (where, total, call_s)
        else:
            assert metrics["setup_s"]["value"] > 0.0 and metrics["pass_ratio"]["value"] > 0.0, where
        fail_line = next(line for line in lines if line.startswith("fail_ratio"))
        if workload == "validate":
            assert "1 of 5 configs: dipole_inside" in fail_line, fail_line
        else:
            assert fail_line.startswith("fail_ratio (program-reported failures): 0/"), fail_line


def check_refuses_without_program() -> None:
    bare = run.TMP_PARENT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    check_spec()
    check_refuses_without_program()
    results = run.run_all(seed=1, seconds=SECONDS)
    check_results(results)
    run.print_all(results)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
