"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is a list of (subcommand, config name) operations, run as
``calr-lab <subcommand> --config <generated file>``.  The config
templates below are copies of the bundled ``configs/*.json`` files and
are kept here so that both sides of a before/after comparison receive
identical inputs even if a later change edits ``configs/``.

A seed varies only the source angle omega_0, the dipole moment direction
and the probe angles.  Geometry, delta list, probe radius, grid size and
``margin`` stay fixed, so the work one call does (the truncation orders
n_max, the grid, the Nystrom size) does not depend on the seed.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

THIN = {"R": 1.0, "rho_i": 0.5, "rho_e": 0.8}
THICK = {"R": 1.0, "rho_i": 0.2, "rho_e": 1.0}
DELTAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]


def _source_config(geometry, rho0, probe_rho, rho_max, field_extra=None):
    return {
        "geometry": dict(geometry),
        "source": {
            "variant": "dipole",
            "location": {"rho": rho0, "omega": 0.9},
            "moment": [1.0, 0.4],
        },
        "sweep": {
            "deltas": list(DELTAS),
            "probes": [
                {"rho": probe_rho, "omega": 0.6},
                {"rho": probe_rho, "omega": 2.8},
            ],
            "margin": 40,
        },
        "spectrum": {"n_max": 8},
        "field": {
            "delta": 1e-5, "rho_max": rho_max, "n1": 81, "n2": 81,
            **(field_extra or {}),
        },
    }


TEMPLATES = {
    "dipole_inside": _source_config(THIN, 0.88, 1.2, 1.4, {"margin": 260}),
    "dipole_outside": _source_config(THIN, 1.1, 1.2, 1.4),
    "thick_inside": _source_config(THICK, 1.5, 2.3, 2.5),
    "thick_outside": _source_config(THICK, 1.8, 2.3, 2.5),
    "validate_default": {
        "geometry": dict(THIN),
        "validate": {"n_nystrom": 256, "n_modes": 3},
    },
}

SOURCE_CONFIGS = ["dipole_inside", "dipole_outside", "thick_inside", "thick_outside"]

# Why each workload exists; printed in the report and repeated in
# BENCHMARK.json (the self-test checks that the two agree).
WORKLOADS = {
    "sweep": (
        [("sweep", name) for name in SOURCE_CONFIGS],
        "7-delta loss sweeps on four source configs: the energy quadrature "
        "dominates and each delta builds its own mode table",
    ),
    "field": (
        [("field", "dipole_inside"), ("field", "thick_outside")],
        "81x81 potential grids at n_max 337 and 69: per-point evaluation "
        "dominates; control for energy changes",
    ),
    "validate": (
        [("validate", "validate_default")]
        + [("validate", name) for name in SOURCE_CONFIGS],
        "cross-validation suite on five configs: the only workload running "
        "the Nystrom oracle; shows the dipole_inside flux_jump defect",
    ),
}

# README verdicts of the four bundled sweeps.
EXPECTED_VERDICT = {
    "dipole_inside": "CALR",
    "dipole_outside": "NoCALR",
    "thick_inside": "CALR",
    "thick_outside": "NoCALR",
}

# Known program defects: validate on dipole_inside exits 4 because the
# flux_jump check fails (the truncation ignores how close the source sits
# to the shell).  Such an operation is not a benchmark failure, but it
# lowers pass_ratio and is named in the report.  Any other failing check,
# or this check failing on another config, is a benchmark failure.
KNOWN_VALIDATE_DEFECTS = {"dipole_inside": {"flux_jump"}}

# The checks validate runs today; a later version may add more, but these
# must stay, and only these count as work items.
VALIDATE_CHECKS = {
    "alpha0_half", "continuity", "eigen_residuals", "flux_jump",
    "nystrom_spectrum", "reality_symmetry", "s_norms", "surrogate_ratio",
}

# The validate surrogate_ratio bound: the spectral energy stays within this
# factor of the quadrature energy.
SURROGATE_BOUND = 10.0


def generate(name: str, rng: random.Random) -> dict:
    """A template with seeded source angle, moment direction and probe angles."""
    cfg = copy.deepcopy(TEMPLATES[name])
    if "source" in cfg:
        src = cfg["source"]
        src["location"]["omega"] = rng.uniform(0.0, 2.0 * math.pi)
        size = math.hypot(*src["moment"])
        theta = rng.uniform(0.0, 2.0 * math.pi)
        src["moment"] = [size * math.cos(theta), size * math.sin(theta)]
        for probe in cfg["sweep"]["probes"]:
            probe["omega"] = rng.uniform(0.0, 2.0 * math.pi)
    return cfg


def write_configs(seed: int, directory: Path) -> dict[str, Path]:
    """Write every template, seeded, as <name>.json; returns name -> path."""
    rng = random.Random(seed)
    paths = {}
    for name in sorted(TEMPLATES):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(generate(name, rng), sort_keys=True, indent=2) + "\n")
        paths[name] = path
    return paths


@dataclass
class Outcome:
    """Result of checking one operation.

    status is "ok", "flagged" (a known defect reported by the program
    itself) or "failed"; items counts the work units the call completed.
    """

    status: str
    items: int
    detail: str = ""


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: not a number: {text!r}") from None
    _require(math.isfinite(value), f"{where}: not finite: {text!r}")
    return value


def _all_finite(obj, where: str) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _all_finite(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            _all_finite(v, f"{where}[{k}]")
    elif isinstance(obj, float):
        _require(math.isfinite(obj), f"{where}: not finite")


def check_sweep(cfg: dict, name: str, out: Path, rc: int) -> Outcome:
    _require(rc == 0, f"exit code {rc}")
    block = cfg["sweep"]
    n_probes = len(block["probes"])
    header = ["delta", "n_max", "e_direct", "e_spectral"]
    header += [f"far_{k + 1}" for k in range(n_probes)]
    header += [f"normalized_far_{k + 1}" for k in range(n_probes)]
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"sweep.csv header {rows[:1]}")
    deltas = sorted(block["deltas"], reverse=True)
    _require(len(rows) == 1 + len(deltas), f"sweep.csv has {len(rows) - 1} rows")
    for k, (row, delta) in enumerate(zip(rows[1:], deltas)):
        where = f"sweep.csv row {k + 1}"
        _require(len(row) == len(header), f"{where}: {len(row)} columns")
        values = [_finite(v, where) for v in row]
        _require(values[0] == delta, f"{where}: delta {values[0]} != {delta}")
        _require(values[1] >= 1 and values[1] == int(values[1]), f"{where}: n_max {values[1]}")
        e_direct, e_spectral = values[2], values[3]
        _require(e_direct > 0.0 and e_spectral > 0.0, f"{where}: E <= 0")
        ratio = e_direct / e_spectral
        _require(
            1.0 / SURROGATE_BOUND <= ratio <= SURROGATE_BOUND,
            f"{where}: e_direct/e_spectral = {ratio:.3g}",
        )
    report = json.loads((out / "sweep_classification.json").read_text())
    _all_finite(report, "sweep_classification")
    verdict = report.get("verdict")
    _require(
        verdict == EXPECTED_VERDICT[name],
        f"verdict {verdict}, expected {EXPECTED_VERDICT[name]}",
    )
    return Outcome("ok", len(deltas))


def check_field(cfg: dict, name: str, out: Path, rc: int) -> Outcome:
    _require(rc == 0, f"exit code {rc}")
    block = cfg["field"]
    R = cfg["geometry"]["R"]
    with open(out / "field.csv", newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader, None) == ["x1", "x2", "re_v", "im_v", "abs_v"], "field.csv header")
        count = 0
        for row in reader:
            count += 1
            where = f"field.csv row {count}"
            _require(len(row) == 5, f"{where}: {len(row)} columns")
            x1, x2 = _finite(row[0], where), _finite(row[1], where)
            # The focal-segment rule of geometry.to_elliptic.
            scale = max(R, abs(x1), abs(x2))
            on_focal_segment = abs(x2) <= 1e-13 * scale and abs(x1) <= R * (1.0 + 1e-13)
            if on_focal_segment:
                _require(row[2:] == ["", "", ""], f"{where}: focal point not blank")
                continue
            re_v, im_v, abs_v = (_finite(v, where) for v in row[2:])
            _require(
                math.isclose(abs_v, math.hypot(re_v, im_v), rel_tol=1e-12),
                f"{where}: abs_v inconsistent",
            )
    _require(count == block["n1"] * block["n2"], f"field.csv has {count} rows")
    return Outcome("ok", count)


def check_validate(cfg: dict, name: str, out: Path, rc: int) -> Outcome:
    _require(rc in (0, 4), f"exit code {rc}")
    report = json.loads((out / "validate.json").read_text())
    checks = report.get("checks", [])
    names = {c.get("name") for c in checks}
    _require(VALIDATE_CHECKS <= names, f"validate checks missing: {sorted(VALIDATE_CHECKS - names)}")
    for c in checks:
        _require(c.get("status") in ("pass", "fail"), f"{c['name']}: status {c.get('status')}")
        _require(math.isfinite(c["observed"]), f"{c['name']}: observed not finite")
    failing = {c["name"] for c in checks if c["status"] == "fail"}
    _require(report.get("all_pass") == (not failing), "all_pass disagrees with checks")
    _require((rc == 4) == bool(failing), f"exit code {rc} with failing {sorted(failing)}")
    if not failing:
        return Outcome("ok", len(VALIDATE_CHECKS))
    _require(failing <= KNOWN_VALIDATE_DEFECTS.get(name, set()), f"failing checks {sorted(failing)}")
    detail = ", ".join(
        f"{c['name']} observed={c['observed']:.2e} threshold={c['threshold']:.0e}"
        for c in checks if c["name"] in failing
    )
    return Outcome("flagged", len(VALIDATE_CHECKS), detail)


CHECKERS = {"sweep": check_sweep, "field": check_field, "validate": check_validate}

OUTPUT_FILES = {
    "sweep": ("sweep.csv", "sweep_classification.json"),
    "field": ("field.csv",),
    "validate": ("validate.json",),
}


def check(sub: str, cfg: dict, name: str, out: Path, rc: int) -> Outcome:
    """Check one call's exit code and output files."""
    try:
        return CHECKERS[sub](cfg, name, out, rc)
    except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome("failed", 0, f"{type(exc).__name__}: {exc}")
