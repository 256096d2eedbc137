"""Command-line front end.

Five subcommands drive the library from a JSON config file:

    calr-lab spectrum        --config run.json [--out DIR]
    calr-lab critical-radius --config run.json [--out DIR]
    calr-lab sweep           --config run.json [--out DIR] [--threads K]
    calr-lab field           --config run.json [--out DIR]
    calr-lab validate        --config run.json [--out DIR]

Outputs are CSV (comma separated, header row, LF endings, 17 significant
digits) and JSON (UTF-8, sorted keys), so identical configs produce
byte-identical files.  Exit codes: 0 success, 2 config error, 3 numeric
failure, 4 validation-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Any

import numpy as np

from .errors import CalrError, ConfigError, TooFewCoefficients
from .geometry import ConfocalGeometry, EllipticPoint, elliptic_coords, sample_ellipse
from .oracle import assemble_np, block_np_for, numeric_spectrum
from .solver import (
    _sweep,
    adaptive_n_max,
    calr_classify,
    eval_potentials,
    solve_densities,
    sweep,
)
from .source import (
    ChargePair,
    Coefficients,
    Dipole,
    SourceSpec,
    convergence_exponent,
    gap_condition_report,
    newtonian_coefficients,
)
from .spectrum import (
    RegimeKind, block_matrices, critical_radius, mode_data, mode_table, s_gram
)

_SPECTRUM_COLUMNS = (
    "n,lambda1,lambda2,a1,a2,b,norm_1p,norm_1m,norm_2p,norm_2m"
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(path: Path, obj: Any) -> None:
    path.write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )


def load_config(path: str | Path) -> dict:
    """Read and parse the JSON run configuration."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return cfg


def _block(cfg: dict, name: str, required: bool = True) -> dict:
    value = cfg.get(name)
    if value is None:
        if required:
            raise ConfigError(f"missing config block '{name}'")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be a JSON object")
    return value


def _float(value: Any, where: str) -> float:
    """The one conversion of a config number; too large for a double is refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: number too large for a double") from None


def _floats(values: Any, where: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{where}: expected a list of numbers")
    return [_float(v, f"{where}[{k}]") for k, v in enumerate(values)]


def _number(block: dict, where: str, key: str, default=None) -> float:
    value = block.get(key, default)
    if value is None:
        raise ConfigError(f"{where}.{key}: required number is missing")
    return _float(value, f"{where}.{key}")


def _int(block: dict, where: str, key: str, default=None) -> int:
    value = block.get(key, default)
    if value is None:
        raise ConfigError(f"{where}.{key}: required integer is missing")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    _float(value, f"{where}.{key}")  # the truncation arithmetic runs in doubles
    return value


def _point(obj: Any, where: str) -> EllipticPoint:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object with rho and omega")
    try:
        return EllipticPoint(
            _number(obj, where, "rho"), _number(obj, where, "omega")
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_geometry(cfg: dict) -> ConfocalGeometry:
    block = _block(cfg, "geometry")
    try:
        return ConfocalGeometry(
            _number(block, "geometry", "R"),
            _number(block, "geometry", "rho_i"),
            _number(block, "geometry", "rho_e"),
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc


def parse_source(cfg: dict) -> SourceSpec:
    block = _block(cfg, "source")
    variant = block.get("variant")
    try:
        if variant == "dipole":
            moment = _floats(block.get("moment"), "source.moment")
            if len(moment) != 2:
                raise ConfigError("source.moment: expected [a1, a2]")
            return Dipole(_point(block.get("location"), "source.location"), moment)
        if variant == "charge_pair":
            return ChargePair(
                _point(block.get("plus"), "source.plus"),
                _point(block.get("minus"), "source.minus"),
                _number(block, "source", "charge"),
            )
        if variant == "coefficients":
            f_plus = _floats(block.get("f_plus", []), "source.f_plus")
            f_minus = _floats(block.get("f_minus", []), "source.f_minus")
            if len(f_plus) != len(f_minus):
                raise ConfigError(
                    "source.f_plus / f_minus: lengths differ "
                    f"({len(f_plus)} vs {len(f_minus)})"
                )
            return Coefficients(_number(block, "source", "c", 0.0), f_plus, f_minus)
    except ValueError as exc:  # the constructors' own checks
        raise ConfigError(f"source: {exc}") from exc
    raise ConfigError(
        "source.variant: expected one of 'dipole', 'charge_pair', "
        f"'coefficients', got {variant!r}"
    )


def cmd_spectrum(cfg: dict, out_dir: Path) -> int:
    g = parse_geometry(cfg)
    n_max = _int(_block(cfg, "spectrum", required=False), "spectrum", "n_max", 8)
    if n_max < 0:
        raise ConfigError(f"spectrum.n_max: must be >= 0, got {n_max}")
    lines = [_SPECTRUM_COLUMNS]
    for n in range(1, n_max + 1):
        values = astuple(mode_data(n, g))[1:]
        lines.append(",".join([str(n)] + [_fmt(v) for v in values]))
    path = out_dir / "spectrum.csv"
    _write_lines(path, lines)
    print(f"wrote {path} ({n_max} modes)")
    return 0


def cmd_critical_radius(cfg: dict, out_dir: Path) -> int:
    g = parse_geometry(cfg)
    regime = critical_radius(g.rho_i, g.rho_e)
    report: dict[str, Any] = {
        "regime": regime.kind.value,
        "rho_star": regime.rho_star,
        "far_bound_rho": regime.far_bound_rho,
    }
    if regime.kind is RegimeKind.THIN:
        # In the thin regime the confocal problem maps onto an annulus
        # under rho = ln r, so the critical radius has a disk equivalent.
        report["disk_equivalent"] = math.exp(regime.rho_star)
    path = out_dir / "critical_radius.json"
    _write_json(path, report)
    print(f"wrote {path}")
    print(json.dumps(report, sort_keys=True))
    return 0


def _sweep_header(n_probes: int) -> str:
    far = [f"far_{k + 1}" for k in range(n_probes)]
    norm = [f"normalized_far_{k + 1}" for k in range(n_probes)]
    return ",".join(["delta", "n_max", "e_direct", "e_spectral"] + far + norm)


def cmd_sweep(cfg: dict, out_dir: Path) -> int:
    g = parse_geometry(cfg)
    source = parse_source(cfg)
    block = _block(cfg, "sweep")
    deltas = block.get("deltas")
    if not isinstance(deltas, list) or not deltas:
        raise ConfigError("sweep.deltas: expected a non-empty list")
    deltas = sorted(_floats(deltas, "sweep.deltas"), reverse=True)
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ConfigError(f"sweep.deltas: each delta must be in (0, 1), got {d!r}")
    probes_cfg = block.get("probes")
    if not isinstance(probes_cfg, list) or not probes_cfg:
        raise ConfigError("sweep.probes: expected a non-empty list")
    probes = [
        _point(p, f"sweep.probes[{k}]") for k, p in enumerate(probes_cfg)
    ]
    for k, p in enumerate(probes):
        if p.rho <= g.rho_e:
            raise ConfigError(
                f"sweep.probes[{k}]: rho = {p.rho} is not outside rho_e = {g.rho_e}"
            )
        # The point source's closed form squares |x - x0| times 2 pi; past
        # this it overflows and the probe value is lost.
        try:
            a = g.R * math.cosh(p.rho)
        except OverflowError:
            a = math.inf
        if not math.isfinite(2.0 * math.pi * a * a):
            raise ConfigError(
                f"sweep.probes[{k}]: rho = {p.rho} puts 2 pi (R cosh rho)^2 out of range"
            )
    margin = _int(block, "sweep", "margin", 40)
    if margin < 0:
        raise ConfigError(f"sweep.margin: must be >= 0, got {margin}")

    records, sc_top = _sweep(source, g, deltas, probes, margin)
    lines = [_sweep_header(len(probes))]
    for rec in records:
        row = [_fmt(rec.delta), str(rec.n_max), _fmt(rec.e_direct), _fmt(rec.e_spectral)]
        row += [_fmt(v) for v in rec.far_samples]
        row += [_fmt(v) for v in rec.normalized_far]
        lines.append(",".join(row))
    csv_path = out_dir / "sweep.csv"
    _write_lines(csv_path, lines)

    regime = critical_radius(g.rho_i, g.rho_e)
    diagnosis = calr_classify(records, regime)
    # The gap report reads the sweep's coefficients at its top truncation,
    # adaptive_n_max(min(deltas)).
    gc = gap_condition_report(sc_top, g, regime.rho_star)
    report = {
        "verdict": diagnosis.verdict.value,
        "growth_exponent": diagnosis.growth_exponent,
        "energy_growth": diagnosis.energy_growth,
        "energy_spread": diagnosis.energy_spread,
        "visibility_drop": diagnosis.visibility_drop,
        "energy_increasing": diagnosis.energy_increasing,
        "visibility_decreasing": diagnosis.visibility_decreasing,
        "regime": {
            "kind": regime.kind.value,
            "rho_star": regime.rho_star,
            "far_bound_rho": regime.far_bound_rho,
        },
        "gap_condition": {
            "verdict": gc.verdict.value,
            "rho_star": gc.rho_star,
            "n_terms": int(len(gc.indices)),
            "log10_tail_terms": [float(v) for v in gc.log10_terms[-5:]],
        },
    }
    json_path = out_dir / "sweep_classification.json"
    _write_json(json_path, report)
    print(f"wrote {csv_path} ({len(records)} rows)")
    print(f"wrote {json_path}")
    print(f"verdict: {diagnosis.verdict.value}")
    return 0


def _series_radius(source: SourceSpec) -> float:
    """The rho past which the series of a Coefficients source diverges.

    That is convergence_exponent for at least 10 nonzero pairs.  Fewer
    pairs make a polynomial, and a point source is no series: both are
    infinite.
    """
    if isinstance(source, Coefficients):
        try:
            return convergence_exponent(source)
        except TooFewCoefficients:
            pass
    return math.inf


def cmd_field(cfg: dict, out_dir: Path) -> int:
    """Write V on an n1 x n2 grid over the bounding box of {rho <= rho_max}.

    Cells on the focal segment, where omega is undefined, are left blank.
    So are the cells of a Coefficients source with at least 10 nonzero
    pairs at rho >= convergence_exponent(source), where its series
    diverges; their count goes to stdout.  A source with fewer pairs is
    taken as the polynomial it is, which converges everywhere, so nothing
    of it is blanked.
    """
    g = parse_geometry(cfg)
    source = parse_source(cfg)
    block = _block(cfg, "field")
    delta = _number(block, "field", "delta")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"field.delta: must be in (0, 1), got {delta}")
    regime = critical_radius(g.rho_i, g.rho_e)
    rho_max = _number(block, "field", "rho_max", regime.far_bound_rho + 0.3)
    try:
        a, b = g.R * math.cosh(rho_max), g.R * math.sinh(rho_max)
    except OverflowError:
        a = b = math.inf
    if not (rho_max > 0.0 and math.isfinite(2.0 * a)):
        raise ConfigError(
            f"field.rho_max: must be > 0 with R cosh(rho_max) finite, got {rho_max}"
        )
    n1 = _int(block, "field", "n1", 81)
    n2 = _int(block, "field", "n2", 81)
    if min(n1, n2) < 2:
        raise ConfigError("field.n1/n2: grid needs >= 2 points per axis")
    # Sources very close to the shell need extra modes before the series
    # tail clears the interface gap; margin buys that headroom.
    margin = _int(block, "field", "margin", 40)
    if margin < 0:
        raise ConfigError(f"field.margin: must be >= 0, got {margin}")

    xs = np.linspace(-a, a, n1)
    ys = np.linspace(-b, b, n2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        rho, omega, focal = elliptic_coords(g.R, np.stack(np.meshgrid(xs, ys), axis=-1))
    if not (np.isfinite(rho[~focal]).all() and np.isfinite(omega[~focal]).all()):
        raise ConfigError(
            f"field.rho_max: {rho_max} puts grid points past the elliptic coordinate range"
        )

    radius = _series_radius(source)
    past = ~focal & (rho >= radius)
    blank = focal | past

    n_max = adaptive_n_max(delta, g, margin)
    sc = newtonian_coefficients(source, n_max, g.R, rho_e=g.rho_e)
    dc = solve_densities(sc, g, delta)
    values = eval_potentials(source, dc, g, rho[~blank], omega[~blank]).tolist()
    # One printf per point; "%.17g" gives the same text as _fmt.
    cells = ("%.17g,%.17g,%.17g" % (v.real, v.imag, abs(v)) for v in values)
    x1_text = [_fmt(x1) for x1 in xs]
    lines = ["x1,x2,re_v,im_v,abs_v"]
    for x2, row in zip(map(_fmt, ys), blank.tolist()):
        lines += [
            f"{x1},{x2},{',,' if cell else next(cells)}"
            for x1, cell in zip(x1_text, row)
        ]
    path = out_dir / "field.csv"
    _write_lines(path, lines)
    print(f"wrote {path} ({n1 * n2} points)")
    if math.isfinite(radius):
        print(
            f"left {int(np.count_nonzero(past))} points blank at rho >="
            f" {_fmt(radius)}, past the source series' convergence radius"
        )
    return 0


def _check(name: str, observed: float, threshold: float, status=None):
    """A validate check: pass iff observed < threshold, unless status is given."""
    return {
        "name": name,
        "status": status or ("pass" if observed < threshold else "fail"),
        "observed": float(observed),
        "threshold": float(threshold),
    }


def _relative(jump: float, scale: float) -> float:
    """jump / scale, where a jump measured against a zero scale is 0 (a zero source)."""
    return jump / scale if scale > 0.0 else (0.0 if jump == 0.0 else math.inf)


def _mat_vec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Mode-by-mode products of 2x2 matrices (..., 2, 2, n) with vectors
    (..., 2, n), as elementwise products and sums."""
    return mats[..., 0, :] * vecs[..., None, 0, :] + mats[..., 1, :] * vecs[..., None, 1, :]


def _nystrom_checks(g: ConfocalGeometry, n_nystrom: int, count: int) -> list[dict]:
    """Checks 1 and 2 of validate, on one assembly of the block matrix."""
    # 1. Nystrom block spectrum against the closed-form eigenvalues.
    m = block_np_for(g, n_nystrom)
    rep = numeric_spectrum(m, count)
    keep = np.abs(rep.matched) != 0.5
    worst = float(np.max(rep.rel_errors[keep])) if keep.any() else 0.0
    spectrum = _check("nystrom_spectrum", worst, 1e-6)
    if n_nystrom < 64 and spectrum["status"] == "fail":
        # Below 64 nodes a miss is too coarse to certify convergence either way.
        spectrum["status"] = "indeterminate"

    # 2. Constant-density eigenvalue on a single curve.  From 64 nodes on,
    # check 1's first block is -K*_{Gi} and its first weights are Gi's,
    # exactly as a fresh assemble_np gives them (the negation is exact).
    if n_nystrom >= 64:
        xi_inv = 1.0 / m.weights[:n_nystrom]  # density ~ Xi^{-1}
        k_xi = -(m.matrix[:n_nystrom, :n_nystrom] @ xi_inv)
    else:
        curve = sample_ellipse(g.R, g.rho_i, 64)
        xi_inv = 1.0 / curve.weights
        k_xi = assemble_np(curve) @ xi_inv
    resid = k_xi - 0.5 * xi_inv
    alpha0_err = float(np.max(np.abs(resid)) / np.max(np.abs(xi_inv)))
    return [spectrum, _check("alpha0_half", alpha0_err, 1e-8)]


def _closed_form_checks(g: ConfocalGeometry) -> list[dict]:
    """Checks 3 and 4 of validate: the closed-form eigenpairs and norms."""
    # 3. Eigen-residuals of the closed-form 2x2 blocks (componentwise) for
    # n = 1 .. 50 at once: A_n and B_n are (2, 2, n) arrays, and the four
    # eigenpairs (matrix, eigenvalue, vector) stack on a leading axis.
    table = mode_table(g, 50)
    a_mat, b_mat = block_matrices(table.n, g)
    a1, a2, b = table.a1, table.a2, table.b
    mats = np.array([a_mat, a_mat, b_mat, b_mat])  # (4, 2, 2, n)
    vecs = np.array([[a1, b], [a2, b], [b, a2], [b, a1]])  # (4, 2, n)
    lams = np.array([table.lambda1, table.lambda2, -table.lambda1, -table.lambda2])[:, None]
    num = np.abs(_mat_vec(mats, vecs) - lams * vecs)
    den = _mat_vec(np.abs(mats), np.abs(vecs)) + np.abs(lams) * np.abs(vecs)
    worst = float(np.max(num / den))
    residuals = _check("eigen_residuals", worst, 1e-12)

    # 4. Mode norms against the Gram closed form (s_gram) at six of those
    # modes, and Gram positivity.
    k = np.array([1, 2, 5, 10, 25, 50]) - 1
    g_cos, g_sin = s_gram(table.n[k], g, "cos"), s_gram(table.n[k], g, "sin")
    try:
        np.linalg.cholesky(np.concatenate([g_cos, g_sin], axis=-1).transpose(2, 0, 1))
        pd = True
    except np.linalg.LinAlgError:
        pd = False
    # Psi^{1+}, Psi^{1-}, Psi^{2+}, Psi^{2-}: the quadratic form v.G v.
    grams = np.array([g_cos, g_sin, g_cos, g_sin])
    v = vecs[[0, 2, 1, 3]][..., k]
    gv = _mat_vec(grams, v)
    quad = gv[:, 0] * v[:, 0] + gv[:, 1] * v[:, 1]
    norms = np.array([table.norm_1p, table.norm_1m, table.norm_2p, table.norm_2m])[:, k]
    worst = float(np.max(np.abs(quad - norms) / np.abs(norms)))
    return [residuals, _check("s_norms", worst, 1e-12, None if pd else "fail")]


def _validate_checks(cfg: dict) -> list[dict]:
    g = parse_geometry(cfg)
    block = _block(cfg, "validate", required=False)
    n_nystrom = _int(block, "validate", "n_nystrom", 256)
    n_modes = _int(block, "validate", "n_modes", 3)
    if n_nystrom < 8 or n_nystrom % 2:
        raise ConfigError(
            f"validate.n_nystrom: must be even and >= 8, got {n_nystrom}"
        )
    if n_modes < 1:
        raise ConfigError(f"validate.n_modes: must be >= 1, got {n_modes}")
    count = 2 + 4 * n_modes
    if count > n_nystrom // 2:
        raise ConfigError(
            f"validate.n_modes: 2 + 4 * n_modes = {count} exceeds"
            f" n_nystrom / 2 = {n_nystrom // 2}"
        )
    checks = _nystrom_checks(g, n_nystrom, count) + _closed_form_checks(g)

    # 5. Transmission conditions for the configured (or default) source.
    if "source" in cfg:
        source = parse_source(cfg)
    else:
        source = Dipole(
            EllipticPoint(g.rho_e + 0.5, 0.9), np.array([1.0, 0.4])
        )
    delta = 1e-3
    n_max = adaptive_n_max(delta, g)
    sc = newtonian_coefficients(source, n_max, g.R, rho_e=g.rho_e)
    dc = solve_densities(sc, g, delta)
    stencil = np.array([-49.0 / 20, 6.0, -15.0 / 2, 20.0 / 3, -15.0 / 4, 6.0 / 5, -1.0 / 6])
    h = 1e-4
    omegas = np.linspace(0.07, 2.0 * math.pi - 0.13, 12)
    steps = np.arange(len(stencil)) * h
    shell = -1.0 + 1j * delta
    # Per interface, columns: the continuity pair, then the inner and outer
    # stencils; both interfaces go through one evaluator call.
    radii = np.array([
        np.concatenate([[rho_t - 1e-9, rho_t + 1e-9], rho_t - steps, rho_t + steps])
        for rho_t in (g.rho_i, g.rho_e)
    ])
    values = eval_potentials(source, dc, g, radii[:, None, :], omegas[:, None])
    worst_c, worst_f = 0.0, 0.0
    for v, e_in, e_out in zip(values, (1.0, shell), (shell, 1.0)):
        inner, outer = v[:, 2 : 2 + len(stencil)], v[:, 2 + len(stencil) :]
        vscale = float(np.max(np.abs(v[:, 0])))
        worst_c = max(worst_c, _relative(float(np.max(np.abs(v[:, 0] - v[:, 1]))), vscale))
        d_in = -sum(c * inner[:, k] for k, c in enumerate(stencil)) / h
        d_out = sum(c * outer[:, k] for k, c in enumerate(stencil)) / h
        fi, fo = e_in * d_in, e_out * d_out
        fscale = float(np.max(np.maximum(np.abs(fi), np.abs(fo))))
        worst_f = max(worst_f, _relative(float(np.max(np.abs(fi - fo))), fscale))
    checks.append(_check("continuity", worst_c, 1e-6))
    checks.append(_check("flux_jump", worst_f, 1e-8))

    # 6. Spectral surrogate stays within a bounded factor of the direct energy.
    probes = [EllipticPoint(critical_radius(g.rho_i, g.rho_e).far_bound_rho + 0.1, 0.6)]
    recs = sweep(source, g, [10.0 ** (-k) for k in range(2, 7)], probes)
    # A record without energy (a zero source) has no ratio to bound.
    ratios = [r.e_direct / r.e_spectral for r in recs if r.e_direct or r.e_spectral]
    spread = max(ratios) / min(ratios) if ratios else math.nan
    status = None if ratios else "indeterminate"
    checks.append(_check("surrogate_ratio", spread, 10.0, status))

    # 7. Conjugation symmetry: z(-delta) = conj(z(delta)) pointwise in V.
    dc_m = solve_densities(sc, g, -delta)
    rhos = [0.5 * g.rho_i, 0.5 * (g.rho_i + g.rho_e), g.rho_e + 0.3]
    omegas = [0.3, 2.0, 4.0]
    vp = eval_potentials(source, dc, g, rhos, omegas)
    vm = eval_potentials(source, dc_m, g, rhos, omegas)
    worst = float(np.max(np.abs(vm - np.conj(vp)) / np.maximum(np.abs(vp), 1e-30)))
    checks.append(_check("reality_symmetry", worst, 1e-13))
    return checks


def cmd_validate(cfg: dict, out_dir: Path) -> int:
    checks = _validate_checks(cfg)
    failed = [c for c in checks if c["status"] == "fail"]
    report = {
        "all_pass": not failed,
        "checks": sorted(checks, key=lambda c: c["name"]),
    }
    path = out_dir / "validate.json"
    _write_json(path, report)
    for c in report["checks"]:
        print(
            f"{c['status'].upper():>13}  {c['name']}"
            f"  observed={c['observed']:.3e} threshold={c['threshold']:.3e}"
        )
    print(f"wrote {path}")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calr-lab",
        description="Anomalous localized resonance workflows for confocal shells",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "tabulate closed-form eigenvalues and mode norms"),
        ("critical-radius", "report the cloaking threshold for a geometry"),
        ("sweep", "run a loss sweep and classify CALR"),
        ("field", "evaluate the potential on a Cartesian grid"),
        ("validate", "run the built-in cross-validation suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        if name == "sweep":
            # Sweeps run serially; the flag stays so existing scripts parse.
            p.add_argument(
                "--threads",
                type=int,
                default=1,
                help="accepted for compatibility (must be >= 1); has no effect",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out_dir)
        if args.command == "critical-radius":
            return cmd_critical_radius(cfg, out_dir)
        if args.command == "sweep":
            if args.threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {args.threads}")
            return cmd_sweep(cfg, out_dir)
        if args.command == "field":
            return cmd_field(cfg, out_dir)
        return cmd_validate(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CalrError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
