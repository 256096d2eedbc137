"""Command-line front end: one parser and one dispatch table, _COMMANDS.

The parser is built once per process (build_parser) and shared by every
main call in it.

Each command parses its block of a JSON config file, calls the public
library and writes its outputs:

    calr-lab spectrum        --config run.json [--out DIR]
    calr-lab critical-radius --config run.json [--out DIR]
    calr-lab sweep           --config run.json [--out DIR] [--threads K]
    calr-lab field           --config run.json [--out DIR]
    calr-lab validate        --config run.json [--out DIR]

Only sweep takes --threads (K >= 1), and it has no effect.  Outputs are
CSV and JSON (UTF-8, sorted keys), so identical configs produce
byte-identical files.  In a CSV (comma separated, header row, lines end
in LF) each number is '%.17g' of the double (_fmt); a blank field.csv
cell reads x1,x2,,, and field.csv is written one block of _FIELD_BLOCK
grid rows at a time (_field_rows): each cell of a block is a fixed-width
uint8 line, x1, ",x2", ",re", ",im", ",|v|" and LF in columns of their
own, the bytes a text does not use NUL, and one bytes.translate drops
the block's NULs.  Exit codes: 0 success, 2 config error (also a bad
--threads, an --out that cannot be made a directory, or an output file
inside it that cannot be written), 3 numeric failure, 4 validation-suite
failure.

The CLI checks only what parsing needs: JSON types, the blocks' shapes
and the grid.  Every rule on a loss, margin, probe or validate size is
the library's (adaptive_n_max, sweep, oracle.validate), which raises
errors.InputError naming the key; main reports it once, as
"config error: <command>.<message>"; a source inside the shell
(SourceInsideShell) as "config error: source.<point>: <message>".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import CalrError, ConfigError, InputError, SourceInsideShell
from .geometry import ConfocalGeometry, EllipticPoint, elliptic_coords
from .numtext import fmt as _fmt, g17_cells, text_cells
from .solver import (
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
    gap_condition_report,
    newtonian_coefficients,
    series_radius,
)
from .spectrum import ModeTable, RegimeKind, critical_radius, mode_table


def _write_rows(path: Path, header: str, rows: Iterable[str] = ()) -> None:
    """Write the header line, then each row text as it is produced.

    Row texts carry their own line endings.  A file that cannot be
    written is a config error: --out is where it goes.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            fh.writelines(rows)
    except OSError as exc:
        raise ConfigError(f"--out {path}: {exc.strerror}") from exc


def _write_json(path: Path, obj: Any) -> None:
    _write_rows(path, json.dumps(obj, sort_keys=True, indent=2))


def load_config(path: str | Path) -> dict:
    """Read and parse the JSON run configuration."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def spectrum_command(cfg: dict, out_dir: Path) -> int:
    g = parse_geometry(cfg)
    n_max = _int(_block(cfg, "spectrum", required=False), "spectrum", "n_max", 8)
    if n_max < 0:
        raise ConfigError(f"spectrum.n_max: must be >= 0, got {n_max}")
    # The whole table before the file opens, so a mode that cannot be
    # represented leaves no partial spectrum.csv; row n equals mode_data(n, g).
    columns = mode_table(g, n_max) if n_max else ()
    rows = (
        ",".join([str(n)] + [_fmt(v) for v in values]) + "\n"
        for n, *values in zip(*columns)
    )
    path = out_dir / "spectrum.csv"
    _write_rows(path, ",".join(ModeTable._fields), rows)
    print(f"wrote {path} ({n_max} modes)")
    return 0


def critical_radius_command(cfg: dict, out_dir: Path) -> int:
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


def sweep_command(cfg: dict, out_dir: Path) -> int:
    g = parse_geometry(cfg)
    source = parse_source(cfg)
    block = _block(cfg, "sweep")
    deltas = sorted(_floats(block.get("deltas"), "sweep.deltas"), reverse=True)
    probes_cfg = block.get("probes")
    if not isinstance(probes_cfg, list) or not probes_cfg:
        raise ConfigError("sweep.probes: expected a non-empty list")
    probes = [_point(p, f"sweep.probes[{k}]") for k, p in enumerate(probes_cfg)]
    # sc_top, the source coefficients at the sweep's top truncation
    # adaptive_n_max(min(deltas)), is what the gap report reads.
    records, sc_top = sweep(source, g, deltas, probes, _int(block, "sweep", "margin", 40))
    rows = (
        ",".join(
            [_fmt(rec.delta), str(rec.n_max), _fmt(rec.e_direct), _fmt(rec.e_spectral)]
            + [_fmt(v) for v in rec.far_samples]
            + [_fmt(v) for v in rec.normalized_far]
        ) + "\n"
        for rec in records
    )
    csv_path = out_dir / "sweep.csv"
    _write_rows(csv_path, _sweep_header(len(probes)), rows)

    regime = critical_radius(g.rho_i, g.rho_e)
    diagnosis = calr_classify(records, regime)
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


# Grid rows of field.csv laid out, compressed and written at a time.
_FIELD_BLOCK = 8


def _field_rows(
    xs: np.ndarray, ys: np.ndarray, blank: np.ndarray, values: np.ndarray
) -> Iterator[str]:
    """The text of field.csv's grid rows, _FIELD_BLOCK rows at a time.

    A block is laid out as NUL-padded uint8 lines, x1 then ",x2", ",re",
    ",im", ",|v|" and LF, a blank cell's values each as ",", and its NUL
    bytes, wherever they sit, are dropped by one bytes.translate.  The x1
    and x2 texts are _fmt's, the values g17_cells of the block's rows of
    ``values``, the (P, 3) re, im, |v| of the cells not blank, read in
    row order, so that the block's (3 P, w) cells go in with one masked
    assignment.
    """
    x1 = text_cells([_fmt(v) for v in xs])
    x2 = text_cells([f",{_fmt(v)}" for v in ys])
    w1, w2 = x1.shape[1], x2.shape[1]
    ends = np.cumsum(np.count_nonzero(~blank, axis=1))
    start = 0
    for j in range(0, len(ys), _FIELD_BLOCK):
        rows = slice(j, j + _FIELD_BLOCK)
        end = int(ends[rows][-1])
        cells = g17_cells(values[start:end].ravel())
        start = end
        w = cells.shape[1]
        grid = np.zeros((len(ys[rows]), len(xs), w1 + w2 + 3 * w + 1), np.uint8)
        grid[:, :, :w1] = x1
        grid[:, :, w1:w1 + w2] = x2[rows, None]
        v = grid[:, :, w1 + w2:-1].reshape(-1, 3, w)
        empty = blank[rows].ravel()
        v[~empty] = cells.reshape(-1, 3, w)
        v[empty, :, 0] = ord(",")
        grid[:, :, -1] = ord("\n")
        yield grid.tobytes().translate(None, b"\0").decode("ascii")


def field_command(cfg: dict, out_dir: Path) -> int:
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
    # Sources very close to the shell need extra modes before the series
    # tail clears the interface gap; margin buys that headroom.
    n_max = adaptive_n_max(delta, g, _int(block, "field", "margin", 40))
    # Before the grid is inverted, so a source inside the shell costs nothing.
    sc = newtonian_coefficients(source, n_max, g.R, rho_e=g.rho_e)
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

    xs = np.linspace(-a, a, n1)
    ys = np.linspace(-b, b, n2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        rho, omega, focal = elliptic_coords(g.R, np.stack(np.meshgrid(xs, ys), axis=-1))
    if not (np.isfinite(rho[~focal]).all() and np.isfinite(omega[~focal]).all()):
        raise ConfigError(
            f"field.rho_max: {rho_max} puts grid points past the elliptic coordinate range"
        )

    radius = series_radius(source)
    past = ~focal & (rho >= radius)
    blank = focal | past

    dc = solve_densities(sc, g, delta)
    v = eval_potentials(source, dc, g, rho[~blank], omega[~blank])
    # np.hypot of the parts is Python's complex abs bit for bit; np.abs is not.
    values = np.column_stack((v.real, v.imag, np.hypot(v.real, v.imag)))
    path = out_dir / "field.csv"
    _write_rows(path, "x1,x2,re_v,im_v,abs_v", _field_rows(xs, ys, blank, values))
    print(f"wrote {path} ({n1 * n2} points)")
    if math.isfinite(radius):
        print(
            f"left {int(np.count_nonzero(past))} points blank at rho >="
            f" {_fmt(radius)}, past the source series' convergence radius"
        )
    return 0


def _validate_checks(cfg: dict) -> list[dict]:
    from .oracle import validate  # only validate needs the oracle; import it on first use

    g = parse_geometry(cfg)
    block = _block(cfg, "validate", required=False)
    # Sizes left out take oracle.validate's defaults.
    sizes = {k: _int(block, "validate", k) for k in ("n_nystrom", "n_modes") if k in block}
    source = parse_source(cfg) if "source" in cfg else None
    return validate(g, source, **sizes)


def validate_command(cfg: dict, out_dir: Path) -> int:
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


_COMMANDS = {
    "spectrum": spectrum_command,
    "critical-radius": critical_radius_command,
    "sweep": sweep_command,
    "field": field_command,
    "validate": validate_command,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built on first use and shared after that.

    parse_args keeps no state in the parser, so every main call in a
    process (a scripted scan, the test suite) reads the same object.
    """
    parser = argparse.ArgumentParser(
        prog="calr-lab",
        description="Anomalous localized resonance workflows for confocal shells",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    # Sweeps run serially; the flag stays so existing scripts parse.
    parser.add_argument("--threads", type=int, help="sweep only, K >= 1; no effect")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and (args.command != "sweep" or args.threads < 1):
            raise ConfigError(f"--threads: sweep only, K >= 1, got {args.threads}")
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out_dir}: {exc.strerror}") from exc
        return _COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, SourceInsideShell) as exc:  # source is a top-level block
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:  # the library names the key inside the command's block
        print(f"config error: {args.command}.{exc}", file=sys.stderr)
        return 2
    except CalrError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
