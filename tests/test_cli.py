"""End-to-end tests of the calr-lab command line interface.

Every invocation goes through cli.main(argv) so exit codes, file output
and console output are all exercised exactly as a shell user sees them.
"""

from __future__ import annotations

import errno
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from calr_lab import (
    Coefficients,
    ConfocalGeometry,
    Dipole,
    EllipticPoint,
    TruncationWarning,
    adaptive_n_max,
    block_matrices,
    convergence_exponent,
    eval_potentials,
    mode_table,
    newtonian_coefficients,
    s_gram,
    sample_ellipse,
    solve_densities,
    sweep,
)
from calr_lab import cli, oracle, solver
from calr_lab.errors import InputError
from calr_lab.geometry import elliptic_coords
from reference import assemble_np, eval_potential, mode_column, mode_data, to_elliptic

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
THIN_GEO = {"R": 1.0, "rho_i": 0.5, "rho_e": 0.8}


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_csv_roundtrip(tmp_path):
    cfg = _write_cfg(tmp_path, "s.json", {"geometry": THIN_GEO, "spectrum": {"n_max": 8}})
    assert _run(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,lambda1,lambda2,a1,a2,b,norm_1p,norm_1m,norm_2p,norm_2m"
    assert len(lines) == 9
    g = ConfocalGeometry(**THIN_GEO)
    for row in lines[1:]:
        parts = row.split(",")
        n = int(parts[0])
        m = mode_data(n, g)
        want = (m.eigenvalues[0], m.eigenvalues[2], m.pairs[0, 0], m.pairs[1, 1],
                m.pairs[0, 1], *m.norms)
        got = tuple(float(v) for v in parts[1:])
        assert got == want  # 17 significant digits round-trip exactly
    assert lines[1].split(",")[1] == "-0.41422191004332198"


def test_spectrum_empty_table(tmp_path):
    cfg = _write_cfg(tmp_path, "s.json", {"geometry": THIN_GEO, "spectrum": {"n_max": 0}})
    assert _run(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "spectrum.csv").read_text().splitlines() == [
        "n,lambda1,lambda2,a1,a2,b,norm_1p,norm_1m,norm_2p,norm_2m"
    ]


def test_spectrum_refusal_leaves_no_file(tmp_path, capsys):
    """Mode 438 of the thin shell is past the double range: the whole
    table is refused (exit 3) before spectrum.csv is opened, rather than
    after its first 437 rows."""
    cfg = _write_cfg(tmp_path, "s.json", {"geometry": THIN_GEO, "spectrum": {"n_max": 500}})
    out = tmp_path / "out"
    assert _run(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    assert "numeric failure: 2*n*rho_e" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()


def test_spectrum_refuses_a_huge_n_max_before_sizing_the_table(tmp_path, capsys):
    """n_max = 10**20 is refused by the 2 n rho_e bound (exit 3, one line),
    before any array of that many modes is asked for."""
    cfg = _write_cfg(tmp_path, "s.json", {"geometry": THIN_GEO, "spectrum": {"n_max": 10**20}})
    out = tmp_path / "out"
    assert _run(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: 2*n*rho_e = 160000000000000000000.0 exceeds double range"
        " at n = 100000000000000000000\n")
    assert not (out / "spectrum.csv").exists()


def test_spectrum_rejects_bad_geometry(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "s.json",
        {"geometry": {"R": 1.0, "rho_i": 0.8, "rho_e": 0.5}},
    )
    assert _run(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# critical-radius


def test_critical_radius_thin(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", {"geometry": THIN_GEO})
    assert _run(["critical-radius", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "critical_radius.json").read_text())
    assert report["regime"] == "Thin"
    assert math.isclose(report["rho_star"], 0.95, rel_tol=1e-15)
    assert report["disk_equivalent"] == math.exp(report["rho_star"])
    assert report["far_bound_rho"] > report["rho_star"]


def test_critical_radius_thick(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json", {"geometry": {"R": 1.0, "rho_i": 0.2, "rho_e": 1.0}}
    )
    assert _run(["critical-radius", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "critical_radius.json").read_text())
    assert report["regime"] == "Thick"
    assert math.isclose(report["rho_star"], 1.6, rel_tol=1e-15)
    assert "disk_equivalent" not in report


def test_critical_radius_refuses_a_disk_equivalent_past_double_range(tmp_path, capsys):
    """A thin shell (500, 1000) has rho_star = 1250, and exp(1250) is past
    the double range: exit 3 with one numeric failure line naming
    disk_equivalent, and no critical_radius.json."""
    cfg = _write_cfg(tmp_path, "c.json", {"geometry": {"R": 1.0, "rho_i": 500, "rho_e": 1000}})
    out = tmp_path / "out"
    assert _run(["critical-radius", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: disk_equivalent: exp(1250.0) overflows\n")
    assert not list(out.iterdir())


# ---------------------------------------------------------------------------
# sweep


def test_bundled_sweeps_classify_as_documented(tmp_path):
    expected = {
        "dipole_inside": ("CALR", "SatisfiedHeuristically"),
        "dipole_outside": ("NoCALR", "FailsHeuristically"),
        "thick_inside": ("CALR", "SatisfiedHeuristically"),
        "thick_outside": ("NoCALR", "FailsHeuristically"),
    }
    for name, (verdict, gap) in expected.items():
        out = tmp_path / name
        rc = _run(["sweep", "--config", str(CONFIGS / f"{name}.json"),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "sweep_classification.json").read_text())
        assert report["verdict"] == verdict
        assert report["gap_condition"]["verdict"] == gap
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 8  # header + 7 loss values
        assert lines[0] == ("delta,n_max,e_direct,e_spectral,"
                            "far_1,far_2,normalized_far_1,normalized_far_2")


def test_sweep_is_deterministic(tmp_path):
    cfg = str(CONFIGS / "dipole_inside.json")
    outputs = []
    for sub, extra in (("a", []), ("b", []), ("c", ["--threads", "4"])):
        out = tmp_path / sub
        assert _run(["sweep", "--config", cfg, "--out", str(out)] + extra) == 0
        outputs.append(
            ((out / "sweep.csv").read_bytes(),
             (out / "sweep_classification.json").read_bytes())
        )
    assert outputs[0] == outputs[1] == outputs[2]
    assert b"\r" not in outputs[0][0]


def test_sweep_rejects_empty_deltas(tmp_path):
    cfg = _write_cfg(tmp_path, "s.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "dipole", "location": {"rho": 0.88, "omega": 0.9},
                   "moment": [1.0, 0.4]},
        "sweep": {"deltas": [], "probes": [{"rho": 1.2, "omega": 0.6}]},
    })
    assert _run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_sweep_reports_numeric_failure(tmp_path, capsys):
    """A delta so small that the required truncation overflows exits 3."""
    cfg = _write_cfg(tmp_path, "s.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "dipole", "location": {"rho": 0.88, "omega": 0.9},
                   "moment": [1.0, 0.4]},
        "sweep": {"deltas": [1e-300], "probes": [{"rho": 1.2, "omega": 0.6}]},
    })
    assert _run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_of_equal_deltas_is_indeterminate(tmp_path, capsys):
    """Three records at one delta fit no slope: the sweep grades
    Indeterminate, and nothing (no polyfit RankWarning) reaches stderr."""
    cfg = _write_cfg(tmp_path, "s.json", {
        "geometry": THIN_GEO, "source": _DIPOLE_SOURCE,
        "sweep": {"deltas": [1e-2] * 3, "probes": [{"rho": 1.4, "omega": 0.6}]},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "sweep_classification.json").read_text())
    assert report["verdict"] == "Indeterminate"


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity (RFC 8259)."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


_CLASSIFIER_NUMBERS = ("growth_exponent", "energy_growth", "energy_spread", "visibility_drop")


@pytest.mark.parametrize(
    "deltas, moment",
    [([1e-3], [1.0, 0.4]), ([1e-2, 1e-3, 1e-4], [0.0, 0.0])],
    ids=["one-delta", "zero-moment"],
)
def test_json_outputs_write_non_finite_values_as_null(tmp_path, capsys, deltas, moment):
    """A sweep of one delta, and a zero-moment dipole's sweep and validate,
    have non-finite numbers; every JSON output is strict JSON with null
    for each, and the stdout lines keep the checks' own floats."""
    source = dict(_DIPOLE_SOURCE, moment=moment)
    cfg = _write_cfg(tmp_path, "s.json", {
        "geometry": THIN_GEO, "source": source,
        "sweep": {"deltas": deltas, "probes": [{"rho": 1.4, "omega": 0.6}]},
        "validate": {"n_nystrom": 64},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert _run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert _run(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _strict_json((tmp_path / "sweep_classification.json").read_text())
    assert report["verdict"] == "Indeterminate"
    assert [report[k] for k in _CLASSIFIER_NUMBERS] == [None] * 4
    checks = _strict_json((tmp_path / "validate.json").read_text())["checks"]
    ratio = next(c for c in checks if c["name"] == "surrogate_ratio")
    if moment == [0.0, 0.0]:
        assert (ratio["status"], ratio["observed"]) == ("indeterminate", None)
        assert "observed=nan" in capsys.readouterr().out
    else:
        assert math.isfinite(ratio["observed"])


def test_sweep_rejects_inside_probe(tmp_path):
    cfg = _write_cfg(tmp_path, "s.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "dipole", "location": {"rho": 0.88, "omega": 0.9},
                   "moment": [1.0, 0.4]},
        "sweep": {"deltas": [1e-3], "probes": [{"rho": 0.7, "omega": 0.6}]},
    })
    assert _run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_sweep_of_a_source_without_modes(tmp_path):
    """Empty coefficient lists are a zero source: zero energies and far
    fields, graded Indeterminate, and no exception."""
    cfg = _write_cfg(tmp_path, "s.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": [], "f_minus": []},
        "sweep": {"deltas": [1e-2, 1e-3, 1e-4], "probes": [{"rho": 1.2, "omega": 0.6}]},
    })
    assert _run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [["0"] * 4] * 3
    report = json.loads((tmp_path / "sweep_classification.json").read_text())
    assert report["verdict"] == "Indeterminate"


def test_sweep_energy_out_of_double_range(tmp_path, capsys):
    """F_1 = 3e306 is a double but E ~ 1e613 is not: a numeric failure
    naming the delta, exit 3, with no numpy overflow warned on the way."""
    cfg = _write_cfg(tmp_path, "s.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": [3e306, 0.0],
                   "f_minus": [3e306, 0.0]},
        "sweep": {"deltas": [0.5, 0.1, 0.01], "probes": [{"rho": 1.2, "omega": 0.6}]},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "delta = 0.5" in err


def test_field_forcing_out_of_double_range(tmp_path, capsys):
    """F_2 = 1e308 is a double but its forcing is not: exit 3 with the one
    numeric failure line on stderr, and no numpy overflow warned on the way."""
    cfg = _write_cfg(tmp_path, "f.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": [0.0, 1e308],
                   "f_minus": [0.0, 0.0]},
        "field": {"delta": 1e-3, "rho_max": 1.4, "n1": 5, "n2": 5},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: forcing coefficients leave double range\n")
    assert not (tmp_path / "field.csv").exists()


def test_sweep_rejects_bad_thread_count(tmp_path, capsys):
    cfg = str(CONFIGS / "dipole_inside.json")
    assert _run(["sweep", "--config", cfg, "--out", str(tmp_path),
                 "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# field


def test_field_zero_source_grid(tmp_path):
    cfg = _write_cfg(tmp_path, "f.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": [0.0, 0.0],
                   "f_minus": [0.0, 0.0]},
        "field": {"delta": 1e-3, "rho_max": 1.2, "n1": 9, "n2": 9},
    })
    assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,re_v,im_v,abs_v"
    assert len(lines) == 1 + 81
    degenerate = [ln for ln in lines[1:] if ln.endswith(",,,")]
    values = [float(ln.split(",")[4]) for ln in lines[1:] if not ln.endswith(",,,")]
    # The focal segment x2 = 0, |x1| <= R hits 5 of the 81 grid points.
    assert len(degenerate) == 5
    assert values and all(v == 0.0 for v in values)


def test_field_rows_match_library_evaluation(tmp_path):
    cfg_dict = {
        "geometry": THIN_GEO,
        "source": {"variant": "dipole", "location": {"rho": 1.3, "omega": 0.9},
                   "moment": [1.0, 0.4]},
        "field": {"delta": 1e-3, "rho_max": 1.2, "n1": 7, "n2": 7, "margin": 40},
    }
    cfg = _write_cfg(tmp_path, "f.json", cfg_dict)
    assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "field.csv").read_text().splitlines()[1:]

    g = ConfocalGeometry(**THIN_GEO)
    src = Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4]))
    n_max = adaptive_n_max(1e-3, g, margin=40)
    sc = newtonian_coefficients(src, n_max, g.R, rho_e=g.rho_e)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dc = solve_densities(sc, g, 1e-3)

    checked = 0
    for line in lines:
        if line.endswith(",,,"):
            continue
        x1, x2, re_v, im_v, abs_v = (float(v) for v in line.split(","))
        p = to_elliptic(g.R, np.array([x1, x2]))
        v = complex(eval_potential(src, dc, g, p))
        assert (v.real, v.imag, abs(v)) == (re_v, im_v, abs_v)
        checked += 1
    assert checked >= 40


_DIPOLE_SOURCE = {"variant": "dipole", "location": {"rho": 1.3, "omega": 0.9},
                  "moment": [1.0, 0.4]}
_DECAYING = np.exp(-1.5 * np.arange(1, 401))


@pytest.mark.parametrize(
    "source, field",
    [
        (_DIPOLE_SOURCE, {"delta": 1e-3, "rho_max": 1.2, "n1": 9, "n2": 9}),
        ({"variant": "coefficients",
          "f_plus": (_DECAYING * np.cos(0.9 * np.arange(1, 401))).tolist(),
          "f_minus": (_DECAYING * np.sin(0.9 * np.arange(1, 401))).tolist()},
         {"delta": 1e-3, "rho_max": 1.3, "n1": 21, "n2": 21}),
        ({"variant": "coefficients", "f_plus": [0.0, 0.0], "f_minus": [0.0, 0.0]},
         {"delta": 1e-3, "rho_max": 1.2, "n1": 9, "n2": 9}),
        # 37 rows, a prime: whole blocks of the writer and a short one;
        # n1 != n2; the focal row x2 = 0 mixes 7 blanks with values; the
        # values take fixed, 0.000... and exponent form, about a tenth
        # with trailing zeros dropped.
        (_DIPOLE_SOURCE, {"delta": 1e-3, "rho_max": 1.2, "n1": 13, "n2": 37}),
    ],
    ids=["dipole-focal-blanks", "coefficients-past-radius", "zero-source", "block-edges"],
)
def test_field_csv_text_is_the_library_values_formatted(tmp_path, source, field):
    """field.csv, compared as text: each written row is _fmt of x1, x2,
    re, im and Python's abs of the library's own V, and each blank cell
    (focal, or past a coefficient series' radius) reads x1,x2,,,."""
    cfg = _write_cfg(tmp_path, "f.json", {"geometry": THIN_GEO, "source": source,
                                          "field": field})
    assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "field.csv").read_text(encoding="utf-8").split("\n")

    g = ConfocalGeometry(**THIN_GEO)
    src = cli.parse_source({"source": source})
    xs = np.linspace(-g.R * math.cosh(field["rho_max"]), g.R * math.cosh(field["rho_max"]),
                     field["n1"])
    ys = np.linspace(-g.R * math.sinh(field["rho_max"]), g.R * math.sinh(field["rho_max"]),
                     field["n2"])
    rho, omega, focal = elliptic_coords(g.R, np.stack(np.meshgrid(xs, ys), axis=-1))
    radius = convergence_exponent(src) if len(source.get("f_plus", [])) >= 10 else math.inf
    blank = focal | (rho >= radius)
    n_max = adaptive_n_max(field["delta"], g, margin=40)
    sc = newtonian_coefficients(src, n_max, g.R, rho_e=g.rho_e)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dc = solve_densities(sc, g, field["delta"])
    values = iter(eval_potentials(src, dc, g, rho[~blank], omega[~blank]).tolist())

    want = ["x1,x2,re_v,im_v,abs_v"]
    for x2, row in zip(ys.tolist(), blank.tolist()):
        for x1, cell in zip(xs.tolist(), row):
            if cell:
                want.append(f"{cli._fmt(x1)},{cli._fmt(x2)},,,")
            else:
                v = next(values)
                want.append(",".join(cli._fmt(x) for x in (x1, x2, v.real, v.imag, abs(v))))
    assert lines == want + [""]
    assert focal.any() and next(values, None) is None
    if math.isfinite(radius):  # some rows mix cells past the radius with written ones
        past = ~focal & (rho >= radius)
        assert (past.any(axis=1) & ~blank.all(axis=1)).any()


def test_field_evaluates_a_coefficient_source_as_given(tmp_path):
    """A coefficient source longer than n_max enters the field with all
    of its terms, as in sweep; only the solve is truncated."""
    n = np.arange(1, 121)
    f_plus, f_minus = np.exp(-1.5 * n) * np.cos(0.9 * n), np.exp(-1.5 * n) * np.sin(0.9 * n)
    cfg = _write_cfg(tmp_path, "f.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "c": 0.25,
                   "f_plus": f_plus.tolist(), "f_minus": f_minus.tolist()},
        "field": {"delta": 1e-3, "rho_max": 1.0, "n1": 7, "n2": 7, "margin": 0},
    })
    assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "field.csv").read_text().splitlines()[1:]]
    x = np.array([[float(r[0]), float(r[1])] for r in rows if r[2]])
    written = np.array([complex(float(r[2]), float(r[3])) for r in rows if r[2]])

    g = ConfocalGeometry(**THIN_GEO)
    src = Coefficients(0.25, f_plus, f_minus)
    n_max = adaptive_n_max(1e-3, g, margin=0)
    assert n_max < len(n)
    sc = newtonian_coefficients(src, n_max, g.R, rho_e=g.rho_e)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dc = solve_densities(sc, g, 1e-3)
    rho, omega, _ = elliptic_coords(g.R, x)
    assert np.array_equal(written, eval_potentials(src, dc, g, rho, omega))
    # The terms past n_max are visible on the grid.
    assert np.max(np.abs(written - eval_potentials(sc, dc, g, rho, omega))) > 1e-9


def test_field_blanks_a_coefficient_source_past_its_radius(tmp_path, capsys):
    """A 400-term series F_n = e^{-1.5 n} (cos, sin)(0.9 n) diverges at
    rho >= 1.5; the rho_max 1.3 box reaches past that in its corners.
    Those cells are left blank like the focal ones and counted on stdout,
    and every written cell lies inside the radius."""
    n = np.arange(1, 401)
    f_plus, f_minus = np.exp(-1.5 * n) * np.cos(0.9 * n), np.exp(-1.5 * n) * np.sin(0.9 * n)
    cfg = _write_cfg(tmp_path, "f.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": f_plus.tolist(),
                   "f_minus": f_minus.tolist()},
        "field": {"delta": 1e-3, "rho_max": 1.3, "n1": 41, "n2": 41},
    })
    assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 0
    radius = convergence_exponent(Coefficients(0.0, f_plus, f_minus))
    assert abs(radius - 1.5) < 1e-4
    out = capsys.readouterr().out
    rows = [ln.split(",") for ln in (tmp_path / "field.csv").read_text().splitlines()[1:]]
    x = np.array([[float(r[0]), float(r[1])] for r in rows])
    rho, _, focal = elliptic_coords(THIN_GEO["R"], x)
    written = np.array([bool(r[2]) for r in rows])
    past = ~focal & (rho >= radius)
    assert past.any() and (~past & ~focal).any()
    assert np.array_equal(written, ~focal & ~past)
    assert f"left {int(past.sum())} points blank at rho >= {radius!r}" in out
    assert max(float(r[4]) for r in rows if r[4]) < 1e3


def test_field_does_not_blank_a_short_coefficient_source(tmp_path, capsys):
    """Nine nonzero pairs make a polynomial, which converges everywhere:
    only focal cells are blank, and nothing is counted."""
    cfg = _write_cfg(tmp_path, "f.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": [0.5 ** k for k in range(9)],
                   "f_minus": [0.0] * 9},
        "field": {"delta": 1e-3, "rho_max": 2.0, "n1": 9, "n2": 9},
    })
    assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1  # the "wrote" line
    rows = [ln.split(",") for ln in (tmp_path / "field.csv").read_text().splitlines()[1:]]
    _, _, focal = elliptic_coords(THIN_GEO["R"], [[float(r[0]), float(r[1])] for r in rows])
    assert np.array_equal([not r[2] for r in rows], focal) and focal.any()


def test_field_localizes_as_loss_shrinks(tmp_path):
    """For a resonant source the shell field blows up as delta drops while
    the far field barely moves: the energy localizes inside the shell."""
    base = {
        "geometry": THIN_GEO,
        "source": {"variant": "dipole", "location": {"rho": 0.88, "omega": 0.9},
                   "moment": [1.0, 0.4]},
    }
    g = ConfocalGeometry(**THIN_GEO)
    maxima = {}
    for delta in (1e-2, 1e-5):
        cfg_dict = dict(base)
        cfg_dict["field"] = {"delta": delta, "rho_max": 1.4,
                             "n1": 41, "n2": 41, "margin": 260}
        out = tmp_path / f"d{delta:g}"
        cfg = _write_cfg(tmp_path, f"f{delta:g}.json", cfg_dict)
        with warnings.catch_warnings():
            # The generous mode margin trips the tail heuristic at the
            # larger delta even though the sum is fully converged.
            warnings.simplefilter("ignore", TruncationWarning)
            assert _run(["field", "--config", cfg, "--out", str(out)]) == 0
        shell_max, far_max = 0.0, 0.0
        for line in (out / "field.csv").read_text().splitlines()[1:]:
            if line.endswith(",,,"):
                continue
            x1, x2, _, _, abs_v = (float(v) for v in line.split(","))
            p = to_elliptic(g.R, np.array([x1, x2]))
            if g.rho_i < p.rho < g.rho_e:
                shell_max = max(shell_max, abs_v)
            elif p.rho > 1.2:
                far_max = max(far_max, abs_v)
        maxima[delta] = (shell_max, far_max)
    assert maxima[1e-5][0] > 10.0 * maxima[1e-2][0]
    assert maxima[1e-5][1] < 2.0 * maxima[1e-2][1]


def test_field_of_a_huge_representable_source(tmp_path):
    """F_1 = 3e306 is a double, and so is every value on the grid: the
    truncation tail is formed without squaring it, so no RuntimeWarning."""
    cfg = _write_cfg(tmp_path, "f.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": [3e306, 0.0],
                   "f_minus": [3e306, 0.0]},
        "field": {"delta": 0.5, "n1": 9, "n2": 9},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "field.csv").read_text().splitlines()[1:]
    cells = [float(v) for row in rows for v in row.split(",")[2:] if v]
    assert cells and np.all(np.isfinite(cells))


def test_field_solves_every_truncation_the_bound_allows(tmp_path, capsys):
    """dipole_inside's field block (margin 260) at delta = 1e-8 needs
    n_max = 383, inside the one bound (437 modes on this shell): the
    field is solved and every cell written is finite.  Under the former
    second bound, 2 n rho_e < 600, it exited 3."""
    cfg = json.loads((CONFIGS / "dipole_inside.json").read_text(encoding="utf-8"))
    cfg["field"]["delta"] = 1e-8
    assert adaptive_n_max(1e-8, _THIN, cfg["field"]["margin"]) == 383
    path = _write_cfg(tmp_path, "f.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert _run(["field", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "field.csv").read_text().splitlines()[1:]
    cells = [row.split(",")[2:] for row in rows]
    assert len(cells) == 81 * 81
    values = [float(v) for cell in cells for v in cell if v]
    assert len(values) == 3 * sum(1 for cell in cells if cell[0])
    assert np.all(np.isfinite(values))
    assert capsys.readouterr().err == ""


def test_field_requires_delta(tmp_path):
    cfg = _write_cfg(tmp_path, "f.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": [0.0], "f_minus": [0.0]},
        "field": {"rho_max": 1.2},
    })
    assert _run(["field", "--config", cfg, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# validate


def test_validate_default_suite_passes(tmp_path, capsys):
    rc = _run(["validate", "--config", str(CONFIGS / "validate_default.json"),
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["all_pass"] is True
    names = sorted(c["name"] for c in report["checks"])
    assert names == [
        "alpha0_half", "continuity", "direct_energy", "eigen_residuals", "flux_jump",
        "nystrom_spectrum", "reality_symmetry", "s_norms", "surrogate_ratio",
    ]
    assert all(c["status"] == "pass" for c in report["checks"])
    assert out.count("PASS") == 9


def test_validate_detects_flipped_block(tmp_path, capsys, monkeypatch):
    """A sign error in the first block of the Nystrom matrix fails validate:
    nystrom_spectrum and alpha0_half, which reads the k = 0 entry.  Under
    the DFT similarity that block is the inner-inner entry of every mode
    block, so those entries are negated."""
    mode_blocks_for = oracle.mode_blocks_for

    def flipped(g, N):
        ends, quads = mode_blocks_for(g, N)
        np.negative(ends[:, 0, 0], out=ends[:, 0, 0])
        np.negative(quads[:, :2, :2], out=quads[:, :2, :2])
        return ends, quads

    monkeypatch.setattr(oracle, "mode_blocks_for", flipped)
    cfg = _write_cfg(tmp_path, "v.json", {
        "geometry": THIN_GEO,
        "validate": {"n_nystrom": 128},
    })
    rc = _run(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 4
    report = json.loads((tmp_path / "validate.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert report["all_pass"] is False
    assert by_name["nystrom_spectrum"]["status"] == "fail"
    assert by_name["nystrom_spectrum"]["observed"] > 1e-3
    # The k = 0 entry reads +1/2 for -1/2, so alpha0_half fails too.
    assert by_name["alpha0_half"]["status"] == "fail"
    assert by_name["alpha0_half"]["observed"] > 0.5
    assert "FAIL" in capsys.readouterr().out


def test_validate_refuses_rows_off_the_mode_form(tmp_path, capsys, monkeypatch):
    """One sampled kernel entry moved by 1e-6 of the block's largest entry
    breaks the form the mode blocks are solved from: a numeric failure
    (exit 3) naming the residual, with no validate.json written."""
    kernel_block = oracle._kernel_block
    perturbed_blocks = []

    def perturbed(target, src, same, out=None, rows=None):
        k = kernel_block(target, src, same, out=out, rows=rows)
        if rows is not None and not perturbed_blocks:  # the inner-inner block
            k[1, 5] += 1e-6 * np.max(np.abs(k))
            perturbed_blocks.append(k)
        return k

    monkeypatch.setattr(oracle, "_kernel_block", perturbed)
    cfg = _write_cfg(tmp_path, "v.json", {"geometry": THIN_GEO})
    assert _run(["validate", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "residual" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()
    assert len(perturbed_blocks) == 1


def test_validate_coarse_grid_is_indeterminate(tmp_path):
    cfg = _write_cfg(tmp_path, "v.json", {
        "geometry": THIN_GEO,
        "validate": {"n_nystrom": 32},
    })
    rc = _run(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["nystrom_spectrum"]["status"] == "indeterminate"


@pytest.mark.parametrize("coefficients", [[], [0.0, 0.0]], ids=["empty", "zeros"])
def test_validate_zero_source(tmp_path, coefficients):
    """A zero source has no jump across either interface (observed 0)
    and no energy ratio to bound (surrogate_ratio indeterminate)."""
    cfg = _write_cfg(tmp_path, "v.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "coefficients", "f_plus": coefficients,
                   "f_minus": coefficients},
        "validate": {"n_nystrom": 64},
    })
    assert _run(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    by_name = {c["name"]: c for c in
               json.loads((tmp_path / "validate.json").read_text())["checks"]}
    for name in ("continuity", "flux_jump", "reality_symmetry"):
        assert (by_name[name]["status"], by_name[name]["observed"]) == ("pass", 0.0)
    assert by_name["surrogate_ratio"]["status"] == "indeterminate"
    assert all(c["status"] != "fail" for c in by_name.values())


@pytest.mark.parametrize(
    "config, source",
    [
        ("validate_default.json", Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4]))),
        ("thick_outside.json", Dipole(EllipticPoint(1.8, 0.9), np.array([1.0, 0.4]))),
        ("validate_default.json", None),
    ],
)
def test_library_validate_matches_the_cli(tmp_path, config, source):
    """oracle.validate on the config's geometry and source (the default
    dipole for validate_default, given or left to oracle.validate) gives
    the checks of validate.json, sorted by name, observed values bit for
    bit after the JSON round trip."""
    cfg = json.loads((CONFIGS / config).read_text())
    g = ConfocalGeometry(**cfg["geometry"])
    checks = oracle.validate(g) if source is None else oracle.validate(g, source, 256, 3)
    assert _run(["validate", "--config", str(CONFIGS / config), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert json.loads(json.dumps(sorted(checks, key=lambda c: c["name"]))) == report["checks"]


def _validate_by_name(cfg):
    return {c["name"]: c for c in cli._validate_checks(cfg)}


def _alpha0_err(k_star, weights):
    xi_inv = 1.0 / weights
    resid = k_star @ xi_inv - 0.5 * xi_inv
    return float(np.max(np.abs(resid)) / np.max(np.abs(xi_inv)))


@pytest.mark.parametrize(
    "block, nodes",
    [
        ({"n_nystrom": 16, "n_modes": 1}, 64),
        ({"n_nystrom": 128}, 128),
        ({"n_nystrom": 200}, 200),
        ({"n_nystrom": 256}, 256),
    ],
    ids=["coarse", "shared", "partial-row-block", "benchmark"],
)
def test_validate_alpha0_matches_a_fresh_assembly(block, nodes):
    """alpha0_half is |B[0, 0] + 1/2|, B[0, 0] the k = 0 entry of the
    inner-inner mode block on max(n_nystrom, 64) nodes, bit for bit.  It
    agrees with the residual of a dense single-curve K* on Gamma_i on
    those nodes to 2e-13 where that residual is below 1e-10 (else to
    5e-6 of it), with the same status."""
    g = ConfocalGeometry(**THIN_GEO)
    got = _validate_by_name({"geometry": THIN_GEO, "validate": block})["alpha0_half"]
    assert got["observed"] == abs(oracle.mode_blocks_for(g, nodes)[0][0, 0, 0] + 0.5)
    curve = sample_ellipse(THIN_GEO["R"], THIN_GEO["rho_i"], nodes)
    dense = _alpha0_err(assemble_np(curve), curve.weights)
    assert abs(got["observed"] - dense) <= (2e-13 if dense < 1e-10 else 5e-6 * dense)
    assert got["status"] == ("pass" if dense < 1e-8 else "fail")


@pytest.mark.parametrize(
    "geo", [THIN_GEO, {"R": 1.0, "rho_i": 0.2, "rho_e": 1.0}], ids=["thin", "thick"]
)
def test_reality_symmetry_matches_two_evaluator_calls(geo):
    """reality_symmetry, evaluated at +delta and -delta in one call on two
    density rows, is the worst |V(-delta) - conj V(delta)| relative to
    |V(delta)| of two separate calls, bit for bit."""
    g = ConfocalGeometry(**geo)
    source = Dipole(EllipticPoint(g.rho_e + 0.5, 0.9), np.array([1.0, 0.4]))
    delta = 1e-3
    sc = newtonian_coefficients(source, adaptive_n_max(delta, g), g.R, rho_e=g.rho_e)
    rhos = [0.5 * g.rho_i, 0.5 * (g.rho_i + g.rho_e), g.rho_e + 0.3]
    omegas = [0.3, 2.0, 4.0]
    vp = eval_potentials(source, solve_densities(sc, g, delta), g, rhos, omegas)
    vm = eval_potentials(source, solve_densities(sc, g, -delta), g, rhos, omegas)
    want = float(np.max(np.abs(vm - np.conj(vp)) / np.maximum(np.abs(vp), 1e-30)))
    with warnings.catch_warnings():
        # Check 6's sweep truncates short on thick; not under test here.
        warnings.simplefilter("ignore", TruncationWarning)
        got = _validate_by_name({"geometry": geo, "validate": {"n_nystrom": 64}})
    assert got["reality_symmetry"]["observed"] == want


def _per_mode_closed_form_checks(g):
    """Checks 3 and 4 of validate mode by mode, through block_matrices,
    s_gram and mode_table rows: (eigen-residual, norm error, Gram PD)."""
    table = mode_table(g, 50)
    eig = 0.0
    for n in range(1, 51):
        mode = mode_column(table, n)
        a_mat, b_mat = block_matrices(n, g)
        for mat, lam, vec in (
            (a_mat, mode.eigenvalues[0], mode.pairs[0]),
            (a_mat, mode.eigenvalues[2], mode.pairs[2]),
            (b_mat, mode.eigenvalues[1], mode.pairs[1]),
            (b_mat, mode.eigenvalues[3], mode.pairs[3]),
        ):
            num = np.abs(mat @ vec - lam * vec)
            den = np.abs(mat) @ np.abs(vec) + abs(lam) * np.abs(vec)
            eig = max(eig, float(np.max(num / den)))
    norm, pd = 0.0, True
    for n in (1, 2, 5, 10, 25, 50):
        mode = mode_column(table, n)
        g_cos, g_sin = s_gram(n, g)
        pd = pd and all(np.all(np.linalg.eigvalsh(m) > 0.0) for m in (g_cos, g_sin))
        for vec, gram, value in (
            (mode.pairs[0], g_cos, mode.norms[0]),
            (mode.pairs[1], g_sin, mode.norms[1]),
            (mode.pairs[2], g_cos, mode.norms[2]),
            (mode.pairs[3], g_sin, mode.norms[3]),
        ):
            norm = max(norm, abs(float(vec @ gram @ vec) - value) / abs(value))
    return eig, norm, pd


@pytest.mark.parametrize(
    "geo",
    [THIN_GEO, {"R": 1.0, "rho_i": 0.2, "rho_e": 1.0}, {"R": 2.0, "rho_i": 1.5, "rho_e": 3.0}],
    ids=["thin", "thick", "R2"],
)
def test_closed_form_checks_match_the_per_mode_loop(geo):
    """Checks 3 and 4, run over all modes at once, give the worst values of
    the per-mode loop to 1e-15 and the same statuses."""
    eig, norm, pd = _per_mode_closed_form_checks(ConfocalGeometry(**geo))
    assert pd
    with warnings.catch_warnings():
        # Check 5's default truncation is short for R2; not under test here.
        warnings.simplefilter("ignore", TruncationWarning)
        by_name = _validate_by_name({"geometry": geo, "validate": {"n_nystrom": 64}})
    assert abs(by_name["eigen_residuals"]["observed"] - eig) <= 1e-15
    assert abs(by_name["s_norms"]["observed"] - norm) <= 1e-15
    assert by_name["eigen_residuals"]["status"] == by_name["s_norms"]["status"] == "pass"


# (plain status, reported status) -> the checks that may override so: a
# coarse-grid spectrum miss or a zero source's energy ratio is indeterminate,
# and a Gram matrix that is not positive definite fails s_norms.
_STATUS_OVERRIDES = {
    ("fail", "indeterminate"): {"nystrom_spectrum", "surrogate_ratio"},
    ("pass", "fail"): {"s_norms"},
}


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_check_status_is_observed_below_threshold(config):
    """On every bundled config each validate check passes iff observed <
    threshold, unless it is one of the named overrides."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        checks = cli._validate_checks(json.loads((CONFIGS / config).read_text()))
    assert len(checks) == 9
    for c in checks:
        plain = "pass" if c["observed"] < c["threshold"] else "fail"
        if c["status"] != plain:
            assert c["name"] in _STATUS_OVERRIDES.get((plain, c["status"]), ()), c


@pytest.mark.parametrize("config", ["dipole_outside.json", "validate_default.json",
                                    "thick_inside.json"])
def test_validate_is_scale_free(config):
    """The overlap guard scales with the curves' size, so validate at R =
    1e-9 gives every check the status it has at R = 1 (before, each such
    geometry stopped at a 1e-8 absolute gap); the mode blocks are sampled
    at R moved into [1, 2), so R = 1e-150 and 1e150 do too (before, the
    node offsets squared under- or overflowed and validate exited 3),
    with no numpy RuntimeWarning."""
    cfg = json.loads((CONFIGS / config).read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        want = _validate_by_name(cfg)
    for scale in (1e-9, 1e-150, 1e150):
        scaled = dict(cfg, geometry=dict(cfg["geometry"], R=scale))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            got = _validate_by_name(scaled)
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
        assert {k: c["status"] for k, c in got.items()} == {k: c["status"] for k, c in want.items()}
        assert all(c["status"] == "pass" for c in got.values()), scale


@pytest.mark.parametrize(
    "block",
    [
        {"n_nystrom": 255},
        {"n_nystrom": 6},
        {"n_nystrom": 0},
        {"n_nystrom": 16, "n_modes": 3},
        {"n_nystrom": 64, "n_modes": 0},
    ],
    ids=["odd", "too-small", "zero", "count-exceeds-quarter", "no-modes"],
)
def test_validate_rejects_bad_oracle_sizes(tmp_path, capsys, block):
    """n_nystrom must be even and >= 8, n_modes >= 1, and the 2 + 4 n_modes
    compared eigenvalues must fit in a quarter of the 2 n_nystrom spectrum."""
    cfg = _write_cfg(tmp_path, "v.json", {"geometry": THIN_GEO, "validate": block})
    assert _run(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: validate.n_" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


def test_validate_lets_other_value_errors_escape(tmp_path, monkeypatch):
    """Only oracle.validate's size refusal becomes a config error."""
    def broken(*args, **kwargs):
        raise ValueError("not a size")

    monkeypatch.setattr(oracle, "validate", broken)  # cli resolves it at call time
    cfg = _write_cfg(tmp_path, "v.json", {"geometry": THIN_GEO})
    with pytest.raises(ValueError, match="not a size"):
        _run(["validate", "--config", cfg, "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# config handling


def test_missing_config_file(tmp_path, capsys):
    rc = _run(["spectrum", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops}", encoding="utf-8")
    rc = _run(["spectrum", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "line 1, column 2" in capsys.readouterr().err


def test_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"geometry": {}}')
    rc = _run(["spectrum", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and str(path) in err


def test_out_that_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("x", encoding="utf-8")
    rc = _run(["spectrum", "--config", str(CONFIGS / "dipole_inside.json"),
               "--out", str(out)])
    assert rc == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "x"


@pytest.mark.parametrize(
    "command, config, name",
    [
        ("spectrum", str(CONFIGS / "dipole_inside.json"), "spectrum.csv"),
        ("field", {"geometry": THIN_GEO, "source": _DIPOLE_SOURCE,
                   "field": {"delta": 1e-3, "rho_max": 1.2, "n1": 7, "n2": 7}}, "field.csv"),
        ("validate", str(CONFIGS / "validate_default.json"), "validate.json"),
    ],
    ids=["spectrum", "field", "validate"],
)
def test_output_that_is_a_directory(tmp_path, capsys, command, config, name):
    """An output file that cannot be written inside --out (here a
    directory of that name) is a config error, exit 2, with no traceback."""
    if isinstance(config, dict):
        config = _write_cfg(tmp_path, "c.json", config)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert _run([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out {out / name}: {os.strerror(errno.EISDIR)}\n"
    assert (out / name).is_dir()


_OUTPUTS = {
    "spectrum": ["spectrum.csv"],
    "critical-radius": ["critical_radius.json"],
    "sweep": ["sweep.csv", "sweep_classification.json"],
    "field": ["field.csv"],
    "validate": ["validate.json"],
}


@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_a_second_run_replaces_every_output(tmp_path, command):
    """Run twice into one --out, each command writes the same bytes the
    second time, over its own outputs; a longer stale file at an output
    path is replaced whole, not overwritten in front of its old bytes.
    An output path that is a symlink is written through."""
    config = str(CONFIGS / "dipole_outside.json")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        runs = []
        for _ in range(2):
            assert _run([command, "--config", config, "--out", str(out)]) == 0
            runs.append([(out / name).read_bytes() for name in _OUTPUTS[command]])
        assert runs[0] == runs[1]
        for name in _OUTPUTS[command]:
            (tmp_path / name).write_bytes(b"stale\n" * 200_000)
            (out / name).unlink()
            (out / name).symlink_to(tmp_path / name)
        assert _run([command, "--config", config, "--out", str(out)]) == 0
    assert all((out / name).is_symlink() for name in _OUTPUTS[command])
    assert [(tmp_path / name).read_bytes() for name in _OUTPUTS[command]] == runs[0]


# 2**50 values: 8 PiB as float64, which numpy refuses at once on any host.
_UNALLOCATABLE = 2**50


@pytest.mark.parametrize(
    "command, block",
    [("validate", {"validate": {"n_nystrom": _UNALLOCATABLE}}),
     ("field", {"field": {"delta": 1e-3, "rho_max": 1.2, "n1": _UNALLOCATABLE, "n2": 7}})],
    ids=["validate-nodes", "field-grid"],
)
def test_a_size_the_machine_cannot_allocate_is_a_config_error(tmp_path, capsys, command, block):
    """A size whose arrays cannot be allocated ends in one config error
    line naming the command (numpy's MemoryError text), exit 2, and no
    output file, not a traceback."""
    path = _write_cfg(tmp_path, "huge.json",
                      dict({"geometry": THIN_GEO, "source": _DIPOLE_SOURCE}, **block))
    out = tmp_path / "out"
    assert _run([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {command}: out of memory: Unable to allocate")
    assert list(out.iterdir()) == []


# Sizes past numpy's index range on a 64-bit host: numpy refuses their
# arrays without allocating (ValueError), so the command must refuse first.
@pytest.mark.parametrize("size", [2**62, 10**30], ids=["2**62", "10**30"])
@pytest.mark.parametrize(
    "command, key, where",
    [("validate", "n_nystrom", "validate.n_nystrom"),
     ("field", "n1", "field.n1/n2"),
     ("field", "n2", "field.n1/n2")],
    ids=["validate-nodes", "field-n1", "field-n2"],
)
def test_a_size_numpy_cannot_index_is_a_config_error(tmp_path, capsys, command, key, where, size):
    """A size whose arrays numpy cannot index is refused before its arrays
    are made: one config error line naming the key, exit 2, no output file
    and no traceback."""
    block = {"delta": 1e-3, "rho_max": 1.2} if command == "field" else {}
    path = _write_cfg(tmp_path, "huge.json", {"geometry": THIN_GEO, "source": _DIPOLE_SOURCE,
                                              command: dict(block, **{key: size})})
    out = tmp_path / "out"
    assert _run([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {where}: ")
    assert err[0].endswith("numpy's index range")
    assert list(out.iterdir()) == []


def test_memory_running_out_while_field_csv_is_written(tmp_path, capsys, monkeypatch):
    """A MemoryError after field.csv's first block is out of memory, exit
    2, and leaves no field.csv behind: neither a partial one nor the one
    an earlier run wrote there."""
    field_rows = cli._field_rows

    def short_of_memory(*args):
        rows = field_rows(*args)
        yield next(rows)
        raise MemoryError("no room for the next block")

    out = tmp_path / "out"
    assert _run(["field", "--config", str(CONFIGS / "dipole_outside.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_field_rows", short_of_memory)
    assert _run(["field", "--config", str(CONFIGS / "dipole_outside.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: field: out of memory: no room for the next block\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "critical-radius", "sweep", "field", "validate"])
def test_parser_accepts_every_command(command):
    args = cli.build_parser().parse_args([command, "--config", "c.json"])
    assert (args.command, args.config, args.out, args.threads) == (command, "c.json", ".", None)


@pytest.mark.parametrize("command", ["spectrum", "critical-radius", "field", "validate"])
def test_threads_is_refused_off_sweep(tmp_path, capsys, command):
    cfg = str(CONFIGS / "dipole_inside.json")
    assert _run([command, "--config", cfg, "--out", str(tmp_path), "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_one_parser_per_process(capsys):
    """main reads one parser, built on first use; a call that fails to
    parse leaves nothing in it that changes the next call."""
    assert cli.build_parser() is cli.build_parser()
    usages = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            _run(["nonsense", "--config", "c.json"])
        assert exc.value.code == 2
        usages.append(capsys.readouterr().err)
    assert usages[0] == usages[1]
    assert usages[0].startswith("usage: calr-lab ")
    assert "invalid choice: 'nonsense'" in usages[0]


def test_non_object_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    rc = _run(["spectrum", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "top level" in capsys.readouterr().err


def test_unknown_source_variant(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "s.json", {
        "geometry": THIN_GEO,
        "source": {"variant": "monopole"},
        "sweep": {"deltas": [1e-3], "probes": [{"rho": 1.2, "omega": 0.6}]},
    })
    assert _run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "source.variant" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bad values inside well-formed blocks


_DIPOLE = {"variant": "dipole", "location": {"rho": 0.88, "omega": 0.9},
           "moment": [1.0, 0.4]}
_PAIR = {"variant": "charge_pair", "plus": {"rho": 1.0, "omega": 0.3},
         "minus": {"rho": 1.1, "omega": 2.0}, "charge": 1.0}
_SWEEP = {"deltas": [1e-3], "probes": [{"rho": 1.2, "omega": 0.6}]}
_FIELD = {"delta": 1e-3, "n1": 9, "n2": 9}
# F_n^+ = e^{-1.1 n}, n = 1 .. 40: a series whose radius 1.1 lies between rho_e = 0.8
# and the probe at 1.2.
_SERIES = {"variant": "coefficients", "f_plus": np.exp(-1.1 * np.arange(1, 41)).tolist(),
           "f_minus": [0.0] * 40}
_SERIES_RADIUS = convergence_exponent(Coefficients(0.0, _SERIES["f_plus"], _SERIES["f_minus"]))


@pytest.mark.parametrize(
    "command, blocks",
    [
        ("sweep", {"source": dict(_PAIR, charge=0)}),
        ("sweep", {"source": dict(_DIPOLE, location={"rho": 0.0, "omega": 0.9})}),
        ("sweep", {"source": dict(_DIPOLE, moment=[math.inf, 0.0])}),
        ("sweep", {"source": {"variant": "coefficients", "f_plus": [1.0, None],
                              "f_minus": [0.0, 0.0]}}),
        ("sweep", {"source": {"variant": "coefficients", "f_plus": ["a", 1.0],
                              "f_minus": [0.0, 0.0]}}),
        ("sweep", {"source": dict(_DIPOLE, moment=[True, 0.4])}),
        ("sweep", {"source": {"variant": "coefficients", "f_plus": [1.0, 0.5],
                              "f_minus": [False, 0.0]}}),
        ("field", {"field": dict(_FIELD, rho_max=1000)}),
        ("field", {"field": dict(_FIELD, rho_max=math.inf)}),
        ("field", {"field": dict(_FIELD, rho_max=0.0)}),
        ("sweep", {"sweep": dict(_SWEEP, margin=-500)}),
        ("field", {"field": dict(_FIELD, margin=-1)}),
    ],
    ids=["zero-charge", "dipole-on-focal-segment", "infinite-moment", "null-coefficient",
         "string-coefficient", "boolean-moment", "boolean-coefficient",
         "rho-max-overflows", "infinite-rho-max", "zero-rho-max",
         "negative-sweep-margin", "negative-field-margin"],
)
def test_bad_values_are_config_errors(tmp_path, capsys, command, blocks):
    """Values the library constructors refuse, and field or sweep values
    that cannot be gridded or truncated, exit 2 with a config error."""
    cfg = {"geometry": THIN_GEO, "source": _DIPOLE, "sweep": _SWEEP, "field": _FIELD}
    path = _write_cfg(tmp_path, "bad.json", dict(cfg, **blocks))
    assert _run([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command, blocks, message",
    [
        ("sweep", {"sweep": [1e-3]}, "sweep: must be a JSON object"),
        ("sweep", {"sweep": dict(_SWEEP, deltas=1e-3)},
         "sweep.deltas: expected a list of numbers"),
        ("validate", {"validate": {"n_nystrom": None}},
         "validate.n_nystrom: required integer is missing"),
        ("field", {"field": dict(_FIELD, n1=9.5)}, "field.n1: expected an integer, got 9.5"),
        ("sweep", {"source": dict(_DIPOLE, location=[0.88, 0.9])},
         "source.location: expected an object with rho and omega"),
        ("sweep", {"sweep": dict(_SWEEP, probes=[{"rho": -1.2, "omega": 0.6}])},
         "sweep.probes[0]: rho must be finite and >= 0, got -1.2"),
        ("sweep", {"source": dict(_DIPOLE, moment=[1.0, 0.4, 0.0])},
         "source.moment: expected [a1, a2]"),
        ("sweep", {"source": {"variant": "coefficients", "f_plus": [1.0, 0.5],
                              "f_minus": [0.0]}},
         "source.f_plus / f_minus: lengths differ (2 vs 1)"),
        ("spectrum", {"spectrum": {"n_max": -1}}, "spectrum.n_max: must be >= 0, got -1"),
        ("sweep", {"sweep": dict(_SWEEP, probes=[])}, "sweep.probes: expected a non-empty list"),
    ],
    ids=["block-not-object", "numbers-not-list", "integer-missing", "integer-not-integer",
         "point-not-object", "point-negative-rho", "moment-length", "coefficient-lengths",
         "negative-spectrum-n-max", "no-probes"],
)
def test_config_shape_errors(tmp_path, capsys, command, blocks, message):
    """Each shape check of the CLI's parsing exits 2 with its one message."""
    cfg = {"geometry": THIN_GEO, "source": _DIPOLE, "sweep": _SWEEP, "field": _FIELD}
    path = _write_cfg(tmp_path, "bad.json", dict(cfg, **blocks))
    out = tmp_path / "out"
    assert _run([command, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(out.iterdir())


_LIB_DIPOLE = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
_LIB_PROBE = EllipticPoint(1.2, 0.6)
_THIN = ConfocalGeometry(**THIN_GEO)


@pytest.mark.parametrize(
    "command, blocks, library_call, message",
    [
        ("sweep", {"sweep": dict(_SWEEP, deltas=[1e-3, 1.5])},
         lambda: sweep(_LIB_DIPOLE, _THIN, [1.5, 1e-3], [_LIB_PROBE]),
         "delta: must be in (0, 1), got 1.5"),
        ("field", {"field": dict(_FIELD, delta=1.5)},
         lambda: adaptive_n_max(1.5, _THIN, 40),
         "delta: must be in (0, 1), got 1.5"),
        ("sweep", {"sweep": dict(_SWEEP, probes=[{"rho": 1.2, "omega": 0.6},
                                                 {"rho": 0.7, "omega": 0.6}])},
         lambda: sweep(_LIB_DIPOLE, _THIN, [1e-3], [_LIB_PROBE, EllipticPoint(0.7, 0.6)]),
         "probes[1]: rho = 0.7 is not outside rho_e = 0.8"),
        ("sweep", {"sweep": dict(_SWEEP, probes=[{"rho": 1.2, "omega": 0.6},
                                                 {"rho": 400, "omega": 0.6}])},
         lambda: sweep(_LIB_DIPOLE, _THIN, [1e-3], [_LIB_PROBE, EllipticPoint(400.0, 0.6)]),
         "probes[1]: rho = 400.0 puts 2 pi (R cosh rho)^2 out of range"),
        ("sweep", {"source": _SERIES},
         lambda: sweep(Coefficients(0.0, _SERIES["f_plus"], _SERIES["f_minus"]), _THIN,
                       [1e-3], [_LIB_PROBE]),
         f"probes[0]: rho = 1.2 is at or past the source series' convergence radius"
         f" {_SERIES_RADIUS}"),
        ("sweep", {"sweep": dict(_SWEEP, margin=-1)},
         lambda: sweep(_LIB_DIPOLE, _THIN, [1e-3], [_LIB_PROBE], margin=-1),
         "margin: must be >= 0, got -1"),
        ("field", {"field": dict(_FIELD, margin=-1)},
         lambda: adaptive_n_max(1e-3, _THIN, -1),
         "margin: must be >= 0, got -1"),
        ("sweep", {"sweep": dict(_SWEEP, deltas=[])},
         lambda: sweep(_LIB_DIPOLE, _THIN, [], [_LIB_PROBE]),
         "deltas: expected a non-empty list"),
        ("validate", {"validate": {"n_nystrom": 15}},
         lambda: oracle.validate(_THIN, _LIB_DIPOLE, 15),
         "n_nystrom: must be even and >= 8, got 15"),
    ],
    ids=["sweep-delta", "field-delta", "inside-probe", "far-probe", "series-probe",
         "sweep-margin", "field-margin", "no-deltas", "validate-size"],
)
def test_library_refuses_what_the_cli_reports(
    tmp_path, capsys, monkeypatch, command, blocks, library_call, message
):
    """Each sweep, field and validate rule lives in the library: it raises
    InputError before any coefficient is built, and the CLI prints its
    message after `config error: <command>.`, exit 2."""
    def no_work(*args, **kwargs):
        raise AssertionError("coefficients built before the refusal")

    for module, name in [(solver, "newtonian_coefficients"), (cli, "newtonian_coefficients"),
                         (oracle, "newtonian_coefficients"), (oracle, "mode_blocks_for")]:
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(InputError) as info:
        library_call()
    assert str(info.value) == message
    cfg = {"geometry": THIN_GEO, "source": _DIPOLE, "sweep": _SWEEP, "field": _FIELD}
    path = _write_cfg(tmp_path, "bad.json", dict(cfg, **blocks))
    out = tmp_path / "out"
    assert _run([command, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {command}.{message}\n"
    assert not list(out.iterdir())


def test_sweep_and_field_read_one_series_radius(tmp_path, capsys):
    """A probe at rho = 1.2, past the radius 1.1 of a series source, is
    refused by sweep (exit 2, one config error line, no sweep.csv) rather
    than sampled from a divergent sum, while field blanks the same source's
    cells past that radius: 54 of its 9 x 9 grid, besides the focal ones."""
    path = _write_cfg(tmp_path, "series.json", {
        "geometry": THIN_GEO, "source": _SERIES, "sweep": _SWEEP, "field": _FIELD})
    out = tmp_path / "out"
    assert _run(["sweep", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: sweep.probes[0]: ")
    assert not (out / "sweep.csv").exists()
    assert _run(["field", "--config", path, "--out", str(out)]) == 0
    assert f"left 54 points blank at rho >= {cli._fmt(_SERIES_RADIUS)}" in capsys.readouterr().out
    rows = (out / "field.csv").read_text().splitlines()[1:]
    # The other 3 blank cells lie on the focal segment.
    assert len(rows) == 81 and sum(row.endswith(",,,") for row in rows) == 54 + 3


@pytest.mark.parametrize("command", ["sweep", "field", "validate"])
@pytest.mark.parametrize(
    "source, where",
    [
        (dict(_DIPOLE, location={"rho": 0.7, "omega": 0.9}), "source.location"),
        (dict(_PAIR, minus={"rho": 0.7, "omega": 2.0}), "source.minus"),
    ],
    ids=["dipole", "charge-pair"],
)
def test_source_inside_the_shell_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, source, where
):
    """A source point at rho = 0.7, inside rho_e = 0.8, is refused before
    any work (no grid inversion, no Nystrom step): exit 2, one config error
    line naming the point's key and both radii, and no output file."""
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the refusal")

    monkeypatch.setattr(cli, "elliptic_coords", no_work)
    monkeypatch.setattr(oracle, "mode_blocks_for", no_work)
    cfg = {"geometry": THIN_GEO, "source": source, "sweep": _SWEEP, "field": _FIELD}
    path = _write_cfg(tmp_path, "inside.json", cfg)
    out = tmp_path / "out"
    assert _run([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {where}: radius rho = 0.7 does not lie strictly outside "
                   "rho_e = 0.8\n")
    assert not list(out.iterdir())


# F_n^+- = e^{-0.6 n} (cos, sin)(0.9 n), n = 1 .. 40: fitted radius 0.6, inside rho_e = 0.8.
_SERIES_INSIDE = {
    "variant": "coefficients",
    "f_plus": (np.exp(-0.6 * np.arange(1, 41)) * np.cos(0.9 * np.arange(1, 41))).tolist(),
    "f_minus": (np.exp(-0.6 * np.arange(1, 41)) * np.sin(0.9 * np.arange(1, 41))).tolist(),
}


@pytest.mark.parametrize("command", ["field", "validate"])
def test_series_inside_the_shell_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    """A series whose radius 0.6 lies inside rho_e = 0.8 diverges on the
    outer interface, so the forcing there cannot be read from it: refused
    before any work, exit 2, one config error line naming both radii, and
    no output file."""
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the refusal")

    monkeypatch.setattr(cli, "elliptic_coords", no_work)
    monkeypatch.setattr(oracle, "mode_blocks_for", no_work)
    radius = convergence_exponent(
        Coefficients(0.0, _SERIES_INSIDE["f_plus"], _SERIES_INSIDE["f_minus"]))
    cfg = {"geometry": THIN_GEO, "source": _SERIES_INSIDE,
           "field": dict(_FIELD, rho_max=1.2)}
    path = _write_cfg(tmp_path, "series.json", cfg)
    out = tmp_path / "out"
    assert _run([command, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: source: series radius rho = {radius} does not lie strictly"
        " outside rho_e = 0.8\n")
    assert not list(out.iterdir())


@pytest.mark.parametrize("command", ["sweep", "field", "validate"])
@pytest.mark.parametrize(
    "source, where, rho",
    [
        (dict(_DIPOLE, location={"rho": 720.0, "omega": 0.9}), "source.location", 720.0),
        (dict(_PAIR, plus={"rho": 400.0, "omega": 0.3}), "source.plus", 400.0),
    ],
    ids=["dipole", "charge-pair"],
)
def test_source_past_the_closed_form_range_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, source, where, rho
):
    """A source point past 2 pi (R cosh rho)^2 of about 1.8e308 (rho =
    354.67 at R = 1), the rule sweep applies to its probes, is refused
    before any work: exit 2, one config error line naming the point's key,
    and no output file."""
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the refusal")

    monkeypatch.setattr(cli, "elliptic_coords", no_work)
    monkeypatch.setattr(oracle, "mode_blocks_for", no_work)
    cfg = {"geometry": THIN_GEO, "source": source, "sweep": _SWEEP, "field": _FIELD}
    path = _write_cfg(tmp_path, "far.json", cfg)
    out = tmp_path / "out"
    assert _run([command, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {where}: rho = {rho} puts 2 pi (R cosh rho)^2 out of range\n")
    assert not list(out.iterdir())


def test_sweep_takes_a_charge_pair_just_inside_the_closed_form_range(tmp_path):
    """A charge at rho = 354, inside the 354.67 bound, still runs: sweep
    exits 0 with every far sample finite and positive."""
    source = dict(_PAIR, plus={"rho": 354.0, "omega": 0.3})
    path = _write_cfg(tmp_path, "near.json", {"geometry": THIN_GEO, "source": source,
                                              "sweep": _SWEEP})
    assert _run(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    rows = [row.split(",") for row in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    far = np.array([float(row[4]) for row in rows])
    assert len(far) == 1 and np.all(np.isfinite(far)) and np.all(far > 0.0)


def test_field_of_a_charge_pair_with_one_charge_far_out(tmp_path, capsys):
    """The plus charge at rho = 354 on dipole_outside's geometry and grid:
    next to the minus charge dp2 / dm2 overflows, yet every cell is finite
    and nothing is warned."""
    cfg = json.loads((CONFIGS / "dipole_outside.json").read_text())
    cfg["source"] = dict(_PAIR, plus={"rho": 354.0, "omega": 0.3},
                         minus={"rho": 1.5, "omega": 2.0})
    path = _write_cfg(tmp_path, "far_pair.json", cfg)
    assert _run(["field", "--config", path, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "field.csv").read_text()
    assert "inf" not in text and "nan" not in text
    assert len(text.splitlines()) == 1 + 81 * 81


_HUGE = 10**400  # a JSON integer of 401 digits, past the double range


@pytest.mark.parametrize(
    "command, blocks, key",
    [
        ("spectrum", {"geometry": dict(THIN_GEO, R=_HUGE)}, "geometry.R"),
        ("field", {"source": dict(_DIPOLE, moment=[_HUGE, 0.4])}, "source.moment[0]"),
        ("field", {"source": {"variant": "coefficients", "f_plus": [1.0, _HUGE],
                              "f_minus": [0.0, 0.0]}}, "source.f_plus[1]"),
        ("sweep", {"sweep": dict(_SWEEP, margin=_HUGE)}, "sweep.margin"),
    ],
    ids=["geometry-R", "dipole-moment", "coefficient", "sweep-margin"],
)
def test_huge_numbers_are_config_errors(tmp_path, capsys, command, blocks, key):
    """A number too large for a double is a config error naming its key,
    not an OverflowError."""
    cfg = {"geometry": THIN_GEO, "source": _DIPOLE, "sweep": _SWEEP, "field": _FIELD}
    path = _write_cfg(tmp_path, "huge.json", dict(cfg, **blocks))
    assert _run([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert f"config error: {key}: number too large" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _edited(path, **blocks):
    """The config text of path with each block updated by its values."""
    def text():
        cfg = json.loads(path.read_text(encoding="utf-8"))
        for name, values in blocks.items():
            cfg[name].update(values)
        return json.dumps(cfg)  # math.inf as the literal Infinity
    return text


_GOLDEN = Path(__file__).resolve().parent / "golden" / "configs"
_SOURCE_COMMANDS = ("sweep", "field", "validate")
# (case, config text, commands, exit): each ended in a traceback, or wrote
# inf or nan with exit 0, or leaked numpy RuntimeWarnings on the way.
_EDGES = [
    ("deep-nesting", lambda: "[" * 100000 + "]" * 100000, tuple(cli._COMMANDS), 2),
    ("long-integer", lambda: (CONFIGS / "dipole_inside.json").read_text(encoding="utf-8")
     .replace('"R": 1.0', '"R": 1' + "0" * 5000), tuple(cli._COMMANDS), 2),
    ("tiny-R", _edited(CONFIGS / "dipole_inside.json", geometry={"R": 1e-310}),
     _SOURCE_COMMANDS, 3),
    ("huge-moment-small-R", _edited(CONFIGS / "dipole_inside.json", geometry={"R": 1e-10},
                                    source={"moment": [1e300, 0.0]}), _SOURCE_COMMANDS, 3),
    ("infinite-c", _edited(_GOLDEN / "coefficients.json", source={"c": math.inf}),
     _SOURCE_COMMANDS, 2),
    ("huge-moment", _edited(CONFIGS / "dipole_inside.json", source={"moment": [1e300, 0.0]}),
     _SOURCE_COMMANDS, 3),
    ("huge-charge", _edited(_GOLDEN / "charge_pair.json", source={"charge": 1e308}),
     _SOURCE_COMMANDS, 3),
    ("huge-c", _edited(_GOLDEN / "coefficients.json", source={"c": 1e308}), ("sweep",), 3),
    ("subnormal-delta", _edited(CONFIGS / "thick_outside.json",
                                sweep={"deltas": [1e-2, 1e-3, 5e-324]}), ("sweep",), 3),
    ("subnormal-field-delta", _edited(CONFIGS / "thick_outside.json", field={"delta": 1e-310}),
     ("field",), 3),
    ("subnormal-width", _edited(CONFIGS / "thick_outside.json",
                                geometry={"rho_i": 1e-310, "rho_e": 2e-310}), _SOURCE_COMMANDS, 3),
]


@pytest.mark.parametrize(
    "text, command, code",
    [(text, command, code) for _, text, commands, code in _EDGES for command in commands],
    ids=[f"{case}-{command}" for case, _, commands, _ in _EDGES for command in commands],
)
def test_edge_configs_end_in_one_documented_exit(tmp_path, capsys, text, command, code):
    """Each edge config ends in its documented exit with exactly one
    config error or numeric failure line on stderr, no traceback, no
    numpy RuntimeWarning and no output file."""
    path = tmp_path / "edge.json"
    path.write_text(text(), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = _run([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    prefix = "config error: " if code == 2 else "numeric failure: "
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists() or list(out.iterdir()) == []


def test_validate_passes_a_source_with_no_modes(tmp_path, capsys):
    """An expansion with no modes is V = c exactly, so the flux stencils on
    the layer sums read 0 and validate exits 0 (before, the stencils on V
    read about delta and validate exited 4 on flux_jump)."""
    path = tmp_path / "constant.json"
    path.write_text(_edited(_GOLDEN / "coefficients.json",
                            source={"f_plus": [], "f_minus": []})(), encoding="utf-8")
    assert _run(["validate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads((tmp_path / "validate.json").read_text())["checks"]}
    assert checks["flux_jump"]["status"] == "pass" and checks["flux_jump"]["observed"] == 0.0


@pytest.mark.parametrize("rho, code", [(350.0, 0), (355.0, 2), (800.0, 2)])
def test_sweep_refuses_probes_past_the_source_closed_form(tmp_path, capsys, rho, code):
    """Past 2 pi (R cosh rho)^2 of about 1.8e308 (rho = 354.7 at R = 1)
    the point source's closed form overflows, so such a probe exits 2
    before any file is written; at rho = 350 every probe value is finite
    and positive."""
    cfg = json.loads((CONFIGS / "dipole_outside.json").read_text())
    cfg["sweep"]["probes"].append({"rho": rho, "omega": 0.6})
    path = _write_cfg(tmp_path, "far.json", cfg)
    out = tmp_path / "out"
    assert _run(["sweep", "--config", path, "--out", str(out)]) == code
    if code == 2:
        assert "config error: sweep.probes[2]" in capsys.readouterr().err
        assert not list(out.iterdir())
        return
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    far = np.array([[float(v) for v in row[4:7]] for row in rows])
    assert np.all(np.isfinite(far)) and np.all(far > 0.0)


@pytest.mark.parametrize("rho_max, code", [(170, 0), (180, 2), (700, 2)])
def test_field_refuses_a_grid_it_cannot_invert(tmp_path, capsys, rho_max, code):
    """Past |x| of about 1e77 the inverse coordinate map overflows: such a
    grid exits 2 before field.csv is written, while rho_max 170 still
    gives a finite value in every non-focal cell."""
    cfg = json.loads((CONFIGS / "dipole_inside.json").read_text())
    cfg["field"] = dict(cfg["field"], rho_max=rho_max, n1=5, n2=5)
    path = _write_cfg(tmp_path, "far.json", cfg)
    assert _run(["field", "--config", path, "--out", str(tmp_path)]) == code
    if code == 2:
        assert "config error: field.rho_max" in capsys.readouterr().err
        assert not (tmp_path / "field.csv").exists()
        return
    rows = [row.split(",") for row in (tmp_path / "field.csv").read_text().splitlines()]
    cells = [float(v) for row in rows[1:] for v in row[2:] if v]
    assert len(rows) == 26 and len(cells) == 3 * 24
    assert np.all(np.isfinite(cells))


@pytest.mark.parametrize(
    "command, config, outputs",
    [
        ("spectrum", "thick_inside", ["spectrum.csv"]),
        ("critical-radius", "thick_outside", ["critical_radius.json"]),
        ("field", "dipole_outside", ["field.csv"]),
        ("validate", "validate_default", ["validate.json"]),
    ],
)
def test_outputs_are_byte_identical_across_runs(tmp_path, command, config, outputs):
    """Every subcommand keeps the promise test_sweep_is_deterministic
    checks for sweep: one config, two runs, the same bytes."""
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert _run([command, "--config", str(CONFIGS / f"{config}.json"),
                     "--out", str(out)]) == 0
        runs.append([(out / name).read_bytes() for name in outputs])
    assert runs[0] == runs[1]
    assert all(data and b"\r" not in data for data in runs[0])
