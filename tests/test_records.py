"""Contracts of the result records: immutable NamedTuples whose field
names and order are part of the interface (the CSV headers and the
positional unpacking inside the package rely on them)."""

from __future__ import annotations

import numpy as np
import pytest

from calr_lab import (
    ConfocalGeometry,
    Dipole,
    EllipticPoint,
    adaptive_n_max,
    cli,
    mode_data,
    mode_table,
    newtonian_coefficients,
    solve_densities,
)
from calr_lab.geometry import SampledCurve
from calr_lab.oracle import BlockNPMatrix, SpectrumReport
from calr_lab.solver import (
    BoundaryForcing,
    CalrDiagnosis,
    DensityCoefficients,
    ModeProjection,
    SweepRecord,
)
from calr_lab.source import GapConditionReport, GapVerdict
from calr_lab.spectrum import (
    AsymptoticRates,
    ModeData,
    ModeTable,
    Regime,
    SingleEllipseMode,
)

NORMS = ("norm_1p", "norm_1m", "norm_2p", "norm_2m")

RECORD_FIELDS = {
    SampledCurve: ("nodes", "normals", "curvature", "weights"),
    GapConditionReport: ("rho_star", "indices", "log10_terms", "verdict"),
    SingleEllipseMode: ("n", "alpha", "beta"),
    ModeData: ("n", "lambda1", "lambda2", "a1", "a2", "b") + NORMS,
    ModeTable: ("n", "lambda1", "lambda2", "a1", "a2", "b") + NORMS,
    Regime: ("kind", "rho_star", "far_bound_rho"),
    AsymptoticRates: ("kind", "lambda1_rate", "lambda2_rate", "norm_rates"),
    BoundaryForcing: ("geometry", "gc_i", "gs_i", "gc_e", "gs_e"),
    ModeProjection: ("proj_1p", "proj_1m", "proj_2p", "proj_2m"),
    DensityCoefficients: ("p_cos", "p_sin", "q_cos", "q_sin"),
    SweepRecord: ("delta", "n_max", "e_direct", "e_spectral", "far_samples", "normalized_far"),
    CalrDiagnosis: (
        "verdict", "regime", "growth_exponent", "energy_growth", "energy_spread",
        "visibility_drop", "energy_increasing", "visibility_decreasing",
    ),
    BlockNPMatrix: ("matrix", "geometry", "weights"),
    SpectrumReport: ("eigenvalues", "matched", "rel_errors", "max_imag", "floor"),
}

G = ConfocalGeometry(1.0, 0.4, 0.9)


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda t: t.__name__)
def test_record_fields_are_fixed_and_read_only(record):
    assert issubclass(record, tuple)
    assert record._fields == RECORD_FIELDS[record]
    value = record(*range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


def test_record_defaults():
    assert GapConditionReport._field_defaults == {"verdict": GapVerdict.INCONCLUSIVE}
    assert SpectrumReport._field_defaults == {"max_imag": 0.0, "floor": 0.0}


def test_mode_table_fields_are_the_spectrum_csv_header(tmp_path):
    cfg = tmp_path / "g.json"
    cfg.write_text('{"geometry": {"R": 1.0, "rho_i": 0.4, "rho_e": 0.9}}', encoding="utf-8")
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "spectrum.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(ModeTable._fields)


def test_density_coefficients_iterate_in_field_order():
    """solve_densities and the layer sums unpack densities by position."""
    source = Dipole(EllipticPoint(1.4, 0.9), np.array([1.0, 0.4]))
    sc = newtonian_coefficients(source, adaptive_n_max(1e-2, G), G.R, rho_e=G.rho_e)
    dc = solve_densities(sc, G, 1e-2)
    p_cos, p_sin, q_cos, q_sin = dc
    assert p_cos is dc.p_cos and p_sin is dc.p_sin and q_cos is dc.q_cos and q_sin is dc.q_sin


def test_mode_table_truncated_and_row_keep_their_values():
    table = mode_table(G, 40)
    head = table.truncated(9)
    assert type(head) is ModeTable
    assert all(np.array_equal(a, b) for a, b in zip(head, mode_table(G, 9)))
    for n in (1, 9, 40):
        assert table.row(n) == mode_data(n, G)
        assert type(table.row(n)) is ModeData


def test_spectrum_report_replace_keeps_resolved_and_worst():
    """numeric_spectrum sets the rounding floor with _replace; resolved and
    worst are properties, so they follow the new floor."""
    report = SpectrumReport(
        np.array([0.4, 1e-20, -2e-20]),
        np.array([0.4 + 1e-9, 3e-20, -1e-20]),
        np.array([2.5e-9, 2.0, 1.0]),
        max_imag=1e-17,
    )
    assert report.resolved.tolist() == [True, True, True] and report.worst == 2.0
    floored = report._replace(floor=1e-15)
    assert floored.resolved.tolist() == [True, False, False]
    assert floored.worst == 2.5e-9
    assert floored.max_imag == 1e-17 and floored.eigenvalues is report.eigenvalues
