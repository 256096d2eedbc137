"""Contracts of the result records: immutable NamedTuples whose field
names and order are part of the interface (the positional unpacking
inside the package relies on them)."""

from __future__ import annotations

import numpy as np
import pytest

from calr_lab import ConfocalGeometry, mode_table
from calr_lab.geometry import SampledCurve
from calr_lab.oracle import BlockNPMatrix, SpectrumReport
from calr_lab.solver import CalrDiagnosis, SweepRecord
from calr_lab.source import GapConditionReport, GapVerdict
from calr_lab.spectrum import AsymptoticRates, ModeTable, Regime

RECORD_FIELDS = {
    SampledCurve: ("nodes", "normals", "curvature", "weights"),
    GapConditionReport: ("rho_star", "indices", "log10_terms", "verdict"),
    ModeTable: ("n", "pairs", "eigenvalues", "norms"),
    Regime: ("kind", "rho_star", "far_bound_rho"),
    AsymptoticRates: ("kind", "lambda1_rate", "lambda2_rate", "norm_rates"),
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


def test_mode_table_truncated_keeps_its_values():
    table = mode_table(G, 40)
    head = table.truncated(9)
    assert type(head) is ModeTable
    assert all(np.array_equal(a, b) for a, b in zip(head, mode_table(G, 9)))


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
