"""Identity-suite report structure: assertions pass, measurements present."""

import math

import numpy as np
import pytest

from spherelab import identities
from spherelab.geometry import spherical_direction, to_radians


def test_ga3_suite_is_clean():
    report = identities.ga3_identity_report(samples=2000, seed=1)
    assert not report.mismatches()
    labels = {r.label for r in report.rows}
    assert {"ga3.bivector_pair_product", "ga3.associativity", "ga3.unit_even_closure"} <= labels


def test_sphere7_suite_reports_measured_rows():
    report = identities.sphere7_identity_report(samples=2000, seed=1)
    assert not report.mismatches()
    by_label = {r.label: r for r in report.rows}
    # The remaining two orthogonality relations are measured, not asserted
    # (infinite tolerance).  Empirically they hold for the definitional
    # deviation vector: the polarized norm identity gives
    # (a x b).(a x c) = |a|^2 (b.c) - (a.b)(a.c), which forces both to zero.
    for label in ("s7.z_dot_n2xn3", "s7.z_dot_n4xn2"):
        row = by_label[label]
        assert math.isinf(row.tolerance)
        assert math.isfinite(row.model)
    assert by_label["s7.jacobi_failure_witness_found"].verdict == "match"


def test_chsh_sweep_report_rows():
    report = identities.chsh_sweep_report(count=20_000, seed=4)
    by_label = {r.label: r for r in report.rows}
    assert by_label["chsh.sweep_max_abs"].verdict == "match"
    assert by_label["chsh.bound_max"].verdict == "match"
    assert math.isinf(by_label["chsh.bound_violation_fraction"].tolerance)
    assert by_label["chsh.bound_violation_fraction"].model > 0.0


def test_full_report_covers_all_tables():
    report = identities.full_identity_report(samples=1000, seed=2)
    assert not [r for r in report.mismatches() if not math.isinf(r.tolerance)]
    labels = {r.label for r in report.rows}
    for table in ("cyclic-124", "cyclic-124-swap12", "cyclic-124-mirror"):
        assert f"s7.lagrange_identity[{table}]" in labels


def test_geometry_helpers():
    assert np.allclose(to_radians([180.0], "deg"), [np.pi])
    assert np.allclose(to_radians([1.5], "rad"), [1.5])
    with pytest.raises(ValueError):
        to_radians([1.0], "grad")
    n = spherical_direction(0.7, 1.9)
    assert n == pytest.approx([np.sin(0.7) * np.cos(1.9), np.sin(0.7) * np.sin(1.9), np.cos(0.7)])
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)


def test_require_units_checks_every_row():
    from spherelab.geometry import random_unit_vectors, require_unit, require_units

    stack = random_unit_vectors(np.random.default_rng(3), 50)
    assert require_units(stack) is not None
    for bad in (1.5, np.nan, np.inf):
        broken = stack.copy()
        broken[17, 0] *= bad
        with pytest.raises(ValueError):
            require_units(broken)
    with pytest.raises(ValueError):
        require_units(stack[:, :2])
    # The one-vector form keeps its exact (dim,) shape contract.
    with pytest.raises(ValueError):
        require_unit(stack[:1])
