"""Model evaluator checks: singlet, CHSH string and bound, GHZ pipelines,
canonical decomposition."""

import math

import numpy as np
import pytest

from spherelab import ga3, lrmodel, qmref, sphere7
from spherelab.geometry import coplanar_direction, random_unit_vectors, spherical_direction
from spherelab.lrmodel import TWO_SQRT2

RNG = np.random.default_rng(404)

ALL_TABLES = list(sphere7.BUILTIN_TABLES.values())


def test_singlet_correlation_values():
    a = np.array([0.0, 0.0, 1.0])
    assert lrmodel.singlet_correlation(a, a) == -1.0
    assert lrmodel.singlet_correlation(a, np.array([1.0, 0.0, 0.0])) == 0.0
    b = coplanar_direction(np.pi / 3)
    assert lrmodel.singlet_correlation(a, b) == pytest.approx(-0.5, abs=1e-15)


def test_singlet_model_matches_oracle():
    state = qmref.singlet_state()
    for _ in range(1000):
        a, b = random_unit_vectors(RNG, 2)
        assert lrmodel.singlet_correlation(a, b) == pytest.approx(
            qmref.pair_expectation(state, a, b), abs=1e-12
        )


def test_singlet_product_point_matches_kernel_product():
    for _ in range(200):
        a, b = random_unit_vectors(RNG, 2)
        point = lrmodel.singlet_product_point(a, b)
        raw = ga3.geometric_product(ga3.bivector_beable(a, 1), ga3.bivector_beable(b, 1))
        assert point.f == pytest.approx(raw.s, abs=1e-15)
        assert np.allclose(point.oriented, raw.b, atol=1e-15)
        sin_ab = float(np.linalg.norm(np.cross(a, b)))
        assert point.g == pytest.approx(sin_ab, abs=1e-14)
        # handed reconstruction at both orientations
        for orientation in (1, -1):
            f, w = point.reconstruct(orientation)
            ff, ww = ga3.beable_product_point(a, b, orientation)
            assert f == pytest.approx(ff, abs=1e-15)
            assert np.allclose(w, ww, atol=1e-15)


def test_chsh_model_known_quadruples():
    # Direct cosine evaluation: (0, 90, 225, 135) degrees gives +2 sqrt(2),
    # (0, 90, 45, -45) gives -2 sqrt(2).
    plus = [coplanar_direction(np.deg2rad(t)) for t in (0.0, 90.0, 225.0, 135.0)]
    minus = [coplanar_direction(np.deg2rad(t)) for t in (0.0, 90.0, 45.0, -45.0)]
    assert lrmodel.chsh_model(*plus) == pytest.approx(TWO_SQRT2, abs=1e-12)
    assert lrmodel.chsh_model(*minus) == pytest.approx(-TWO_SQRT2, abs=1e-12)


def test_chsh_model_collapsed_string():
    for _ in range(100):
        a, b = random_unit_vectors(RNG, 2)
        assert lrmodel.chsh_model(a, a, b, b) == pytest.approx(-2.0 * float(np.dot(a, b)), abs=1e-14)


def test_chsh_model_agrees_with_qm_oracle():
    state = qmref.singlet_state()
    for _ in range(1000):
        dirs = random_unit_vectors(RNG, 4)
        assert lrmodel.chsh_model(*dirs) == pytest.approx(qmref.chsh_qm(state, *dirs), abs=1e-12)


def test_chsh_bound_values_and_range():
    a = coplanar_direction(0.0)
    assert lrmodel.chsh_model_bound(a, a, *random_unit_vectors(RNG, 2)) == pytest.approx(2.0, abs=1e-15)
    sat = [coplanar_direction(t) for t in lrmodel.BOUND_SATURATING_QUADRUPLE]
    assert lrmodel.chsh_model_bound(*sat) == pytest.approx(TWO_SQRT2, abs=1e-12)
    for _ in range(2000):
        bound = lrmodel.chsh_model_bound(*random_unit_vectors(RNG, 4))
        assert -1e-12 <= bound <= TWO_SQRT2 + 1e-12


def test_chsh_bound_does_not_dominate_model():
    # The displayed bound fails to dominate |model| on a positive fraction of
    # coplanar quadruples; this is a measured property, not an assertion of
    # the model's consistency.
    quad = [coplanar_direction(np.deg2rad(t)) for t in (0.0, 90.0, 225.0, 135.0)]
    value = lrmodel.chsh_model(*quad)
    bound = lrmodel.chsh_model_bound(*quad)
    assert abs(value) == pytest.approx(TWO_SQRT2, abs=1e-12)
    assert bound == pytest.approx(0.0, abs=1e-7)
    sweep = lrmodel.scan_chsh(20_000, seed=3)
    assert sweep["bound_violation_fraction"] > 0.0
    assert sweep["max_bound_violation"] > 1.0


def test_scan_chsh_supremum():
    sweep = lrmodel.scan_chsh(100_000, seed=11)
    assert sweep["max_abs_value"] == pytest.approx(TWO_SQRT2, abs=1e-6)
    assert sweep["max_abs_value"] <= TWO_SQRT2 + 1e-12
    with pytest.raises(ValueError):
        lrmodel.scan_chsh(2)


# ---------------------------------------------------------------------------
# canonical decomposition
# ---------------------------------------------------------------------------


def test_decomposition_singlet_pair():
    for _ in range(100):
        a, b = random_unit_vectors(RNG, 2)
        dec = lrmodel.canonical_decomposition(
            [ga3.bivector_beable(a, 1), ga3.bivector_beable(b, 1)], "S3"
        )
        assert dec.f == pytest.approx(-float(np.dot(a, b)), abs=1e-14)
        assert dec.g == pytest.approx(float(np.linalg.norm(np.cross(a, b))), abs=1e-14)
        # oriented axis is (anti)parallel to a x b
        cross = np.cross(a, b)
        assert np.allclose(dec.oriented, -cross, atol=1e-14)


def test_decomposition_single_beable():
    n = random_unit_vectors(RNG, 1)[0]
    for orientation in (1, -1):
        dec = lrmodel.canonical_decomposition([ga3.bivector_beable(n, orientation)], "S3")
        assert dec.f == 0.0
        assert dec.g == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(dec.oriented, orientation * n, atol=0.0)


def test_decomposition_reconstruction_invariant():
    # 1e4 random inputs across the two spaces.
    # S3: products of random unit even-grade elements.
    for _ in range(5000):
        comps = np.zeros((3, 8))
        comps[:, 0] = RNG.uniform(-1, 1, 3)
        comps[:, 4:7] = RNG.uniform(-1, 1, (3, 3))
        comps /= np.linalg.norm(comps, axis=1, keepdims=True)
        elements = [ga3.Multivector3(c) for c in comps]
        dec = lrmodel.canonical_decomposition(elements, "S3")
        prod = ga3.product_chain(elements)
        f, w = dec.reconstruct(1)
        assert f == pytest.approx(prod.s, abs=1e-12)
        assert np.allclose(w, prod.b, atol=1e-12)
        assert dec.g == pytest.approx(float(np.linalg.norm(prod.b)), abs=1e-12)
    # S7: grouped products of random unit points.
    for n_points in (1, 2, 3, 4):
        for _ in range(1250):
            pts = RNG.standard_normal((n_points, 8))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            elements = [sphere7.SevenPoint(p[0], p[1:]) for p in pts]
            dec = lrmodel.canonical_decomposition(elements, "S7")
            assert abs(dec.f**2 + dec.g**2 - 1.0) < 1e-12  # unit closure
            f, w = dec.reconstruct(1)
            assert abs(f - dec.f) == 0.0 and np.array_equal(w, dec.oriented)


def test_decomposition_ghz4_matches_table_mode():
    for _ in range(50):
        dirs = random_unit_vectors(RNG, 4)
        embedded = sphere7.embed_ghz4(*dirs)
        beables = [sphere7.beable7(v, 1) for v in embedded]
        dec = lrmodel.canonical_decomposition(beables, "S7")
        value, _ = lrmodel.ghz4_model(*dirs, mode="table")
        assert dec.f == pytest.approx(value, abs=1e-12)
        point = lrmodel.ghz4_product_point(*dirs)
        assert dec.f == pytest.approx(point.f, abs=1e-14)
        assert np.allclose(dec.oriented, point.oriented, atol=1e-12)


def test_decomposition_rejects_bad_inputs():
    n = random_unit_vectors(RNG, 1)[0]
    beable3 = ga3.bivector_beable(n, 1)
    beable7 = sphere7.beable7(sphere7.embed_ghz4(n, n, n, n)[0], 1)
    with pytest.raises(TypeError):
        lrmodel.canonical_decomposition([beable3, beable7], "S3")
    with pytest.raises(TypeError):
        lrmodel.canonical_decomposition([beable3], "S7")
    with pytest.raises(ValueError):
        lrmodel.canonical_decomposition([], "S3")
    with pytest.raises(ValueError):
        lrmodel.canonical_decomposition([beable3], "S2")
    with pytest.raises(ValueError):
        lrmodel.canonical_decomposition([ga3.Multivector3.vector(n)], "S3")


# ---------------------------------------------------------------------------
# GHZ pipelines
# ---------------------------------------------------------------------------


def test_ghz4_pinned_z_special_cases():
    z = np.array([0.0, 0.0, 1.0])
    value, _ = lrmodel.ghz4_model(z, z, z, z, mode="pinned_z")
    assert value == pytest.approx(1.0, abs=1e-15)
    equatorial = [spherical_direction(np.pi / 2, 0.0)] * 4
    value, _ = lrmodel.ghz4_model(*equatorial, mode="pinned_z")
    assert value == pytest.approx(-1.0, abs=1e-15)


def test_ghz4_pinned_z_equals_qm_closed_form():
    for _ in range(500):
        theta, phi = RNG.uniform(0, np.pi, 4), RNG.uniform(0, 2 * np.pi, 4)
        dirs = [spherical_direction(t, p) for t, p in zip(theta, phi)]
        value, report = lrmodel.ghz4_model(*dirs, mode="pinned_z")
        assert value == pytest.approx(qmref.ghz4_expectation_closed_form(theta, phi), abs=1e-12)
        row = next(r for r in report.rows if r.label == "ghz4.pinned_z_vs_oracle")
        assert row.verdict == "match"


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.table_id)
def test_ghz4_table_mode_lagrange_equivalence(table):
    for _ in range(500):
        dirs = random_unit_vectors(RNG, 4)
        value, report = lrmodel.ghz4_model(*dirs, mode="table", table=table)
        row = next(r for r in report.rows if r.label == "ghz4.table_vs_lagrange")
        assert row.model == pytest.approx(row.oracle, abs=1e-12)
        assert row.verdict == "match"
        assert value == pytest.approx(row.model, abs=0.0)


def test_ghz4_table_vs_pinned_residual_reported_not_gated():
    dirs = [spherical_direction(t, p) for t, p in zip((0.5, 1.0, 1.5, 2.0), (0.1, 0.2, 0.3, 0.4))]
    _, report = lrmodel.ghz4_model(*dirs, mode="table")
    row = next(r for r in report.rows if r.label == "ghz4.table_vs_pinned_z")
    assert math.isinf(row.tolerance) and row.verdict == "match"
    assert abs(row.residual) > 1e-6  # generically nonzero, duly recorded


def test_ghz3_pinned_z_special_cases():
    z = np.array([0.0, 0.0, 1.0])
    value, _ = lrmodel.ghz3_model(z, z, z, alpha=0.0, delta=0.9, mode="pinned_z")
    assert value == pytest.approx(1.0, abs=1e-15)
    x = spherical_direction(np.pi / 2, 0.0)
    value, _ = lrmodel.ghz3_model(x, x, x, alpha=np.pi / 2, delta=0.0, mode="pinned_z")
    assert value == pytest.approx(1.0, abs=1e-12)


def test_ghz3_pinned_z_equals_qm_closed_form():
    for _ in range(500):
        alpha, delta = RNG.uniform(0, np.pi), RNG.uniform(0, 2 * np.pi)
        theta, phi = RNG.uniform(0, np.pi, 3), RNG.uniform(0, 2 * np.pi, 3)
        dirs = [spherical_direction(t, p) for t, p in zip(theta, phi)]
        value, _ = lrmodel.ghz3_model(*dirs, alpha, delta, mode="pinned_z")
        assert value == pytest.approx(
            qmref.ghz3_expectation_closed_form(theta, phi, alpha, delta), abs=1e-12
        )


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.table_id)
def test_ghz3_table_mode_lagrange_equivalence(table):
    for _ in range(200):
        dirs = random_unit_vectors(RNG, 3)
        alpha, delta = RNG.uniform(0, np.pi), RNG.uniform(0, 2 * np.pi)
        _, report = lrmodel.ghz3_model(*dirs, alpha, delta, mode="table", table=table)
        row = next(r for r in report.rows if r.label == "ghz3.table_vs_lagrange")
        assert row.verdict == "match"


def test_ghz_mode_validation():
    dirs = random_unit_vectors(RNG, 4)
    with pytest.raises(ValueError):
        lrmodel.ghz4_model(*dirs, mode="bogus")


def test_comparison_report_round_trips():
    _, report = lrmodel.ghz4_model(*random_unit_vectors(RNG, 4))
    back = lrmodel.ComparisonReport.from_json(report.to_json())
    assert back.rows == report.rows
    assert back.meta == report.meta
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "label,model,oracle,residual,tolerance,verdict"
    assert len(csv_text.splitlines()) == len(report.rows) + 1
    empty = lrmodel.ComparisonReport([])
    assert empty.to_csv() == "label,model,oracle,residual,tolerance,verdict\n"
    assert empty.max_abs_residual() == 0.0


def test_decomposition_ghz3_matches_table_mode():
    # The grouped point-product route (reference point prepended) agrees with
    # the explicit pipeline formulas, scalar and oriented parts alike.
    for _ in range(50):
        dirs = random_unit_vectors(RNG, 3)
        alpha, delta = RNG.uniform(0, np.pi), RNG.uniform(0, 2 * np.pi)
        embedded = sphere7.embed_ghz3(*dirs, alpha, delta)
        beables = [sphere7.beable7(v, 1) for v in embedded]
        dec = lrmodel.canonical_decomposition(beables, "S7")
        value, _ = lrmodel.ghz3_model(*dirs, alpha, delta, mode="table")
        assert dec.f == pytest.approx(value, abs=1e-12)
        point = lrmodel.ghz3_product_point(*dirs, alpha, delta)
        assert dec.f == pytest.approx(point.f, abs=1e-14)
        assert np.allclose(dec.oriented, point.oriented, atol=1e-12)
