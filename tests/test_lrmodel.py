"""Model evaluator checks: singlet, CHSH string and bound, GHZ pipelines and
their product points."""

import math

import numpy as np
import pytest

from spherelab import ga3, lrmodel, qmref, sphere7
from spherelab.geometry import coplanar_direction, random_unit_vectors, spherical_direction
from spherelab.lrmodel import TWO_SQRT2
from spherelab.report import ComparisonReport

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
        f, oriented = lrmodel.product_point("singlet", (a, b))
        raw = ga3.geometric_product(ga3.bivector_beable(a, 1), ga3.bivector_beable(b, 1))
        assert f == pytest.approx(raw.s, abs=1e-15)
        assert np.allclose(oriented, raw.b, atol=1e-15)
        sin_ab = float(np.linalg.norm(np.cross(a, b)))
        assert np.linalg.norm(oriented) == pytest.approx(sin_ab, abs=1e-14)
        # the handed point at both orientations
        for orientation in (1, -1):
            ff, ww = ga3.beable_product_point(a, b, orientation)
            assert f == pytest.approx(ff, abs=1e-15)
            assert np.allclose(orientation * oriented, ww, atol=1e-15)


def test_chsh_product_point_is_the_signed_sum_of_the_pair_products():
    # (f, N) is the +,+,+,- combination of the four beable-pair products
    # a b, a b', a' b and a' b', scalar and bivector parts alike.
    for _ in range(200):
        dirs = random_unit_vectors(RNG, 4)
        f, oriented = lrmodel.product_point("chsh", dirs)
        a, ap, b, bp = (ga3.bivector_beable(v, 1).comps for v in dirs)
        ab, abp, apb, apbp = (ga3._gp_components(x, y) for x, y in ((a, b), (a, bp), (ap, b), (ap, bp)))
        want = ab + abp + apb - apbp
        assert f == pytest.approx(want[0], abs=1e-14)
        assert np.array_equal(oriented, want[4:7])


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
    back = ComparisonReport.from_json("".join(report.json_chunks()))
    assert back.rows == report.rows
    assert back.meta == report.meta
    csv_text = "".join(report.chunks("csv"))
    assert csv_text.splitlines()[0] == "label,model,oracle,residual,tolerance,verdict"
    assert len(csv_text.splitlines()) == len(report.rows) + 1
    empty = ComparisonReport([])
    assert "".join(empty.chunks("csv")) == "label,model,oracle,residual,tolerance,verdict\n"


def _check_grouped_oct_product(embedded, point):
    # The grouped product (v1 v2)(v3 v4) of the embedded pure unit points,
    # taken with the oct product kernel, is the GHZ kernel's table value and
    # deviation and the product point's f and N, for every built-in table.
    v = np.stack(embedded, axis=1)
    points = np.concatenate((np.zeros((100, 4, 1)), v), axis=-1)
    for table in ALL_TABLES:
        left = sphere7._oct_components(points[:, 0], points[:, 1], table)
        right = sphere7._oct_components(points[:, 2], points[:, 3], table)
        grouped = sphere7._oct_components(left, right, table)
        _, value, _, deviation = lrmodel.ghz_kernel(v, 0.0, table)
        assert np.max(np.abs(grouped[:, 0] - value)) <= 1e-14
        assert np.max(np.abs(grouped[:, 1:] - deviation)) <= 1e-14
        assert np.max(np.abs(np.sum(grouped * grouped, axis=1) - 1.0)) <= 1e-12
        for i in (0, 99):
            f, oriented = point(i, table)
            assert f == pytest.approx(grouped[i, 0], abs=1e-14)
            assert np.linalg.norm(oriented) == pytest.approx(np.linalg.norm(grouped[i, 1:]), abs=1e-14)
            assert np.max(np.abs(oriented - grouped[i, 1:])) <= 1e-14


def test_decomposition_ghz4_matches_table_mode():
    dirs = random_unit_vectors(RNG, 400).reshape(4, 100, 3)
    _check_grouped_oct_product(
        sphere7.embed_ghz4(*dirs),
        lambda i, table: lrmodel.product_point("ghz4", dirs[:, i], table=table),
    )


def test_decomposition_ghz3_matches_table_mode():
    # GHZ3 embeds a fixed reference point ahead of its three beables.
    dirs = random_unit_vectors(RNG, 300).reshape(3, 100, 3)
    alpha, delta = RNG.uniform(0, np.pi, 100), RNG.uniform(0, 2 * np.pi, 100)
    _check_grouped_oct_product(
        sphere7.embed_ghz3(*dirs, alpha, delta),
        lambda i, table: lrmodel.product_point("ghz3", dirs[:, i], (alpha[i], delta[i]), table),
    )
