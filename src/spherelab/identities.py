"""Seeded random-sweep verification of the algebraic identities.

Each check evaluates both sides of an identity over a reproducible sweep
and records the worst residual as a ComparisonReport row.  Rows with a
finite tolerance are assertions; rows with tolerance = inf are
measurements (quantities the models do not promise anything about, kept
visible on principle).
"""

from __future__ import annotations

import numpy as np

from . import ga3, lrmodel, sphere7
from .compare import DEFAULT_TOLERANCES, chsh_sweep_rows
from .geometry import random_unit_vectors
from .lrmodel import ComparisonReport, make_row

ALGEBRA_TOL = 1e-12
PAIR_IDENTITY_TOL = 1e-13


def _random_multivectors(rng, count):
    return rng.uniform(-1.0, 1.0, (count, 8))


def ga3_identity_report(samples: int = 10_000, seed: int = 0) -> ComparisonReport:
    rng = np.random.default_rng(seed)
    rows = []

    # Pair product of right-handed beables: scalar -a.b, bivector -(a x b).
    a = random_unit_vectors(rng, samples)
    b = random_unit_vectors(rng, samples)
    beable_a = np.zeros((samples, 8))
    beable_b = np.zeros((samples, 8))
    beable_a[:, 4:7] = a
    beable_b[:, 4:7] = b
    prod = ga3._gp_components(beable_a, beable_b)
    expected = np.zeros_like(prod)
    expected[:, 0] = -np.einsum("ij,ij->i", a, b)
    expected[:, 4:7] = -np.cross(a, b)
    rows.append(
        make_row(
            "ga3.bivector_pair_product",
            float(np.max(np.abs(prod - expected))),
            0.0,
            PAIR_IDENTITY_TOL,
        )
    )

    # Handed convention: oriented part flips with orientation, scalar does not.
    raw = prod[:200]
    worst = 0.0
    for orientation in (1, -1):
        f, w = ga3.beable_product_point(a[:200], b[:200], orientation)
        worst = max(worst, float(np.max(np.abs(f - raw[:, 0]))),
                    float(np.max(np.abs(orientation * w - raw[:, 4:7]))))
    rows.append(make_row("ga3.handed_product_convention", worst, 0.0, PAIR_IDENTITY_TOL))

    # Unit beables square to the scalar -1 for either orientation.
    worst = 0.0
    for orientation in (1, -1):
        beables = _bivectors(orientation * a[:500])
        sq = ga3._gp_components(beables, beables)
        worst = max(worst, float(np.max(np.abs(sq[:, 0] + 1.0))),
                    float(np.max(np.abs(sq[:, 1:]))))
    rows.append(make_row("ga3.beable_square_minus_one", worst, 0.0, PAIR_IDENTITY_TOL))

    # Associativity over generic multivectors with components in [-1, 1].
    x, y, z = (_random_multivectors(rng, samples) for _ in range(3))
    left = ga3._gp_components(ga3._gp_components(x, y), z)
    right = ga3._gp_components(x, ga3._gp_components(y, z))
    rows.append(
        make_row("ga3.associativity", float(np.max(np.abs(left - right))), 0.0, ALGEBRA_TOL)
    )

    # Products of unit even-grade elements stay unit (3-sphere closure).
    even1 = np.zeros((samples, 8))
    even2 = np.zeros((samples, 8))
    for arr in (even1, even2):
        arr[:, 0] = rng.uniform(-1.0, 1.0, samples)
        arr[:, 4:7] = rng.uniform(-1.0, 1.0, (samples, 3))
        arr /= np.linalg.norm(arr, axis=1, keepdims=True)
    norms = np.linalg.norm(ga3._gp_components(even1, even2), axis=1)
    rows.append(
        make_row("ga3.unit_even_closure", float(np.max(np.abs(norms - 1.0))), 0.0, ALGEBRA_TOL)
    )

    # Triple product closed form (right-handed): scalar a.(b x c),
    # bivector a x (b x c) - a (b.c).
    m = min(samples, 1000)
    c = random_unit_vectors(rng, m)
    chain = ga3._gp_components(ga3._gp_components(beable_a[:m], beable_b[:m]), _bivectors(c))
    expected = np.zeros_like(chain)
    expected[:, 0] = np.einsum("ij,ij->i", a[:m], np.cross(b[:m], c))
    expected[:, 4:7] = np.cross(a[:m], np.cross(b[:m], c)) - a[:m] * np.einsum(
        "ij,ij->i", b[:m], c
    )[:, None]
    rows.append(
        make_row(
            "ga3.triple_product_closed_form",
            float(np.max(np.abs(chain - expected))),
            0.0,
            ALGEBRA_TOL,
        )
    )

    # Quadruple product closed form (right-handed): scalar
    # (a.b)(c.d) - (a x b).(c x d), bivector
    # (a.b)(c x d) + (c.d)(a x b) - (a x b) x (c x d).
    d = random_unit_vectors(rng, m)
    chain4 = ga3._gp_components(
        ga3._gp_components(beable_a[:m], beable_b[:m]),
        ga3._gp_components(_bivectors(c), _bivectors(d)),
    )
    ab, cd = np.cross(a[:m], b[:m]), np.cross(c, d)
    dot_ab = np.einsum("ij,ij->i", a[:m], b[:m])
    dot_cd = np.einsum("ij,ij->i", c, d)
    expected4 = np.zeros_like(chain4)
    expected4[:, 0] = dot_ab * dot_cd - np.einsum("ij,ij->i", ab, cd)
    expected4[:, 4:7] = dot_ab[:, None] * cd + dot_cd[:, None] * ab - np.cross(ab, cd)
    rows.append(
        make_row(
            "ga3.quadruple_product_closed_form",
            float(np.max(np.abs(chain4 - expected4))),
            0.0,
            ALGEBRA_TOL,
        )
    )

    # Commutator of right-handed beables: pure bivector -2 (a x b).
    comm = ga3._gp_components(beable_a, beable_b) - ga3._gp_components(beable_b, beable_a)
    expected = np.zeros_like(comm)
    expected[:, 4:7] = -2.0 * np.cross(a, b)
    rows.append(
        make_row("ga3.commutator_identity", float(np.max(np.abs(comm - expected))), 0.0, ALGEBRA_TOL)
    )

    return ComparisonReport(rows, meta={"suite": "ga3", "samples": samples, "seed": seed})


def _bivectors(axes):
    out = np.zeros((axes.shape[0], 8))
    out[:, 4:7] = axes
    return out


def sphere7_identity_report(
    table: sphere7.CrossTable | str | None = None, samples: int = 10_000, seed: int = 1
) -> ComparisonReport:
    table = sphere7.get_table(table)
    rng = np.random.default_rng(seed)
    rows = []

    x = rng.uniform(-1.0, 1.0, (samples, 7))
    y = rng.uniform(-1.0, 1.0, (samples, 7))
    z = rng.uniform(-1.0, 1.0, (samples, 7))
    xy = sphere7.cross7(x, y, table)

    rows.append(
        make_row(
            "s7.cross_antisymmetry",
            float(np.max(np.abs(xy + sphere7.cross7(y, x, table)))),
            0.0,
            ALGEBRA_TOL,
        )
    )
    rows.append(
        make_row(
            "s7.self_orthogonality",
            float(np.max(np.abs(np.einsum("ij,ij->i", x, xy)))),
            0.0,
            ALGEBRA_TOL,
        )
    )
    norm_lhs = np.einsum("ij,ij->i", xy, xy)
    norm_rhs = (
        np.einsum("ij,ij->i", x, x) * np.einsum("ij,ij->i", y, y)
        - np.einsum("ij,ij->i", x, y) ** 2
    )
    rows.append(
        make_row("s7.norm_identity", float(np.max(np.abs(norm_lhs - norm_rhs))), 0.0, ALGEBRA_TOL)
    )
    mixed = np.einsum("ij,ij->i", xy, z) - np.einsum(
        "ij,ij->i", x, sphere7.cross7(y, z, table)
    )
    rows.append(make_row("s7.mixed_product", float(np.max(np.abs(mixed))), 0.0, ALGEBRA_TOL))

    # Jacobi must FAIL somewhere: nonassociativity witness with norm > 0.1.
    m = min(samples, 100)
    jac_max = float(np.max(np.linalg.norm(sphere7.jacobiator(x[:m], y[:m], z[:m], table), axis=1)))
    witness = 1.0 if jac_max > 0.1 else 0.0
    rows.append(make_row("s7.jacobi_failure_witness_found", witness, 1.0, 0.0))
    rows.append(make_row("s7.max_jacobiator_norm", jac_max, 0.0, float("inf")))

    # Deviation-vector orthogonality: four relations follow from the mixed
    # product identity; the remaining two are measured, not asserted.
    n2, n3, n4 = x[:2000], y[:2000], z[:2000]
    zdev = sphere7.z_deviation(n2, n3, n4, table)
    c34 = sphere7.cross7(n3, n4, table)
    for label, other in (
        ("s7.z_orthogonal_n2", n2),
        ("s7.z_orthogonal_n3", n3),
        ("s7.z_orthogonal_n4", n4),
        ("s7.z_orthogonal_n3xn4", c34),
    ):
        rows.append(
            make_row(label, float(np.max(np.abs(np.einsum("ij,ij->i", zdev, other)))), 0.0, ALGEBRA_TOL)
        )
    for label, other in (
        ("s7.z_dot_n2xn3", sphere7.cross7(n2, n3, table)),
        ("s7.z_dot_n4xn2", sphere7.cross7(n4, n2, table)),
    ):
        rows.append(
            make_row(label, float(np.max(np.abs(np.einsum("ij,ij->i", zdev, other)))), 0.0, float("inf"))
        )

    # Generalized Lagrange identity.
    w = rng.uniform(-1.0, 1.0, (samples, 7))
    m = min(samples, 10_000)
    lag = np.abs(sphere7.lagrange_residual(w[:m], x[:m], y[:m], z[:m], table))
    rows.append(make_row("s7.lagrange_identity", float(np.max(lag)), 0.0, ALGEBRA_TOL))

    # Unit-point closure of the scalar+vector product.
    pts = rng.standard_normal((2000, 2, 8))
    pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    norms = np.linalg.norm(sphere7._oct_components(pts[:, 0], pts[:, 1], table), axis=1)
    rows.append(
        make_row("s7.oct_product_unit_closure", float(np.max(np.abs(norms - 1.0))), 0.0, ALGEBRA_TOL)
    )

    # Embeddings preserve unit norm.
    quads = random_unit_vectors(rng, 500).reshape(125, 4, 3)
    embedded = np.stack(sphere7.embed_ghz4(*quads.transpose(1, 0, 2)))
    worst = float(np.max(np.abs(np.linalg.norm(embedded, axis=-1) - 1.0)))
    rows.append(make_row("s7.embedding_unit_norm", worst, 0.0, ALGEBRA_TOL))

    return ComparisonReport(
        rows, meta={"suite": "sphere7", "table": table.table_id, "samples": samples, "seed": seed}
    )


def chsh_sweep_report(count: int = 100_000, seed: int = 2) -> ComparisonReport:
    """Model CHSH sweep: the supremum against 2 sqrt(2), the bound's range,
    and the measured bound-violation statistics (reported, not asserted)."""
    rows, sweep = chsh_sweep_rows(count, seed, DEFAULT_TOLERANCES)
    rows += [
        make_row("chsh.bound_max", float(np.max(sweep["bounds"])), lrmodel.TWO_SQRT2, 1e-12),
        make_row("chsh.bound_min_nonnegative", float(min(0.0, np.min(sweep["bounds"]))), 0.0, 0.0),
        make_row("chsh.bound_violation_fraction", sweep["bound_violation_fraction"], 0.0, float("inf")),
        make_row("chsh.max_bound_violation", sweep["max_bound_violation"], 0.0, float("inf")),
    ]
    return ComparisonReport(rows, meta={"suite": "chsh_sweep", "count": count, "seed": seed})


def full_identity_report(samples: int = 10_000, seed: int = 0, tables=None) -> ComparisonReport:
    report = ga3_identity_report(samples, seed)
    for name in tables or list(sphere7.BUILTIN_TABLES):
        sub = sphere7_identity_report(name, samples, seed + 1)
        report.extend(
            [
                lrmodel.ComparisonRow(f"{r.label}[{name}]", r.model, r.oracle, r.residual, r.tolerance, r.verdict)
                for r in sub.rows
            ]
        )
    report.extend(chsh_sweep_report(seed=seed + 2).rows)
    report.meta = {"suite": "identities", "samples": samples, "seed": seed}
    return report
