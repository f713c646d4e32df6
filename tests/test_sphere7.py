"""7D kernel checks: cross-product table properties, point products,
the deviation vector, the generalized Lagrange identity, embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import sphere7
from spherelab.geometry import random_unit_vectors
from spherelab.sphere7 import BUILTIN_TABLES, CrossTable, SevenPoint

RNG = np.random.default_rng(202)

ALL_TABLES = list(BUILTIN_TABLES.values())


def _e(i):
    v = np.zeros(7)
    v[i - 1] = 1.0
    return v


def test_default_table_designated_products():
    assert np.array_equal(sphere7.cross7(_e(1), _e(2)), _e(4))
    for i, j, k in sphere7.DEFAULT_TRIPLES:
        assert np.array_equal(sphere7.cross7(_e(i), _e(j)), _e(k))
        assert np.array_equal(sphere7.cross7(_e(j), _e(k)), _e(i))
        assert np.array_equal(sphere7.cross7(_e(j), _e(i)), -_e(k))


def test_table_constants_antisymmetric():
    # f[i, j] = e_i x e_j: antisymmetric, signed unit basis vectors off the
    # diagonal, and each slot k hit by exactly six ordered pairs.
    eye = np.eye(7)
    for table in ALL_TABLES:
        f = sphere7.cross7(eye[:, None], eye[None, :], table)
        assert f.shape == (7, 7, 7)
        assert np.array_equal(f, -np.swapaxes(f, 0, 1))
        assert set(np.unique(f)) <= {-1.0, 0.0, 1.0}
        off_diagonal = ~np.eye(7, dtype=bool)
        assert np.array_equal(np.abs(f).sum(axis=2), off_diagonal.astype(float))
        assert np.array_equal(np.abs(f).sum(axis=(0, 1)), np.full(7, 6.0))


def test_table_validation_rejects_bad_triples():
    with pytest.raises(ValueError):
        CrossTable("dup", (((1, 2, 4),) * 7))
    with pytest.raises(ValueError):
        CrossTable("short", sphere7.DEFAULT_TRIPLES[:6] + ((1, 2, 5),))
    with pytest.raises(ValueError):
        CrossTable("degenerate", sphere7.DEFAULT_TRIPLES[:6] + ((1, 1, 3),))


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.table_id)
def test_cross7_algebraic_properties(table):
    x = RNG.uniform(-1, 1, (10_000, 7))
    y = RNG.uniform(-1, 1, (10_000, 7))
    z = RNG.uniform(-1, 1, (10_000, 7))
    xy = sphere7.cross7(x, y, table)

    assert np.max(np.abs(sphere7.cross7(x, x, table))) == 0.0
    assert np.max(np.abs(xy + sphere7.cross7(y, x, table))) == 0.0
    # bilinearity
    lin = sphere7.cross7(2.5 * x + z, y, table) - (2.5 * xy + sphere7.cross7(z, y, table))
    assert np.max(np.abs(lin)) < 1e-12
    # x.(x cross y) = 0
    assert np.max(np.abs(np.einsum("ij,ij->i", x, xy))) < 1e-12
    # norm identity
    lhs = np.einsum("ij,ij->i", xy, xy)
    rhs = np.einsum("ij,ij->i", x, x) * np.einsum("ij,ij->i", y, y) - np.einsum("ij,ij->i", x, y) ** 2
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # mixed product
    mixed = np.einsum("ij,ij->i", xy, z) - np.einsum("ij,ij->i", x, sphere7.cross7(y, z, table))
    assert np.max(np.abs(mixed)) < 1e-12


def test_jacobi_fails_in_seven_dimensions():
    # Basis witness under the default table: jacobiator of (e1, e2, e3) is 3 e6.
    jac = sphere7.jacobiator(_e(1), _e(2), _e(3))
    assert np.array_equal(jac, 3.0 * _e(6))
    for table in ALL_TABLES:
        norms = [
            float(np.linalg.norm(sphere7.jacobiator(*RNG.uniform(-1, 1, (3, 7)), table)))
            for _ in range(50)
        ]
        assert max(norms) > 0.1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=14, max_size=14))
def test_norm_identity_property(flat):
    x, y = np.array(flat[:7]), np.array(flat[7:])
    xy = sphere7.cross7(x, y)
    lhs = float(np.dot(xy, xy))
    rhs = float(np.dot(x, x) * np.dot(y, y) - np.dot(x, y) ** 2)
    assert abs(lhs - rhs) < 1e-12


def test_oct_product_identity_and_pure_vectors():
    q = SevenPoint(0.6, 0.8 * random_unit_vectors(RNG, 1, dim=7)[0])
    identity = SevenPoint(1.0, np.zeros(7))
    for res in (sphere7.oct_product(identity, q), sphere7.oct_product(q, identity)):
        assert np.array_equal(res.components(), q.components())
    n1, n2 = random_unit_vectors(RNG, 2, dim=7)
    res = sphere7.oct_product(SevenPoint(0.0, n1), SevenPoint(0.0, n2))
    assert res.a == pytest.approx(-float(np.dot(n1, n2)), abs=1e-15)
    assert np.allclose(res.x, -sphere7.cross7(n1, n2), atol=1e-15)
    square = sphere7.oct_product(SevenPoint(0.0, n1), SevenPoint(0.0, n1))
    assert square.a == pytest.approx(-1.0, abs=1e-15) and np.max(np.abs(square.x)) < 1e-15


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.table_id)
def test_oct_product_unit_closure(table):
    pts = RNG.standard_normal((10_000, 2, 8))
    pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    norms = np.linalg.norm(sphere7._oct_components(pts[:, 0], pts[:, 1], table), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_z_deviation_vanishes_on_associative_triples():
    # span{e1, e2, e4} is closed under the default table and associative.
    basis = np.stack([_e(1), _e(2), _e(4)])
    for _ in range(200):
        n2, n3, n4 = (RNG.uniform(-1, 1, 3) @ basis for _ in range(3))
        assert np.max(np.abs(sphere7.z_deviation(n2, n3, n4))) < 1e-12


def test_z_deviation_degenerate_and_orthogonality():
    x, y = RNG.uniform(-1, 1, (2, 7))
    assert np.max(np.abs(sphere7.z_deviation(x, y, y))) < 1e-12
    for table in ALL_TABLES:
        for _ in range(500):
            n2, n3, n4 = RNG.uniform(-1, 1, (3, 7))
            z = sphere7.z_deviation(n2, n3, n4, table)
            c34 = sphere7.cross7(n3, n4, table)
            for other in (n2, n3, n4, c34):
                assert abs(np.dot(z, other)) < 1e-12
        # generic triples give a nonzero deviation
        assert float(np.linalg.norm(sphere7.z_deviation(*RNG.uniform(-1, 1, (3, 7)), table))) > 1e-3


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.table_id)
def test_lagrange_identity(table):
    for _ in range(2000):
        n1, n2, n3, n4 = RNG.uniform(-1, 1, (4, 7))
        assert abs(sphere7.lagrange_residual(n1, n2, n3, n4, table)) < 1e-12
    n = RNG.uniform(-1, 1, 7)
    assert sphere7.lagrange_residual(n, n, n, n, table) == pytest.approx(0.0, abs=1e-12)


def test_lagrange_reduces_to_classical_on_associative_embedding():
    # Components only in the associative span{e1, e2, e4}: Z = 0 and the
    # classical identity holds.
    basis = np.stack([_e(1), _e(2), _e(4)])
    for _ in range(500):
        vs = [RNG.uniform(-1, 1, 3) @ basis for _ in range(4)]
        assert np.max(np.abs(sphere7.z_deviation(vs[1], vs[2], vs[3]))) < 1e-12
        assert abs(sphere7.lagrange_residual(*vs)) < 1e-12


def test_embed_ghz4_patterns():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    n1, n2, n3, n4 = sphere7.embed_ghz4(z, x, z, x)
    assert np.array_equal(n1, [0, 0, -1, 0, 0, 0, 0])
    assert np.array_equal(n2, [1, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(n3, [0, 0, 0, 0, 1, 0, 0])
    assert np.array_equal(n4, [1, 0, 0, 0, 0, 0, 0])
    g = RNG.standard_normal(3)
    g /= np.linalg.norm(g)
    out = sphere7.embed_ghz4(g, g, g, g)
    expected = (
        [-g[0], g[1], -g[2], 0, 0, 0, 0],
        [g[0], g[1], 0, g[2], 0, 0, 0],
        [g[0], g[1], 0, 0, g[2], 0, 0],
        [g[0], -g[1], 0, 0, 0, -g[2], 0],
    )
    for v, e in zip(out, expected):
        assert np.allclose(v, e, atol=0.0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        sphere7.embed_ghz4(2 * g, g, g, g)


def test_embed_ghz3_patterns():
    g = RNG.standard_normal(3)
    g /= np.linalg.norm(g)
    n0, n1, n2, n3 = sphere7.embed_ghz3(g, g, g, alpha=0.0, delta=0.7)
    assert np.allclose(n0, [0, 0, -1, 0, 0, 0, 0], atol=1e-15)
    n0, _, _, _ = sphere7.embed_ghz3(g, g, g, alpha=np.pi / 2, delta=0.0)
    assert np.allclose(n0, [-1, 0, 0, 0, 0, 0, 0], atol=1e-15)
    assert np.allclose(n1, [g[0], g[1], 0, g[2], 0, 0, 0], atol=0.0)
    assert np.allclose(n2, [g[0], -g[1], 0, 0, -g[2], 0, 0], atol=0.0)
    assert np.allclose(n3, [-g[0], -g[1], 0, 0, 0, g[2], 0], atol=0.0)
    for alpha, delta in RNG.uniform(0, np.pi, (50, 2)):
        for v in sphere7.embed_ghz3(g, g, g, alpha, delta):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_get_table_lookup():
    assert sphere7.get_table(None) is sphere7.DEFAULT_TABLE
    assert sphere7.get_table("cyclic-124-mirror").table_id == "cyclic-124-mirror"
    with pytest.raises(ValueError):
        sphere7.get_table("nope")


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.table_id)
def test_batched_kernels_match_per_row_calls(table):
    # Unit directions, as the models use them. A stack may sum in another
    # order than one row (BLAS picks the kernel by shape), so rows agree to
    # a few ulp of unit-scale values, not bit for bit.
    n1, n2, n3, n4 = random_unit_vectors(RNG, 4000, dim=7).reshape(4, 1000, 7)
    zdev = sphere7.z_deviation(n2, n3, n4, table)
    assert zdev.shape == (1000, 7)
    per_row = np.stack([sphere7.z_deviation(a, b, c, table) for a, b, c in zip(n2, n3, n4)])
    assert np.max(np.abs(zdev - per_row)) <= 1e-15

    lag = sphere7.lagrange_residual(n1, n2, n3, n4, table)
    assert lag.shape == (1000,)
    per_row = [sphere7.lagrange_residual(*quad, table) for quad in zip(n1, n2, n3, n4)]
    assert all(isinstance(r, float) for r in per_row)
    assert np.max(np.abs(lag - per_row)) <= 1e-15

    pts = RNG.standard_normal((1000, 2, 8))
    pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    prod = sphere7._oct_components(pts[:, 0], pts[:, 1], table)
    assert prod.shape == (1000, 8)
    for (p, q), row in zip(pts, prod):
        res = sphere7.oct_product(SevenPoint(p[0], p[1:]), SevenPoint(q[0], q[1:]), table)
        assert np.max(np.abs(res.components() - row)) <= 1e-15


def test_batched_embeddings_match_per_row_calls():
    dirs = random_unit_vectors(RNG, 4000).reshape(4, 1000, 3)
    stacked = sphere7.embed_ghz4(*dirs)
    for i in range(1000):
        for got, want in zip(stacked, sphere7.embed_ghz4(*dirs[:, i])):
            assert np.max(np.abs(got[i] - want)) <= 1e-15
    alpha, delta = RNG.uniform(0, np.pi, 1000), RNG.uniform(0, 2 * np.pi, 1000)
    stacked = sphere7.embed_ghz3(*dirs[:3], alpha, delta)
    assert all(v.shape == (1000, 7) for v in stacked)
    for i in range(1000):
        for got, want in zip(stacked, sphere7.embed_ghz3(*dirs[:3, i], alpha[i], delta[i])):
            assert np.max(np.abs(got[i] - want)) <= 1e-15


@pytest.mark.parametrize("bad", [2.0, np.nan, np.inf])
def test_one_bad_row_in_a_stack_raises(bad):
    dirs = random_unit_vectors(RNG, 400).reshape(4, 100, 3)
    assert sphere7.embed_ghz4(*dirs)[2].shape == (100, 7)
    dirs[2, 57, 1] *= bad
    with pytest.raises(ValueError):
        sphere7.embed_ghz4(*dirs)
    with pytest.raises(ValueError):
        sphere7.embed_ghz3(*dirs[1:], 0.3, 0.4)
