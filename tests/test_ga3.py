"""Cl(3,0) kernel checks.

The multiplication formulas are validated against an independent oracle:
basis blades as bit masks with the reordering sign counted explicitly, so
the kernel's closed-form product and the combinatorial definition of the
algebra are two separate routes to the same structure constants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import ga3
from spherelab.geometry import random_unit_vectors

RNG = np.random.default_rng(101)

# Component order (1, e1, e2, e3, e23, e31, e12, e123) as bit masks over
# {e1, e2, e3}; e31 is the reverse of the canonical blade e13.
MASKS = (0b000, 0b001, 0b010, 0b100, 0b110, 0b101, 0b011, 0b111)
BLADE_SIGNS = (1, 1, 1, 1, 1, -1, 1, 1)
MASK_TO_INDEX = {m: i for i, m in enumerate(MASKS)}


def _reorder_sign(a: int, b: int) -> int:
    # Swaps needed to merge two canonically ordered blades (Euclidean metric).
    a >>= 1
    total = 0
    while a:
        total += bin(a & b).count("1")
        a >>= 1
    return -1 if total & 1 else 1


def _oracle_table() -> np.ndarray:
    table = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            mask = MASKS[i] ^ MASKS[j]
            k = MASK_TO_INDEX[mask]
            sign = _reorder_sign(MASKS[i], MASKS[j]) * BLADE_SIGNS[i] * BLADE_SIGNS[j] * BLADE_SIGNS[k]
            table[i, j, k] = sign
    return table


def test_structure_constants_match_blade_oracle():
    oracle = _oracle_table()
    eye = np.eye(8)
    for i in range(8):
        for j in range(8):
            got = ga3._gp_components(eye[i], eye[j])
            assert np.array_equal(got, oracle[i, j]), (i, j, got, oracle[i, j])


def test_basis_vector_squares_to_plus_one():
    e1 = ga3.Multivector3.from_parts(v=[1.0, 0.0, 0.0])
    assert np.array_equal(ga3.geometric_product(e1, e1).comps, ga3.Multivector3.from_parts(s=1.0).comps)


def test_pair_product_identity_right_handed():
    # Product of two right-handed unit beables: scalar -a.b, bivector -(a x b).
    a = random_unit_vectors(RNG, 10_000)
    b = random_unit_vectors(RNG, 10_000)
    pa, pb = np.zeros((10_000, 8)), np.zeros((10_000, 8))
    pa[:, 4:7], pb[:, 4:7] = a, b
    prod = ga3._gp_components(pa, pb)
    expected = np.zeros_like(prod)
    expected[:, 0] = -np.einsum("ij,ij->i", a, b)
    expected[:, 4:7] = -np.cross(a, b)
    assert np.max(np.abs(prod - expected)) < 1e-13


def _bivectors(axes):
    out = np.zeros(axes.shape[:-1] + (8,))
    out[..., 4:7] = axes
    return out


def test_beable_square_is_minus_one():
    n = random_unit_vectors(RNG, 1000)
    beables = _bivectors(np.stack((n, -n)))  # both orientations
    sq = ga3._gp_components(beables, beables)
    assert np.max(np.abs(sq[..., 0] + 1.0)) < 1e-13
    assert np.max(np.abs(sq[..., 1:])) < 1e-13


def test_handed_product_point_flips_oriented_part_only():
    for n in range(200):
        a, b = random_unit_vectors(RNG, 2)
        raw = ga3.geometric_product(ga3.bivector_beable(a, 1), ga3.bivector_beable(b, 1))
        reversed_raw = ga3.geometric_product(ga3.bivector_beable(b, 1), ga3.bivector_beable(a, 1))
        f_plus, w_plus = ga3.beable_product_point(a, b, 1)
        f_minus, w_minus = ga3.beable_product_point(a, b, -1)
        assert f_plus == f_minus == pytest.approx(raw.s, abs=1e-15)
        assert np.allclose(w_plus, raw.b, atol=1e-15)
        # The mirrored product is the raw product in the opposite order.
        assert np.allclose(-w_minus, raw.b, atol=1e-15)
        assert np.allclose(w_minus, reversed_raw.b, atol=1e-15)


def test_bivector_beable_axis_aligned():
    z = np.array([0.0, 0.0, 1.0])
    assert np.array_equal(ga3.bivector_beable(z, 1).b, [0.0, 0.0, 1.0])
    assert np.array_equal(ga3.bivector_beable(z, -1).b, [0.0, 0.0, -1.0])
    assert abs(np.linalg.norm(ga3.bivector_beable(z, 1).comps) - 1.0) == 0.0


def test_bivector_beable_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ga3.bivector_beable([0.0, 0.0, 2.0], 1)
    with pytest.raises(ValueError):
        ga3.bivector_beable([0.0, 0.0, 1.0], 0)
    with pytest.raises(ValueError):
        ga3.bivector_beable([np.nan, 0.0, 1.0], 1)


def test_tilted_point_limits_and_norm():
    n = random_unit_vectors(RNG, 1)[0]
    one = ga3.Multivector3.from_parts(s=1.0).comps
    assert np.max(np.abs(ga3.tilted_point(0.0, n, 1).comps - one)) <= 1e-15
    quarter = ga3.tilted_point(np.pi / 2, n, 1).comps
    assert np.max(np.abs(quarter - ga3.bivector_beable(n, 1).comps)) <= 1e-15
    for chi in RNG.uniform(-np.pi, np.pi, 200):
        point = ga3.tilted_point(chi, n, -1, sign=-1)
        assert abs(np.linalg.norm(point.comps) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        ga3.tilted_point(0.3, n, 1, sign=2)


def _dot(x, y):
    return np.einsum("ij,ij->i", x, y)


def test_triple_product_closed_form():
    # Three right-handed beables: scalar a.(bxc), bivector ax(bxc) - a(b.c).
    a, b, c = random_unit_vectors(RNG, 3000).reshape(3, 1000, 3)
    chain = ga3._gp_components(ga3._gp_components(_bivectors(a), _bivectors(b)), _bivectors(c))
    assert np.max(np.abs(chain[:, 0] - _dot(a, np.cross(b, c)))) < 1e-12
    bivec = np.cross(a, np.cross(b, c)) - a * _dot(b, c)[:, None]
    assert np.max(np.abs(chain[:, 4:7] - bivec)) < 1e-12
    assert np.max(np.abs(chain[:, 1:4])) < 1e-12 and np.max(np.abs(chain[:, 7])) < 1e-12


def test_quadruple_product_closed_form():
    # (a.b)(c.d) - (axb).(cxd)  +  bivector (a.b)(cxd) + (c.d)(axb) - (axb)x(cxd).
    a, b, c, d = random_unit_vectors(RNG, 4000).reshape(4, 1000, 3)
    chain = ga3._gp_components(
        ga3._gp_components(ga3._gp_components(_bivectors(a), _bivectors(b)), _bivectors(c)),
        _bivectors(d))
    ab, cd = np.cross(a, b), np.cross(c, d)
    scalar = _dot(a, b) * _dot(c, d) - _dot(ab, cd)
    bivec = _dot(a, b)[:, None] * cd + _dot(c, d)[:, None] * ab - np.cross(ab, cd)
    assert np.max(np.abs(chain[:, 0] - scalar)) < 1e-12
    assert np.max(np.abs(chain[:, 4:7] - bivec)) < 1e-12


def test_product_chain_single_and_empty():
    x = ga3.Multivector3(RNG.uniform(-1, 1, 8))
    assert np.array_equal(ga3.product_chain([x]).comps, x.comps)
    with pytest.raises(ValueError):
        ga3.product_chain([])


def test_product_chain_matches_pairwise_grouping():
    points = [ga3.Multivector3(RNG.uniform(-1, 1, 8)) for _ in range(4)]
    folded = ga3.product_chain(points)
    paired = ga3.geometric_product(
        ga3.geometric_product(points[0], points[1]),
        ga3.geometric_product(points[2], points[3]),
    )
    assert np.max(np.abs(folded.comps - paired.comps)) <= 1e-12


def _commutator(x, y):
    return ga3._gp_components(x, y) - ga3._gp_components(y, x)


def test_commutator_of_beables():
    a, b = random_unit_vectors(RNG, 1000).reshape(2, 500, 3)
    comm = _commutator(_bivectors(a), _bivectors(b))
    assert np.max(np.abs(comm[:, 4:7] + 2.0 * np.cross(a, b))) < 1e-12
    assert np.max(np.abs(comm[:, [0, 1, 2, 3, 7]])) < 1e-12
    sin_ab = np.linalg.norm(np.cross(a, b), axis=1)
    assert np.max(np.abs(np.linalg.norm(comm, axis=1) - 2.0 * sin_ab)) < 1e-12


def test_commutator_degenerate_cases():
    x = RNG.uniform(-1, 1, 8)
    assert np.array_equal(_commutator(x, x), np.zeros(8))
    a = random_unit_vectors(RNG, 1)
    assert np.linalg.norm(_commutator(_bivectors(a), _bivectors(-a))) < 1e-14


def test_associativity_sweep():
    x, y, z = (RNG.uniform(-1, 1, (10_000, 8)) for _ in range(3))
    left = ga3._gp_components(ga3._gp_components(x, y), z)
    right = ga3._gp_components(x, ga3._gp_components(y, z))
    assert np.max(np.abs(left - right)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=24, max_size=24))
def test_associativity_property(flat):
    x, y, z = (ga3.Multivector3(flat[8 * i : 8 * i + 8]) for i in range(3))
    lhs = ga3.geometric_product(ga3.geometric_product(x, y), z)
    rhs = ga3.geometric_product(x, ga3.geometric_product(y, z))
    assert np.max(np.abs(lhs.comps - rhs.comps)) <= 1e-12


def test_unit_even_closure():
    comps = np.zeros((5000, 2, 8))
    comps[:, :, 0] = RNG.uniform(-1, 1, (5000, 2))
    comps[:, :, 4:7] = RNG.uniform(-1, 1, (5000, 2, 3))
    comps /= np.linalg.norm(comps, axis=2, keepdims=True)
    norms = np.linalg.norm(ga3._gp_components(comps[:, 0], comps[:, 1]), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_multivector_is_immutable():
    x = ga3.Multivector3.from_parts(s=1.0)
    with pytest.raises(AttributeError):
        x.s = 2.0
    with pytest.raises(ValueError):
        x.comps[0] = 2.0


def test_multivector_validation():
    x = ga3.Multivector3.from_parts(s=1.0, b=[0.5, 0.0, 0.0])
    assert x.s == 1.0 and x.b[0] == 0.5 and np.linalg.norm(x.comps) == pytest.approx(np.sqrt(1.25))
    with pytest.raises(ValueError):
        ga3.Multivector3([1.0] * 7)
    with pytest.raises(ValueError):
        ga3.Multivector3([np.inf] + [0.0] * 7)


def test_unit_tolerance_boundary():
    # Construction admits rounding noise up to 1e-9 and rejects beyond it.
    n = np.array([0.0, 0.0, 1.0 + 5e-10])
    assert ga3.bivector_beable(n, 1) is not None
    with pytest.raises(ValueError):
        ga3.bivector_beable(np.array([0.0, 0.0, 1.0 + 1e-8]), 1)


def test_batched_beable_product_point_matches_per_row_calls():
    u, v = random_unit_vectors(RNG, 1000), random_unit_vectors(RNG, 1000)
    for orientation in (1, -1):
        f, w = ga3.beable_product_point(u, v, orientation)
        assert f.shape == (1000,) and w.shape == (1000, 3)
        for i in range(1000):
            fi, wi = ga3.beable_product_point(u[i], v[i], orientation)
            assert isinstance(fi, float)
            assert abs(f[i] - fi) <= 1e-15
            assert np.max(np.abs(w[i] - wi)) <= 1e-15


@pytest.mark.parametrize("bad", [2.0, np.nan])
def test_beable_product_point_rejects_one_bad_row(bad):
    u, v = random_unit_vectors(RNG, 100), random_unit_vectors(RNG, 100)
    assert ga3.beable_product_point(u, v, 1)[0].shape == (100,)
    v[31] *= bad
    with pytest.raises(ValueError):
        ga3.beable_product_point(u, v, 1)
