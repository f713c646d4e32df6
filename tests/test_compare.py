"""Comparison builders: the GHZ kernel against a per-tuple reference, the
GHZ report rows against the per-tuple pipeline, and state dispatch."""

import math

import numpy as np
import pytest

import spherelab
from spherelab import compare, lrmodel, qmref, sphere7
from spherelab.geometry import random_unit_vectors
from spherelab.sphere7 import cross7, z_deviation

ALL_TABLES = list(sphere7.BUILTIN_TABLES.values())


def reference_ghz_values(embedded, prod_z, table):
    """One tuple at a time with 1-D np.dot: (pinned, table, Lagrange-route
    value, |deviation|) of the grouped product (v1 v2)(v3 v4)."""
    v1, v2, v3, v4 = embedded
    d12, d34 = float(np.dot(v1, v2)), float(np.dot(v3, v4))
    d13, d24 = float(np.dot(v1, v3)), float(np.dot(v2, v4))
    d14, d23 = float(np.dot(v1, v4)), float(np.dot(v2, v3))
    z = np.zeros(7)
    z[2] = prod_z
    pinned = d12 * d34 - (d13 * d24 - d14 * d23 + float(np.dot(v1, z)))
    c12, c34 = cross7(v1, v2, table), cross7(v3, v4, table)
    value_table = d12 * d34 - float(np.dot(c12, c34))
    z_dev = z_deviation(v2, v3, v4, table)
    lagrange = d12 * d34 - (d13 * d24 - d14 * d23 + float(np.dot(v1, z_dev)))
    deviation = d34 * c12 + d12 * c34 - cross7(c12, c34, table)
    return pinned, value_table, lagrange, float(np.linalg.norm(deviation))


def _ghz_stacks(seed, n):
    """Embedded (n, 4, 7) stacks and pinned prod_z for ghz4 and ghz3 draws."""
    rng = np.random.default_rng(seed)
    d4 = random_unit_vectors(rng, 4 * n).reshape(n, 4, 3)
    d3 = random_unit_vectors(rng, 3 * n).reshape(n, 3, 3)
    alpha, delta = rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)
    yield np.stack(sphere7.embed_ghz4(*d4.transpose(1, 0, 2)), axis=-2), d4[:, 1:, 2].prod(axis=1)
    yield (np.stack(sphere7.embed_ghz3(*d3.transpose(1, 0, 2), alpha, delta), axis=-2),
           d3[:, :, 2].prod(axis=1))


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.table_id)
@pytest.mark.parametrize("seed", range(5))
def test_ghz_kernel_matches_per_tuple_reference(table, seed):
    for embedded, prod_z in _ghz_stacks(seed, 500):
        pinned, value_table, lagrange, deviation = lrmodel.ghz_kernel(embedded, prod_z, table)
        assert pinned.shape == value_table.shape == lagrange.shape == (500,)
        assert deviation.shape == (500, 7)
        got = np.column_stack((pinned, value_table, lagrange, np.linalg.norm(deviation, axis=1)))
        want = np.array([reference_ghz_values(e, p, table) for e, p in zip(embedded, prod_z)])
        assert np.max(np.abs(got - want)) <= 1e-15


def test_one_tuple_wrappers_are_kernel_rows():
    rng = np.random.default_rng(11)
    dirs = random_unit_vectors(rng, 4)
    embedded = np.stack(sphere7.embed_ghz4(*dirs))
    pinned, value_table, _, deviation = lrmodel.ghz_kernel(embedded, dirs[1:, 2].prod())
    value, report = lrmodel.ghz4_model(*dirs, mode="pinned_z")
    assert value == pinned and [r.label for r in report.rows] == [
        "ghz4.pinned_z_vs_oracle", "ghz4.table_vs_lagrange", "ghz4.table_vs_pinned_z",
        "ghz4.oriented_magnitude"]
    f, oriented = lrmodel.product_point("ghz4", dirs)
    assert f == value_table and np.array_equal(oriented, deviation)


def _per_tuple_rows(which, samples, seed):
    """The GHZ comparison as one pipeline call per tuple, drawing as it goes,
    with the per-tuple oracle values."""
    rng = np.random.default_rng(seed)
    rows, oracle = [], []
    for i in range(samples):
        if which == "ghz4":
            dirs = random_unit_vectors(rng, 4)
            state = qmref.ghz4_state()
            _, sub = lrmodel.ghz4_model(*dirs)
        else:
            dirs = random_unit_vectors(rng, 3)
            alpha, delta = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
            state = qmref.ghz3_state(alpha, delta)
            _, sub = lrmodel.ghz3_model(*dirs, alpha, delta)
        oracle.append(qmref.tensor_expectation(state, qmref.SpinObservable(tuple(dirs))))
        rows += [(f"{r.label}[{i}]", r.model, r.tolerance, r.verdict) for r in sub.rows]
    return rows, oracle


@pytest.mark.parametrize("which", ["ghz3", "ghz4"])
@pytest.mark.parametrize("seed", [0, 7])
def test_ghz_comparison_keeps_the_per_tuple_rows(which, seed):
    report = compare.build_comparison(which, 200, seed)
    rows, oracle = _per_tuple_rows(which, 200, seed)
    assert [(r.label, r.tolerance, r.verdict) for r in report.rows] == [
        (label, tol, verdict) for label, _, tol, verdict in rows]
    assert _bits([r.model for r in report.rows]) == _bits([m for _, m, _, _ in rows])
    pinned = [r for r in report.rows if ".pinned_z_vs_oracle[" in r.label]
    assert [r.oracle for r in pinned] == oracle  # bit for bit
    assert report.meta == {"state": which, "samples": 200, "seed": seed, "table": "cyclic-124"}


def test_build_comparison_dispatch():
    assert set(compare.BUILDERS) == {"singlet", "chsh", "hardy", "ghz3", "ghz4"}
    with pytest.raises(ValueError, match="unknown state"):
        compare.build_comparison("bogus", 3, 0)
    assert "compare" in spherelab.__all__


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("seed", [0, 600, 603])
def test_batched_singlet_and_chsh_models_keep_the_per_row_bits(seed):
    rng = np.random.default_rng(seed)
    dirs = random_unit_vectors(rng, 4 * 300).reshape(300, 4, 3)
    a, ap, b, bp = dirs.transpose(1, 0, 2)
    singlet = [-float(np.dot(x, y)) for x, y in zip(a, b)]
    chsh = [-float(np.dot(w, y)) - float(np.dot(w, z)) - float(np.dot(x, y)) + float(np.dot(x, z))
            for w, x, y, z in zip(a, ap, b, bp)]
    assert _bits(lrmodel.singlet_correlations(a, b)) == _bits(singlet)
    assert _bits(lrmodel.chsh_models(a, ap, b, bp)) == _bits(chsh)
    assert _bits([lrmodel.chsh_model(*d) for d in dirs[:20]]) == _bits(chsh[:20])


def _hardy_reference(theta):
    """The per-pair routes the batched Hardy oracle and closed forms replace:
    per pair, the state's four (real) amplitudes times the two-site product
    vector, added in basis order in Python floats; and the printed table in
    numpy scalars."""
    psi = qmref.hardy_state(theta).amplitudes.real.tolist()
    oracle = []
    for s1, s2 in qmref.HARDY_PAIRS:
        kron = np.kron(qmref._site_vector(s1, theta), qmref._site_vector(s2, theta)).tolist()
        terms = [amp * k for amp, k in zip(psi, kron)]
        oracle.append(terms[0] + terms[1] + terms[2] + terms[3])
    ct, st = np.cos(theta), np.sin(theta)
    closed = [-st, ct, 0.0, 1.0, ct, 0.0, ct**2, -st * ct, 0.0, ct**2, st * ct**2, ct**3,
              1.0, -st * ct, ct**3, -st * (1.0 + ct**2)]
    return oracle, [value / np.sqrt(1.0 + ct**2) for value in closed]


def test_batched_hardy_amplitudes_keep_the_per_pair_bits():
    thetas = np.concatenate((np.linspace(0.0, math.pi / 2, 21), compare.CANONICAL_HARDY_THETAS,
                             np.random.default_rng(5).uniform(0.0, math.pi / 2, 200)))
    oracle, closed = zip(*(_hardy_reference(t) for t in thetas.tolist()))
    assert _bits(qmref.hardy_amplitudes(thetas)) == _bits(oracle)
    assert _bits(qmref.hardy_closed_forms(thetas)) == _bits(closed)
    pair = qmref.HARDY_PAIRS.index(("a'-", "b'+"))
    assert qmref.hardy_amplitude(thetas[3], "a'-", "b'+") == oracle[3][pair]
    assert qmref.hardy_amplitude_closed_form(thetas[3], "a'-", "b'+") == closed[3][pair]
