"""Brute-force oracle checks: state construction, tensor expectations vs
closed forms, the sixteen amplitude predictions, CHSH maximization."""

import numpy as np
import pytest

from spherelab import qmref
from spherelab.geometry import coplanar_direction, random_unit_vectors, spherical_direction

RNG = np.random.default_rng(303)

SQ2 = np.sqrt(2.0)


def test_singlet_amplitudes():
    state = qmref.singlet_state()
    assert np.allclose(state.amplitudes, [0.0, 1 / SQ2, -1 / SQ2, 0.0], atol=0.0)


def test_hardy_state_limits():
    # theta = pi/2 is the product state -|++>.
    amps = qmref.hardy_state(np.pi / 2).amplitudes
    assert np.allclose(amps, [-1.0, 0.0, 0.0, 0.0], atol=1e-15)
    # theta = 0 is the maximally entangled (|+-> + |-+>)/sqrt(2).
    amps = qmref.hardy_state(0.0).amplitudes
    assert np.allclose(amps, [0.0, 1 / SQ2, 1 / SQ2, 0.0], atol=0.0)
    with pytest.raises(ValueError):
        qmref.hardy_state(2.0)


def test_ghz_state_amplitudes():
    assert np.allclose(qmref.ghz3_state(0.0, 1.3).amplitudes, np.eye(8)[0], atol=0.0)
    amps = qmref.ghz3_state(np.pi / 3, 0.25).amplitudes
    assert amps[0] == pytest.approx(np.cos(np.pi / 6))
    assert amps[7] == pytest.approx(np.sin(np.pi / 6) * np.exp(-0.25j))
    amps4 = qmref.ghz4_state().amplitudes
    assert amps4[0b0011] == pytest.approx(1 / SQ2) and amps4[0b1100] == pytest.approx(-1 / SQ2)


def test_state_validation():
    with pytest.raises(ValueError):
        qmref.StateVector(2, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        qmref.general_state([1.0, 0.0, 0.0])


def test_spin_matrix_is_hermitian_involution():
    for n in random_unit_vectors(RNG, 50):
        m = qmref.spin_matrix(n)
        assert np.allclose(m, m.conj().T, atol=0.0)
        assert np.allclose(m @ m, np.eye(2), atol=1e-15)


def test_singlet_perfect_anticorrelation():
    state = qmref.singlet_state()
    for n in random_unit_vectors(RNG, 100):
        assert qmref.pair_expectation(state, n, n) == pytest.approx(-1.0, abs=1e-12)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    assert qmref.pair_expectation(state, a, b) == pytest.approx(0.0, abs=1e-12)


def test_singlet_is_minus_dot_product():
    state = qmref.singlet_state()
    for _ in range(300):
        a, b = random_unit_vectors(RNG, 2)
        assert qmref.pair_expectation(state, a, b) == pytest.approx(-np.dot(a, b), abs=1e-12)


def test_singlet_rotational_invariance():
    state = qmref.singlet_state()
    a, b = random_unit_vectors(RNG, 2)
    base = qmref.pair_expectation(state, a, b)
    rng = np.random.default_rng(7)
    axes, angles = random_unit_vectors(rng, 1000), rng.uniform(0, 2 * np.pi, 1000)
    pairs = np.stack([_rodrigues(a, axes, angles), _rodrigues(b, axes, angles)], axis=1)
    assert np.max(np.abs(qmref.expectations(state, pairs) - base)) < 1e-12


def _rodrigues(v, axes, angles):
    """v rotated about each unit axis by the matching angle (Rodrigues' formula)."""
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    return v * c + np.cross(axes, v) * s + axes * (axes @ v)[:, None] * (1 - c)


def test_expectation_validation():
    with pytest.raises(ValueError):
        qmref.tensor_expectation(qmref.singlet_state(), qmref.SpinObservable((np.array([0.0, 0.0, 1.0]),)))


def test_ghz4_oracle_equals_closed_form():
    state = qmref.ghz4_state()
    z = np.array([0.0, 0.0, 1.0])
    assert qmref.tensor_expectation(state, qmref.SpinObservable((z, z, z, z))) == pytest.approx(1.0, abs=1e-12)
    for _ in range(500):
        theta = RNG.uniform(0, np.pi, 4)
        phi = RNG.uniform(0, 2 * np.pi, 4)
        dirs = tuple(spherical_direction(t, p) for t, p in zip(theta, phi))
        brute = qmref.tensor_expectation(state, qmref.SpinObservable(dirs))
        assert brute == pytest.approx(qmref.ghz4_expectation_closed_form(theta, phi), abs=1e-12)


def test_ghz3_oracle_equals_closed_form():
    for _ in range(500):
        alpha, delta = RNG.uniform(0, np.pi), RNG.uniform(0, 2 * np.pi)
        theta = RNG.uniform(0, np.pi, 3)
        phi = RNG.uniform(0, 2 * np.pi, 3)
        dirs = tuple(spherical_direction(t, p) for t, p in zip(theta, phi))
        brute = qmref.tensor_expectation(qmref.ghz3_state(alpha, delta), qmref.SpinObservable(dirs))
        assert brute == pytest.approx(
            qmref.ghz3_expectation_closed_form(theta, phi, alpha, delta), abs=1e-12
        )


def test_hardy_amplitudes_match_closed_forms_on_grid():
    for theta in np.linspace(0.0, np.pi / 2, 21):
        for s1, s2 in qmref.HARDY_PAIRS:
            brute = qmref.hardy_amplitude(theta, s1, s2)
            closed = qmref.hardy_amplitude_closed_form(theta, s1, s2)
            assert brute == pytest.approx(closed, abs=1e-12), (theta, s1, s2)


def test_hardy_vanishing_and_forced_amplitudes():
    for theta in np.linspace(0.0, np.pi / 2, 21):
        assert qmref.hardy_amplitude(theta, "a'+", "b+") == pytest.approx(0.0, abs=1e-12)
        assert qmref.hardy_amplitude(theta, "a+", "b'+") == pytest.approx(0.0, abs=1e-12)
        assert qmref.hardy_amplitude(theta, "a-", "b-") == pytest.approx(0.0, abs=1e-12)
    # The forced joint amplitude at theta = pi/4: sin t cos^2 t / sqrt(1 + cos^2 t).
    val = qmref.hardy_amplitude(np.pi / 4, "a'+", "b'+")
    assert val == pytest.approx(0.2886751345948129, abs=1e-12)
    assert val == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)), abs=1e-15)
    assert qmref.hardy_amplitude(0.0, "a'+", "b'+") == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        qmref.hardy_amplitude(0.3, "c+", "b+")


def test_chsh_qm_values():
    state = qmref.singlet_state()
    quad = [np.deg2rad(t) for t in (0.0, 90.0, 225.0, 135.0)]
    dirs = [coplanar_direction(t) for t in quad]
    # Direct cosine evaluation of this quadruple gives +2 sqrt(2).
    assert qmref.chsh_qm(state, *dirs) == pytest.approx(2 * SQ2, abs=1e-12)
    quad_neg = [np.deg2rad(t) for t in (0.0, 90.0, 45.0, -45.0)]
    dirs_neg = [coplanar_direction(t) for t in quad_neg]
    assert qmref.chsh_qm(state, *dirs_neg) == pytest.approx(-2 * SQ2, abs=1e-12)
    # Collapsed string: a = a', b = b'.
    a, b = random_unit_vectors(RNG, 2)
    collapsed = qmref.chsh_qm(state, a, a, b, b)
    assert collapsed == pytest.approx(2.0 * qmref.pair_expectation(state, a, b), abs=1e-12)
    assert -2.0 - 1e-12 <= collapsed <= 2.0 + 1e-12


def test_chsh_product_state_classical_bound():
    product = qmref.general_state([1.0, 0.0, 0.0, 0.0])
    quads = coplanar_direction(RNG.uniform(0, 2 * np.pi, (10_000, 4)))
    assert np.max(np.abs(qmref.chsh_values(product, quads))) <= 2.0 + 1e-9


def test_maximize_chsh():
    value, angles = qmref.maximize_chsh(qmref.singlet_state(), seed=5)
    assert value == pytest.approx(2 * SQ2, abs=1e-6)
    dirs = [coplanar_direction(t) for t in angles]
    assert abs(qmref.chsh_qm(qmref.singlet_state(), *dirs)) == pytest.approx(value, abs=1e-9)
    # Product state stays below the classical bound.
    value_prod, _ = qmref.maximize_chsh(qmref.general_state([1.0, 0.0, 0.0, 0.0]), seed=5)
    assert value_prod <= 2.0 + 1e-6
    # theta = 0 member of the family is maximally entangled again.
    value_h0, _ = qmref.maximize_chsh(qmref.hardy_state(0.0), seed=5)
    assert value_h0 == pytest.approx(2 * SQ2, abs=1e-6)


def _random_two_qubit_states(rng, count):
    amps = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
    return [qmref.general_state(z / np.linalg.norm(z)) for z in amps]


def test_chsh_is_a_sinusoid_along_each_angle():
    # The property maximize_chsh relies on: along one angle the string is
    # C + A cos(phi) + B sin(phi), fixed by its values at 0, pi/2 and pi.
    rng = np.random.default_rng(31)
    for state in _random_two_qubit_states(rng, 20):
        t = rng.uniform(0, 2 * np.pi, 4)
        for i in range(4):
            phis = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0, 2 * np.pi, 5)])
            trial = np.tile(t, (len(phis), 1))
            trial[:, i] += phis
            f = qmref.chsh_values(state, coplanar_direction(trial))
            a, c = (f[0] - f[2]) / 2, (f[0] + f[2]) / 2
            b = f[1] - c
            fit = c + a * np.cos(phis[3:]) + b * np.sin(phis[3:])
            assert np.max(np.abs(fit - f[3:])) <= 1e-14


@pytest.mark.parametrize("seed", range(50))
def test_maximize_chsh_reaches_tsirelson(seed):
    value, angles = qmref.maximize_chsh(qmref.singlet_state(), seed=seed)
    assert abs(value - 2 * SQ2) <= 1e-12
    assert angles.shape == (4,) and np.all((0 <= angles) & (angles < 2 * np.pi))


def _nelder_mead_maximum(state, starts, seed):
    """sup |CHSH| by scalar Nelder-Mead runs from maximize_chsh's starts."""
    from scipy import optimize

    rng = np.random.default_rng(seed)
    structured = [[0.0, np.pi / 2, np.pi / 4, -np.pi / 4],
                  [0.0, np.pi / 2, 5 * np.pi / 4, 3 * np.pi / 4]]
    best = 0.0
    for sgn, draws in zip((1.0, -1.0), rng.uniform(0, 2 * np.pi, (2, starts, 4))):
        for t0 in [*structured, *draws]:
            res = optimize.minimize(
                lambda t: -sgn * qmref.chsh_values(state, coplanar_direction(t)[None])[0],
                t0, method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
            best = max(best, -res.fun)
    return best


def test_maximize_chsh_matches_nelder_mead():
    pytest.importorskip("scipy.optimize")
    states = [qmref.general_state([1.0, 0.0, 0.0, 0.0])]
    states += [qmref.hardy_state(t) for t in (0.0, 0.5, 1.2)]
    states += _random_two_qubit_states(np.random.default_rng(37), 10)
    for state in states:
        value, _ = qmref.maximize_chsh(state, starts=1, seed=5)
        assert abs(value - _nelder_mead_maximum(state, starts=1, seed=5)) <= 1e-12


def test_expectation_stays_in_physical_range():
    for _ in range(200):
        amps = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
        state = qmref.general_state(amps / np.linalg.norm(amps))
        obs = qmref.SpinObservable(tuple(random_unit_vectors(RNG, 3)))
        val = qmref.tensor_expectation(state, obs)
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_batched_kernel_matches_kronecker_reference():
    rng = np.random.default_rng(4242)
    for k in range(1, 5):
        amps = rng.standard_normal(2**k) + 1j * rng.standard_normal(2**k)
        state = qmref.general_state(amps / np.linalg.norm(amps))
        dirs = random_unit_vectors(rng, 2000 * k).reshape(2000, k, 3)
        batched = qmref.expectations(state, dirs)
        psi = state.amplitudes
        reference = np.array(
            [np.vdot(psi, qmref.SpinObservable(tuple(d)).matrix() @ psi).real for d in dirs]
        )
        assert batched.shape == (2000,)
        assert np.max(np.abs(batched - reference)) <= 1e-14, k
        assert qmref.expectations(state, np.zeros((0, k, 3))).shape == (0,)
        bad = dirs[:5].copy()
        bad[3, k - 1] *= 1.01
        with pytest.raises(ValueError):
            qmref.expectations(state, bad)
        bad[3, k - 1] = [np.nan, 0.0, 1.0]
        with pytest.raises(ValueError):
            qmref.expectations(state, bad)
        with pytest.raises(ValueError):
            qmref.expectations(state, random_unit_vectors(rng, 5 * (k + 1)).reshape(5, k + 1, 3))
        with pytest.raises(ValueError):
            qmref.expectations(state, dirs[:, :, :2])


def test_chsh_values_batch_matches_scalar_route():
    state = qmref.hardy_state(0.4)
    quads = random_unit_vectors(RNG, 200).reshape(50, 4, 3)
    batched = qmref.chsh_values(state, quads)
    scalar = [
        qmref.pair_expectation(state, a, b) + qmref.pair_expectation(state, a, bp)
        + qmref.pair_expectation(state, ap, b) - qmref.pair_expectation(state, ap, bp)
        for a, ap, b, bp in quads
    ]
    assert np.max(np.abs(batched - scalar)) <= 1e-15
    with pytest.raises(ValueError):
        qmref.chsh_values(qmref.ghz4_state(), quads)
    with pytest.raises(ValueError):
        qmref.chsh_values(state, quads[:, :3])
