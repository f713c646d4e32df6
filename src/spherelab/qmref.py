"""Brute-force quantum-mechanical oracle.

Everything here is computed the dumb, explicit way: state vectors as
2^n complex amplitude arrays (site 1 = most significant bit, bit 0 is
spin up), and expectations of sigma . n_1 (x) ... (x) sigma . n_k as a
full contraction of the (2,)*k state tensor, its conjugate, and one
2x2 spin matrix per site, batched over a stack of direction tuples in a
single einsum.  No closed form is trusted; the closed-form expressions
live in *_closed_form companions so the two routes can be compared, and
SpinObservable.matrix() keeps the Kronecker-product route as the
reference the contraction is tested against.

The spin matrix uses polar/azimuthal angles via
n = (sin t cos p, sin t sin p, cos t), which gives

    sigma . n = [[nz, nx - i ny], [nx + i ny, -nz]].

States implemented: the two-particle singlet, the one-parameter Hardy
state, and the three- and four-particle GHZ states, all written in the
z basis with the amplitudes exactly as conventionally printed (no
re-phasing: amplitude-level checks are used, not just probabilities);
general_state takes any normalized amplitude vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import coplanar_direction, dot, require_unit, require_units

NORM_TOL = 1e-12

_SQ2 = np.sqrt(2.0)

# The four single-site settings per side: plain ("a"/"b") along z, primed
# ("a'"/"b'") rotated by the Hardy angle 2*theta in the polar plane.
SITE1_SETTINGS = ("a+", "a-", "a'+", "a'-")
SITE2_SETTINGS = ("b+", "b-", "b'+", "b'-")
HARDY_PAIRS = tuple((s1, s2) for s1 in SITE1_SETTINGS for s2 in SITE2_SETTINGS)


@dataclass(frozen=True)
class StateVector:
    """Normalized state over a 2^n spin-z basis (site 1 = most significant bit)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if not 1 <= self.n_qubits <= 4:
            raise ValueError(f"n_qubits must be 1..4, got {self.n_qubits}")
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(f"expected {2**self.n_qubits} amplitudes, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class SpinObservable:
    """sigma.n_1 (x) ... (x) sigma.n_k for unit directions n_i."""

    directions: tuple

    def __post_init__(self):
        dirs = tuple(require_unit(n) for n in self.directions)
        object.__setattr__(self, "directions", dirs)

    def matrix(self) -> np.ndarray:
        m = np.array([[1.0 + 0j]])
        for n in self.directions:
            m = np.kron(m, spin_matrix(n))
        return m


def spin_matrix(n) -> np.ndarray:
    """sigma . n for a unit direction, or a (..., 3) stack of them: (..., 2, 2)."""
    n = require_units(n)
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    return np.stack((nz, nx - 1j * ny, nx + 1j * ny, -nz), axis=-1).reshape(n.shape[:-1] + (2, 2))


def singlet_state() -> StateVector:
    """(|+-> - |-+>)/sqrt(2); rotationally invariant."""
    return StateVector(2, np.array([0.0, 1.0, -1.0, 0.0]) / _SQ2)


def check_hardy_theta(theta: float) -> None:
    """ValueError unless theta is finite and in [0, pi/2], the Hardy domain."""
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if not 0.0 <= theta <= np.pi / 2 + 1e-12:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")


def hardy_state(theta: float) -> StateVector:
    """One-parameter family with amplitudes
    (cos t (|+-> + |-+>) - sin t |++>) / sqrt(1 + cos^2 t);
    maximally entangled at t = 0, product state -|++> at t = pi/2.
    """
    check_hardy_theta(theta)
    ct, st = np.cos(theta), np.sin(theta)
    amps = np.array([-st, ct, ct, 0.0]) / np.sqrt(1.0 + ct**2)
    return StateVector(2, amps)


def ghz4_state() -> StateVector:
    """(|++--> - |--++>)/sqrt(2)."""
    amps = np.zeros(16)
    amps[0b0011] = 1.0 / _SQ2
    amps[0b1100] = -1.0 / _SQ2
    return StateVector(4, amps)


def ghz3_amplitudes(alpha, delta) -> np.ndarray:
    """The ghz3_state amplitudes for alpha and delta of one broadcast shape:
    an (..., 8) array, one state per (alpha, delta) pair."""
    alpha, delta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(delta, float))
    amps = np.zeros(alpha.shape + (8,), dtype=complex)
    amps[..., 0b000] = np.cos(alpha / 2)
    amps[..., 0b111] = np.sin(alpha / 2) * np.exp(-1j * delta)
    return amps


def ghz3_state(alpha: float, delta: float) -> StateVector:
    """cos(a/2)|+++> + sin(a/2) e^{-i d} |--->."""
    return StateVector(3, ghz3_amplitudes(alpha, delta))


def general_state(amplitudes) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex)
    n = int(np.log2(amps.size))
    if 2**n != amps.size:
        raise ValueError(f"amplitude count {amps.size} is not a power of two")
    return StateVector(n, amps)


def _contraction(k: int, batch: str = "") -> str:
    """einsum subscripts for <psi| M_1 (x) ... (x) M_k |psi> over a batch z:
    conj(psi)[rows], one (z, row, col) matrix per site, psi[cols] -> z. With
    batch="z" psi carries the batch axis too, one state per row."""
    rows, cols = "abcd"[:k], "efgh"[:k]
    return ",".join([batch + rows, *(f"z{r}{c}" for r, c in zip(rows, cols)), batch + cols]) + "->z"


def expectations(state, directions) -> np.ndarray:
    """<psi| sigma.n_1 (x) ... (x) sigma.n_k |psi> for each row of an (N, k, 3)
    stack of unit directions, by one explicit contraction of the state
    tensor; returns the N real values, each in [-1, 1].

    state is a StateVector, or an (N, 2^k) stack of normalized amplitude
    vectors with one state per direction tuple (ghz3_amplitudes gives one).
    """
    amps = state.amplitudes if isinstance(state, StateVector) else np.asarray(state, complex)
    k = amps.shape[-1].bit_length() - 1
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 3 or dirs.shape[1:] != (k, 3) or amps.shape[:-1] not in ((), dirs.shape[:1]):
        raise ValueError(f"expected an (N, {k}, 3) direction stack for {amps.shape} "
                         f"amplitudes, got shape {dirs.shape}")
    m = spin_matrix(dirs)
    psi = amps.reshape(amps.shape[:-1] + (2,) * k)
    vals = np.einsum(_contraction(k, "z" * (amps.ndim - 1)), psi.conj(),
                     *(m[:, i] for i in range(k)), psi)
    if np.any(np.abs(vals.imag) > 1e-12):
        worst = float(vals.imag[np.argmax(np.abs(vals.imag))])
        raise AssertionError(f"expectation has imaginary residue {worst!r}")
    return vals.real


def tensor_expectation(state: StateVector, obs: SpinObservable) -> float:
    """<psi| sigma.n_1 (x) ... |psi> for one observable; real, in [-1, 1]."""
    return float(expectations(state, [obs.directions])[0])


def pair_expectation(state: StateVector, a, b) -> float:
    return float(expectations(state, [[a, b]])[0])


def _site_vector(setting: str, theta: float) -> np.ndarray:
    """Single-site eigenvector in the z basis for a plain or primed setting.

    Plain settings are the z eigenstates; primed ones are rotated by
    |',+> = cos t |+> + sin t |->  and  |',-> = -sin t |+> + cos t |->.
    """
    primed = "'" in setting
    sign = setting[-1]
    ct, st = np.cos(theta), np.sin(theta)
    if not primed:
        return np.array([1.0, 0.0]) if sign == "+" else np.array([0.0, 1.0])
    return np.array([ct, st]) if sign == "+" else np.array([-st, ct])


def hardy_amplitudes(thetas) -> np.ndarray:
    """<psi_hardy(theta) | site1 (x) site2> for every HARDY_PAIRS pair at each
    theta, via explicit basis rotation: a (T, 16) array, each entry the four
    products of the state with a two-site product vector added in basis
    order. The Hardy amplitudes are real, so <psi| is their real part."""
    thetas = np.asarray(thetas, dtype=float).tolist()
    psi = np.array([hardy_state(t).amplitudes for t in thetas])
    # Both sides' settings are (+, -, '+, '-), so they share their vectors.
    sites = np.array([[_site_vector(s, t) for s in SITE1_SETTINGS] for t in thetas])
    products = (sites[:, :, None, :, None] * sites[:, None, :, None, :]).reshape(-1, 16, 4)
    return dot(psi.real[:, None, :], products)


def hardy_amplitude(theta: float, site1: str, site2: str) -> float:
    """<psi_hardy(theta) | site1 (x) site2>, one entry of hardy_amplitudes."""
    return float(hardy_amplitudes([theta])[0, HARDY_PAIRS.index((site1, site2))])


def hardy_closed_forms(thetas) -> np.ndarray:
    """The printed closed form of each HARDY_PAIRS amplitude at each theta: a
    (T, 16) array.

    All share the normalization 1/sqrt(1 + cos^2 t).  Kept separate from
    hardy_amplitudes so the two routes stay independently checkable.  Each
    theta is worked in numpy scalars: a vectorized power can differ from
    libm's pow in the last bit.
    """
    rows = []
    for theta in np.asarray(thetas, dtype=float):
        ct, st = np.cos(theta), np.sin(theta)
        c2, c3 = ct**2, ct**3
        rows.append([-st, ct, 0.0, 1.0,  # a+ with b+, b-, b'+, b'-
                     ct, 0.0, c2, -st * ct,  # a-
                     0.0, c2, st * c2, c3,  # a'+
                     1.0, -st * ct, c3, -st * (1.0 + c2)]  # a'-
                    / np.sqrt(1.0 + c2))
    return np.array(rows).reshape(-1, 16)


def hardy_amplitude_closed_form(theta: float, site1: str, site2: str) -> float:
    """The printed closed form of one setting pair, one entry of hardy_closed_forms."""
    return float(hardy_closed_forms([theta])[0, HARDY_PAIRS.index((site1, site2))])


# (a, b), (a, b'), (a', b), (a', b') as indices into an (a, a', b, b') quadruple.
_CHSH_PAIRS = np.array([[0, 2], [0, 3], [1, 2], [1, 3]])


def chsh_values(state: StateVector, quadruples) -> np.ndarray:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') for each row of an (N, 4, 3)
    stack of (a, a', b, b'), from one kernel call over all 4N pairs."""
    if state.n_qubits != 2:
        raise ValueError("CHSH needs a 2-qubit state")
    quads = np.asarray(quadruples, dtype=float)
    if quads.ndim != 3 or quads.shape[1] != 4:
        raise ValueError(f"expected an (N, 4, 3) quadruple stack, got shape {quads.shape}")
    e = expectations(state, quads[:, _CHSH_PAIRS].reshape(-1, 2, quads.shape[2]))
    e = e.reshape(-1, 4)
    return e[:, 0] + e[:, 1] + e[:, 2] - e[:, 3]


def chsh_qm(state: StateVector, a, ap, b, bp) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    return float(chsh_values(state, [[a, ap, b, bp]])[0])


# Coordinate sweeps of maximize_chsh stop once no start gains more than
# _CHSH_TOL in a sweep; the sweep cap is only a backstop.
_CHSH_TOL = 1e-15
_CHSH_MAX_SWEEPS = 200
# The three offsets along one angle that fix its sinusoid.
_CHSH_PHIS = np.array([0.0, np.pi / 2, np.pi])


def maximize_chsh(state: StateVector, starts: int = 12, seed: int = 0):
    """Numerical supremum of |CHSH| over coplanar angle quadruples.

    Multi-start coordinate ascent on sgn * CHSH for both signs (the two
    structured starts plus `starts` random quadruples per sign).  Each
    angle enters the string only through sigma.n(t), which is linear in
    (cos t, sin t), so along one angle sgn * CHSH(t + phi e_i) is exactly
    C + A cos phi + B sin phi: the oracle values at phi = 0, pi/2 and pi fix
    A, B and C, and phi = atan2(B, A) is the exact maximizer along that
    angle.  One chsh_values call per angle serves every start of both
    signs.  Returns (value, angles) with value = sup |CHSH|, evaluated by
    the oracle at the arg-max quadruple, and angles that quadruple
    (radians in [0, 2 pi), x-z plane).
    """
    if state.n_qubits != 2:
        raise ValueError("CHSH needs a 2-qubit state")
    rng = np.random.default_rng(seed)
    structured = np.array([[0.0, np.pi / 2, np.pi / 4, -np.pi / 4],
                           [0.0, np.pi / 2, 5 * np.pi / 4, 3 * np.pi / 4]])
    draws = rng.uniform(0, 2 * np.pi, (2, starts, 4))
    t = np.concatenate([structured, draws[0], structured, draws[1]])
    sgn = np.repeat([1.0, -1.0], len(t) // 2)

    value = np.full(len(t), -np.inf)
    for _ in range(_CHSH_MAX_SWEEPS):
        before = value
        for i in range(4):
            trial = np.repeat(t[:, None], 3, axis=1)
            trial[:, :, i] += _CHSH_PHIS
            f = chsh_values(state, coplanar_direction(trial).reshape(-1, 4, 3))
            f = sgn[:, None] * f.reshape(-1, 3)
            a, c = (f[:, 0] - f[:, 2]) / 2, (f[:, 0] + f[:, 2]) / 2
            b = f[:, 1] - c
            t[:, i] += np.arctan2(b, a)
            value = c + np.hypot(a, b)
        if np.max(value - before) <= _CHSH_TOL:
            break
    final = sgn * chsh_values(state, coplanar_direction(t))
    best = int(np.argmax(final))
    return float(final[best]), np.mod(t[best], 2 * np.pi)


def ghz4_expectation_closed_form(theta, phi) -> float:
    """cos t1 cos t2 cos t3 cos t4 - sin t1 sin t2 sin t3 sin t4 cos(p1 + p2 - p3 - p4)."""
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    return float(
        np.prod(np.cos(theta))
        - np.prod(np.sin(theta)) * np.cos(phi[0] + phi[1] - phi[2] - phi[3])
    )


def ghz3_expectation_closed_form(theta, phi, alpha: float, delta: float) -> float:
    """cos a cos t1 cos t2 cos t3 + sin a sin t1 sin t2 sin t3 cos(p1 + p2 + p3 + d)."""
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    return float(
        np.cos(alpha) * np.prod(np.cos(theta))
        + np.sin(alpha) * np.prod(np.sin(theta)) * np.cos(np.sum(phi) + delta)
    )
