"""Small shared helpers for directions and angles in R^3 / R^7."""

from __future__ import annotations

import numpy as np

UNIT_TOL = 1e-9


def require_units(v, dim: int = 3, name: str = "direction", tol: float = UNIT_TOL) -> np.ndarray:
    """Validate a (..., dim) stack of unit vectors, each to within `tol` of norm 1,
    and return it as a float array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != dim:
        raise ValueError(f"{name} must have shape (..., {dim}), got {arr.shape}")
    norms = np.sqrt((arr * arr).sum(axis=-1))
    # A non-finite component makes its norm NaN or inf, so one comparison
    # catches both faults; the slower finiteness test only picks the message.
    unit = abs(norms - 1.0) <= tol
    if not unit.all():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite components")
        worst = float(np.extract(~unit, norms)[0])
        raise ValueError(f"{name} must be unit length (|v| = {worst!r})")
    return arr


def dot(x, y) -> np.ndarray:
    """x . y over the last axis, summed in component order by plain multiplies
    and adds; the leading (broadcast) shape. No BLAS call, so the bits depend
    neither on the CPU's BLAS kernel nor on the stack's length or layout."""
    x, y = np.asarray(x), np.asarray(y)
    total = x[..., 0] * y[..., 0]
    for i in range(1, x.shape[-1]):
        total = total + x[..., i] * y[..., i]
    return total


def require_unit(v, dim: int = 3, name: str = "direction", tol: float = UNIT_TOL) -> np.ndarray:
    """Validate one unit vector of shape (dim,) to within `tol` of norm 1 and
    return it as float array."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {arr.shape}")
    return require_units(arr, dim, name, tol)


def require_orientation(orientation: int) -> int:
    """The hidden orientation sign: exactly +1 or -1."""
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation!r}")
    return int(orientation)


def spherical_direction(theta: float, phi: float) -> np.ndarray:
    """Unit vector from polar angle theta and azimuth phi."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def coplanar_direction(t) -> np.ndarray:
    """Unit vector at angle t from z in the x-z plane; the plane used for CHSH sweeps.

    An array of angles gives the stack of directions, shape t.shape + (3,).
    """
    t = np.asarray(t, dtype=float)
    return np.stack((np.sin(t), np.zeros_like(t), np.cos(t)), axis=-1)


def random_unit_vectors(rng: np.random.Generator, count: int, dim: int = 3) -> np.ndarray:
    """(count, dim) array of isotropically random unit vectors."""
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def to_radians(value, unit: str):
    if unit == "rad":
        return np.asarray(value, dtype=float)
    if unit == "deg":
        return np.deg2rad(np.asarray(value, dtype=float))
    raise ValueError(f"unit must be 'deg' or 'rad', got {unit!r}")
