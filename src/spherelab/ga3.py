"""Clifford algebra Cl(3,0) kernel.

Multivectors carry 8 components over the fixed basis

    (1;  e1, e2, e3;  e2e3, e3e1, e1e2;  e1e2e3)

with metric (+,+,+), so the volume element I = e1e2e3 is central and
I**2 = -1.  The geometric product of two pure bivectors with axis
components p and q is

    B(p) B(q) = -(p . q) - B(p x q),

which makes unit bivectors square to -1 and closes unit even-grade
elements (scalar + bivector, the points of a 3-sphere) under
multiplication.  These two facts are the entire algebraic substrate of
the correlation models built on top of this module.

Measurement-outcome bivectors ("beables") about a spatial direction n
carry an orientation sign: the element with axis components
orientation * n.  All values here are immutable and all operations are
pure functions.

_gp_components is the batched kernel, on (..., 8) component stacks;
Multivector3 with geometric_product and product_chain is its one-element
wrapper, and beable_product_point gives a pair's product point for stacks
of directions.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .geometry import require_orientation, require_unit, require_units

COMPONENT_LABELS = ("1", "e1", "e2", "e3", "e23", "e31", "e12", "e123")


def _gp_components(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product on raw (..., 8) component arrays.

    Derived once from the basis relations; the test suite re-derives the
    full 8x8x8 structure-constant table independently from bit-mask blade
    arithmetic and checks this closed form against it.
    """
    a0, av, ab, a7 = a[..., 0], a[..., 1:4], a[..., 4:7], a[..., 7]
    b0, bv, bb, b7 = b[..., 0], b[..., 1:4], b[..., 4:7], b[..., 7]

    dot = lambda x, y: np.einsum("...i,...i->...", x, y)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=float)
    out[..., 0] = a0 * b0 + dot(av, bv) - dot(ab, bb) - a7 * b7
    out[..., 1:4] = (
        a0[..., None] * bv
        + b0[..., None] * av
        - np.cross(av, bb)
        - np.cross(ab, bv)
        - b7[..., None] * ab
        - a7[..., None] * bb
    )
    out[..., 4:7] = (
        a0[..., None] * bb
        + b0[..., None] * ab
        + np.cross(av, bv)
        - np.cross(ab, bb)
        + b7[..., None] * av
        + a7[..., None] * bv
    )
    out[..., 7] = a0 * b7 + a7 * b0 + dot(av, bb) + dot(ab, bv)
    return out


class Multivector3:
    """Immutable element of Cl(3,0) stored as its 8 components."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        c = np.array(comps, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"expected 8 components, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("multivector components must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "comps", c)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector3 is immutable")

    @classmethod
    def from_parts(cls, s=0.0, v=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0), t=0.0) -> "Multivector3":
        return cls(np.concatenate(([s], np.asarray(v, float), np.asarray(b, float), [t])))

    @classmethod
    def bivector(cls, b) -> "Multivector3":
        """Pure bivector with axis components b along (e2e3, e3e1, e1e2)."""
        return cls.from_parts(b=b)

    @property
    def s(self) -> float:
        return float(self.comps[0])

    @property
    def b(self) -> np.ndarray:
        return self.comps[4:7]

    def __repr__(self) -> str:
        terms = [f"{c:+.6g}*{l}" for c, l in zip(self.comps, COMPONENT_LABELS) if c != 0.0]
        return "Multivector3(" + (" ".join(terms) if terms else "0") + ")"


def geometric_product(x: Multivector3, y: Multivector3) -> Multivector3:
    """Full Cl(3,0) product; bilinear and associative."""
    return Multivector3(_gp_components(x.comps, y.comps))


def bivector_beable(n, orientation: int) -> Multivector3:
    """Unit bivector about direction n with the given orientation sign.

    Axis components are orientation * n, so the square is the scalar -1
    for either orientation.
    """
    n = require_unit(n)
    orientation = require_orientation(orientation)
    return Multivector3.bivector(orientation * n)


def tilted_point(chi: float, n, orientation: int, sign: int = 1) -> Multivector3:
    """Point of the 3-sphere at latitude chi about the beable axis n.

    cos(chi) plus sign * sin(chi) times the beable bivector; unit norm for
    any chi since cos^2 + sin^2 = 1.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    beable = bivector_beable(n, orientation)
    return Multivector3.from_parts(s=np.cos(chi), b=sign * np.sin(chi) * beable.b)


def product_chain(points: Sequence[Multivector3] | Iterable[Multivector3]) -> Multivector3:
    """Left-to-right geometric product of a nonempty sequence.

    For unit even-grade (or pure-bivector) inputs the result stays on the
    unit 3-sphere.
    """
    points = list(points)
    if not points:
        raise ValueError("product_chain requires at least one element")
    return reduce(geometric_product, points)


def beable_product_point(u, v, orientation: int) -> tuple[float | np.ndarray, np.ndarray]:
    """Product of the two beables about u and v, as (scalar, bivector axis).

    The scalar part -(u . v) is orientation-independent.  The oriented part
    is reported in the handed convention used throughout the correlation
    models: the raw right-handed bivector axis -(u x v) multiplied by the
    orientation sign, which is what a left-handed basis assigns to the same
    product.  For orientation +1 this is exactly the raw geometric product
    of the two beables; for orientation -1 it is the raw product taken in
    the opposite order (the mirrored algebra).

    u and v may be (..., 3) stacks of directions; they broadcast, and the
    scalar part is then an array of the leading shape instead of a float.
    """
    u = require_units(u)
    v = require_units(v)
    orientation = require_orientation(orientation)
    scalar = -(u * v).sum(-1)
    return (float(scalar) if scalar.ndim == 0 else scalar), -orientation * np.cross(u, v)
