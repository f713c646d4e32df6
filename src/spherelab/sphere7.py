"""R^7 / 7-sphere algebra kernel.

A bilinear antisymmetric cross product exists on R^7 (and only on R^3 and
R^7); unlike the 3D one it is not unique and not Jacobi.  It is fixed here
by a table of signed Fano triples (i, j, k) meaning e_i x e_j = e_k, with
total antisymmetry and every unordered pair {i, j} covered exactly once.
Any such octonion-derived table satisfies

    |x x y|^2 = |x|^2 |y|^2 - (x . y)^2          (norm identity)
    (x x y) . z = x . (y x z)                    (mixed product)
    x x (x x y) = (x . y) x - |x|^2 y

but generally fails the Jacobi identity.  Points of the unit 7-sphere are
scalar + 7-vector pairs multiplied by

    (a, X)(b, Y) = (ab - X.Y,  aY + bX - X x Y),

which preserves the unit norm because of the norm identity.

The triple-product deviation vector

    Z(x, y, z) = x x (y x z) - y (x . z) + z (x . y)

measures the failure of the 3D BAC-CAB rule; it vanishes on associative
(quaternionic) triples and makes the generalized Lagrange identity

    (N1 x N2).(N3 x N4) = (N1.N3)(N2.N4) - (N1.N4)(N2.N3) + N1 . Z(N2,N3,N4)

exact for every table with the mixed-product property.

The module also provides the fixed sign/slot embeddings of R^3 measurement
directions into R^7 used by the three- and four-particle correlation
models.  The cross-product table is injectable everywhere so downstream
results can be recomputed under alternative tables.

Every kernel broadcasts over leading axes: vectors are (..., 7) arrays,
points of the 7-sphere are (..., 8) component arrays (scalar first), and
R^3 directions are (..., 3) arrays, so a sweep is one call on a stack.
The scalar APIs (SevenPoint, oct_product, one vector per argument) are
thin wrappers over the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import dot, require_units

# Cyclic convention (i, i+1, i+3) mod 7: e1 x e2 = e4, etc.
DEFAULT_TRIPLES = (
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (4, 5, 7),
    (5, 6, 1),
    (6, 7, 2),
    (7, 1, 3),
)


@dataclass(frozen=True)
class CrossTable:
    """The cross product e_i x e_j = sum_k f_ijk e_k of a structure-constant
    table f, held as each output slot's three index pairs.

    Built from 7 signed triples (1-based indices; a negative third entry k
    means e_i x e_j = -e_|k|).  Total antisymmetry is imposed on each
    triple; construction checks that every unordered index pair is covered
    exactly once, which makes |e_i x e_j| = 1 for all basis pairs i != j.
    The full norm identity on generic vectors is a property of the triple
    system itself and is exercised by the identity suite, not assumed here.
    """

    table_id: str
    triples: tuple[tuple[int, int, int], ...]
    _ii: np.ndarray = field(init=False, repr=False, compare=False)
    _jj: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen_pairs = set()
        slots = [[] for _ in range(7)]
        for i, j, k in self.triples:
            i0, j0, k0 = i - 1, j - 1, abs(k) - 1
            if len({i0, j0, k0}) != 3 or not all(0 <= m < 7 for m in (i0, j0, k0)):
                raise ValueError(f"bad triple {(i, j, k)!r}")
            for a, b, c in ((i0, j0, k0), (j0, k0, i0), (k0, i0, j0)):
                pair = frozenset((a, b))
                if pair in seen_pairs:
                    raise ValueError(f"index pair {sorted(p + 1 for p in pair)} covered twice")
                seen_pairs.add(pair)
                # Slot c gains sign * (x_a y_b - x_b y_a); a minus sign swaps a and b.
                slots[c].append((a, b) if k > 0 else (b, a))
        if len(seen_pairs) != 21:
            raise ValueError("triples must cover all 21 index pairs")
        # Covering every pair once puts each index in three triples, so each
        # slot has three pairs: (7, 3) tables of their first and second index.
        for name, value in (("_ii", np.array([[a for a, _ in s] for s in slots])),
                            ("_jj", np.array([[b for _, b in s] for s in slots]))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


DEFAULT_TABLE = CrossTable("cyclic-124", DEFAULT_TRIPLES)


def _relabeled(table_id: str, swap: dict[int, int]) -> CrossTable:
    relabel = lambda i: int(np.sign(i)) * swap.get(abs(i), abs(i))
    return CrossTable(table_id, tuple(tuple(relabel(x) for x in t) for t in DEFAULT_TRIPLES))


# Alternative tables for recomputing everything downstream: a basis
# relabeling (still octonionic) and the mirror table with all signs flipped
# (the opposite algebra; also satisfies the norm and mixed-product identities).
BUILTIN_TABLES = {
    "cyclic-124": DEFAULT_TABLE,
    "cyclic-124-swap12": _relabeled("cyclic-124-swap12", {1: 2, 2: 1}),
    "cyclic-124-mirror": CrossTable(
        "cyclic-124-mirror", tuple((i, j, -k) for i, j, k in DEFAULT_TRIPLES)
    ),
}


def get_table(table: CrossTable | str | None) -> CrossTable:
    if table is None:
        return DEFAULT_TABLE
    if isinstance(table, CrossTable):
        return table
    try:
        return BUILTIN_TABLES[table]
    except KeyError:
        raise ValueError(f"unknown cross table {table!r}; built-ins: {sorted(BUILTIN_TABLES)}")


def cross7(x, y, table: CrossTable | None = None) -> np.ndarray:
    """Seven-dimensional cross product under the given table (broadcasts over
    leading axes).

    Each output slot is the sum, in table order, of its three signed pair
    terms x_i y_j - x_j y_i, which makes antisymmetry and x cross x = 0
    exact in floating point, not just up to roundoff.
    """
    t = get_table(table)
    x, y = np.asarray(x, float), np.asarray(y, float)
    terms = x[..., t._ii] * y[..., t._jj] - x[..., t._jj] * y[..., t._ii]
    return terms[..., 0] + terms[..., 1] + terms[..., 2]


@dataclass(frozen=True)
class SevenPoint:
    """Scalar + 7-vector pair; unit points satisfy a^2 + |X|^2 = 1."""

    a: float
    x: np.ndarray

    def __post_init__(self):
        arr = np.array(self.x, dtype=float)
        if arr.shape != (7,):
            raise ValueError(f"vector part must have shape (7,), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "x", arr)

    def components(self) -> np.ndarray:
        """The (8,) component array (a, x1, ..., x7)."""
        return np.concatenate(([self.a], self.x))


def _oct_components(p, q, table: CrossTable | None = None) -> np.ndarray:
    """(a, X)(b, Y) = (ab - X.Y, aY + bX - X x Y) on raw (..., 8) component
    arrays, scalar first."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    a, x = p[..., :1], p[..., 1:]
    b, y = q[..., :1], q[..., 1:]
    return np.concatenate((a * b - dot(x, y)[..., None], a * y + b * x - cross7(x, y, table)),
                          axis=-1)


def oct_product(p: SevenPoint, q: SevenPoint, table: CrossTable | None = None) -> SevenPoint:
    """(a, X)(b, Y) = (ab - X.Y, aY + bX - X x Y); unit inputs give a unit output."""
    out = _oct_components(p.components(), q.components(), table)
    return SevenPoint(out[0], out[1:])


def z_deviation(n2, n3, n4, table: CrossTable | None = None) -> np.ndarray:
    """Deviation of the triple product from the 3D BAC-CAB rule.

    Zero on associative triples; always orthogonal to n2, n3, n4 and to
    n3 x n4 (consequences of the mixed-product identity).
    """
    return (
        cross7(n2, cross7(n3, n4, table), table)
        - n3 * dot(n2, n4)[..., None]
        + n4 * dot(n2, n3)[..., None]
    )


def lagrange_residual(n1, n2, n3, n4, table: CrossTable | None = None):
    """Defect of the generalized Lagrange identity; identically ~0 for any
    table with the mixed-product property.  A float for one quadruple, an
    array of the leading shape for stacks."""
    lhs = dot(cross7(n1, n2, table), cross7(n3, n4, table))
    rhs = (
        dot(n1, n3) * dot(n2, n4)
        - dot(n1, n4) * dot(n2, n3)
        + dot(n1, z_deviation(n2, n3, n4, table))
    )
    residual = lhs - rhs
    return float(residual) if np.ndim(residual) == 0 else residual


def jacobiator(x, y, z, table: CrossTable | None = None) -> np.ndarray:
    """x x (y x z) + y x (z x x) + z x (x x y); nonzero in 7D in general."""
    return (
        cross7(x, cross7(y, z, table), table)
        + cross7(y, cross7(z, x, table), table)
        + cross7(z, cross7(x, y, table), table)
    )


# Per embedded direction: the signs of its (x, y, z) components and the
# 1-based slot of its z component; x and y always go to slots 1 and 2.
_GHZ4_SLOTS = (((-1, 1, -1), 3), ((1, 1, 1), 4), ((1, 1, 1), 5), ((1, -1, -1), 6))
_GHZ3_SLOTS = (((-1, 1, -1), 3), ((1, 1, 1), 4), ((1, -1, -1), 5), ((-1, -1, 1), 6))


def _embed(n: np.ndarray, signs: tuple[int, int, int], z_slot: int) -> np.ndarray:
    """The (..., 7) stack holding sign_i * n_i in slots 1, 2 and z_slot."""
    out = np.zeros(n.shape[:-1] + (7,))
    out[..., [0, 1, z_slot - 1]] = n * signs
    return out


def embed_ghz4(n1, n2, n3, n4) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """R^3 -> R^7 embeddings for the four-particle model.

    Sign/slot patterns:
        N1 = (-n1x, +n1y, -n1z, 0, 0, 0, 0)
        N2 = (+n2x, +n2y, 0, +n2z, 0, 0, 0)
        N3 = (+n3x, +n3y, 0, 0, +n3z, 0, 0)
        N4 = (+n4x, -n4y, 0, 0, 0, -n4z, 0)
    Unit inputs give unit outputs (each is a signed permutation of components).
    Each direction may be a (..., 3) stack; the outputs are (..., 7).
    """
    return tuple(_embed(require_units(n), *e) for n, e in zip((n1, n2, n3, n4), _GHZ4_SLOTS))


def ghz3_reference_direction(alpha, delta) -> np.ndarray:
    """Unit reference direction n0 = (sin a cos d, sin a sin d, cos a);
    arrays of angles give the broadcast stack of directions, shape (..., 3)."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    out = np.empty(np.broadcast(sa, delta).shape + (3,))
    out[..., 0] = sa * np.cos(delta)
    out[..., 1] = sa * np.sin(delta)
    out[..., 2] = ca
    return out


def embed_ghz3(
    n1, n2, n3, alpha, delta
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """R^3 -> R^7 embeddings for the three-particle model plus its fixed
    reference point direction N0.

    Sign/slot patterns:
        N0 = (-n0x, +n0y, -n0z, 0, 0, 0, 0)   n0 from (alpha, delta)
        N1 = (+n1x, +n1y, 0, +n1z, 0, 0, 0)
        N2 = (+n2x, -n2y, 0, 0, -n2z, 0, 0)
        N3 = (-n3x, -n3y, 0, 0, 0, +n3z, 0)
    Directions may be (..., 3) stacks and the angles arrays; they broadcast.
    """
    n0 = ghz3_reference_direction(alpha, delta)
    dirs = (n0,) + tuple(require_units(n) for n in (n1, n2, n3))
    return tuple(_embed(n, *e) for n, e in zip(dirs, _GHZ3_SLOTS))
