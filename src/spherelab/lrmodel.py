"""Local-realistic correlation models on the 3- and 7-sphere.

Every model value here is the orientation-independent scalar part of a
product of unit points (beables) of S^3 or S^7; the oriented remainder is
never silently dropped but split off, measured, and reported.  A product
point always decomposes as

    point = f  +  g * (unit beable about N/|N|)

with f and g = |N| independent of the hidden orientation sign; the handed
convention (oriented components flip with the orientation while the scalar
does not) is what makes the oriented part average to zero over a symmetric
orientation ensemble.

Contents:
  * singlet correlation -a.b and the CHSH string with its displayed
    2 sqrt(1 - (a x a').(b' x b)) bound,
  * the Hardy tilted-point construction: a seven-angle constraint system
    (one residual kernel over angle stacks) solved as least squares by one
    batched Levenberg-Marquardt iteration over quasi-random multi-starts
    with an exact complex-step Jacobian (a theta grid is two such calls:
    every point's starts, then restarts from each point's neighbours),
    joint predictions from solved angles,
  * three- and four-particle pipelines on S^7 in two modes: "pinned_z"
    evaluates the dot-product expansion with the postulated anisotropy
    vector Z = e3 * prod(n_iz); "table" evaluates the cross-product form
    directly under a concrete multiplication table (the two agree with the
    generalized Lagrange identity by construction; their mutual residual
    is reported, never asserted),
  * the canonical f/g/N decomposition of grouped products of beables.

Comparison results are collected into column-backed ComparisonReports
(spherelab.report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qmref
from .ga3 import Multivector3, product_chain
from .geometry import require_unit, require_units, spherical_direction
from .report import ComparisonReport, ComparisonRow  # noqa: F401  (ComparisonRow re-exported)
from .sphere7 import (
    CrossTable,
    SevenPoint,
    cross7,
    embed_ghz3,
    embed_ghz4,
    get_table,
    oct_product,
    z_deviation,
)

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# canonical decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionResult:
    """Split of a product point into scalar f, oriented magnitude g = |N|,
    and the oriented vector N (bivector axis for S^3, 7-vector for S^7).

    At orientation s the point's oriented components are s * oriented; the
    scalar is s-independent.
    """

    f: float
    g: float
    oriented: np.ndarray
    space: str

    def __post_init__(self):
        arr = np.array(self.oriented, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "oriented", arr)
        object.__setattr__(self, "f", float(self.f))
        object.__setattr__(self, "g", float(self.g))

    def reconstruct(self, orientation: int = 1) -> tuple[float, np.ndarray]:
        """(scalar, oriented components) of the point at the given orientation."""
        return self.f, orientation * self.oriented


def _grouped_product7(points: list, table: CrossTable | None) -> SevenPoint:
    # Non-associative product: pair up first, as the model evaluates them.
    if len(points) == 1:
        return points[0]
    if len(points) == 2:
        return oct_product(points[0], points[1], table)
    if len(points) == 3:
        return oct_product(oct_product(points[0], points[1], table), points[2], table)
    if len(points) == 4:
        left = oct_product(points[0], points[1], table)
        right = oct_product(points[2], points[3], table)
        return oct_product(left, right, table)
    raise ValueError(f"grouped products support 1..4 points, got {len(points)}")


def canonical_decomposition(beables, space: str, table: CrossTable | None = None) -> DecompositionResult:
    """Decompose the grouped product of S^3 or S^7 elements into (f, g, N).

    S^3 input: Multivector3 values (even-grade; the product of bivectors
    stays even).  S^7 input: SevenPoint values, multiplied pairwise-first
    because the product is grouping-sensitive.
    """
    beables = list(beables)
    if not beables:
        raise ValueError("need at least one element")
    if space == "S3":
        if not all(isinstance(p, Multivector3) for p in beables):
            raise TypeError("S3 decomposition takes Multivector3 elements only")
        prod = product_chain(beables)
        odd = max(np.max(np.abs(prod.v)), abs(prod.t))
        if odd > 1e-9:
            raise ValueError(f"product has odd-grade residue {odd!r}; not a 3-sphere point")
        oriented = prod.b
        return DecompositionResult(prod.s, float(np.linalg.norm(oriented)), oriented, "S3")
    if space == "S7":
        if not all(isinstance(p, SevenPoint) for p in beables):
            raise TypeError("S7 decomposition takes SevenPoint elements only")
        prod = _grouped_product7(beables, table)
        return DecompositionResult(prod.a, float(np.linalg.norm(prod.x)), prod.x, "S7")
    raise ValueError(f"space must be 'S3' or 'S7', got {space!r}")


# ---------------------------------------------------------------------------
# singlet and CHSH on S^3
# ---------------------------------------------------------------------------


def _inner(x, y) -> np.ndarray:
    """x . y over the last axis, kept as a length-1 axis. Each row is one BLAS
    inner product, the same bits as np.dot on that row, so a batched kernel
    and its one-row wrapper give the values a per-row np.dot gave."""
    return (np.asarray(x)[..., None, :] @ np.asarray(y)[..., :, None])[..., 0]


def singlet_correlations(a, b) -> np.ndarray:
    """Scalar part of the two-beable product point, -a.b, for each row of two
    (..., 3) stacks of unit directions; orientation-free."""
    return -_inner(require_units(a), require_units(b))[..., 0]


def singlet_correlation(a, b) -> float:
    return float(singlet_correlations(require_unit(a), require_unit(b)))


def singlet_product_point(a, b) -> DecompositionResult:
    oriented = -np.cross(require_unit(a), require_unit(b))
    return DecompositionResult(singlet_correlation(a, b), float(np.linalg.norm(oriented)),
                               oriented, "S3")


def chsh_models(a, ap, b, bp) -> np.ndarray:
    """-cos(ab) - cos(ab') - cos(a'b) + cos(a'b') with a normalized ensemble,
    for each row of four (..., 3) stacks of unit directions."""
    a, ap, b, bp = (require_units(v) for v in (a, ap, b, bp))
    return (-_inner(a, b) - _inner(a, bp) - _inner(ap, b) + _inner(ap, bp))[..., 0]


def chsh_model(a, ap, b, bp) -> float:
    return float(chsh_models(*(require_unit(v) for v in (a, ap, b, bp))))


def chsh_product_point(a, ap, b, bp) -> DecompositionResult:
    """The CHSH combination of the four pair product points (scalar and
    oriented parts combined with the same +,+,+,- signs)."""
    a, ap, b, bp = (require_unit(v) for v in (a, ap, b, bp))
    oriented = -np.cross(a, b) - np.cross(a, bp) - np.cross(ap, b) + np.cross(ap, bp)
    return DecompositionResult(chsh_model(a, ap, b, bp), float(np.linalg.norm(oriented)), oriented, "S3")


def chsh_model_bound(a, ap, b, bp) -> float:
    """2 sqrt(1 - (a x a').(b' x b)); always in [0, 2 sqrt(2)].

    This is the displayed variance bound for the model string.  It is NOT
    asserted to dominate |chsh_model| pointwise (it demonstrably does not);
    the identity suite reports the violation statistics.
    """
    a, ap, b, bp = (require_unit(v) for v in (a, ap, b, bp))
    x = float(np.dot(np.cross(a, ap), np.cross(bp, b)))
    return 2.0 * math.sqrt(max(0.0, 1.0 - x))


# Coplanar quadruples (angles in the x-z plane) at which |chsh_model| attains
# 2 sqrt(2); included in sweeps so the sweep supremum pins the bound exactly.
OPTIMAL_CHSH_QUADRUPLES = (
    (0.0, np.pi / 2, np.pi / 4, -np.pi / 4),
    (0.0, np.pi / 2, 5 * np.pi / 4, 3 * np.pi / 4),
    (0.0, np.pi / 2, 3 * np.pi / 4, np.pi / 4),
    (0.0, np.pi / 2, -np.pi / 4, np.pi / 4),
)

# The quadruple at which the displayed bound itself equals 2 sqrt(2).
BOUND_SATURATING_QUADRUPLE = (0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4)


def scan_chsh(count: int, seed: int = 0) -> dict:
    """Sweep coplanar quadruples: the canonical optimal quadruples plus
    seeded random ones, evaluating the model string and the displayed bound.

    Returns a dict with the sweep arrays, the maximum |value|, and bound
    violation statistics.
    """
    if count < len(OPTIMAL_CHSH_QUADRUPLES):
        raise ValueError(f"count must be >= {len(OPTIMAL_CHSH_QUADRUPLES)}")
    rng = np.random.default_rng(seed)
    t = np.vstack(
        [np.array(OPTIMAL_CHSH_QUADRUPLES), rng.uniform(0.0, 2 * np.pi, (count - len(OPTIMAL_CHSH_QUADRUPLES), 4))]
    )
    ta, tap, tb, tbp = t.T
    values = -np.cos(tb - ta) - np.cos(tbp - ta) - np.cos(tb - tap) + np.cos(tbp - tap)
    x = np.sin(tap - ta) * np.sin(tb - tbp)
    bounds = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - x))
    imax = int(np.argmax(np.abs(values)))
    excess = np.abs(values) - bounds
    return {
        "angles": t,
        "values": values,
        "bounds": bounds,
        "max_abs_value": float(np.abs(values[imax])),
        "argmax": t[imax],
        "bound_violation_fraction": float(np.mean(excess > 1e-9)),
        "max_bound_violation": float(np.max(excess)),
    }


# ---------------------------------------------------------------------------
# Hardy tilted points, constraint system, solver
# ---------------------------------------------------------------------------

ANGLE_NAMES = ("alpha", "beta", "gamma", "delta", "eta", "rho", "nu")

RESIDUAL_LABELS = (
    "cot_gamma_beta",
    "cot_alpha_delta",
    "cos_alpha_plus_beta",
    "cos_rho_plus_nu_chain",
    "cos_gamma_plus_delta",
    "ratio_rho_nu_eta",
    "ratio_gamma_delta_eta",
    "ratio_alpha_nu_rho_beta",
    "ratio_rho_nu_eta_chain",
    "cos_gamma_minus_nu",
    "cos_rho_minus_delta",
    "sin_alpha_plus_eta",
    "cos_eta_minus_beta",
)


# The three joints the state forbids plus the one it forces; pinned by the
# constraint system for any solution, hence the gated subset.
HEADLINE_HARDY_PAIRS = (("a'+", "b+"), ("a+", "b'+"), ("a-", "b-"), ("a'+", "b'+"))


class HardyPoleError(ArithmeticError):
    """A ratio-form residual hit a vanishing denominator (cotangent pole)."""


class HardySolverError(RuntimeError):
    """Every solver start diverged; carries the best iterate found."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class HardyAngles:
    """The seven tilt angles at a given theta, plus the certified residual norm."""

    theta: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    eta: float
    rho: float
    nu: float
    residual_norm: float = float("nan")
    diverged: int = field(default=0, compare=False)  # solver starts that went non-finite

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in ANGLE_NAMES])

    def with_residual(self) -> "HardyAngles":
        rn = float(np.linalg.norm(hardy_residuals(self)))
        return HardyAngles(self.theta, *self.as_array(), residual_norm=rn, diverged=self.diverged)

    def solved(self, tol: float = 1e-10) -> bool:
        return self.residual_norm < tol


def _theta_terms(theta) -> np.ndarray:
    """The five theta constants of the product form, as a (..., 5) array for
    a theta of any shape: k = cos(2 theta) as 1 - 2 sin^2, then sin/s,
    sin cos^2/s, cos^3/s and cos/s with s = sqrt(1 + cos^2).

    Each distinct theta is worked with Python float arithmetic (numpy's
    vectorized power can differ from libm's pow in the last bit), so a
    per-row theta gives the same bits as the scalar one.
    """
    if isinstance(theta, float):
        return np.array(_scalar_theta_terms(theta))
    theta = np.asarray(theta, dtype=float)
    values, where = np.unique(theta, return_inverse=True)
    table = np.array([_scalar_theta_terms(t) for t in values.tolist()])
    return table[where].reshape(theta.shape + (5,))


def _scalar_theta_terms(theta: float) -> tuple:
    ct, st = math.cos(theta), math.sin(theta)
    s = math.sqrt(1.0 + ct * ct)
    return 1.0 - 2.0 * st * st, st / s, st * ct * ct / s, ct**3 / s, ct / s


def _product_residuals(x, theta) -> np.ndarray:
    """Product-form residuals for a (..., 7) stack of angle vectors (real or
    complex, in ANGLE_NAMES order); returns (..., 13).  theta is a scalar or
    one value per row, broadcast against the stack's leading shape."""
    return _residuals_at(x, _theta_terms(theta))


def _residuals_at(x, terms: np.ndarray, cos_sin=None) -> np.ndarray:
    """_product_residuals with the theta constants given as _theta_terms, and
    optionally (cos(x), sin(x)) precomputed.

    Every residual is a real-analytic trig expression in linear angle
    combinations, so a complex stack gives the complex-step derivative.  The
    operations and their order are those of the one-row form, so a real row
    gives the same bits as hardy_residuals.
    """
    cos_x, sin_x = (np.cos(x), np.sin(x)) if cos_sin is None else cos_sin
    # Transposing puts the angle (and term) axis first for unpacking; the
    # stack is transposed back at the end.
    k, st_s, stcc_s, c3_s, ct_s = terms.T
    al, be, ga, de, et, ro, nu = x.T
    c_al, c_be, c_ga, c_de, c_et, c_ro, c_nu = cos_x.T
    s_al, s_be, s_ga, s_de, s_et, s_ro, s_nu = sin_x.T

    ratio_rne_num = c_ro * s_et - c_nu * c_et
    ratio_rne_den = s_ro * c_et - s_nu * s_et
    ratio_gde_num = c_ga * s_et - c_de * c_et
    ratio_gde_den = s_de * s_et - s_ga * c_et
    ratio_anrb_num = c_al * c_nu - c_ro * c_be
    ratio_anrb_den = s_ro * s_be - s_al * s_nu
    cos_gd = np.cos(ga + de)
    return np.stack(
        [
            c_ga * c_be - k * s_ga * s_be,
            c_al * c_de - k * s_al * s_de,
            np.cos(al + be) + st_s,
            np.cos(ro + nu) + cos_gd + st_s,
            cos_gd - stcc_s,
            ratio_rne_num - k * ratio_rne_den,
            ratio_gde_num - k * ratio_gde_den,
            ratio_anrb_num - k * ratio_anrb_den,
            k * ratio_rne_den - ratio_rne_num,
            np.cos(ga - nu) - c3_s,
            np.cos(ro - de) - c3_s,
            np.sin(al + et) - ct_s,
            np.cos(et - be) - ct_s,
        ]
    ).T


def hardy_residuals(angles: HardyAngles, form: str = "product") -> np.ndarray:
    """The 13 constraint residuals (LHS - RHS), one per scalar equality.

    form="product": cotangent and ratio constraints cross-multiplied into
    polynomial-in-trig form (identical zero set, no poles); this is the
    form the solver minimizes and the one residual_norm certifies.  It is
    one row of the _product_residuals kernel.
    form="ratio": the literal printed quotients; raises HardyPoleError when
    a denominator (a sine entering a cotangent, or a ratio denominator)
    falls below 1e-12 in magnitude.
    """
    if form not in ("product", "ratio"):
        raise ValueError(f"form must be 'product' or 'ratio', got {form!r}")
    r = _product_residuals(angles.as_array(), angles.theta)
    if form == "product":
        return r
    # The ratio form differs only in the six quotient rows; the sin/cos-sum
    # rows are shared.
    al, be, ga, de, et, ro, nu = angles.as_array()
    st = math.sin(angles.theta)
    k = 1.0 - 2.0 * st * st
    cos, sin = math.cos, math.sin

    ratio_rne_num = cos(ro) * sin(et) - cos(nu) * cos(et)
    ratio_rne_den = sin(ro) * cos(et) - sin(nu) * sin(et)
    ratio_gde_num = cos(ga) * sin(et) - cos(de) * cos(et)
    ratio_gde_den = sin(de) * sin(et) - sin(ga) * cos(et)
    ratio_anrb_num = cos(al) * cos(nu) - cos(ro) * cos(be)
    ratio_anrb_den = sin(ro) * sin(be) - sin(al) * sin(nu)

    for name, val in (
        ("sin(gamma)", sin(ga)),
        ("sin(beta)", sin(be)),
        ("sin(alpha)", sin(al)),
        ("sin(delta)", sin(de)),
        ("ratio_rho_nu_eta denominator", ratio_rne_den),
        ("ratio_gamma_delta_eta denominator", ratio_gde_den),
        ("ratio_alpha_nu_rho_beta denominator", ratio_anrb_den),
    ):
        if abs(val) < 1e-12:
            raise HardyPoleError(f"{name} vanishes; ratio-form residual undefined")
    r[0] = (cos(ga) / sin(ga)) * (cos(be) / sin(be)) - k
    r[1] = (cos(al) / sin(al)) * (cos(de) / sin(de)) - k
    r[5] = ratio_rne_num / ratio_rne_den - k
    r[6] = ratio_gde_num / ratio_gde_den - k
    r[7] = ratio_anrb_num / ratio_anrb_den - k
    r[8] = k - ratio_rne_num / ratio_rne_den
    return r


# Complex-step size: the imaginary part of r(x + i h e_k) / h is the exact
# derivative up to O(h^2), and no difference is taken, so h can be tiny.
_COMPLEX_STEP = 1e-30


def _product_jacobian(x: np.ndarray, theta) -> np.ndarray:
    """(S, 13, 7) Jacobians of the product-form residuals at an (S, 7) stack;
    theta is a scalar or one value per row."""
    return _jacobian_at(x, np.broadcast_to(_theta_terms(theta), (len(x), 5)))


def _jacobian_at(x: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """_product_jacobian with (S, 5) per-row theta constants, from one kernel
    call on the (S, 7, 7) complex-step stack.

    Row k of a stack perturbs angle k alone, so only the stack's diagonal
    needs a complex cos and sin; elsewhere they are the real values.  (The
    complex functions give those too, with a zero imaginary part whose sign
    may differ, which changes no derivative.)
    """
    # Built per call, not at import: numpy's first complex arithmetic pages
    # in about 0.25 MB, which runs that never solve should not pay.
    stack = x[:, None, :] + (1j * _COMPLEX_STEP) * np.eye(7)
    cos_x, sin_x = np.empty_like(stack), np.empty_like(stack)
    cos_x[:], sin_x[:] = np.cos(x)[:, None, :], np.sin(x)[:, None, :]
    diag = np.arange(7)
    stepped = stack[:, diag, diag]
    cos_x[:, diag, diag], sin_x[:, diag, diag] = np.cos(stepped), np.sin(stepped)
    r = _residuals_at(stack, terms[:, None, :], (cos_x, sin_x))
    return np.swapaxes(r.imag, -1, -2) / _COMPLEX_STEP


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    return (x + np.pi) % (2 * np.pi) - np.pi


# Stopping rules of the batched Levenberg-Marquardt iteration (the MINPACK
# xtol/ftol/gtol tests), and an iteration cap well above the slowest start
# seen (668 iterations, over 30 seeds of the 19-point 0..pi/2 grid); a cap
# that cuts the theta = 0 starts short loses its certification.
_LM_XTOL = _LM_FTOL = _LM_GTOL = 1e-15
_LM_MAX_ITER = 2000
# Rows per Jacobian block: the complex-step stack and its kernel temporaries
# are 7x a residual call's, so a 608-row scan pass in one block raised the
# scan's peak memory by about 10%; 64-row blocks cost no measurable time.
_JACOBIAN_BLOCK_ROWS = 64
# Initial damping, relative to diag(J^T J): first steps are nearly
# Gauss-Newton, as MINPACK's are (its first trust radius is 100 |D x0|).
# Over seeds 0..99 this keeps the minimum found closer to MINPACK's than
# 1e-3 (9 against 15 of 2424 theta points differ) at about the same work.
_LM_DAMPING0 = 1e-6


def _solve_lm(x0: np.ndarray, theta) -> np.ndarray:
    """Levenberg-Marquardt on the product-form residuals from every row of
    an (S, 7) start stack at once; returns the (S, 7) final iterates.  theta
    is a scalar or one value per row, so one call can solve a whole grid.

    Damping (Marquardt-scaled by diag(J^T J)), step acceptance and the
    stopping tests are per start; each iteration solves the damped normal
    equations of all active starts with one np.linalg.solve call.  A step
    is taken only when it lowers the cost to a finite value, so a start
    whose initial cost is finite ends finite, and one whose initial cost is
    not never moves.  A start stops at its own xtol/ftol/gtol test, at a
    non-finite step, or at the iteration cap.
    """
    out = np.array(x0, dtype=float)
    terms = np.broadcast_to(_theta_terms(theta), (len(out), 5))
    r = _residuals_at(out, terms)
    cost = 0.5 * np.einsum("si,si->s", r, r)
    ids = np.flatnonzero(np.isfinite(cost))  # rows of `out` still iterating
    x, r, cost, terms = out[ids], r[ids], cost[ids], terms[ids]
    n = len(ids)
    jtj, grad, scale = np.zeros((n, 7, 7)), np.zeros((n, 7)), np.zeros((n, 7))
    damping, growth = np.full(n, _LM_DAMPING0), np.full(n, 2.0)
    fresh = np.ones(n, dtype=bool)  # starts whose Jacobian must be (re)computed
    eye = np.eye(7)

    for _ in range(_LM_MAX_ITER):
        if not ids.size:
            break
        stale = np.flatnonzero(fresh)
        for lo in range(0, len(stale), _JACOBIAN_BLOCK_ROWS):
            block = stale[lo:lo + _JACOBIAN_BLOCK_ROWS]
            jac = _jacobian_at(x[block], terms[block])
            jtj[block] = np.einsum("ski,skj->sij", jac, jac)
            grad[block] = np.einsum("ski,sk->si", jac, r[block])
        col_sq = np.diagonal(jtj, axis1=1, axis2=2)
        # Marquardt scaling, never shrinking (as MINPACK keeps its diag).
        scale = np.maximum(scale, col_sq)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosines = np.abs(grad) / (np.sqrt(col_sq) * np.sqrt(2.0 * cost)[:, None])
        gconv = (cost == 0.0) | (np.nan_to_num(cosines, nan=0.0).max(axis=1) <= _LM_GTOL)

        lam_d = damping[:, None] * np.maximum(scale, np.finfo(float).tiny)
        step = _batched_solve(jtj + lam_d[:, :, None] * eye, -grad)
        finite_step = np.isfinite(step).all(axis=1)
        step[~finite_step] = 0.0
        trial = x + step
        r_trial = _residuals_at(trial, terms)
        cost_trial = 0.5 * np.einsum("si,si->s", r_trial, r_trial)
        actual = cost - cost_trial
        predicted = 0.5 * np.einsum("si,si->s", step, lam_d * step - grad)
        accept = ~gconv & finite_step & np.isfinite(cost_trial) & (actual > 0.0)

        # Nielsen's update: a good step shrinks the damping by up to 3x, each
        # failure in a row grows it twice as fast as the one before.
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(accept, actual / predicted, 0.0)
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.minimum(ratio, 1.0) - 1.0) ** 3)
        damping = np.where(accept, damping * shrink, damping * growth)
        growth = np.where(accept, 2.0, 2.0 * growth)
        root_scale = np.sqrt(scale)
        xconv = np.linalg.norm(root_scale * step, axis=1) <= _LM_XTOL * (
            np.linalg.norm(root_scale * x, axis=1) + _LM_XTOL
        )
        fconv = accept & (actual <= _LM_FTOL * cost) & (predicted <= _LM_FTOL * cost)

        x = np.where(accept[:, None], trial, x)
        r = np.where(accept[:, None], r_trial, r)
        cost = np.where(accept, cost_trial, cost)
        fresh = accept
        done = gconv | xconv | fconv | ~finite_step | ~np.isfinite(damping)
        if done.any():
            out[ids[done]] = x[done]
            keep = ~done
            ids, x, r, cost, fresh = ids[keep], x[keep], r[keep], cost[keep], fresh[keep]
            terms = terms[keep]
            jtj, grad, scale = jtj[keep], grad[keep], scale[keep]
            damping, growth = damping[keep], growth[keep]
    out[ids] = x
    return out


def _batched_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack; a singular system yields a NaN row
    instead of failing the whole stack."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


# Joe-Kuo primitive polynomials and initial direction numbers of Sobol'
# dimensions 2..7 (dimension 1 is van der Corput), with 30-bit points.
_SOBOL_POLYS = (3, 7, 11, 13, 19, 25)
_SOBOL_VINIT = ((1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13))
_SOBOL_BITS = 30


def _sobol_points(n: int, seed: int) -> np.ndarray:
    """The first n points of the 7-dimensional Sobol' sequence in [0, 1)^7,
    scrambled by a random linear matrix (LMS) and a digital shift drawn from
    default_rng(seed); the same points as scipy.stats.qmc.Sobol(d=7,
    scramble=True, seed=seed).random(n), bit for bit."""
    bits = _SOBOL_BITS
    v = np.ones((7, bits), dtype=np.int64)
    for d, (poly, init) in enumerate(zip(_SOBOL_POLYS, _SOBOL_VINIT), start=1):
        m = len(init)  # the degree of poly
        v[d, :m] = init
        for j in range(m, bits):  # Bratley and Fox's recurrence
            new = v[d, j - m]
            for k in range(m):
                if (poly >> (m - 1 - k)) & 1:
                    new ^= v[d, j - k - 1] << (k + 1)
            v[d, j] = new
    powers = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    v *= powers  # m_j / 2^(j + 1) as a 30-bit fraction

    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(7, bits), dtype=np.uint32) @ powers[::-1]
    ltm = np.tril(rng.integers(2, size=(7, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # With bits written most significant first, the scramble is a matrix
    # product mod 2: column j of each dimension becomes ltm @ bits(v[j]).
    msb_first = (v[..., None] >> np.arange(bits - 1, -1, -1)) & 1
    v = ((msb_first @ np.swapaxes(ltm, 1, 2)) % 2) @ powers

    # Gray-code order: point i flips the direction of i's lowest set bit.
    lowest = [(i & -i).bit_length() - 1 for i in range(1, n)]
    quasi = np.bitwise_xor.accumulate(np.vstack([shift, v[:, lowest].T]), axis=0)[:n]
    return quasi * 2.0**-bits


def _near_best(norms: np.ndarray) -> np.ndarray:
    """Mask of the finite residual norms within 1e-12 of the smallest one."""
    finite = np.isfinite(norms)
    return finite & (norms <= norms[finite].min(initial=np.inf) + 1e-12)


def _pick(theta: float, near: np.ndarray, diverged: int, ref=None) -> HardyAngles:
    """The near-best iterate closest (wrapped) to the angle vector ref, when
    given, then with the smallest angle-vector norm."""
    if ref is None:
        best = min(near, key=np.linalg.norm)
    else:
        best = min(near, key=lambda x: (np.linalg.norm(_wrap_angles(x - ref)), np.linalg.norm(x)))
    return HardyAngles(theta, *best, diverged=diverged).with_residual()


def solve_hardy(
    theta: float,
    init: HardyAngles | None = None,
    *,
    starts: int = 32,
    seed: int = 20240901,
) -> HardyAngles:
    """Least-squares solve of the 13-equation angle system at one theta.

    One batched Levenberg-Marquardt iteration (exact complex-step Jacobian)
    runs from `starts` scrambled-Sobol points in (0, pi)^7, plus `init`
    first when given.  Returns the best iterate with its certified
    residual_norm and the count of starts whose cost went non-finite; the
    caller decides what residual_norm it will accept.  Ties within 1e-12 of
    the best norm break toward continuity with `init`, then toward the
    smallest angle-vector norm, as scan_hardy's do.  A lone theta has no
    neighbours to continue from, so it can miss a solution that scan_hardy
    finds.  Raises ValueError when starts is negative or no start is left.
    """
    if starts < 0 or (starts == 0 and init is None):
        raise ValueError(f"starts must be at least {1 if init is None else 0}, got {starts!r}")
    x0s = np.pi * _sobol_points(starts, seed)
    if init is not None:
        x0s = np.vstack([init.as_array(), x0s])

    xs = _wrap_angles(_solve_lm(x0s, theta))
    norms = np.linalg.norm(_product_residuals(xs, theta), axis=1)
    near = _near_best(norms)
    if not near.any():
        best = HardyAngles(theta, *(_wrap_angles(x0s[0]))).with_residual()
        raise HardySolverError(f"all {len(x0s)} starts diverged at theta={theta!r}", best=best)
    diverged = int(np.count_nonzero(~np.isfinite(norms)))
    return _pick(theta, xs[near], diverged, None if init is None else init.as_array())


@dataclass(frozen=True)
class HardyScanRow:
    theta: float
    angles: HardyAngles
    solved: bool
    failing: tuple  # (label, residual) pairs above tolerance, worst first

    @property
    def diverged(self) -> int:
        """Solver starts whose cost went non-finite at this theta."""
        return self.angles.diverged

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "residual_norm": self.angles.residual_norm,
            "solved": self.solved,
            "diverged": self.diverged,
            "failing": [{"label": l, "residual": r} for l, r in self.failing],
            "angles": {n: getattr(self.angles, n) for n in ANGLE_NAMES},
        }


# Rows per _solve_lm call of a scan: whole theta points of `starts` rows each
# (at least one point per call), so the solver's memory does not grow with the
# grid.  The 19-point 0..90 degree grid at 32 starts (608 rows) is one call.
_SCAN_MAX_ROWS = 1024


def scan_hardy(thetas, *, starts: int = 32, seed: int = 20240901, tol: float = 1e-10) -> list:
    """Solve across a theta grid in two batched passes.

    Pass 1 runs every grid point from its `starts` scrambled-Sobol points
    (seed + i at the i-th point) in one Levenberg-Marquardt call, with theta
    carried per row.  Pass 2 is one more call that restarts each point from
    pass 1's best at both of its grid neighbours: a root found at one theta
    is a good start at the next, and the restart from theta_1 is what
    certifies theta = 0 at seeds whose own starts miss it.  In grid order,
    each point then takes the best iterate of both passes, ties within
    1e-12 breaking toward the previous point's answer, then toward the
    smallest angle-vector norm.  Calls are capped at _SCAN_MAX_ROWS rows.

    Every grid point is reported; points the solver cannot certify below
    `tol` are flagged with the failing equations, never hidden.  Raises
    ValueError when starts < 1 and HardySolverError when every start at a
    point diverged.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    # Per point: the near-best iterates so far, their norms, and the counts of
    # diverged and of all starts.
    found = [(np.empty((0, 7)), np.empty(0), 0, 0) for _ in thetas]

    def run(owner: np.ndarray, x0: np.ndarray):
        theta = thetas[owner]
        xs = _wrap_angles(_solve_lm(x0, theta))
        norms = np.linalg.norm(_product_residuals(xs, theta), axis=1)
        for i in np.unique(owner).tolist():
            mine = owner == i
            near, near_norms, diverged, total = found[i]
            cand = np.vstack([near, xs[mine]])
            cand_norms = np.concatenate([near_norms, norms[mine]])
            keep = _near_best(cand_norms)
            found[i] = (cand[keep], cand_norms[keep],
                        diverged + int(np.count_nonzero(~np.isfinite(norms[mine]))),
                        total + int(np.count_nonzero(mine)))

    per_call = max(1, _SCAN_MAX_ROWS // starts)
    for lo in range(0, len(thetas), per_call):
        points = range(lo, min(lo + per_call, len(thetas)))
        x0 = np.pi * np.vstack([_sobol_points(starts, seed + i) for i in points])
        run(np.repeat(points, starts), x0)

    firsts = [min(near, key=np.linalg.norm) if len(near) else None for near, *_ in found]
    restarts = [(i, firsts[j]) for i in range(len(thetas)) for j in (i - 1, i + 1)
                if 0 <= j < len(thetas) and firsts[j] is not None]
    for lo in range(0, len(restarts), _SCAN_MAX_ROWS):
        chunk = restarts[lo:lo + _SCAN_MAX_ROWS]
        run(np.array([i for i, _ in chunk]), np.array([x for _, x in chunk]))

    rows = []
    prev = None
    for i, (theta, (near, _, diverged, total)) in enumerate(zip(thetas.tolist(), found)):
        if not len(near):
            best = HardyAngles(theta, *_wrap_angles(np.pi * _sobol_points(1, seed + i)[0]))
            raise HardySolverError(f"all {total} starts diverged at theta={theta!r}",
                                   best=best.with_residual())
        angles = _pick(theta, near, diverged, prev)
        res = hardy_residuals(angles)
        failing = tuple(
            sorted(
                ((lbl, float(r)) for lbl, r in zip(RESIDUAL_LABELS, res) if abs(r) > tol),
                key=lambda lr: -abs(lr[1]),
            )
        )
        rows.append(HardyScanRow(theta, angles, angles.solved(tol), failing))
        prev = angles.as_array()
    return rows


# --- joint predictions from solved angles ---------------------------------

# (cos-coefficient angle name, sin sign, sin/cos swapped?) for each setting.
# The printed b- point swaps sin and cos of eta; the flag restores the
# unswapped variant for comparison.
_TILTS_SITE1 = {
    "a+": ("alpha", +1, False),
    "a-": ("eta", -1, False),
    "a'+": ("gamma", +1, False),
    "a'-": ("rho", -1, False),
}
_TILTS_SITE2 = {
    "b+": ("beta", +1, False),
    "b-": ("eta", -1, True),
    "b'+": ("delta", +1, False),
    "b'-": ("nu", -1, False),
}


def hardy_directions(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(plain, primed) measurement directions: both sides share z and the
    direction at polar angle 2*theta in the x-z plane."""
    return np.array([0.0, 0.0, 1.0]), spherical_direction(2.0 * theta, 0.0)


def _tilt_components(angles: HardyAngles, setting: str, swapped_b_minus: bool):
    table = _TILTS_SITE1 if setting in _TILTS_SITE1 else _TILTS_SITE2
    if setting not in table:
        raise ValueError(f"unknown setting {setting!r}")
    name, sign, swapped = table[setting]
    if setting == "b-" and not swapped_b_minus:
        swapped = False
    chi = getattr(angles, name)
    c, s = math.cos(chi), math.sin(chi)
    if swapped:
        c, s = s, c
    plain, primed = hardy_directions(angles.theta)
    axis = primed if "'" in setting else plain
    return c, sign * s, axis


def hardy_joint(
    angles: HardyAngles, pair: tuple[str, str], *, swapped_b_minus: bool = True
) -> float:
    """Orientation-independent scalar of the product of the two tilted
    points selected by pair = (site1, site2), e.g. ("a'+", "b+").

    For tilted points (c1 + s1 * beable(u)) (c2 + s2 * beable(v)) the
    scalar is c1 c2 - s1 s2 (u . v), with the dot products fixed by the
    Hardy geometry (a.b = 1, a'.b = a.b' = cos 2 theta, a'.b' = 1).
    """
    return hardy_point(angles, pair, swapped_b_minus=swapped_b_minus).f


def hardy_point(
    angles: HardyAngles, pair: tuple[str, str], *, swapped_b_minus: bool = True
) -> DecompositionResult:
    """Full product point for the pair: the scalar returned by hardy_joint
    plus the oriented bivector axis c2 s1 u + c1 s2 v - s1 s2 (u x v),
    which points along a direction exclusive to both u and v."""
    c1, s1, u = _tilt_components(angles, pair[0], swapped_b_minus)
    c2, s2, v = _tilt_components(angles, pair[1], swapped_b_minus)
    f = c1 * c2 - s1 * s2 * float(np.dot(u, v))
    oriented = c2 * s1 * u + c1 * s2 * v - s1 * s2 * np.cross(u, v)
    return DecompositionResult(f, float(np.linalg.norm(oriented)), oriented, "S3")


def hardy_report(
    angles: HardyAngles, *, tol_joint: float = 1e-8, swapped_b_minus: bool = True
) -> ComparisonReport:
    """All sixteen joint predictions from solved angles against the
    brute-force amplitudes, plus the oriented magnitudes as info rows.

    Only the four headline pairs (the three vanishing joints and the forced
    non-vanishing one) are gated: those are the ones the constraint system
    pins for any solution.  The other twelve are measurements.
    """
    points = [hardy_point(angles, pair, swapped_b_minus=swapped_b_minus)
              for pair in qmref.HARDY_PAIRS]
    tol = [tol_joint if pair in HEADLINE_HARDY_PAIRS else math.inf for pair in qmref.HARDY_PAIRS]
    oracle = qmref.hardy_amplitudes([angles.theta])[0]
    # Each pair's joint row, then its oriented-magnitude row.
    return ComparisonReport(meta={"theta": angles.theta, "residual_norm": angles.residual_norm,
                                  "swapped_b_minus": swapped_b_minus}).add(
        [f"{name}[{s1},{s2}]" for s1, s2 in qmref.HARDY_PAIRS
         for name in ("hardy", "hardy_oriented_magnitude")],
        [value for p in points for value in (p.f, p.g)],
        np.column_stack((oracle, np.zeros(16))).ravel(),
        np.column_stack((tol, np.full(16, math.inf))).ravel(),
    )


# ---------------------------------------------------------------------------
# GHZ pipelines on S^7
# ---------------------------------------------------------------------------

GHZ_MODES = ("pinned_z", "table")

ALGEBRA_ROW_TOL = 1e-12


def ghz_kernel(embedded, prod_z, table: CrossTable | None = None):
    """The grouped product (v1 v2)(v3 v4) of an embedded (..., 4, 7) stack.

    Returns (pinned, table, lagrange, deviation): the dot-product expansion
    with the pinned anisotropy vector Z = e3 * prod_z, the scalar part
    (v1.v2)(v3.v4) - (v1 x v2).(v3 x v4) under the cross table, the same
    scalar through the generalized Lagrange identity, and the oriented
    deviation vector (v3.v4)(v1 x v2) + (v1.v2)(v3 x v4) - (v1 x v2) x (v3 x v4).
    The three values have the stack's leading shape, the deviation one more
    axis of 7; prod_z broadcasts against the leading shape.
    """
    v1, v2, v3, v4 = np.moveaxis(np.asarray(embedded, dtype=float), -2, 0)
    d12, d34 = _inner(v1, v2), _inner(v3, v4)
    c12, c34 = cross7(v1, v2, table), cross7(v3, v4, table)
    expansion = _inner(v1, v3) * _inner(v2, v4) - _inner(v1, v4) * _inner(v2, v3)
    # v1 . Z meets only v1's e3 slot. An e7 term in Z would never contribute,
    # because v1 (N1 for ghz4, the reference point for ghz3) has an empty e7 slot.
    pinned = d12 * d34 - (expansion + v1[..., 2:3] * np.asarray(prod_z)[..., None])
    value_table = d12 * d34 - _inner(c12, c34)
    lagrange = d12 * d34 - (expansion + _inner(v1, z_deviation(v2, v3, v4, table)))
    deviation = d34 * c12 + d12 * c34 - cross7(c12, c34, table)
    return pinned[..., 0], value_table[..., 0], lagrange[..., 0], deviation


def ghz_report(prefix: str, oracle, values, tol: float, meta: dict,
               indexed: bool = False) -> ComparisonReport:
    """The four comparison rows of each tuple of a ghz_kernel result, in tuple
    order; labels get the tuple index as a [i] suffix when indexed."""
    pinned, value_table, lagrange, deviation = values
    magnitude = np.sqrt(_inner(deviation, deviation)[..., 0])
    suffixes = [f"[{i}]" for i in range(len(pinned))] if indexed else [""]
    return ComparisonReport(meta=meta).add(
        [f"{prefix}.{name}{at}" for at in suffixes for name in (
            "pinned_z_vs_oracle", "table_vs_lagrange", "table_vs_pinned_z", "oriented_magnitude")],
        np.column_stack((pinned, value_table, value_table, magnitude)).ravel(),
        np.column_stack((oracle, lagrange, pinned, np.zeros(len(pinned)))).ravel(),
        # Whether any concrete table realizes the pinned-Z value is an open
        # measurement; reported per tuple, not gated.
        np.tile((tol, tol, math.inf, math.inf), len(pinned)),
    )


def _ghz_point(embedded, table) -> DecompositionResult:
    _, f, _, oriented = ghz_kernel(np.stack(embedded), 0.0, table)
    return DecompositionResult(f, float(np.linalg.norm(oriented)), oriented, "S7")


def ghz4_product_point(n1, n2, n3, n4, table: CrossTable | None = None) -> DecompositionResult:
    """Grouped product point of the four embedded beables: scalar
    (N1.N2)(N3.N4) - (N1xN2).(N3xN4) and the oriented deviation vector
    (N3.N4)(N1xN2) + (N1.N2)(N3xN4) - (N1xN2)x(N3xN4)."""
    return _ghz_point(embed_ghz4(n1, n2, n3, n4), table)


def ghz3_product_point(
    n1, n2, n3, alpha: float, delta: float, table: CrossTable | None = None
) -> DecompositionResult:
    """Same as ghz4_product_point with the fixed reference point prepended:
    the group is (P A)(B C)."""
    return _ghz_point(embed_ghz3(n1, n2, n3, alpha, delta), table)


def _ghz_model(prefix, embedded, prod_z, oracle, mode, table, tol, meta):
    if mode not in GHZ_MODES:
        raise ValueError(f"mode must be one of {GHZ_MODES}, got {mode!r}")
    table = get_table(table)
    values = ghz_kernel(np.stack(embedded)[None], prod_z, table)
    report = ghz_report(prefix, [oracle], values, tol,
                        {"mode": mode, "table": table.table_id, **meta})
    return float(values[0 if mode == "pinned_z" else 1][0]), report


def ghz4_model(n1, n2, n3, n4, mode: str = "pinned_z", table: CrossTable | str | None = None,
               tol: float = ALGEBRA_ROW_TOL) -> tuple[float, ComparisonReport]:
    """Four-particle model value plus its cross-check report.

    pinned_z mode: dot-product expansion with Z = e3 * (n2z n3z n4z);
    reproduces the quantum closed form identically.
    table mode: direct cross-product evaluation under the given table; it
    always agrees with its own Lagrange-identity rewrite, and its residual
    against pinned_z mode is reported per tuple.
    """
    oracle = qmref.tensor_expectation(qmref.ghz4_state(), qmref.SpinObservable((n1, n2, n3, n4)))
    return _ghz_model("ghz4", embed_ghz4(n1, n2, n3, n4), n2[2] * n3[2] * n4[2], oracle,
                      mode, table, tol, {})


def ghz3_model(n1, n2, n3, alpha: float, delta: float, mode: str = "pinned_z",
               table: CrossTable | str | None = None,
               tol: float = ALGEBRA_ROW_TOL) -> tuple[float, ComparisonReport]:
    """Three-particle model value plus report; the reference point carries
    (alpha, delta) and the pinned Z is e3 * (n1z n2z n3z)."""
    oracle = qmref.tensor_expectation(qmref.ghz3_state(alpha, delta),
                                      qmref.SpinObservable((n1, n2, n3)))
    return _ghz_model("ghz3", embed_ghz3(n1, n2, n3, alpha, delta), n1[2] * n2[2] * n3[2],
                      oracle, mode, table, tol, {"alpha": alpha, "delta": delta})
