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
    (spherelab.hardy_kernel) solved as least squares by one batched
    Levenberg-Marquardt iteration over quasi-random multi-starts (a theta
    grid is two such calls: every point's starts, then restarts from each
    point's neighbours; a lone theta is the one-point grid), and the
    joint predictions of solved angles, every setting pair of a whole angle
    stack from one hardy_points call,
  * three- and four-particle pipelines on S^7 in two modes: "pinned_z"
    evaluates the dot-product expansion with the postulated anisotropy
    vector Z = e3 * prod(n_iz); "table" evaluates the cross-product form
    directly under a concrete multiplication table (the two agree with the
    generalized Lagrange identity by construction; their mutual residual
    is reported, never asserted); one stack of direction tuples is one
    ghz_values call, and a lone setting is the one-row stack,
  * the product point (f, N) of each experiment, which spherelab.mcsim
    averages over the orientation ensemble.

Comparison results are collected into column-backed ComparisonReports
(spherelab.report).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hardy_kernel, qmref
from .geometry import coplanar_direction, require_unit, require_units
from .report import ComparisonReport
from .sphere7 import CrossTable, cross7, embed_ghz3, embed_ghz4, get_table, z_deviation

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class DecompositionResult:
    """A product point split into its scalar f and its oriented vector N
    (bivector axis for S^3, 7-vector for S^7), with magnitude g = |N|.

    At orientation s the point's oriented components are s * oriented; the
    scalar is s-independent.
    """

    f: float
    oriented: np.ndarray

    def __post_init__(self):
        arr = np.array(self.oriented, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "oriented", arr)
        object.__setattr__(self, "f", float(self.f))

    @property
    def g(self) -> float:
        return float(np.linalg.norm(self.oriented))


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
    return DecompositionResult(singlet_correlation(a, b), oriented)


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
    return DecompositionResult(chsh_model(a, ap, b, bp), oriented)


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
        return HardyAngles(self.theta, *self.as_array().tolist(), residual_norm=rn, diverged=self.diverged)

    def solved(self, tol: float = 1e-10) -> bool:
        return self.residual_norm < tol


def hardy_residuals(angles: HardyAngles) -> np.ndarray:
    """The 13 constraint residuals (LHS - RHS) at the angles, one per scalar
    equality: the cotangent and ratio constraints cross-multiplied into
    polynomial-in-trig form (no poles), as the solver minimizes them and
    residual_norm certifies them. One row of hardy_kernel.residuals."""
    return hardy_kernel.residuals(angles.as_array(), angles.theta)


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    return (x + np.pi) % (2 * np.pi) - np.pi


# Stopping rules of the batched Levenberg-Marquardt iteration (the MINPACK
# xtol/ftol/gtol tests), and an iteration cap well above the slowest start
# seen (668 iterations, over 30 seeds of the 19-point 0..pi/2 grid); a cap
# that cuts the theta = 0 starts short loses its certification.
_LM_XTOL = _LM_FTOL = _LM_GTOL = 1e-15
_LM_MAX_ITER = 2000
# Initial damping, relative to diag(J^T J): first steps are nearly
# Gauss-Newton, as MINPACK's are (its first trust radius is 100 |D x0|).
# Over seeds 0..99 this keeps the minimum found closer to MINPACK's than
# 1e-3 (9 against 15 of 2424 theta points differ) at about the same work.
_LM_DAMPING0 = 1e-6


def _solve_lm(x0: np.ndarray, theta) -> np.ndarray:
    """Levenberg-Marquardt on the product-form residuals from every row of
    an (S, 7) start stack at once; returns the (S, 7) final iterates.  theta
    is a scalar or one value per row, so one call can solve a whole grid.

    Damping (Marquardt-scaled by diag(J^T J)), acceptance and stopping are
    per start.  An iteration makes one np.linalg.solve call and one
    hardy_kernel.gram_triangle call, at the trial points; an accepted start
    keeps the trial's J^T J and J^T r.  A step is taken only when it lowers
    the cost, so a finite start ends finite and a non-finite one never
    moves.  A start stops at its own xtol/ftol/gtol test, a non-finite step
    or the cap."""
    out = np.array(x0, dtype=float)
    consts = np.broadcast_to(hardy_kernel.theta_terms(theta), (len(out), 9))
    gram = hardy_kernel.gram_triangle(out, consts)
    ids = np.flatnonzero(np.isfinite(gram[:, 35]))  # rows of `out` still iterating
    x, gram, consts = out[ids], gram[ids], consts[ids]
    scale, eye = np.zeros((len(ids), 7)), np.eye(7)
    damping, growth = np.full(len(ids), _LM_DAMPING0), np.full(len(ids), 2.0)

    # Non-finite ratios of rejected steps pick no value, and a damping that
    # overflows stops its start.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_LM_MAX_ITER):
            if not ids.size:
                break
            jtj = gram.take(hardy_kernel.GRAM_SQUARE, axis=1).reshape(-1, 7, 7)
            grad, cost = gram[:, 28:35], 0.5 * gram[:, 35]
            col_sq = np.diagonal(jtj, axis1=1, axis2=2)
            # Marquardt scaling, never shrinking (as MINPACK keeps its diag).
            scale = np.maximum(scale, col_sq)
            # The gtol test, max |g_i| / (|J_i| |r|) <= gtol, on squares; a
            # zero column (0/0) counts as converged.
            gconv = (cost == 0.0) | ~(grad * grad > _LM_GTOL**2 * col_sq * gram[:, 35:]).any(axis=1)

            lam_d = damping[:, None] * np.maximum(scale, np.finfo(float).tiny)
            step = _batched_solve(jtj + lam_d[:, :, None] * eye, -grad)
            finite_step = np.isfinite(step).all(axis=1)
            step[~finite_step] = 0.0
            trial = x + step
            gram_trial = hardy_kernel.gram_triangle(trial, consts)
            actual = cost - 0.5 * gram_trial[:, 35]
            predicted = 0.5 * np.einsum("si,si->s", step, lam_d * step - grad)
            # actual > 0 also rejects a non-finite trial cost.
            accept = ~gconv & finite_step & (actual > 0.0)

            # Nielsen's update: a good step shrinks the damping by up to 3x,
            # each failure in a row grows it twice as fast as the one before.
            shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.minimum(actual / predicted, 1.0) - 1.0) ** 3)
            damping = damping * np.where(accept, shrink, growth)
            growth = np.where(accept, 2.0, 2.0 * growth)
            xconv = np.sqrt(np.einsum("si,si,si->s", scale, step, step)) <= _LM_XTOL * (
                np.sqrt(np.einsum("si,si,si->s", scale, x, x)) + _LM_XTOL)
            fconv = accept & (np.maximum(actual, predicted) <= _LM_FTOL * cost)

            x = np.where(accept[:, None], trial, x)
            gram = np.where(accept[:, None], gram_trial, gram)
            done = gconv | xconv | fconv | ~(finite_step & np.isfinite(damping))
            if done.any():
                out[ids[done]] = x[done]
                keep = ~done
                ids, x, gram, consts = ids[keep], x[keep], gram[keep], consts[keep]
                scale, damping, growth = scale[keep], damping[keep], growth[keep]
    out[ids] = x
    return out


def _batched_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack; a singular system yields a NaN row
    instead of failing the whole stack (the stack is split in halves until
    the singular rows are alone)."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full_like(b, np.nan)
        half = len(a) // 2
        return np.concatenate([_batched_solve(a[:half], b[:half]), _batched_solve(a[half:], b[half:])])


# Joe-Kuo primitive polynomials and initial direction numbers of Sobol'
# dimensions 2..7 (dimension 1 is van der Corput), with 30-bit points.
_SOBOL_POLYS = (3, 7, 11, 13, 19, 25)
_SOBOL_VINIT = ((1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13))
_SOBOL_BITS = 30


@functools.cache
def _sobol_direction_bits() -> np.ndarray:
    """The direction numbers' bits, most significant first: (7, 30, 30), read-only."""
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
    v <<= np.arange(bits - 1, -1, -1)  # m_j / 2^(j + 1) as a 30-bit fraction
    msb_first = (v[..., None] >> np.arange(bits - 1, -1, -1)) & 1
    msb_first.setflags(write=False)
    return msb_first


def _sobol_points(n: int, seed: int) -> np.ndarray:
    """The first n points of the 7-dimensional Sobol' sequence in [0, 1)^7,
    scrambled by a random linear matrix (LMS) and a digital shift drawn from
    default_rng(seed); the same points as scipy.stats.qmc.Sobol(d=7,
    scramble=True, seed=seed).random(n), bit for bit."""
    bits = _SOBOL_BITS
    powers = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(7, bits), dtype=np.uint32) @ powers[::-1]
    ltm = np.tril(rng.integers(2, size=(7, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # With bits written most significant first, the scramble is a matrix
    # product mod 2: column j of each dimension becomes ltm @ bits(v[j]).
    v = ((_sobol_direction_bits() @ np.swapaxes(ltm, 1, 2)) % 2) @ powers

    # Gray-code order: point i flips the direction of i's lowest set bit.
    lowest = [(i & -i).bit_length() - 1 for i in range(1, n)]
    quasi = np.bitwise_xor.accumulate(np.vstack([shift, v[:, lowest].T]), axis=0)[:n]
    return quasi * 2.0**-bits


def solve_hardy(theta: float, *, starts: int = 32, seed: int = 20240901) -> HardyAngles:
    """Least-squares solve of the 13-equation angle system at one theta: the
    angles of the one-point scan_hardy, with their certified residual_norm
    and the count of starts whose cost went non-finite; the caller decides
    what residual_norm it will accept.  A lone theta has no neighbours to
    continue from, so it can miss a solution that a grid scan finds.
    """
    return scan_hardy([theta], starts=starts, seed=seed)[0].angles


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
        norms = np.linalg.norm(hardy_kernel.residuals(xs, theta), axis=1)
        for i in dict.fromkeys(owner.tolist()):  # np.unique would load numpy.ma
            mine = owner == i
            near, near_norms, diverged, total = found[i]
            cand = np.vstack([near, xs[mine]])
            cand_norms = np.concatenate([near_norms, norms[mine]])
            # The finite norms within 1e-12 of the smallest one.
            finite = np.isfinite(cand_norms)
            keep = finite & (cand_norms <= cand_norms[finite].min(initial=np.inf) + 1e-12)
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
            best = HardyAngles(theta, *_wrap_angles(np.pi * _sobol_points(1, seed + i)[0]).tolist())
            raise HardySolverError(f"all {total} starts diverged at theta={theta!r}",
                                   best=best.with_residual())
        # The near-best iterate closest (wrapped) to the previous point's answer.
        key = np.linalg.norm if prev is None else (
            lambda x: (np.linalg.norm(_wrap_angles(x - prev)), np.linalg.norm(x)))
        chosen = min(near, key=key)
        res = hardy_kernel.residuals(chosen, theta)  # the one residual evaluation at this point
        angles = HardyAngles(theta, *chosen.tolist(), residual_norm=float(np.linalg.norm(res)),
                             diverged=diverged)
        failing = tuple(sorted(((lbl, float(r)) for lbl, r in zip(RESIDUAL_LABELS, res) if abs(r) > tol),
                               key=lambda lr: -abs(lr[1])))
        rows.append(HardyScanRow(theta, angles, angles.solved(tol), failing))
        prev = chosen
    return rows


# --- joint predictions from solved angles ---------------------------------

# Per setting: (index into ANGLE_NAMES, sin sign, primed axis?).  The printed
# b- point swaps sin and cos of eta; swapped_b_minus=False restores the
# unswapped variant for comparison.
_HARDY_SETTINGS = {
    "a+": (0, +1, False), "a-": (4, -1, False), "a'+": (2, +1, True), "a'-": (5, -1, True),
    "b+": (1, +1, False), "b-": (4, -1, False), "b'+": (3, +1, True), "b'-": (6, -1, True),
}


def hardy_points(x, thetas, pairs=qmref.HARDY_PAIRS, *, swapped_b_minus: bool = True):
    """Product points of the two tilted points of each pair = (site1, site2),
    e.g. ("a'+", "b+"), for each row of a (T, 7) angle stack with its thetas:
    the scalars f, (T, P), and the oriented bivector axes, (T, P, 3).

    For tilted points (c1 + s1 * beable(u)) (c2 + s2 * beable(v)) the scalar
    is c1 c2 - s1 s2 (u . v) and the oriented axis c2 s1 u + c1 s2 v -
    s1 s2 (u x v).  Both sides share z as the plain direction and the
    direction at polar angle 2 theta in the x-z plane as the primed one, so
    a.b = a'.b' = 1 and a'.b = a.b' = cos 2 theta.  u . v is _inner's
    dot, so each f has the bits of a per-pair np.dot.
    """
    unknown = [s for pair in pairs for s in pair if s not in _HARDY_SETTINGS]
    if unknown:
        raise ValueError(f"unknown setting {unknown[0]!r}")
    table = np.array([[_HARDY_SETTINGS[s] for s in pair] for pair in pairs])  # (P, 2, 3)
    index, sign, primed = np.moveaxis(table, -1, 0)
    x = np.asarray(x, dtype=float).reshape(-1, 7)
    cos, sin = np.cos(x)[:, index], np.sin(x)[:, index]  # (T, P, 2)
    swap = np.array([[s == "b-" for s in pair] for pair in pairs]) & swapped_b_minus
    cos, sin = np.where(swap, sin, cos), sign * np.where(swap, cos, sin)
    primed_axis = coplanar_direction(2.0 * np.asarray(thetas, dtype=float))[:, None, None]
    u, v = np.moveaxis(np.where(primed.astype(bool)[..., None], primed_axis, [0.0, 0.0, 1.0]), -2, 0)
    (c1, c2), (s1, s2) = np.moveaxis(cos, -1, 0), np.moveaxis(sin, -1, 0)
    f = c1 * c2 - s1 * s2 * _inner(u, v)[..., 0]
    oriented = (c2 * s1)[..., None] * u + (c1 * s2)[..., None] * v - (s1 * s2)[..., None] * np.cross(u, v)
    return f, oriented


def hardy_joint(
    angles: HardyAngles, pair: tuple[str, str], *, swapped_b_minus: bool = True
) -> float:
    """Orientation-independent scalar of the product of the two tilted
    points selected by pair: the one-pair row of hardy_points."""
    f, _ = hardy_points([angles.as_array()], [angles.theta], [pair], swapped_b_minus=swapped_b_minus)
    return float(f[0, 0])


def hardy_report(
    angles: HardyAngles, *, tol_joint: float = 1e-8, swapped_b_minus: bool = True
) -> ComparisonReport:
    """All sixteen joint predictions from solved angles against the
    brute-force amplitudes, plus the oriented magnitudes as info rows.

    Only the four headline pairs (the three vanishing joints and the forced
    non-vanishing one) are gated: those are the ones the constraint system
    pins for any solution.  The other twelve are measurements.
    """
    f, oriented = hardy_points([angles.as_array()], [angles.theta], swapped_b_minus=swapped_b_minus)
    magnitude = np.sqrt(_inner(oriented[0], oriented[0])[:, 0])
    tol = [tol_joint if pair in HEADLINE_HARDY_PAIRS else math.inf for pair in qmref.HARDY_PAIRS]
    oracle = qmref.hardy_amplitudes([angles.theta])[0]
    # Each pair's joint row, then its oriented-magnitude row.
    return ComparisonReport(meta={"theta": angles.theta, "residual_norm": angles.residual_norm,
                                  "swapped_b_minus": swapped_b_minus}).add(
        [f"{name}[{s1},{s2}]" for s1, s2 in qmref.HARDY_PAIRS
         for name in ("hardy", "hardy_oriented_magnitude")],
        np.column_stack((f[0], magnitude)).ravel(),
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
    return DecompositionResult(f, oriented)


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


def ghz_values(which: str, dirs, alpha=None, delta=None, table: CrossTable | None = None):
    """(oracle, ghz_kernel values) of an (N, k, 3) stack of direction tuples:
    k = 4 for ghz4; k = 3 for ghz3, whose reference point and state take the
    per-row alpha and delta. The pinned Z is e3 times the product of the last
    three directions' z components."""
    dirs = np.asarray(dirs, dtype=float)
    sites = dirs.transpose(1, 0, 2)
    if which == "ghz4":
        embedded, state = embed_ghz4(*sites), qmref.ghz4_state()
    else:
        embedded, state = embed_ghz3(*sites, alpha, delta), qmref.ghz3_amplitudes(alpha, delta)
    prod_z = dirs[:, -3, 2] * dirs[:, -2, 2] * dirs[:, -1, 2]
    return qmref.expectations(state, dirs), ghz_kernel(np.stack(embedded, axis=-2), prod_z, table)


def _ghz_model(which, dirs, mode, table, tol, **numbers):
    """The value of the given mode and the report of one setting: ghz_values
    on its one-row stack; numbers are ghz3's alpha and delta."""
    if mode not in GHZ_MODES:
        raise ValueError(f"mode must be one of {GHZ_MODES}, got {mode!r}")
    table = get_table(table)
    oracle, values = ghz_values(which, [dirs], table=table, **{k: [v] for k, v in numbers.items()})
    report = ghz_report(which, oracle, values, tol,
                        {"mode": mode, "table": table.table_id, **numbers})
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
    return _ghz_model("ghz4", (n1, n2, n3, n4), mode, table, tol)


def ghz3_model(n1, n2, n3, alpha: float, delta: float, mode: str = "pinned_z",
               table: CrossTable | str | None = None,
               tol: float = ALGEBRA_ROW_TOL) -> tuple[float, ComparisonReport]:
    """Three-particle model value plus report; the reference point carries
    (alpha, delta) and the pinned Z is e3 * (n1z n2z n3z)."""
    return _ghz_model("ghz3", (n1, n2, n3), mode, table, tol, alpha=alpha, delta=delta)
