"""Hardy constraint system and solver checks.

The seven-angle system is overdetermined (13 equations); whether it is
satisfiable at a given theta is an empirical question answered per grid
point.  The symmetric endpoint theta = 0 certifies below 1e-10 and its
solved angles reproduce the joint predictions; interior points do not
certify and must be flagged with the violated equations, never hidden.
"""

import ast
import cmath
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest

from spherelab import ga3, geometry, hardy_kernel, lrmodel, qmref, sphere7
from spherelab.lrmodel import HardyAngles, RESIDUAL_LABELS

RNG = np.random.default_rng(505)

CANONICAL_THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def _random_angles(theta=0.3):
    return HardyAngles(theta, *RNG.uniform(0, np.pi, 7))


def _reference_product_residuals(theta, x, trig=math):
    """Independent math-based copy of the product form, one row at a time;
    trig=cmath takes a complex row, for complex-step derivatives."""
    al, be, ga, de, et, ro, nu = (v if trig is cmath else float(v) for v in x)
    cos, sin = trig.cos, trig.sin
    ct, st = math.cos(theta), math.sin(theta)
    k = 1.0 - 2.0 * st * st
    s = math.sqrt(1.0 + ct * ct)
    rne_num = cos(ro) * sin(et) - cos(nu) * cos(et)
    rne_den = sin(ro) * cos(et) - sin(nu) * sin(et)
    gde_num = cos(ga) * sin(et) - cos(de) * cos(et)
    gde_den = sin(de) * sin(et) - sin(ga) * cos(et)
    anrb_num = cos(al) * cos(nu) - cos(ro) * cos(be)
    anrb_den = sin(ro) * sin(be) - sin(al) * sin(nu)
    return np.array([
        cos(ga) * cos(be) - k * sin(ga) * sin(be),
        cos(al) * cos(de) - k * sin(al) * sin(de),
        cos(al + be) + st / s,
        cos(ro + nu) + cos(ga + de) + st / s,
        cos(ga + de) - st * ct * ct / s,
        rne_num - k * rne_den,
        gde_num - k * gde_den,
        anrb_num - k * anrb_den,
        k * rne_den - rne_num,
        cos(ga - nu) - ct**3 / s,
        cos(ro - de) - ct**3 / s,
        sin(al + et) - ct / s,
        cos(et - be) - ct / s,
    ])


def test_residual_vector_shape_and_labels():
    res = lrmodel.hardy_residuals(_random_angles())
    assert res.shape == (13,)
    assert len(RESIDUAL_LABELS) == 13
    assert len(set(RESIDUAL_LABELS)) == 13


def test_first_constraint_at_symmetric_point():
    # gamma = beta = pi/4 at theta = 0: cot(pi/4)cot(pi/4) - 1 = 0.
    angles = HardyAngles(0.0, 0.1, np.pi / 4, np.pi / 4, 0.2, 0.3, 0.4, 0.5)
    assert lrmodel.hardy_residuals(angles)[0] == pytest.approx(0.0, abs=1e-15)


def test_residual_norm_self_consistency():
    (row,) = lrmodel.scan_hardy([0.3])
    assert row.angles.residual_norm == pytest.approx(
        float(np.linalg.norm(lrmodel.hardy_residuals(row.angles))), abs=1e-12
    )


def test_solve_at_symmetric_point():
    angles = lrmodel.solve_hardy(0.0)
    assert angles.residual_norm < 1e-10
    assert lrmodel.scan_hardy([0.0])[0].solved


def test_solved_angles_reproduce_headline_predictions():
    angles = lrmodel.solve_hardy(0.0)
    for s1, s2 in lrmodel.HEADLINE_HARDY_PAIRS:
        model = lrmodel.hardy_joint(angles, (s1, s2))
        oracle = qmref.hardy_amplitude(0.0, s1, s2)
        assert model == pytest.approx(oracle, abs=1e-8), (s1, s2)


def test_perturbed_solution_is_detected():
    angles = lrmodel.solve_hardy(0.0)
    bumped = HardyAngles(0.0, angles.alpha + 0.1, *(angles.as_array()[1:]))
    assert np.linalg.norm(lrmodel.hardy_residuals(bumped)) > 1e-3


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_theta_raises_value_error(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        lrmodel.solve_hardy(theta, starts=2)
    with pytest.raises(ValueError, match="theta must be finite"):
        lrmodel.scan_hardy([0.0, theta], starts=2)


def test_scan_checks_the_reported_thetas_against_the_hardy_domain():
    with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\]"):
        lrmodel.scan_hardy([0.0, 2.0], starts=2)
    # pi/2 is in the domain; its lone companion, 5 degrees past it, is not reported.
    (row,) = lrmodel.scan_hardy([math.pi / 2], starts=2)
    assert row.theta == math.pi / 2


def test_scan_documents_infeasible_thetas():
    rows = lrmodel.scan_hardy(CANONICAL_THETAS)
    assert rows[0].solved and rows[0].angles.residual_norm < 1e-10
    for row in rows[1:]:
        # Interior thetas and pi/2: the system is genuinely overdetermined
        # there; the report must carry the violated equations.
        assert not row.solved
        assert row.angles.residual_norm > 1e-6
        assert len(row.failing) >= 1
        assert all(label in RESIDUAL_LABELS for label, _ in row.failing)
        d = row.to_dict()
        assert d["solved"] is False and d["failing"]


def test_scan_continuation_is_deterministic():
    grid = np.linspace(0.0, 0.2, 3)
    rows1 = lrmodel.scan_hardy(grid, seed=99)
    rows2 = lrmodel.scan_hardy(grid, seed=99)
    for r1, r2 in zip(rows1, rows2):
        assert np.array_equal(r1.angles.as_array(), r2.angles.as_array())


def test_hardy_point_matches_kernel_tilted_product():
    # Each pair's (f, oriented) split must equal the raw Cl(3,0) product of
    # the two tilted points at orientation +1, for both b- variants.
    thetas = np.array([0.0, 0.35, math.pi / 4, math.pi / 2])
    x = RNG.uniform(0, np.pi, (len(thetas), 7))
    for swapped in (True, False):
        f, oriented = lrmodel.hardy_points(x, thetas, swapped_b_minus=swapped)
        assert f.shape == (4, 16) and oriented.shape == (4, 16, 3)
        for t, (theta, (al, be, ga, de, et, ro, nu)) in enumerate(zip(thetas, x)):
            plain = np.array([0.0, 0.0, 1.0])
            primed = np.array([math.sin(2 * theta), 0.0, math.cos(2 * theta)])
            tilts = {
                "a+": (al, plain, 1), "a-": (et, plain, -1), "a'+": (ga, primed, 1),
                "a'-": (ro, primed, -1), "b+": (be, plain, 1), "b'+": (de, primed, 1),
                "b'-": (nu, primed, -1),
                # The printed b- point exchanges sin and cos of eta.
                "b-": (math.pi / 2 - et if swapped else et, plain, -1),
            }
            for p, pair in enumerate(qmref.HARDY_PAIRS):
                raw = ga3.geometric_product(*(ga3.tilted_point(chi, axis, 1, sign=sign)
                                              for chi, axis, sign in (tilts[s] for s in pair)))
                assert f[t, p] == pytest.approx(raw.s, abs=1e-13), (theta, pair, swapped)
                assert np.allclose(oriented[t, p], raw.b, atol=1e-13), (theta, pair, swapped)


def test_hardy_points_stack_matches_rows_bit_for_bit():
    # 100 rows with their own thetas; each row's one-row call, and each
    # pair's hardy_joint, must give the stack's bits.
    thetas = RNG.uniform(0.0, math.pi / 2, 100)
    x = RNG.uniform(-4.0, 4.0, (100, 7))
    for swapped in (True, False):
        f, oriented = lrmodel.hardy_points(x, thetas, swapped_b_minus=swapped)
        for t, (theta, row) in enumerate(zip(thetas, x)):
            f_row, oriented_row = lrmodel.hardy_points(row[None], [theta], swapped_b_minus=swapped)
            assert np.array_equal(f_row[0], f[t]) and np.array_equal(oriented_row[0], oriented[t])
            angles = HardyAngles(float(theta), *row.tolist())
            joints = [lrmodel.hardy_joint(angles, pair, swapped_b_minus=swapped)
                      for pair in qmref.HARDY_PAIRS]
            assert np.array_equal(joints, f[t])


def test_b_minus_swap_flag():
    angles = _random_angles(theta=0.4)
    swapped = lrmodel.hardy_joint(angles, ("a-", "b-"), swapped_b_minus=True)
    unswapped = lrmodel.hardy_joint(angles, ("a-", "b-"), swapped_b_minus=False)
    # Printed (swapped) variant vanishes identically for the (a-, b-) pair;
    # the unswapped variant gives cos(2 eta).
    assert swapped == pytest.approx(0.0, abs=1e-15)
    assert unswapped == pytest.approx(math.cos(2 * angles.eta), abs=1e-14)


def test_hardy_report_structure():
    angles = lrmodel.solve_hardy(0.0)
    report = lrmodel.hardy_report(angles)
    joint_rows = [r for r in report.rows if r.label.startswith("hardy[")]
    assert len(joint_rows) == 16
    headline = [
        r for r in joint_rows
        if any(f"[{s1},{s2}]" in r.label for s1, s2 in lrmodel.HEADLINE_HARDY_PAIRS)
    ]
    assert len(headline) == 4
    assert all(r.verdict == "match" for r in headline)


def test_unknown_pair_rejected():
    angles = lrmodel.solve_hardy(0.0)
    with pytest.raises(ValueError):
        lrmodel.hardy_joint(angles, ("q+", "b+"))


def test_residual_kernel_stack_matches_rows_bit_for_bit():
    # 10,000 rows: 100 thetas in [0, pi/2], each with a 100-row angle stack
    # in [-4, 4]; the kernel takes one theta per call.
    for theta in RNG.uniform(0.0, math.pi / 2, 100):
        x = RNG.uniform(-4.0, 4.0, (100, 7))
        stack = hardy_kernel.residuals(x, theta)
        rows = np.array([lrmodel.hardy_residuals(HardyAngles(theta, *row)) for row in x])
        assert stack.shape == (100, 13)
        assert np.array_equal(stack, rows)
        reference = np.array([_reference_product_residuals(theta, row) for row in x])
        assert np.max(np.abs(stack - reference)) <= 1e-15


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2])
def test_analytic_jacobian_matches_central_differences(theta):
    x = RNG.uniform(-4.0, 4.0, (50, 7))
    jac = hardy_kernel.jacobian(x, theta)
    assert jac.shape == (50, 13, 7)
    h = 1e-6
    central = np.stack(
        [
            (hardy_kernel.residuals(x + h * e, theta) - hardy_kernel.residuals(x - h * e, theta))
            / (2 * h)
            for e in np.eye(7)
        ],
        axis=-1,
    )
    assert np.max(np.abs(jac - central)) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 20240901])
def test_scan_certifies_only_theta_zero_across_seeds(seed):
    rows = lrmodel.scan_hardy(CANONICAL_THETAS, seed=seed)
    assert [row.solved for row in rows] == [True, False, False, False, False]
    assert rows[0].angles.residual_norm < 1e-12


# The first rows of scipy.stats.qmc.Sobol(d=7, scramble=True, seed=20240901),
# as scipy 1.17.1 gives them.
SOBOL_20240901 = [
    [0.8870097352191806, 0.7795200934633613, 0.11199840158224106, 0.21993934269994497,
     0.20393209159374237, 0.23123475071042776, 0.881651128642261],
    [0.14660769514739513, 0.3525142129510641, 0.8896572440862656, 0.582704464904964,
     0.8895974429324269, 0.7893274296075106, 0.08668189216405153],
    [0.48988253623247147, 0.5049009909853339, 0.34845109190791845, 0.42698725778609514,
     0.7036310201510787, 0.6297870920971036, 0.5224993666633964],
    [0.7341911913827062, 0.11306471191346645, 0.6498933797702193, 0.7507156142964959,
     0.38930351473391056, 0.31290945410728455, 0.44631475303322077],
]


def test_sobol_start_set_golden_rows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no power-of-two note, unlike scipy
        points = lrmodel._sobol_points(5, 20240901)
        empty = lrmodel._sobol_points(0, 20240901)
    assert points.shape == (5, 7) and points.dtype == np.float64
    assert points[:4].tolist() == SOBOL_20240901
    assert empty.shape == (0, 7)


@pytest.mark.parametrize("n, seeds", [
    (32, [*range(200), *range(20240901, 20240931)]),
    *((n, range(20)) for n in (0, 1, 2, 3, 5, 7, 16, 31, 33, 64, 100, 257)),
])
def test_sobol_start_set_matches_scipy(n, seeds):
    qmc = pytest.importorskip("scipy.stats.qmc")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # scipy's power-of-two note
        for seed in seeds:
            want = qmc.Sobol(d=7, scramble=True, seed=seed).random(n)
            got = lrmodel._sobol_points(n, seed)
            assert got.shape == want.shape and np.array_equal(got, want), seed


@pytest.mark.parametrize("starts", [-1, 0])
def test_solver_without_a_start_raises_value_error(starts):
    with pytest.raises(ValueError, match="starts must be at least"):
        lrmodel.solve_hardy(0.0, starts=starts)


def test_rank_deficient_start_takes_a_finite_step_at_the_damping_floor(monkeypatch):
    # At x = 0 and theta = 0 the beta, delta and nu columns of J vanish, so
    # J^T J has rank 3. A damping set to nothing is lifted to the floor, which
    # keeps the damped system regular: the first step is finite and nonzero,
    # and the start moves downhill.
    x0 = np.zeros((1, 7))
    gram = hardy_kernel.gram_triangle(x0, hardy_kernel.theta_terms(0.0)[None])
    assert np.linalg.matrix_rank(gram.take(hardy_kernel.GRAM_SQUARE, axis=1).reshape(7, 7)) == 3
    steps, solve = [], np.linalg.solve

    def recorded(a, b):
        steps.append(solve(a, b))
        return steps[-1]

    monkeypatch.setattr(np.linalg, "solve", recorded)
    monkeypatch.setattr(lrmodel, "_LM_DAMPING0", 0.0)
    out = lrmodel._solve_lm(x0, 0.0)
    assert np.isfinite(steps[0]).all() and steps[0].any()
    cost = [np.sum(hardy_kernel.residuals(x, 0.0) ** 2) for x in (x0, out)]
    assert cost[1] < cost[0]


def test_per_row_theta_kernels_match_scalar_theta_bit_for_bit():
    # 19 grid thetas, each with its own rows: one per-row-theta call must
    # give the bits of 19 scalar-theta calls.
    thetas = np.linspace(0.0, math.pi / 2, 19)
    x = RNG.uniform(-4.0, 4.0, (19, 50, 7))
    per_row = hardy_kernel.residuals(x.reshape(-1, 7), np.repeat(thetas, 50))
    scalar = np.concatenate([hardy_kernel.residuals(xi, t) for xi, t in zip(x, thetas)])
    assert np.array_equal(per_row, scalar)
    x = x[:, :40]
    per_row = hardy_kernel.jacobian(x.reshape(-1, 7), np.repeat(thetas, 40))
    scalar = np.concatenate([hardy_kernel.jacobian(xi, t) for xi, t in zip(x, thetas)])
    assert per_row.shape == (760, 13, 7) and np.array_equal(per_row, scalar)


def test_per_row_theta_broadcasts_against_the_leading_shape():
    thetas = RNG.uniform(0.0, math.pi / 2, (3, 4))
    x = RNG.uniform(-4.0, 4.0, (3, 4, 7))
    stack = hardy_kernel.residuals(x, thetas)
    assert stack.shape == (3, 4, 13)
    for i, j in np.ndindex(3, 4):
        assert np.array_equal(stack[i, j], hardy_kernel.residuals(x[i, j], thetas[i, j]))


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_jacobian_matches_a_complex_step_of_the_reference(theta):
    # Im r(x + i h e_j) / h of the independent reference is d r / d x_j up
    # to O(h^2), with no difference taken.
    x = RNG.uniform(-4.0, 4.0, (70, 7))
    h = 1e-30
    steps = 1j * h * np.eye(7)
    want = np.array([[_reference_product_residuals(theta, row + e, cmath).imag / h for e in steps]
                     for row in x.astype(complex)])
    assert np.max(np.abs(hardy_kernel.jacobian(x, theta) - np.swapaxes(want, 1, 2))) <= 1e-14


HARDY_GRID_0_90_19 = np.linspace(0.0, math.pi / 2, 19)


@pytest.mark.parametrize("seed", range(5))
def test_19_point_scan_certifies_only_theta_zero(seed):
    rows = lrmodel.scan_hardy(HARDY_GRID_0_90_19, seed=seed)
    assert [row.solved for row in rows] == [True] + [False] * 18
    assert rows[0].angles.residual_norm < 1e-12


def test_solver_makes_one_kernel_call_per_iteration(monkeypatch):
    counts = {"kernel": 0, "solve": 0}
    kernel, solve = hardy_kernel.gram_triangle, np.linalg.solve

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(hardy_kernel, "gram_triangle", counted("kernel", kernel))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
    lrmodel._solve_lm(np.pi * lrmodel._sobol_points(32, 3), 0.3)
    # One call at the starts, then one per iteration (one solve each).
    assert counts["solve"] > 10 and counts["kernel"] == counts["solve"] + 1


def test_kernel_and_solver_make_no_blas_call():
    # Matrix products and 1-D norms go through the BLAS kernel, whose
    # summation order changes with the CPU; the residual kernel, the solver
    # loop, the scan and its norms, and the S^7, GHZ and oracle kernels use
    # none, so the Hardy path's one LAPACK call is the solve in _solve_lm. A
    # bare `dot` may only be geometry.dot, the in-order sum, which uses no
    # einsum either.
    banned = {"dot", "vdot", "matmul", "inner", "_inner", "tensordot", "norm"}
    for fn in (hardy_kernel.terms, hardy_kernel.gram_triangle, lrmodel._solve_lm,
               lrmodel.scan_hardy, lrmodel._norms,
               geometry.dot, sphere7.cross7, sphere7.z_deviation, sphere7.lagrange_residual,
               sphere7._oct_components, sphere7.embed_ghz3, sphere7.embed_ghz4, sphere7._embed,
               lrmodel.ghz_kernel, lrmodel.ghz_report, qmref.spin_matrix, qmref.expectations,
               qmref.hardy_amplitudes):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        used = {"@" for node in ast.walk(tree)
                if isinstance(getattr(node, "op", None), ast.MatMult)}
        used |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in banned}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                 and node.id in banned and fn.__globals__.get(node.id) is not geometry.dot}
        assert not used, (fn.__name__, used)
    assert "einsum" not in inspect.getsource(geometry.dot)


@pytest.mark.parametrize("seed", [41065, 42814])
@pytest.mark.parametrize("grid", [CANONICAL_THETAS, HARDY_GRID_0_90_19], ids=["canonical", "0:90:19"])
def test_scan_certifies_theta_zero_where_a_lone_solve_misses_it(seed, grid):
    # At these seeds the 32 Sobol' starts at theta = 0 all stall near 0.767;
    # the restart from the next grid point's best finds the root.
    rows = lrmodel.scan_hardy(grid, seed=seed)
    assert [row.solved for row in rows] == [True] + [False] * (len(grid) - 1)
    assert rows[0].angles.residual_norm < 1e-12


def _sequential_scan_norms(thetas, seed):
    """Best residual norms of the one-theta-at-a-time scan, each solve
    started from the previous theta's answer as well as its Sobol' points;
    ties within 1e-12 of the best norm break toward the previous answer."""
    norms, prev = [], None
    for i, theta in enumerate(thetas):
        x0 = np.pi * lrmodel._sobol_points(32, seed + i)
        if prev is not None:
            x0 = np.vstack([prev, x0])
        xs = lrmodel._wrap_angles(lrmodel._solve_lm(x0, theta))
        row_norms = np.linalg.norm(hardy_kernel.residuals(xs, theta), axis=1)
        key = np.linalg.norm if prev is None else (
            lambda x: (np.linalg.norm(lrmodel._wrap_angles(x - prev)), np.linalg.norm(x)))
        prev = min(xs[row_norms <= np.nanmin(row_norms) + 1e-12], key=key)
        norms.append(np.linalg.norm(hardy_kernel.residuals(prev, theta)))
    return np.array(norms)


@pytest.mark.parametrize("seed", [0, 5, 20240901])
def test_two_pass_scan_is_never_worse_than_the_sequential_scan(seed):
    grid = np.linspace(0.0, math.pi / 2, 7)
    rows = lrmodel.scan_hardy(grid, seed=seed)
    norms = np.array([row.angles.residual_norm for row in rows])
    assert np.all(norms <= _sequential_scan_norms(grid, seed) + 1e-9)


def _count_solver_calls(monkeypatch):
    calls = []
    solve = lrmodel._solve_lm

    def counted(x0, theta):
        calls.append(len(x0))
        return solve(x0, theta)

    monkeypatch.setattr(lrmodel, "_solve_lm", counted)
    return calls


def test_scan_of_the_19_point_grid_is_one_call_per_pass(monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    lrmodel.scan_hardy(HARDY_GRID_0_90_19, seed=3)
    # Pass 1: 19 x 32 starts; pass 2: both neighbours of each point.
    assert calls == [19 * 32, 2 * 18]


def test_one_point_scan_restarts_from_its_companion(monkeypatch):
    # Pass 1 solves the lone theta and its companion; pass 2 restarts only
    # the lone theta, from the companion's best.
    calls = _count_solver_calls(monkeypatch)
    (row,) = lrmodel.scan_hardy([0.0], seed=11)
    assert calls == [2 * 32, 1]
    assert row.angles == lrmodel.solve_hardy(0.0, seed=11)


@pytest.mark.parametrize("seed", [41065, 42814])
def test_lone_theta_zero_certifies_where_its_own_starts_miss(seed):
    # These seeds' 32 Sobol' starts at theta = 0 all stall near 0.767.
    assert lrmodel.solve_hardy(0.0, seed=seed).residual_norm < 1e-12


def test_failing_labels_do_not_follow_the_stopping_rule(monkeypatch):
    # Where LM stops along a flat valley moves with ftol; which equations
    # fail is a property of the system and must not.
    def labels():
        return [[{label for label, _ in row.failing}
                 for row in lrmodel.scan_hardy(CANONICAL_THETAS, seed=seed)] for seed in range(10)]

    want = labels()
    ftol = lrmodel._LM_FTOL
    for scale in (0.5, 2.0):
        monkeypatch.setattr(lrmodel, "_LM_FTOL", scale * ftol)
        assert labels() == want, scale


def test_scan_peak_memory_does_not_grow_with_the_grid(monkeypatch):
    # With 32-row calls at 8 starts, 4 thetas fill one pass-1 call and 12
    # need three; the peak must stay about that of one call.
    import tracemalloc

    monkeypatch.setattr(lrmodel, "_SCAN_MAX_ROWS", 32)
    calls = _count_solver_calls(monkeypatch)
    lrmodel.scan_hardy([0.0], starts=2)  # warm up

    def peak(points):
        tracemalloc.start()
        try:
            lrmodel.scan_hardy(np.linspace(0.1, 1.2, points), starts=8, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_call = peak(4)
    del calls[:]
    assert peak(12) <= 1.25 * one_call
    assert calls == [32, 32, 32, 22]


def test_scan_rejects_no_starts():
    with pytest.raises(ValueError, match="starts must be at least 1"):
        lrmodel.scan_hardy([0.0], starts=0)
    assert lrmodel.scan_hardy([]) == []
