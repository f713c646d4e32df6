"""Hardy constraint system and solver checks.

The seven-angle system is overdetermined (13 equations); whether it is
satisfiable at a given theta is an empirical question answered per grid
point.  The symmetric endpoint theta = 0 certifies below 1e-10 and its
solved angles reproduce the joint predictions; interior points do not
certify and must be flagged with the violated equations, never hidden.
"""

import math

import numpy as np
import pytest

from spherelab import ga3, lrmodel, qmref
from spherelab.lrmodel import HardyAngles, RESIDUAL_LABELS

RNG = np.random.default_rng(505)

CANONICAL_THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def _random_angles(theta=0.3):
    return HardyAngles(theta, *RNG.uniform(0, np.pi, 7))


def _reference_product_residuals(theta, x):
    """Independent math-based copy of the product form, one row at a time."""
    al, be, ga, de, et, ro, nu = (float(v) for v in x)
    cos, sin = math.cos, math.sin
    ct, st = cos(theta), sin(theta)
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
    assert lrmodel.hardy_residuals(angles, form="ratio")[0] == pytest.approx(0.0, abs=1e-15)


def test_product_and_ratio_forms_share_zero_set():
    # Away from poles the two forms agree after weighting by denominators.
    angles = HardyAngles(0.3, 0.9, 0.7, 1.1, 0.6, 0.8, 1.2, 0.5)
    prod = lrmodel.hardy_residuals(angles, form="product")
    ratio = lrmodel.hardy_residuals(angles, form="ratio")
    assert prod[0] == pytest.approx(ratio[0] * math.sin(angles.gamma) * math.sin(angles.beta), abs=1e-12)
    # sin/cos-sum residuals are identical in both forms
    for i in (2, 3, 4, 9, 10, 11, 12):
        assert prod[i] == ratio[i]


def test_ratio_form_raises_at_poles():
    angles = HardyAngles(0.3, 0.9, 0.7, 0.0, 0.6, 0.8, 1.2, 0.5)  # gamma = 0
    with pytest.raises(lrmodel.HardyPoleError):
        lrmodel.hardy_residuals(angles, form="ratio")
    with pytest.raises(ValueError):
        lrmodel.hardy_residuals(angles, form="bogus")


def test_residual_norm_self_consistency():
    angles = _random_angles().with_residual()
    assert angles.residual_norm == pytest.approx(
        float(np.linalg.norm(lrmodel.hardy_residuals(angles))), abs=1e-12
    )


def test_solve_at_symmetric_point():
    angles = lrmodel.solve_hardy(0.0)
    assert angles.residual_norm < 1e-10
    assert angles.solved()


def test_solved_angles_reproduce_headline_predictions():
    angles = lrmodel.solve_hardy(0.0)
    for s1, s2 in lrmodel.HEADLINE_HARDY_PAIRS:
        model = lrmodel.hardy_joint(angles, (s1, s2))
        oracle = qmref.hardy_amplitude(0.0, s1, s2)
        assert model == pytest.approx(oracle, abs=1e-8), (s1, s2)


def test_perturbed_solution_is_detected():
    angles = lrmodel.solve_hardy(0.0)
    bumped = HardyAngles(0.0, angles.alpha + 0.1, *(angles.as_array()[1:])).with_residual()
    assert bumped.residual_norm > 1e-3


def test_solver_failure_carries_best_iterate():
    with pytest.raises(lrmodel.HardySolverError) as err:
        lrmodel.solve_hardy(float("nan"), starts=2)
    assert err.value.best is not None


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
    # The (f, oriented) split must equal the raw Cl(3,0) product of the two
    # tilted points at orientation +1.
    angles = _random_angles(theta=0.35).with_residual()
    plain, primed = lrmodel.hardy_directions(angles.theta)
    tilt_map = {
        "a+": (angles.alpha, plain, 1),
        "a-": (angles.eta, plain, -1),
        "a'+": (angles.gamma, primed, 1),
        "a'-": (angles.rho, primed, -1),
        "b+": (angles.beta, plain, 1),
        "b'+": (angles.delta, primed, 1),
        "b'-": (angles.nu, primed, -1),
    }
    for s1, s2 in qmref.HARDY_PAIRS:
        if s2 == "b-":
            chi = math.pi / 2 - angles.eta  # swapped point: sin/cos exchanged
            p2 = ga3.tilted_point(chi, plain, 1, sign=-1)
        else:
            chi, axis, sign = tilt_map[s2]
            p2 = ga3.tilted_point(chi, axis, 1, sign=sign)
        chi1, axis1, sign1 = tilt_map[s1]
        p1 = ga3.tilted_point(chi1, axis1, 1, sign=sign1)
        raw = ga3.geometric_product(p1, p2)
        point = lrmodel.hardy_point(angles, (s1, s2))
        assert point.f == pytest.approx(raw.s, abs=1e-13), (s1, s2)
        assert np.allclose(point.oriented, raw.b, atol=1e-13), (s1, s2)
        assert lrmodel.hardy_joint(angles, (s1, s2)) == pytest.approx(raw.s, abs=1e-13)


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
        stack = lrmodel._product_residuals(x, theta)
        rows = np.array([lrmodel.hardy_residuals(HardyAngles(theta, *row)) for row in x])
        assert stack.shape == (100, 13)
        assert np.array_equal(stack, rows)
        reference = np.array([_reference_product_residuals(theta, row) for row in x])
        assert np.max(np.abs(stack - reference)) <= 1e-15


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2])
def test_complex_step_jacobian_matches_central_differences(theta):
    x = RNG.uniform(-4.0, 4.0, (50, 7))
    jac = lrmodel._product_jacobian(x, theta)
    assert jac.shape == (50, 13, 7)
    h = 1e-6
    central = np.stack(
        [
            (lrmodel._product_residuals(x + h * e, theta) - lrmodel._product_residuals(x - h * e, theta))
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
    assert all(row.diverged == 0 for row in rows)
    assert all(row.to_dict()["diverged"] == 0 for row in rows)


def test_solver_makes_no_least_squares_call(monkeypatch):
    from scipy import optimize

    def forbidden(*args, **kwargs):
        raise AssertionError("least_squares called")

    monkeypatch.setattr(optimize, "least_squares", forbidden)
    assert lrmodel.solve_hardy(0.0).solved()


def test_solver_failure_with_init_carries_best_iterate():
    init = HardyAngles(0.0, *np.full(7, 0.5))
    with pytest.raises(lrmodel.HardySolverError) as err:
        lrmodel.solve_hardy(float("nan"), init=init, starts=2)
    assert "all 3 starts diverged" in str(err.value)
    assert err.value.best is not None and err.value.best.theta != err.value.best.theta


def test_non_finite_start_is_counted_and_does_not_stop_the_others():
    init = HardyAngles(0.0, float("nan"), *np.full(6, 0.5))
    angles = lrmodel.solve_hardy(0.0, init=init)
    assert angles.diverged == 1
    assert angles.residual_norm < 1e-12


def test_singular_system_does_not_fail_the_stack():
    a = np.stack([np.eye(7), np.zeros((7, 7)), 2.0 * np.eye(7)])
    b = np.ones((3, 7))
    step = lrmodel._batched_solve(a, b)
    assert np.array_equal(step[0], np.ones(7)) and np.array_equal(step[2], np.full(7, 0.5))
    assert np.isnan(step[1]).all()
