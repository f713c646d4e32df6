"""Model-vs-oracle comparison reports, the builders behind `spherelab compare`.

Each builder draws its seeded samples, evaluates the sphere model and the
brute-force oracle on them, and returns a ComparisonReport whose rows carry
the tolerance class that applies to them. A row with an infinite tolerance
is a measurement (an oriented magnitude, a table-vs-pinned gap, the residual
of an unsolved Hardy system), never an assertion.
"""

from __future__ import annotations

import math

import numpy as np

from . import lrmodel, qmref
from .geometry import coplanar_direction, random_unit_vectors
from .lrmodel import ComparisonReport, make_row
from .sphere7 import embed_ghz3, embed_ghz4, get_table

DEFAULT_TOLERANCES = {
    "algebraic": 1e-12,
    "solver_residual": 1e-10,
    "solver_prediction": 1e-8,
    "sweep_max": 1e-6,
}

CANONICAL_HARDY_THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def compare_singlet(samples: int = 1000, seed: int = 7, tolerances=None) -> ComparisonReport:
    tol = tolerances or DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    a, b = random_unit_vectors(rng, samples), random_unit_vectors(rng, samples)
    oracle = qmref.expectations(qmref.singlet_state(), np.stack((a, b), axis=1))
    rows = [
        make_row(f"singlet[{i}]", lrmodel.singlet_correlation(a[i], b[i]), oracle[i],
                 tol["algebraic"])
        for i in range(samples)
    ]
    return ComparisonReport(rows, meta={"state": "singlet", "samples": samples, "seed": seed})


def chsh_sweep_rows(count: int, seed: int, tolerances) -> tuple[list, dict]:
    """The seeded coplanar sweep of the model's CHSH string, and its two
    asserted rows: the swept supremum against 2 sqrt 2, and the displayed
    bound at its saturating quadruple."""
    sweep = lrmodel.scan_chsh(count, seed)
    bound = lrmodel.chsh_model_bound(*coplanar_direction(lrmodel.BOUND_SATURATING_QUADRUPLE))
    rows = [
        make_row("chsh.sweep_max_abs", sweep["max_abs_value"], lrmodel.TWO_SQRT2,
                 tolerances["sweep_max"]),
        make_row("chsh.bound_at_saturating_quadruple", bound, lrmodel.TWO_SQRT2,
                 tolerances["algebraic"]),
    ]
    return rows, sweep


def compare_chsh(
    samples: int = 1000, seed: int = 7, sweep_count: int = 100_000, tolerances=None
) -> ComparisonReport:
    tol = tolerances or DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    dirs = random_unit_vectors(rng, 4 * samples).reshape(samples, 4, 3)
    state = qmref.singlet_state()
    oracle = qmref.chsh_values(state, dirs)
    rows = [
        make_row(f"chsh[{i}]", lrmodel.chsh_model(*dirs[i]), oracle[i], tol["algebraic"])
        for i in range(samples)
    ]
    rows += chsh_sweep_rows(sweep_count, seed, tol)[0]
    best, _ = qmref.maximize_chsh(state, seed=seed)
    rows.append(make_row("chsh.qm_maximum_singlet", best, lrmodel.TWO_SQRT2, tol["sweep_max"]))
    return ComparisonReport(rows, meta={"state": "chsh", "samples": samples, "seed": seed})


def compare_hardy(thetas=CANONICAL_HARDY_THETAS, grid_points: int = 21, seed: int = 7,
                  starts: int = 32, tolerances=None) -> ComparisonReport:
    tol = tolerances or DEFAULT_TOLERANCES
    report = ComparisonReport([], meta={"state": "hardy", "seed": seed, "solver": {}})
    # Closed forms against the brute-force amplitudes on a theta grid.
    for theta in np.linspace(0.0, math.pi / 2, grid_points):
        report.rows += [make_row(f"hardy_closed_form[{theta:.6f},{s1},{s2}]",
                                 qmref.hardy_amplitude_closed_form(theta, s1, s2),
                                 qmref.hardy_amplitude(theta, s1, s2), tol["algebraic"])
                        for s1, s2 in qmref.HARDY_PAIRS]
    # Solver-mediated joint predictions where the angle system certifies.
    for row in lrmodel.scan_hardy(thetas, starts=starts, seed=seed,
                                  tol=tol["solver_residual"]):
        report.meta["solver"][f"{row.theta:.6f}"] = row.to_dict()
        if row.solved:
            report.rows += [make_row(f"hardy_model[{row.theta:.6f},{s1},{s2}]",
                                     lrmodel.hardy_joint(row.angles, (s1, s2)),
                                     qmref.hardy_amplitude(row.theta, s1, s2),
                                     tol["solver_prediction"])
                            for s1, s2 in lrmodel.HEADLINE_HARDY_PAIRS]
        else:
            report.rows.append(make_row(f"hardy_model.unsolved[{row.theta:.6f}]",
                                        row.angles.residual_norm, 0.0, float("inf")))
    return report


def compare_ghz(which: str, samples: int = 500, seed: int = 7, table=None,
                tolerances=None) -> ComparisonReport:
    """GHZ model rows (four per tuple) for `samples` seeded direction tuples,
    from one kernel call on the whole stack.

    ghz4 draws its 4N directions at once, which is the same stream as four
    per tuple. ghz3 draws per tuple, in the order 3 directions, alpha, delta,
    and needs one oracle state per tuple.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    if which == "ghz4":
        dirs = random_unit_vectors(rng, 4 * samples).reshape(samples, 4, 3)
        embedded = embed_ghz4(*dirs.transpose(1, 0, 2))
        prod_z = dirs[:, 1, 2] * dirs[:, 2, 2] * dirs[:, 3, 2]
        oracle = qmref.expectations(qmref.ghz4_state(), dirs)
    else:
        dirs, alpha, delta = np.empty((samples, 3, 3)), np.empty(samples), np.empty(samples)
        for i in range(samples):
            dirs[i] = random_unit_vectors(rng, 3)
            alpha[i], delta[i] = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
        embedded = embed_ghz3(*dirs.transpose(1, 0, 2), alpha, delta)
        prod_z = dirs[:, 0, 2] * dirs[:, 1, 2] * dirs[:, 2, 2]
        oracle = [qmref.expectations(qmref.ghz3_state(a, d), dirs[i:i + 1])[0]
                  for i, (a, d) in enumerate(zip(alpha, delta))]
    values = lrmodel.ghz_kernel(np.stack(embedded, axis=-2), prod_z, table)
    return ComparisonReport(
        lrmodel.ghz_rows(which, oracle, values, tol["algebraic"], indexed=True),
        meta={"state": which, "samples": samples, "seed": seed,
              "table": get_table(table).table_id},
    )


BUILDERS = {
    "singlet": lambda samples, seed, table, tol: compare_singlet(samples, seed, tol),
    "chsh": lambda samples, seed, table, tol: compare_chsh(samples, seed, tolerances=tol),
    "hardy": lambda samples, seed, table, tol: compare_hardy(seed=seed, tolerances=tol),
    "ghz3": lambda samples, seed, table, tol: compare_ghz("ghz3", samples, seed, table, tol),
    "ghz4": lambda samples, seed, table, tol: compare_ghz("ghz4", samples, seed, table, tol),
}


def build_comparison(state: str, samples: int, seed: int, table=None,
                     tolerances=None) -> ComparisonReport:
    """The comparison report of one state, or of every state in turn for "all"."""
    if state == "all":
        merged = ComparisonReport([], meta={"state": "all", "samples": samples, "seed": seed})
        for sub, build in BUILDERS.items():
            part = build(samples, seed, table, tolerances)
            merged.rows.extend(part.rows)
            merged.meta[sub] = part.meta
        return merged
    if state not in BUILDERS:
        raise ValueError(f"unknown state {state!r}; states: all, {', '.join(BUILDERS)}")
    return BUILDERS[state](samples, seed, table, tolerances)
