"""Model-vs-oracle comparison reports: the seeded builders behind `spherelab
compare`, and the one-setting reports behind `spherelab qm` and `model`.
Also the scan artifacts of `spherelab solve-hardy` (HardyScan) and
`spherelab scan-chsh` (chsh_sweep_table).

Each builder evaluates the sphere model or a closed form and the brute-force
oracle, and returns a ComparisonReport whose rows carry the tolerance class
that applies to them. A row with an infinite tolerance
is a measurement (an oriented magnitude, a table-vs-pinned gap, the residual
of an unsolved Hardy system), never an assertion.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import lrmodel, qmref
from .geometry import coplanar_direction, random_unit_vectors
from .report import ComparisonReport, FloatTable, json_text
from .sphere7 import get_table

DEFAULT_TOLERANCES = {
    "algebraic": 1e-12,
    "solver_residual": 1e-10,
    "solver_prediction": 1e-8,
    "sweep_max": 1e-6,
}

CANONICAL_HARDY_THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
HARDY_GRID_POINTS = 21  # closed forms checked on this many thetas over [0, pi/2]
CHSH_SWEEP_COUNT = 100_000  # quadruples in the coplanar sweep of the CHSH string


def compare_singlet(samples: int = 1000, seed: int = 7, tolerances=None) -> ComparisonReport:
    tol = tolerances or DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    a, b = random_unit_vectors(rng, samples), random_unit_vectors(rng, samples)
    oracle = qmref.expectations(qmref.singlet_state(), np.stack((a, b), axis=1))
    return ComparisonReport(meta={"state": "singlet", "samples": samples, "seed": seed}).add(
        [f"singlet[{i}]" for i in range(samples)], lrmodel.singlet_correlations(a, b), oracle,
        tol["algebraic"])


def chsh_sweep_rows(report: ComparisonReport, count: int, seed: int, tolerances) -> dict:
    """Add the two asserted rows of the seeded coplanar sweep of the model's
    CHSH string to report: the swept supremum against 2 sqrt 2, and the
    displayed bound at its saturating quadruple. Returns the sweep's
    statistics (lrmodel.scan_chsh)."""
    sweep = lrmodel.scan_chsh(count, seed)
    bound = lrmodel.chsh_model_bound(*coplanar_direction(lrmodel.BOUND_SATURATING_QUADRUPLE))
    report.add(["chsh.sweep_max_abs", "chsh.bound_at_saturating_quadruple"],
               [sweep["max_abs_value"], bound], lrmodel.TWO_SQRT2,
               [tolerances["sweep_max"], tolerances["algebraic"]])
    return sweep


def compare_chsh(samples: int = 1000, seed: int = 7, tolerances=None) -> ComparisonReport:
    tol = tolerances or DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    dirs = random_unit_vectors(rng, 4 * samples).reshape(samples, 4, 3)
    state = qmref.singlet_state()
    report = ComparisonReport(meta={"state": "chsh", "samples": samples, "seed": seed}).add(
        [f"chsh[{i}]" for i in range(samples)], lrmodel.chsh_models(*dirs.transpose(1, 0, 2)),
        qmref.chsh_values(state, dirs), tol["algebraic"])
    chsh_sweep_rows(report, CHSH_SWEEP_COUNT, seed, tol)
    best, _ = qmref.maximize_chsh(state, seed=seed)
    return report.add(["chsh.qm_maximum_singlet"], best, lrmodel.TWO_SQRT2, tol["sweep_max"])


def compare_hardy(seed: int = 7, tolerances=None) -> ComparisonReport:
    tol = tolerances or DEFAULT_TOLERANCES
    grid = np.linspace(0.0, math.pi / 2, HARDY_GRID_POINTS)
    scan = lrmodel.scan_hardy(CANONICAL_HARDY_THETAS, seed=seed, tol=tol["solver_residual"])
    oracle = qmref.hardy_amplitudes(np.concatenate((grid, [row.theta for row in scan])))
    report = ComparisonReport(meta={"state": "hardy", "seed": seed, "solver": {
        f"{row.theta:.6f}": row.to_dict() for row in scan}})
    # Closed forms against the brute-force amplitudes on a theta grid.
    report.add([f"hardy_closed_form[{theta:.6f},{s1},{s2}]"
                for theta in grid for s1, s2 in qmref.HARDY_PAIRS],
               qmref.hardy_closed_forms(grid).ravel(), oracle[:HARDY_GRID_POINTS].ravel(),
               tol["algebraic"])
    # Solver-mediated joint predictions where the angle system certifies.
    headline = [qmref.HARDY_PAIRS.index(pair) for pair in lrmodel.HEADLINE_HARDY_PAIRS]
    model, _ = lrmodel.hardy_points([row.angles.as_array() for row in scan],
                                    [row.theta for row in scan], lrmodel.HEADLINE_HARDY_PAIRS)
    for row, joints, amplitudes in zip(scan, model, oracle[HARDY_GRID_POINTS:]):
        if row.solved:
            report.add([f"hardy_model[{row.theta:.6f},{s1},{s2}]"
                        for s1, s2 in lrmodel.HEADLINE_HARDY_PAIRS],
                       joints, amplitudes[headline], tol["solver_prediction"])
        else:
            report.add([f"hardy_model.unsolved[{row.theta:.6f}]"], row.angles.residual_norm,
                       0.0, math.inf)
    return report


def compare_ghz(which: str, samples: int = 500, seed: int = 7, table=None,
                tolerances=None) -> ComparisonReport:
    """GHZ model rows (four per tuple) for `samples` seeded direction tuples,
    from one kernel call on the whole stack.

    ghz4 draws its 4N directions at once, which is the same stream as four
    per tuple. ghz3 draws per tuple, in the order 3 directions, alpha, delta,
    and its oracle contracts one state per tuple.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    alpha = delta = None
    if which == "ghz4":
        dirs = random_unit_vectors(rng, 4 * samples).reshape(samples, 4, 3)
    else:
        dirs, alpha, delta = np.empty((samples, 3, 3)), np.empty(samples), np.empty(samples)
        for i in range(samples):
            dirs[i] = random_unit_vectors(rng, 3)
            alpha[i], delta[i] = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
    oracle, values = lrmodel.ghz_values(which, dirs, alpha, delta, table)
    return lrmodel.ghz_report(which, oracle, values, tol["algebraic"],
                              {"state": which, "samples": samples, "seed": seed,
                               "table": get_table(table).table_id}, indexed=True)


BUILDERS = {
    "singlet": lambda samples, seed, table, tol: compare_singlet(samples, seed, tol),
    "chsh": lambda samples, seed, table, tol: compare_chsh(samples, seed, tol),
    "hardy": lambda samples, seed, table, tol: compare_hardy(seed=seed, tolerances=tol),
    "ghz3": lambda samples, seed, table, tol: compare_ghz("ghz3", samples, seed, table, tol),
    "ghz4": lambda samples, seed, table, tol: compare_ghz("ghz4", samples, seed, table, tol),
}


def build_comparison(state: str, samples: int, seed: int, table=None,
                     tolerances=None) -> ComparisonReport:
    """The comparison report of one state, or of every state in turn for "all"."""
    if state == "all":
        merged = ComparisonReport(meta={"state": "all", "samples": samples, "seed": seed})
        for sub, build in BUILDERS.items():
            part = build(samples, seed, table, tolerances)
            merged.add(*part.columns())
            merged.meta[sub] = part.meta
        return merged
    if state not in BUILDERS:
        raise ValueError(f"unknown state {state!r}; states: all, {', '.join(BUILDERS)}")
    return BUILDERS[state](samples, seed, table, tolerances)


def qm_report(experiment, angles, tolerances=None) -> ComparisonReport:
    """The brute-force oracle value of a singlet, ghz3 or ghz4 setting against
    its closed form; angles are the setting's (theta, phi) per site in radians,
    which the GHZ closed forms take."""
    tol = tolerances or DEFAULT_TOLERANCES
    kind, dirs = experiment.kind, experiment.directions
    report = ComparisonReport(meta={"command": "qm", "state": kind})
    theta, phi = angles[0::2], angles[1::2]
    if kind == "singlet":
        state, closed = qmref.singlet_state(), -float(np.dot(dirs[0], dirs[1]))
    elif kind == "ghz4":
        state, closed = qmref.ghz4_state(), qmref.ghz4_expectation_closed_form(theta, phi)
    elif kind == "ghz3":
        alpha, delta = experiment.numbers
        state = qmref.ghz3_state(alpha, delta)
        closed = qmref.ghz3_expectation_closed_form(theta, phi, alpha, delta)
        report.meta.update(alpha=alpha, delta=delta)
    else:
        raise ValueError(f"no oracle report for a {kind} setting")
    oracle = qmref.tensor_expectation(state, qmref.SpinObservable(dirs))
    return report.add([f"{kind}.expectation"], closed, oracle, tol["algebraic"])


def qm_hardy_report(theta: float, tolerances=None) -> ComparisonReport:
    """The sixteen brute-force Hardy amplitudes at theta against their closed forms."""
    tol = tolerances or DEFAULT_TOLERANCES
    return ComparisonReport(meta={"command": "qm", "state": "hardy", "theta": theta}).add(
        [f"hardy_amplitude[{s1},{s2}]" for s1, s2 in qmref.HARDY_PAIRS],
        qmref.hardy_closed_forms([theta])[0], qmref.hardy_amplitudes([theta])[0],
        tol["algebraic"])


def model_report(experiment, mode: str = "pinned_z", table=None,
                 tolerances=None) -> ComparisonReport:
    """The model value of one setting against the oracle, with its oriented
    magnitude (singlet), displayed bound (chsh) or GHZ cross-check rows; a GHZ
    report's meta carries the value of the given mode."""
    tol = tolerances or DEFAULT_TOLERANCES
    kind, dirs = experiment.kind, experiment.directions
    meta = {"command": "model", "which": kind}
    if kind == "singlet":
        f, oriented = lrmodel.product_point(kind, dirs)
        return ComparisonReport(meta=meta).add(
            ["singlet.model", "singlet.oriented_magnitude"], [f, np.linalg.norm(oriented)],
            [qmref.pair_expectation(qmref.singlet_state(), *dirs), 0.0],
            [tol["algebraic"], math.inf])
    if kind == "chsh":
        return ComparisonReport(meta=meta).add(
            ["chsh.model", "chsh.bound"],
            [lrmodel.chsh_model(*dirs), lrmodel.chsh_model_bound(*dirs)],
            [qmref.chsh_qm(qmref.singlet_state(), *dirs), 0.0], [tol["algebraic"], math.inf])
    ghz_model = lrmodel.ghz3_model if kind == "ghz3" else lrmodel.ghz4_model
    value, report = ghz_model(*dirs, *experiment.numbers, mode=mode, table=table,
                              tol=tol["algebraic"])
    report.meta["value"] = value
    return report


def model_hardy_report(theta: float, starts: int = 32, seed: int = 20240901,
                       swapped_b_minus: bool = True, tolerances=None) -> ComparisonReport:
    """The joint predictions of the angles of the one-point scan_hardy against
    the amplitudes. When they do not certify, meta lists the scan row's failing
    equations and every joint row is relabelled `.info` and never gates."""
    tol = tolerances or DEFAULT_TOLERANCES
    (row,) = lrmodel.scan_hardy([theta], starts=starts, seed=seed, tol=tol["solver_residual"])
    report = lrmodel.hardy_report(row.angles, tol_joint=tol["solver_prediction"],
                                  swapped_b_minus=swapped_b_minus)
    if not row.solved:
        report.meta["failing"] = row.to_dict()["failing"]
        info = [not label.startswith("hardy_oriented") for label in report.labels]
        report.labels = [label + ".info" if i else label for label, i in zip(report.labels, info)]
        report.tolerance = np.where(info, math.inf, report.tolerance)
    return report


def strict_table(report: ComparisonReport, tolerance: float) -> ComparisonReport:
    """--strict-table: the report with its GHZ table-vs-pinned rows held to tolerance."""
    table = ["table_vs_pinned_z" in label for label in report.labels]
    report.tolerance = np.where(table, tolerance, report.tolerance)
    return report


class HardyScan(NamedTuple):
    """The solve-hardy artifact: the rows of lrmodel.scan_hardy over a theta
    grid, under the settings that made them (meta)."""

    rows: list
    meta: dict

    def chunks(self, fmt: str) -> list:
        """The JSON (meta plus one object per row) with a final newline, or one
        CSV line per row: theta, residual norm, verdict, the failing labels
        joined by ";" and the seven angles."""
        if fmt == "json":
            return [json_text({**self.meta, "rows": [row.to_dict() for row in self.rows]}) + "\n"]
        lines = ["theta,residual_norm,solved,failing," + ",".join(lrmodel.ANGLE_NAMES)]
        for row in self.rows:
            failing = ";".join(label for label, _ in row.failing)
            angles = ",".join(repr(getattr(row.angles, n)) for n in lrmodel.ANGLE_NAMES)
            lines.append(f"{row.theta!r},{row.angles.residual_norm!r},{row.solved},{failing},{angles}")
        return ["\n".join(lines) + "\n"]


def hardy_scan(thetas, theta_grid: str, unit: str, seed: int, starts: int,
               tolerances=None) -> HardyScan:
    """The angle system solved at each theta (radians) of a grid given as
    theta_grid in unit, certified at the solver_residual tolerance."""
    tol = (tolerances or DEFAULT_TOLERANCES)["solver_residual"]
    meta = {"command": "solve-hardy", "theta_grid": theta_grid, "unit": unit, "seed": seed,
            "starts": starts, "tolerance": tol}
    return HardyScan(lrmodel.scan_hardy(thetas, starts=starts, seed=seed, tol=tol), meta)


def chsh_sweep_table(blocks) -> FloatTable:
    """The scan-chsh artifact of the blocks of an lrmodel.chsh_sweep: per
    quadruple its four coplanar angles, the model's CHSH string and its
    displayed bound."""
    return FloatTable("t_a,t_a_prime,t_b,t_b_prime,value,bound", blocks)
