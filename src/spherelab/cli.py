"""Command-line front end: it parses arguments, merges --config and
tolerance overrides, gates, prints summaries and writes artifacts. The
reports themselves come from the library (spherelab.compare builds the
`compare` report).

Subcommands:
  identities    algebra/kernel invariant sweeps (all built-in cross tables)
  qm            brute-force oracle values vs their closed forms
  model         model evaluations (singlet | chsh | hardy | ghz3 | ghz4)
  solve-hardy   angle-system scan over a theta grid with residual table
  scan-chsh     coplanar CHSH sweep, plot-ready CSV
  mc            seeded hidden-orientation ensembles
  compare       full model-vs-oracle comparison report

Conventions:
  * every angle-bearing flag is interpreted per --unit {deg, rad}, which is
    mandatory whenever angles are supplied (silent unit mix-ups are the
    main operational risk), and must be finite;
  * --config FILE supplies defaults from a JSON object, explicit flags win;
  * artifacts are written atomically; --out is resolved against
    $SPHERELAB_OUTDIR when relative;
  * identical flags + seed produce byte-identical artifacts (no timestamps);
  * exit 0 success, 1 a gated comparison exceeded tolerance (the report is
    still written), 2 usage/configuration errors.

One gating rule: a row gates the exit status iff its tolerance is finite and
it mismatches. Rows with an infinite tolerance (GHZ table-mode-vs-pinned-mode
gaps, oriented magnitudes, unsolved Hardy residuals) are measurements. The
one exception is --strict-table, which holds the table-vs-pinned rows to the
algebraic tolerance in effect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import compare, identities, lrmodel, mcsim, qmref
from .compare import DEFAULT_TOLERANCES
from .geometry import coplanar_direction, spherical_direction, to_radians
from .lrmodel import ComparisonReport, ComparisonRow, make_row
from .sphere7 import BUILTIN_TABLES

OUTDIR_ENV = "SPHERELAB_OUTDIR"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------


def _resolve_out(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(OUTDIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _umask() -> int:
    """The process umask; os.umask reads it only by setting it, so set it back."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give the artifact the mode open() would.
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _ensemble_csv(report: mcsim.EnsembleReport) -> str:
    lines = ["field,value"]
    lines.append(f"scalar_mean,{report.scalar_mean!r}")
    for i, v in enumerate(report.oriented_mean, start=1):
        lines.append(f"oriented_mean_{i},{v!r}")
    for i, v in enumerate(report.oriented_sigma, start=1):
        lines.append(f"oriented_sigma_{i},{v!r}")
    lines.append(f"sign_channel_mean,{report.sign_channel_mean!r}")
    lines.append(f"sign_channel_deviation,{report.sign_channel_deviation!r}")
    lines.append(f"trials,{report.trials}")
    lines.append(f"seed,{report.seed}")
    return "\n".join(lines) + "\n"


def write_report(report, path, fmt: str):
    """Persist a comparison or ensemble report as JSON or CSV, atomically."""
    if fmt not in ("json", "csv"):
        raise UsageError(f"format must be 'json' or 'csv', got {fmt!r}")
    out = _resolve_out(path)
    if isinstance(report, ComparisonReport):
        text = report.to_json() + "\n" if fmt == "json" else report.to_csv()
    elif isinstance(report, mcsim.EnsembleReport):
        text = report.to_json() + "\n" if fmt == "json" else _ensemble_csv(report)
    elif isinstance(report, dict):
        if fmt != "json":
            raise UsageError("this report only supports --format json")
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif isinstance(report, str):
        text = report
    else:
        raise UsageError(f"cannot serialize report of type {type(report).__name__}")
    _atomic_write(out, text)
    return out


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


# Option defaults applied after config merging; flags are parsed with a None
# sentinel so precedence is flag > config file > default.
COMMAND_DEFAULTS = {
    "identities": {"seed": 0, "samples": 10_000, "table": "all"},
    "qm": {"seed": 0},
    "model": {"seed": 20240901, "mode": "pinned_z", "starts": 32},
    "solve-hardy": {"seed": 20240901, "starts": 32},
    "scan-chsh": {"seed": 0, "count": 100_000},
    "mc": {"seed": 0, "trials": 1_000_000, "weight_plus": 0.5, "workers": 1},
    "compare": {"seed": 7, "state": "all", "samples": 500},
}

# Counts that must be >= 1. They are checked after config merging, so a value
# from --config (whose type is checked like a flag's) is held to the same rule.
POSITIVE_OPTIONS = {"identities": ("samples",), "compare": ("samples",), "mc": ("workers",)}

# JSON types a --config value may have, by what its flag parses to. An int
# flag takes an integer that is not a boolean, a float flag any number;
# --angles also takes the numbers themselves and --tolerance the CLASS=VALUE
# items it would be given repeatedly.
CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                str: ((str,), "a string"), bool: ((bool,), "true or false")}
CONFIG_LISTS = {"angles": ((str, list), "a string or a list"), "tolerance": ((list,), "a list")}


def _subcommand_options(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> argparse action for each option flag of a subcommand."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subparsers.choices[command]._actions if a.option_strings}


def _check_config_value(action: argparse.Action, value):
    """UsageError unless a --config value has the JSON type its flag takes and
    is one of the flag's choices."""
    if action.dest in CONFIG_LISTS:
        allowed, want = CONFIG_LISTS[action.dest]
    else:
        allowed, want = CONFIG_TYPES[bool if action.nargs == 0 else action.type or str]
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise UsageError(f"{action.option_strings[-1]} must be {want}, got {value!r} (from --config)")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"{action.option_strings[-1]} must be one of "
                         f"{', '.join(action.choices)}, got {value!r} (from --config)")


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Apply JSON config values beneath explicit flags, then fill defaults.
    Every key must name one of the subcommand's flags, and its value must
    have the type that flag takes."""
    if getattr(args, "config", None):
        try:
            doc = Path(args.config).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        try:
            data = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        options = _subcommand_options(parser, args.command)
        for key, value in data.items():
            attr = key.replace("-", "_")
            if attr not in options:
                raise UsageError(f"config key {key!r} is not an option of {args.command}")
            _check_config_value(options[attr], value)
            current = getattr(args, attr, None)
            if current is None or (current is False and isinstance(value, bool)):
                setattr(args, attr, value)
    for key, value in COMMAND_DEFAULTS.get(args.command, {}).items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    for key in POSITIVE_OPTIONS.get(args.command, ()):
        value = getattr(args, key)
        if value < 1:
            raise UsageError(f"--{key} must be an integer >= 1, got {value!r}")
    return args


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"cannot parse number list {text!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(flag: str, values: list) -> list:
    """The values, unless one is not a finite number; checked before any numpy
    math, which would turn NaN or inf into warnings, NaN rows or solver failures."""
    for value in values:
        if not (_is_number(value) and math.isfinite(value)):
            raise UsageError(f"{flag} must be a finite number, got {value!r}")
    return values


def _load_angles(args) -> list[float]:
    if getattr(args, "angles", None) and getattr(args, "angles_file", None):
        raise UsageError("give either --angles or --angles-file, not both")
    if getattr(args, "angles", None):
        values = _parse_float_list(args.angles) if isinstance(args.angles, str) else args.angles
        return [float(x) for x in _finite("--angles", values)]
    if getattr(args, "angles_file", None):
        path = Path(args.angles_file)
        if not path.exists():
            raise UsageError(f"angles file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"angles file is not valid JSON: {exc}")
        if not isinstance(data, dict) or not isinstance(data.get("angles"), list):
            raise UsageError('angles file must hold a JSON object with an "angles" list')
        if not all(_is_number(x) for x in data["angles"]):
            raise UsageError(f'angles file: "angles" must hold numbers, got {data["angles"]!r}')
        for key in ("alpha", "delta", "theta"):
            if key in data and not _is_number(data[key]):
                raise UsageError(f"angles file: {key!r} must be a number, got {data[key]!r}")
            if key in data and getattr(args, key, None) is None:
                setattr(args, key, data[key])
        return _finite("--angles-file", [float(x) for x in data["angles"]])
    raise UsageError("directions required: pass --angles or --angles-file")


def _angle(args, name: str, unit: str) -> float:
    """The angle flag --NAME in radians; it must be finite."""
    return float(to_radians(_finite(f"--{name}", [getattr(args, name)])[0], unit))


def _require_unit_flag(args) -> str:
    if getattr(args, "unit", None) is None:
        raise UsageError("angles supplied: --unit {deg,rad} is mandatory")
    if args.unit not in ("deg", "rad"):
        raise UsageError(f"--unit must be 'deg' or 'rad', got {args.unit!r}")
    return args.unit


def _directions_from_pairs(values: list[float], unit: str, n_sites: int) -> list[np.ndarray]:
    if len(values) != 2 * n_sites:
        raise UsageError(f"expected {2 * n_sites} numbers (theta,phi per site), got {len(values)}")
    rad = to_radians(values, unit)
    return [spherical_direction(rad[2 * i], rad[2 * i + 1]) for i in range(n_sites)]


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"grid needs count >= 1 and finite bounds, got {text!r}")
    return np.linspace(start, stop, count)


def _tolerances(args) -> dict:
    """DEFAULT_TOLERANCES with any --tolerance CLASS=VALUE overrides applied."""
    tol = dict(DEFAULT_TOLERANCES)
    for item in getattr(args, "tolerance", None) or []:
        key, _, value = str(item).partition("=")
        if key not in tol or not value:
            raise UsageError(
                f"--tolerance takes CLASS=VALUE with CLASS in {sorted(tol)}, got {item!r}"
            )
        try:
            tol[key] = float(value)
        except ValueError:
            raise UsageError(f"bad tolerance value in {item!r}")
        if not tol[key] >= 0.0:
            raise UsageError(f"--tolerance {key} must be >= 0 (inf allowed), got {value!r}")
    return tol


def _gated(report: ComparisonReport, strict_table: bool, tolerances) -> list:
    """(row, tolerance) for each row that gates the exit status: one whose
    tolerance is finite. The one exception is --strict-table, which holds
    the table-vs-pinned rows to the algebraic tolerance in effect."""
    pairs = ((row, tolerances["algebraic"] if strict_table and "table_vs_pinned_z" in row.label
              else row.tolerance) for row in report.rows)
    return [(row, tol) for row, tol in pairs if math.isfinite(tol)]


def _emit(args, report, tolerances=DEFAULT_TOLERANCES) -> int:
    """Write the artifact if --out is given and print the summary; for a
    comparison, exit 1 iff a gated row mismatches (a NaN residual included)."""
    fmt = getattr(args, "format", None) or "json"
    if getattr(args, "out", None):
        path = write_report(report, args.out, fmt)
        print(f"wrote {path}")
    if isinstance(report, ComparisonReport):
        gated = _gated(report, getattr(args, "strict_table", False), tolerances)
        bad = [(row, tol) for row, tol in gated if not abs(row.residual) <= tol]
        worst = max(gated, default=None, key=lambda item: (
            math.inf if math.isnan(item[0].residual) else abs(item[0].residual)))
        peak = (f"max gated |residual| = {abs(worst[0].residual):.3e} ({worst[0].label})"
                if worst else "no gated rows")
        print(f"{len(report.rows)} rows, {peak}, gated mismatches: {len(bad)}")
        for row, tol in bad[:20]:
            print(f"  MISMATCH {row.label}: model={row.model!r} oracle={row.oracle!r} "
                  f"residual={row.residual:.3e} tol={tol:g}")
        return 1 if bad else 0
    if isinstance(report, mcsim.EnsembleReport):
        print(f"scalar_mean={report.scalar_mean!r} sign_channel_mean={report.sign_channel_mean!r} "
              f"trials={report.trials} seed={report.seed}")
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_identities(args) -> int:
    tables = None if args.table in (None, "all") else [args.table]
    report = identities.full_identity_report(samples=args.samples, seed=args.seed, tables=tables)
    return _emit(args, report)


def cmd_qm(args) -> int:
    tol = _tolerances(args)
    rows = []
    meta = {"command": "qm", "state": args.state}
    if args.state == "hardy":
        if args.theta is None:
            raise UsageError("--theta required for the hardy state")
        theta = _angle(args, "theta", _require_unit_flag(args))
        for s1, s2 in qmref.HARDY_PAIRS:
            rows.append(
                make_row(
                    f"hardy_amplitude[{s1},{s2}]",
                    qmref.hardy_amplitude_closed_form(theta, s1, s2),
                    qmref.hardy_amplitude(theta, s1, s2),
                    tol["algebraic"],
                )
            )
        meta["theta"] = theta
    elif args.state in ("singlet", "ghz3", "ghz4"):
        n_sites = {"singlet": 2, "ghz3": 3, "ghz4": 4}[args.state]
        values = _load_angles(args)
        unit = _require_unit_flag(args)
        dirs = _directions_from_pairs(values, unit, n_sites)
        rad = to_radians(values, unit)
        theta_ang, phi_ang = rad[0::2], rad[1::2]
        if args.state == "singlet":
            state = qmref.singlet_state()
            closed = -float(np.dot(dirs[0], dirs[1]))
        elif args.state == "ghz4":
            state = qmref.ghz4_state()
            closed = qmref.ghz4_expectation_closed_form(theta_ang, phi_ang)
        else:
            if args.alpha is None or args.delta is None:
                raise UsageError("--alpha and --delta required for the ghz3 state")
            alpha, delta = _angle(args, "alpha", unit), _angle(args, "delta", unit)
            state = qmref.ghz3_state(alpha, delta)
            closed = qmref.ghz3_expectation_closed_form(theta_ang, phi_ang, alpha, delta)
            meta.update(alpha=alpha, delta=delta)
        oracle = qmref.tensor_expectation(state, qmref.SpinObservable(tuple(dirs)))
        rows.append(make_row(f"{args.state}.expectation", closed, oracle,
                             tol["algebraic"]))
    else:
        raise UsageError(f"unknown state {args.state!r}")
    report = ComparisonReport(rows, meta=meta)
    return _emit(args, report)


def cmd_model(args) -> int:
    tol = _tolerances(args)
    which = args.which
    if which == "hardy":
        if args.theta is None:
            raise UsageError("--theta required for the hardy model")
        theta = _angle(args, "theta", _require_unit_flag(args))
        angles = lrmodel.solve_hardy(theta, starts=args.starts, seed=args.seed)
        report = lrmodel.hardy_report(angles, tol_joint=tol["solver_prediction"],
                                      swapped_b_minus=not args.unswapped_b_minus)
        if not angles.solved(tol["solver_residual"]):
            res = lrmodel.hardy_residuals(angles)
            report.meta["failing"] = [
                {"label": l, "residual": float(r)}
                for l, r in zip(lrmodel.RESIDUAL_LABELS, res)
                if abs(r) > tol["solver_residual"]
            ]
            # Angle system not certified: joint-prediction rows are
            # informational at this theta.
            report.rows = [
                ComparisonRow(r.label + ".info", r.model, r.oracle, r.residual, float("inf"), "match")
                if not r.label.startswith("hardy_oriented")
                else r
                for r in report.rows
            ]
        return _emit(args, report)

    if which == "singlet":
        values = _load_angles(args)
        dirs = _directions_from_pairs(values, _require_unit_flag(args), 2)
        point = lrmodel.singlet_product_point(*dirs)
        report = ComparisonReport(
            [
                make_row("singlet.model", lrmodel.singlet_correlation(*dirs),
                         qmref.pair_expectation(qmref.singlet_state(), *dirs),
                         tol["algebraic"]),
                make_row("singlet.oriented_magnitude", point.g, 0.0, float("inf")),
            ],
            meta={"command": "model", "which": "singlet"},
        )
        return _emit(args, report)

    if which == "chsh":
        values = _load_angles(args)
        if len(values) != 4:
            raise UsageError("chsh takes 4 coplanar angles: a,a',b,b'")
        t = to_radians(values, _require_unit_flag(args))
        dirs = [coplanar_direction(ti) for ti in t]
        report = ComparisonReport(
            [
                make_row("chsh.model", lrmodel.chsh_model(*dirs),
                         qmref.chsh_qm(qmref.singlet_state(), *dirs),
                         tol["algebraic"]),
                make_row("chsh.bound", lrmodel.chsh_model_bound(*dirs), 0.0, float("inf")),
            ],
            meta={"command": "model", "which": "chsh"},
        )
        return _emit(args, report)

    if which in ("ghz3", "ghz4"):
        n_sites = 3 if which == "ghz3" else 4
        values = _load_angles(args)
        unit = _require_unit_flag(args)
        dirs = _directions_from_pairs(values, unit, n_sites)
        if which == "ghz3":
            if args.alpha is None or args.delta is None:
                raise UsageError("--alpha and --delta required for the ghz3 model")
            alpha, delta = _angle(args, "alpha", unit), _angle(args, "delta", unit)
            value, report = lrmodel.ghz3_model(*dirs, alpha, delta, mode=args.mode,
                                               table=args.table, tol=tol["algebraic"])
        else:
            value, report = lrmodel.ghz4_model(*dirs, mode=args.mode, table=args.table,
                                               tol=tol["algebraic"])
        report.meta["value"] = value
        return _emit(args, report, tol)

    raise UsageError(f"unknown model {which!r}")


def cmd_solve_hardy(args) -> int:
    if args.theta_grid is None:
        raise UsageError("--theta-grid start:stop:count is required")
    unit = _require_unit_flag(args)
    thetas = to_radians(_parse_grid(args.theta_grid), unit)
    tol = _tolerances(args)
    rows = lrmodel.scan_hardy(thetas, starts=args.starts, seed=args.seed,
                              tol=tol["solver_residual"])
    doc = {
        "command": "solve-hardy",
        "theta_grid": args.theta_grid,
        "unit": unit,
        "seed": args.seed,
        "starts": args.starts,
        "tolerance": tol["solver_residual"],
        "rows": [r.to_dict() for r in rows],
    }
    if getattr(args, "out", None):
        fmt = getattr(args, "format", None) or "json"
        if fmt == "csv":
            lines = ["theta,residual_norm,solved,failing," + ",".join(lrmodel.ANGLE_NAMES)]
            for r in rows:
                failing = ";".join(l for l, _ in r.failing)
                angle_cols = ",".join(repr(getattr(r.angles, n)) for n in lrmodel.ANGLE_NAMES)
                lines.append(f"{r.theta!r},{r.angles.residual_norm!r},{r.solved},{failing},{angle_cols}")
            path = write_report("\n".join(lines) + "\n", args.out, "csv")
        else:
            path = write_report(doc, args.out, "json")
        print(f"wrote {path}")
    solved = sum(1 for r in rows if r.solved)
    print(f"solved {solved}/{len(rows)} grid points below {tol['solver_residual']:g}")
    for r in rows:
        status = "ok" if r.solved else "FLAGGED"
        worst = f" worst={r.failing[0][0]}({r.failing[0][1]:+.3e})" if r.failing else ""
        print(f"  theta={r.theta:.6f} residual={r.angles.residual_norm:.3e} {status}{worst}")
    return 0


def cmd_scan_chsh(args) -> int:
    sweep = lrmodel.scan_chsh(args.count, args.seed)
    lines = ["t_a,t_a_prime,t_b,t_b_prime,value,bound"]
    for t, v, bd in zip(sweep["angles"], sweep["values"], sweep["bounds"]):
        lines.append(",".join([repr(float(x)) for x in t] + [repr(float(v)), repr(float(bd))]))
    if getattr(args, "out", None):
        path = write_report("\n".join(lines) + "\n", args.out, "csv")
        print(f"wrote {path}")
    print(f"max |value| = {sweep['max_abs_value']!r} at {[float(t) for t in sweep['argmax']]}")
    print(f"bound violations: fraction={sweep['bound_violation_fraction']:.4f} "
          f"max={sweep['max_bound_violation']:.6f}")
    return 0


def _experiment_from_args(args):
    exp = args.experiment
    values = _load_angles(args)
    unit = _require_unit_flag(args)
    if exp == "singlet":
        dirs = _directions_from_pairs(values, unit, 2)
        return mcsim.SingletExperiment(*dirs)
    if exp == "chsh":
        if len(values) != 4:
            raise UsageError("chsh takes 4 coplanar angles: a,a',b,b'")
        t = to_radians(values, unit)
        return mcsim.ChshExperiment(*(coplanar_direction(ti) for ti in t))
    if exp == "ghz4":
        return mcsim.Ghz4Experiment(*_directions_from_pairs(values, unit, 4))
    if exp == "ghz3":
        if args.alpha is None or args.delta is None:
            raise UsageError("--alpha and --delta required for the ghz3 experiment")
        dirs = _directions_from_pairs(values, unit, 3)
        alpha, delta = _angle(args, "alpha", unit), _angle(args, "delta", unit)
        return mcsim.Ghz3Experiment(*dirs, alpha, delta)
    raise UsageError(f"unknown experiment {exp!r}")


def cmd_mc(args) -> int:
    experiment = _experiment_from_args(args)
    config = mcsim.EnsembleConfig(
        experiment=experiment,
        trials=args.trials,
        seed=args.seed,
        distribution=mcsim.PlusMinusDistribution(args.weight_plus),
        table=args.table,
    )
    report = mcsim.run_ensemble(config, workers=args.workers)
    return _emit(args, report)


def cmd_compare(args) -> int:
    tol = _tolerances(args)
    report = compare.build_comparison(args.state, args.samples, args.seed, args.table, tol)
    return _emit(args, report, tol)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, *, angles=False):
    p.add_argument("--config", help="JSON file of option defaults; explicit flags win")
    p.add_argument("--out", help=f"artifact path (relative paths join ${OUTDIR_ENV})")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", action="append", default=None, metavar="CLASS=VALUE",
                   help=f"override a tolerance class (repeatable); classes: "
                        f"{', '.join(DEFAULT_TOLERANCES)}")
    if angles:
        p.add_argument("--unit", choices=("deg", "rad"), default=None,
                       help="unit for every angle flag (mandatory when angles are given)")
        p.add_argument("--angles", help="comma-separated angles; interpretation depends on command")
        p.add_argument("--angles-file", help='JSON file: {"angles": [...], ...}')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherelab",
        description="Sphere-model correlation laboratory: model evaluators, "
        "brute-force quantum oracle, constraint solver, seeded ensembles, "
        "and comparison reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="run the algebraic identity sweeps")
    _add_common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--table", default=None, help=f"cross table: all | {' | '.join(BUILTIN_TABLES)}")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("qm", help="brute-force oracle values vs closed forms")
    _add_common(p, angles=True)
    p.add_argument("--state", required=True, choices=("singlet", "hardy", "ghz3", "ghz4"))
    p.add_argument("--theta", type=float, default=None, help="hardy parameter (in --unit)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_qm)

    p = sub.add_parser("model", help="model evaluations")
    _add_common(p, angles=True)
    p.add_argument("--which", required=True, choices=("singlet", "chsh", "hardy", "ghz3", "ghz4"))
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--mode", choices=lrmodel.GHZ_MODES, default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--strict-table", action="store_true")
    p.add_argument("--unswapped-b-minus", action="store_true",
                   help="use the unswapped variant of the minus-outcome point on side b")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("solve-hardy", help="solve the angle system over a theta grid")
    _add_common(p)
    p.add_argument("--unit", choices=("deg", "rad"), default=None)
    p.add_argument("--theta-grid", default=None, help="start:stop:count (in --unit)")
    p.add_argument("--starts", type=int, default=None)
    p.set_defaults(func=cmd_solve_hardy)

    p = sub.add_parser("scan-chsh", help="coplanar CHSH sweep (plot-ready CSV)")
    _add_common(p)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_scan_chsh)

    p = sub.add_parser("mc", help="seeded hidden-orientation ensembles")
    _add_common(p, angles=True)
    p.add_argument("--experiment", required=True, choices=("singlet", "chsh", "ghz3", "ghz4"))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--weight-plus", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--table", default=None)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("compare", help="full model-vs-oracle comparison report")
    _add_common(p)
    p.add_argument("--state", default=None,
                   choices=("singlet", "chsh", "hardy", "ghz3", "ghz4", "all"))
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--strict-table", action="store_true")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
