"""Command-line front end of the subcommands identities, qm, model,
solve-hardy, scan-chsh, mc and compare. It only parses arguments, merges
--config and tolerance overrides, gates, prints summaries and writes
artifacts: the library builds every report and lays out its text. Each
artifact kind gives that text through report.chunks(fmt) (ComparisonReport
from spherelab.compare and spherelab.identities, compare.HardyScan,
compare.chsh_sweep_table, mcsim.EnsembleReport), and _emit is the one place
that writes it, atomically, and prints `wrote PATH`. The settings of qm,
model and mc are parsed in one place (_setting), into a
spherelab.mcsim.Experiment whose kind in mcsim.EXPERIMENTS names the
directions and numbers it takes.

Conventions:
  * every angle-bearing flag is interpreted per --unit {deg, rad}, which is
    mandatory whenever angles are supplied, and must be finite;
  * --config FILE supplies defaults from a JSON object, explicit flags win;
  * --out is resolved against $SPHERELAB_OUTDIR when relative;
  * identical flags + seed produce byte-identical artifacts (no timestamps);
  * exit 0 success, 1 a gated comparison exceeded tolerance (the report is
    still written), 2 usage/configuration errors, 3 an internal error (one
    line, no traceback).

One gating rule: a row gates the exit status iff its tolerance is finite and
it mismatches; rows with an infinite tolerance are measurements. The one
exception is --strict-table, which holds the GHZ table-vs-pinned rows to the
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

from . import compare, identities, lrmodel, mcsim
from .compare import DEFAULT_TOLERANCES
from .geometry import coplanar_direction, spherical_direction, to_radians
from .report import ComparisonReport
from .sphere7 import BUILTIN_TABLES, get_table

OUTDIR_ENV = "SPHERELAB_OUTDIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose parse errors are UsageErrors, so main reports
    them in one line and returns 2; its subparsers are of the same class."""

    def error(self, message):
        raise UsageError(message)


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


def _atomic_write(path: Path, chunks):
    """Write an iterable of str chunks, as they come, to a temporary file that
    then replaces path. When the write fails, chunks that can be closed are
    closed, so they release what they hold at once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0600; give the artifact the mode open() would.
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if hasattr(chunks, "close"):
            chunks.close()
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(report, path, fmt: str) -> Path:
    """Write the artifact text report.chunks(fmt) atomically to path, resolved
    against $SPHERELAB_OUTDIR; returns the path written."""
    if fmt not in ("json", "csv"):
        raise UsageError(f"format must be 'json' or 'csv', got {fmt!r}")
    out = _resolve_out(path)
    _atomic_write(out, report.chunks(fmt))
    return out


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


# Option defaults applied after config merging; flags are parsed with a None
# sentinel so precedence is flag > config file > default.
COMMAND_DEFAULTS = {
    "identities": {"seed": 0, "samples": 10_000, "table": "all"},
    "model": {"seed": 20240901, "mode": "pinned_z", "starts": 32},
    "solve-hardy": {"seed": 20240901, "starts": 32},
    "scan-chsh": {"seed": 0, "count": 100_000, "format": "csv"},
    "mc": {"seed": 0, "trials": 1_000_000, "weight_plus": 0.5, "workers": 1},
    "compare": {"seed": 7, "state": "all", "samples": 500},
}

# Counts that must be >= 1. They are checked after config merging, so a value
# from --config (whose type is checked like a flag's) is held to the same rule.
POSITIVE_OPTIONS = {"identities": ("samples",), "compare": ("samples",), "mc": ("workers",),
                    "model": ("starts",), "solve-hardy": ("starts",)}

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


def _load_angles(args, directions: bool = True) -> list[float]:
    """The numbers of --angles or --angles-file, whose alpha, delta and theta fill
    unset flags; "angles" may be left out of it without directions (hardy)."""
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
        angles = data.get("angles", None if directions else []) if isinstance(data, dict) else None
        if not isinstance(angles, list):
            raise UsageError('angles file must hold a JSON object with an "angles" list')
        if not all(_is_number(x) for x in angles):
            raise UsageError(f'angles file: "angles" must hold numbers, got {angles!r}')
        for key in ("alpha", "delta", "theta"):
            if key in data and not _is_number(data[key]):
                raise UsageError(f"angles file: {key!r} must be a number, got {data[key]!r}")
            if key in data and getattr(args, key, None) is None:
                setattr(args, key, data[key])
        return _finite("--angles-file", [float(x) for x in angles])
    raise UsageError("directions required: pass --angles or --angles-file")


def _angle(args, name: str, unit: str) -> float:
    """The angle flag --NAME in radians; it must be finite."""
    return float(to_radians(_finite(f"--{name}", [getattr(args, name)])[0], unit))


def _require_unit_flag(args) -> str:
    if getattr(args, "unit", None) is None:
        raise UsageError("angles supplied: --unit {deg,rad} is mandatory")
    return args.unit


# What qm, model and mc call the setting they take, for their messages.
SETTING_NOUNS = {"qm": "state", "model": "model", "mc": "experiment"}


def _setting(args, kind: str) -> tuple[mcsim.Experiment, np.ndarray]:
    """The experiment of kind given by --angles or --angles-file, with its
    numbers (ghz3's --alpha, --delta), and its angles in radians: a coplanar
    angle per site for chsh, theta,phi per site for every other kind."""
    spec = mcsim.EXPERIMENTS[kind]
    values = _load_angles(args)
    unit = _require_unit_flag(args)
    rad = to_radians(values, unit)
    n_sites = len(spec.directions)
    if kind == "chsh":
        if len(values) != n_sites:
            raise UsageError("chsh takes 4 coplanar angles: a,a',b,b'")
        dirs = [coplanar_direction(t) for t in rad]
    else:
        if len(values) != 2 * n_sites:
            raise UsageError(f"expected {2 * n_sites} numbers (theta,phi per site), got {len(values)}")
        dirs = [spherical_direction(rad[2 * i], rad[2 * i + 1]) for i in range(n_sites)]
    if any(getattr(args, name) is None for name in spec.numbers):
        raise UsageError(f"{' and '.join('--' + name for name in spec.numbers)} required "
                         f"for the {kind} {SETTING_NOUNS[args.command]}")
    numbers = [_angle(args, name, unit) for name in spec.numbers]
    return mcsim.Experiment(kind, tuple(dirs), tuple(numbers)), rad


def _theta(args) -> float:
    """--theta of the hardy setting, in radians; without the flag, the theta
    key of --angles-file."""
    if args.theta is None and getattr(args, "angles_file", None):
        _load_angles(args, directions=False)  # sets args.theta from the file's theta key
    if args.theta is None:
        raise UsageError(f"--theta required for the hardy {SETTING_NOUNS[args.command]}")
    return _angle(args, "theta", _require_unit_flag(args))


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
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


def _emit(args, report, tolerances=DEFAULT_TOLERANCES) -> int:
    """Write the artifact in --format (json by default) if --out is given;
    for a comparison, print the summary and exit 1 iff a gated row
    mismatches (a NaN residual included)."""
    if args.out:
        print(f"wrote {write_report(report, args.out, args.format or 'json')}")
    if isinstance(report, ComparisonReport):
        # A row gates iff its tolerance is finite; --strict-table holds the
        # table-vs-pinned rows to the algebraic tolerance in effect.
        tol = report.tolerance
        if getattr(args, "strict_table", False):
            tol = np.where(["table_vs_pinned_z" in label for label in report.labels],
                           tolerances["algebraic"], tol)
        residual = report.residual
        size = np.abs(residual)
        gated = np.isfinite(tol)
        bad = np.flatnonzero(gated & ~(size <= tol))
        peak = "no gated rows"
        if gated.any():
            # The first gated row of the largest |residual|, a NaN one counting as largest.
            worst = int(np.argmax(np.where(gated, np.where(np.isnan(size), np.inf, size), -1.0)))
            peak = f"max gated |residual| = {size[worst]:.3e} ({report.labels[worst]})"
        print(f"{len(report.labels)} rows, {peak}, gated mismatches: {len(bad)}")
        for i in bad[:20].tolist():
            print(f"  MISMATCH {report.labels[i]}: model={float(report.model[i])!r} "
                  f"oracle={float(report.oracle[i])!r} residual={residual[i]:.3e} "
                  f"tol={tol[i]:g}")
        return 1 if len(bad) else 0
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_identities(args) -> int:
    tables = None if args.table in (None, "all") else [args.table]
    if tables:
        get_table(args.table)  # a ValueError for a table that does not exist, before any build
    report = identities.full_identity_report(samples=args.samples, seed=args.seed, tables=tables)
    return _emit(args, report)


def cmd_qm(args) -> int:
    tol = _tolerances(args)
    if args.state == "hardy":
        return _emit(args, compare.qm_hardy_report(_theta(args), tol))
    experiment, angles = _setting(args, args.state)
    return _emit(args, compare.qm_report(experiment, angles, tol))


def cmd_model(args) -> int:
    tol = _tolerances(args)
    if args.table is not None:
        get_table(args.table)  # a ValueError for a table that does not exist
    if args.which == "hardy":
        report = compare.model_hardy_report(_theta(args), args.starts, args.seed,
                                            not args.unswapped_b_minus, tol)
    else:
        experiment, _ = _setting(args, args.which)
        report = compare.model_report(experiment, args.mode, args.table, tol)
    return _emit(args, report, tol)


def cmd_solve_hardy(args) -> int:
    if args.theta_grid is None:
        raise UsageError("--theta-grid start:stop:count is required")
    unit = _require_unit_flag(args)
    thetas = to_radians(_parse_grid(args.theta_grid), unit)
    scan = compare.hardy_scan(thetas, args.theta_grid, unit, args.seed, args.starts,
                              _tolerances(args))
    _emit(args, scan)
    solved = sum(1 for r in scan.rows if r.solved)
    print(f"solved {solved}/{len(scan.rows)} grid points below {scan.meta['tolerance']:g}")
    for r in scan.rows:
        status = "ok" if r.solved else "FLAGGED"
        worst = f" worst={r.failing[0][0]}({r.failing[0][1]:+.3e})" if r.failing else ""
        print(f"  theta={r.theta:.6f} residual={r.angles.residual_norm:.3e} {status}{worst}")
    return 0


def cmd_scan_chsh(args) -> int:
    if args.format == "json":
        raise UsageError("scan-chsh writes CSV only, got --format json")
    sweep = lrmodel.scan_chsh(args.count, args.seed)
    _emit(args, compare.chsh_sweep_table(sweep))
    print(f"max |value| = {sweep['max_abs_value']!r} at {[float(t) for t in sweep['argmax']]}")
    print(f"bound violations: fraction={sweep['bound_violation_fraction']:.4f} "
          f"max={sweep['max_bound_violation']:.6f}")
    return 0


def cmd_mc(args) -> int:
    experiment, _ = _setting(args, args.experiment)
    config = mcsim.EnsembleConfig(
        experiment=experiment,
        trials=args.trials,
        seed=args.seed,
        distribution=mcsim.PlusMinusDistribution(args.weight_plus),
        table=args.table,
    )
    report = mcsim.run_ensemble(config, workers=args.workers)
    _emit(args, report)
    print(f"scalar_mean={report.scalar_mean!r} sign_channel_mean={report.sign_channel_mean!r} "
          f"trials={report.trials} seed={report.seed}")
    return 0


def cmd_compare(args) -> int:
    tol = _tolerances(args)
    if args.table is not None:
        get_table(args.table)  # a ValueError for a table that does not exist, before any build
    report = compare.build_comparison(args.state, args.samples, args.seed, args.table, tol)
    return _emit(args, report, tol)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, *, angles=False, seed=True, tolerance=False):
    """The flags every subcommand takes, plus --seed and --tolerance where the
    subcommand reads them and --unit, --angles and --angles-file with angles."""
    p.add_argument("--config", help="JSON file of option defaults; explicit flags win")
    p.add_argument("--out", help=f"artifact path (relative paths join ${OUTDIR_ENV})")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    if seed:
        p.add_argument("--seed", type=int, default=None)
    if tolerance:
        p.add_argument("--tolerance", action="append", default=None, metavar="CLASS=VALUE",
                       help=f"override a tolerance class (repeatable); classes: "
                            f"{', '.join(DEFAULT_TOLERANCES)}")
    if angles:
        p.add_argument("--unit", choices=("deg", "rad"), default=None,
                       help="unit for every angle flag (mandatory when angles are given)")
        p.add_argument("--angles", help="comma-separated angles; interpretation depends on command")
        p.add_argument("--angles-file", help='JSON file: {"angles": [...], ...}')


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    _add_common(p, angles=True, seed=False, tolerance=True)
    p.add_argument("--state", required=True, choices=("singlet", "hardy", "ghz3", "ghz4"))
    p.add_argument("--theta", type=float, default=None, help="hardy parameter (in --unit)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_qm)

    p = sub.add_parser("model", help="model evaluations")
    _add_common(p, angles=True, tolerance=True)
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
    _add_common(p, tolerance=True)
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
    _add_common(p, tolerance=True)
    p.add_argument("--state", default=None,
                   choices=("singlet", "chsh", "hardy", "ghz3", "ghz4", "all"))
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--strict-table", action="store_true")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _merge_config(parser.parse_args(argv), parser)
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never a gated mismatch
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
