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
directions and numbers it takes. One table, OPTIONS, declares every flag
once: the commands that take it and its default on each, its type (which
also gives its --config type), its choices, its bounds, and the settings
that read it and its --angles-file key. build_parser and _merge_config take
each of these facts from it alone.

Conventions:
  * every angle-bearing flag is interpreted per --unit {deg, rad}, which is
    mandatory whenever angles are supplied, and must be finite;
  * --config FILE supplies defaults from a JSON object, explicit flags win;
  * --out is resolved against $SPHERELAB_OUTDIR when relative;
  * identical flags + seed produce byte-identical artifacts (no timestamps);
  * exit 0 success, 1 a gated comparison exceeded tolerance (the report is
    still written), 2 usage/configuration errors, 3 an internal error (one
    line, no traceback).

One gating rule: a row gates the exit status iff the artifact gives it a
finite tolerance and the verdict mismatch; the other rows are measurements.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import compare, identities, lrmodel, mcsim
from .compare import DEFAULT_TOLERANCES
from .geometry import coplanar_direction, spherical_direction, to_radians
from .qmref import check_hardy_theta
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


# The flag that picks the setting of qm, model and mc; it must be given.
SETTINGS = {"qm": "state", "model": "which", "mc": "experiment"}

COMMANDS = ("identities", "qm", "model", "solve-hardy", "scan-chsh", "mc", "compare")
GHZ = ("ghz3", "ghz4")


class Option(NamedTuple):
    """One flag. commands: each command that takes it -> its default there,
    filled after --config merging (precedence: flag > config file > default).
    type: what the flag parses to (bool a switch, list a repeatable flag),
    the key of its --config type in CONFIG_TYPES. choices and help may be
    given per command, as {command: value}. minimum, maximum: its bounds, if
    any (a NaN lies outside them). readers: the settings of qm, model and mc
    that read the flag and the --angles-file key of its name (None: every
    setting)."""

    commands: dict
    type: type | tuple = str
    choices: tuple | dict | None = None
    minimum: float | None = None
    maximum: float | None = None
    readers: tuple | None = None
    help: str | dict | None = None
    metavar: str | None = None


# JSON types a --config value may have, by its option's type: an int option
# takes no boolean, and --angles also takes the numbers themselves.
CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                str: ((str,), "a string"), bool: ((bool,), "true or false"),
                list: ((list,), "a list"), (str, list): ((str, list), "a string or a list")}

# Every flag of every subcommand, in --help order. A flag's setting check
# also runs in this order, so the first flag named is the first listed.
OPTIONS = {
    "config": Option(dict.fromkeys(COMMANDS),
                     help="JSON file of option defaults; explicit flags win"),
    "out": Option(dict.fromkeys(COMMANDS),
                  help=f"artifact path (relative paths join ${OUTDIR_ENV})"),
    "format": Option({**dict.fromkeys(COMMANDS, "json"), "scan-chsh": "csv"},
                     choices=("json", "csv")),
    "seed": Option({"identities": 0, "model": 20240901, "solve-hardy": 20240901, "scan-chsh": 0,
                    "mc": 0, "compare": 7}, int),
    "tolerance": Option(dict.fromkeys(("qm", "model", "solve-hardy", "compare")), list,
                        metavar="CLASS=VALUE", help=f"override a tolerance class (repeatable); "
                                                    f"classes: {', '.join(DEFAULT_TOLERANCES)}"),
    "unit": Option(dict.fromkeys(("qm", "model", "solve-hardy", "mc")), choices=("deg", "rad"),
                   help="unit for every angle flag (mandatory when angles are given)"),
    "angles": Option(dict.fromkeys(SETTINGS), (str, list), readers=tuple(mcsim.EXPERIMENTS),
                     help="comma-separated angles; interpretation depends on command"),
    "angles_file": Option(dict.fromkeys(SETTINGS), help='JSON file: {"angles": [...], ...}'),
    "state": Option({"qm": None, "compare": "all"},
                    choices={"qm": ("singlet", "hardy", *GHZ),
                             "compare": ("singlet", "chsh", "hardy", *GHZ, "all")}),
    "which": Option({"model": None}, choices=("singlet", "chsh", "hardy", *GHZ)),
    "experiment": Option({"mc": None}, choices=tuple(mcsim.EXPERIMENTS)),
    "theta_grid": Option({"solve-hardy": None}, help="start:stop:count (in --unit)"),
    "samples": Option({"identities": 10_000, "compare": 500}, int, minimum=1),
    "count": Option({"scan-chsh": 100_000}, int,
                    minimum=len(lrmodel.OPTIMAL_CHSH_QUADRUPLES)),
    "theta": Option(dict.fromkeys(("qm", "model")), float, readers=("hardy",),
                    help="hardy parameter (in --unit)"),
    "mode": Option({"model": "pinned_z"}, choices=lrmodel.GHZ_MODES, readers=GHZ),
    # Trial indices are uint64 counters: past 2**64 the draws would repeat.
    "trials": Option({"mc": 1_000_000}, int, minimum=1, maximum=2**64),
    "weight_plus": Option({"mc": 0.5}, float, minimum=0.0, maximum=1.0),
    "workers": Option({"mc": 1}, int, minimum=1),
    # identities' default, all, runs every table; the other commands take one.
    "table": Option({"identities": "all", "model": None, "mc": None, "compare": None},
                    readers=GHZ,
                    help={"identities": f"cross table: all | {' | '.join(BUILTIN_TABLES)}"}),
    "starts": Option({"model": 32, "solve-hardy": 32}, int, minimum=1, readers=("hardy",)),
    "strict_table": Option(dict.fromkeys(("model", "compare")), bool, readers=GHZ),
    "unswapped_b_minus": Option(
        {"model": None}, bool, readers=("hardy",),
        help="use the unswapped variant of the minus-outcome point on side b"),
    **{name: Option(dict.fromkeys(SETTINGS), float, readers=tuple(
        kind for kind, spec in mcsim.EXPERIMENTS.items() if name in spec.numbers))
       for name in ("alpha", "delta")},
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _for(value, command: str):
    """An option's choices or help on command, also where given per command."""
    return value.get(command) if isinstance(value, dict) else value


def _not_read(args, dest: str) -> str | None:
    """Why the setting of a qm, model or mc call does not read the flag or
    angles-file key dest, or None when it does or the command has no setting."""
    readers = OPTIONS[dest].readers
    if args.command not in SETTINGS or readers is None:
        return None
    flag = SETTINGS[args.command]
    setting = getattr(args, flag)
    fits = [kind for kind in _for(OPTIONS[flag].choices, args.command) if kind in readers]
    if setting in fits:
        return None
    if not fits:
        return f"is not read by {args.command}"
    return f"is read only for {_flag(flag)} {' or '.join(fits)}, not {setting}"


def _check_config_value(command: str, dest: str, value):
    """UsageError unless a --config value has the JSON type its option takes
    and is one of the option's choices on command."""
    opt = OPTIONS[dest]
    allowed, want = CONFIG_TYPES[opt.type]
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise UsageError(f"{_flag(dest)} must be {want}, got {value!r} (from --config)")
    choices = _for(opt.choices, command)
    if choices is not None and value not in choices:
        raise UsageError(f"{_flag(dest)} must be one of "
                         f"{', '.join(choices)}, got {value!r} (from --config)")


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Apply JSON config values beneath explicit flags, then fill defaults.
    Every key must name an option of the subcommand, and its value must have
    the type that option takes. A table must exist, and a qm, model or mc
    flag, given or from a key, must be one its setting reads."""
    command = args.command
    if args.config:
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
        for key, value in data.items():
            attr = key.replace("-", "_")
            if attr not in OPTIONS or command not in OPTIONS[attr].commands:
                raise UsageError(f"config key {key!r} is not an option of {command}")
            _check_config_value(command, attr, value)
            current = getattr(args, attr)
            if current is None or (current is False and isinstance(value, bool)):
                setattr(args, attr, value)
    table = getattr(args, "table", None)
    if table not in (None, OPTIONS["table"].commands.get(command)):  # identities' all
        get_table(table)  # an unknown table is named before a table off ghz3/ghz4
    for dest in OPTIONS:  # before the defaults fill --starts and --mode
        why = getattr(args, dest, None) not in (None, False) and _not_read(args, dest)
        if why:
            raise UsageError(f"{_flag(dest)} {why}")
    for dest, opt in OPTIONS.items():
        if command not in opt.commands:
            continue
        if getattr(args, dest) is None:
            setattr(args, dest, opt.commands[command])
        value, kind = getattr(args, dest), "an integer" if opt.type is int else "a number"
        if opt.minimum is not None and not value >= opt.minimum:
            raise UsageError(f"{_flag(dest)} must be {kind} >= {opt.minimum}, got {value!r}")
        if opt.maximum is not None and not value <= opt.maximum:
            raise UsageError(f"{_flag(dest)} must be {kind} <= {opt.maximum}, got {value!r}")
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


ANGLES_FILE_KEYS = ("angles", "alpha", "delta", "theta")


def _load_angles(args, directions: bool = True) -> list[float]:
    """The numbers of --angles or --angles-file, whose alpha, delta and theta fill
    unset flags; "angles" may be left out of it without directions (hardy).
    Any other key, or one that the setting does not read, is a UsageError."""
    if args.angles and args.angles_file:
        raise UsageError("give either --angles or --angles-file, not both")
    if args.angles:
        values = _parse_float_list(args.angles) if isinstance(args.angles, str) else args.angles
        return [float(x) for x in _finite("--angles", values)]
    if args.angles_file:
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
        for key in data:
            if key not in ANGLES_FILE_KEYS:
                raise UsageError(f"angles file: key {key!r} is not one of "
                                 f"{', '.join(ANGLES_FILE_KEYS)}")
        if not all(_is_number(x) for x in angles):
            raise UsageError(f'angles file: "angles" must hold numbers, got {angles!r}')
        keys = [key for key in ANGLES_FILE_KEYS[1:] if key in data]
        for key in keys:
            if not _is_number(data[key]):
                raise UsageError(f"angles file: {key!r} must be a number, got {data[key]!r}")
        for key in (["angles"] if angles else []) + keys:
            why = _not_read(args, key)
            if why:
                raise UsageError(f"angles file: {key!r} {why}")
        for key in keys:
            if getattr(args, key, None) is None:
                setattr(args, key, data[key])
        return _finite("--angles-file", [float(x) for x in angles])
    raise UsageError("directions required: pass --angles or --angles-file")


def _angle(args, name: str, unit: str) -> float:
    """The angle flag --NAME in radians; it must be finite."""
    return float(to_radians(_finite(f"--{name}", [getattr(args, name)])[0], unit))


def _require_unit_flag(args) -> str:
    if args.unit is None:
        raise UsageError("angles supplied: --unit {deg,rad} is mandatory")
    return args.unit


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
                         f"for {_flag(SETTINGS[args.command])} {kind}")
    numbers = [_angle(args, name, unit) for name in spec.numbers]
    return mcsim.Experiment(kind, tuple(dirs), tuple(numbers)), rad


# The Hardy theta domain of qmref.check_hardy_theta, as given in each --unit.
HARDY_DOMAIN = {"deg": "[0, 90] deg", "rad": "[0, pi/2] rad"}


def _hardy_domain(flag: str, thetas, unit: str, given) -> None:
    """UsageError naming flag and unit unless every theta (in radians) lies in
    the Hardy domain; given is the flag's value as the user wrote it."""
    try:
        for theta in thetas:
            check_hardy_theta(theta)
    except ValueError:
        raise UsageError(f"{flag} must lie in {HARDY_DOMAIN[unit]}, got {given!r}") from None


def _theta(args) -> float:
    """--theta of the hardy setting, in radians; without the flag, the theta
    key of --angles-file."""
    if args.theta is None and args.angles_file:
        _load_angles(args, directions=False)  # sets args.theta from the file's theta key
    if args.theta is None:
        raise UsageError(f"--theta required for {_flag(SETTINGS[args.command])} hardy")
    unit = _require_unit_flag(args)
    theta = _angle(args, "theta", unit)
    _hardy_domain("--theta", [theta], unit, args.theta)
    return theta


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
    # stop - start too: np.linspace would overflow it to NaN, with warnings.
    if count < 1 or not all(math.isfinite(x) for x in (start, stop, stop - start)):
        raise UsageError(f"grid needs count >= 1 and finite bounds and span, got {text!r}")
    return np.linspace(start, stop, count)


def _tolerances(args) -> dict:
    """DEFAULT_TOLERANCES with any --tolerance CLASS=VALUE overrides applied."""
    tol = dict(DEFAULT_TOLERANCES)
    for item in args.tolerance or []:
        key, _, value = str(item).partition("=")
        if key not in tol or not value:
            raise UsageError(f"--tolerance takes CLASS=VALUE with CLASS in {sorted(tol)}, "
                             f"got {item!r}")
        try:
            tol[key] = float(value)
        except ValueError:
            raise UsageError(f"bad tolerance value in {item!r}")
        if not tol[key] >= 0.0:
            raise UsageError(f"--tolerance {key} must be >= 0 (inf allowed), got {value!r}")
    return tol


def _emit(args, report) -> int:
    """Write the artifact in --format if --out is given;
    for a comparison, print the summary and exit 1 iff a gated row
    mismatches (a NaN residual included)."""
    if args.out:
        print(f"wrote {write_report(report, args.out, args.format)}")
    if isinstance(report, ComparisonReport):
        residual = report.residual
        size = np.abs(residual)
        gated = np.isfinite(report.tolerance)
        bad = np.flatnonzero(gated & ~(size <= report.tolerance))
        peak = "no gated rows"
        if gated.any():
            # The first gated row of the largest |residual|, a NaN one counting as largest.
            worst = int(np.argmax(np.where(gated, np.where(np.isnan(size), np.inf, size), -1.0)))
            peak = f"max gated |residual| = {size[worst]:.3e} ({report.labels[worst]})"
        print(f"{len(report.labels)} rows, {peak}, gated mismatches: {len(bad)}")
        for i in bad[:20].tolist():
            print(f"  MISMATCH {report.labels[i]}: model={float(report.model[i])!r} "
                  f"oracle={float(report.oracle[i])!r} residual={residual[i]:.3e} "
                  f"tol={report.tolerance[i]:g}")
        return 1 if len(bad) else 0
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_identities(args) -> int:
    tables = None if args.table == "all" else [args.table]
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
    if args.which == "hardy":
        report = compare.model_hardy_report(_theta(args), args.starts, args.seed,
                                            not args.unswapped_b_minus, tol)
    else:
        experiment, _ = _setting(args, args.which)
        report = compare.model_report(experiment, args.mode, args.table, tol)
    return _emit(args, compare.strict_table(report, tol["algebraic"]) if args.strict_table else report)


def cmd_solve_hardy(args) -> int:
    if args.theta_grid is None:
        raise UsageError("--theta-grid start:stop:count is required")
    unit = _require_unit_flag(args)
    thetas = to_radians(_parse_grid(args.theta_grid), unit)
    _hardy_domain("--theta-grid", [thetas.min(), thetas.max()], unit, args.theta_grid)
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
    sweep = {}
    blocks = lrmodel.chsh_sweep(args.count, args.seed, sweep)
    _emit(args, compare.chsh_sweep_table(blocks))
    for _ in blocks:  # the sweep not written (no --out) still runs, once, for its summary
        pass
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
    report = compare.build_comparison(args.state, args.samples, args.seed, args.table, tol)
    return _emit(args, compare.strict_table(report, tol["algebraic"]) if args.strict_table else report)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spherelab",
        description="Sphere-model correlation laboratory: model evaluators, "
        "brute-force quantum oracle, constraint solver, seeded ensembles, "
        "and comparison reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "identities": ("run the algebraic identity sweeps", cmd_identities),
        "qm": ("brute-force oracle values vs closed forms", cmd_qm),
        "model": ("model evaluations", cmd_model),
        "solve-hardy": ("solve the angle system over a theta grid", cmd_solve_hardy),
        "scan-chsh": ("coplanar CHSH sweep (plot-ready CSV)", cmd_scan_chsh),
        "mc": ("seeded hidden-orientation ensembles", cmd_mc),
        "compare": ("full model-vs-oracle comparison report", cmd_compare),
    }
    for command, (summary, func) in handlers.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=func)
        for dest, opt in OPTIONS.items():
            if command not in opt.commands:
                continue
            # Flags parse to None (a switch to False), so _merge_config can
            # tell a flag given from one to fill from --config or a default.
            if opt.type is bool:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"action": "append" if opt.type is list else "store",
                          "type": opt.type if opt.type in (int, float) else None,
                          "choices": _for(opt.choices, command), "metavar": opt.metavar,
                          "required": dest == SETTINGS.get(command)}
            p.add_argument(_flag(dest), help=_for(opt.help, command), **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _merge_config(parser.parse_args(argv))
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never a gated mismatch
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
