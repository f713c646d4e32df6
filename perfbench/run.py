#!/usr/bin/env python3
"""spherelab benchmark: the CLI's reports timed end to end, and a traced run
for the layers under them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness [--seed N]
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; it uses ``src/`` of that
checkout, never an installed spherelab.

A *unit* is one report: a fresh interpreter that calls
``spherelab.cli.main(argv)``, as the ``spherelab`` console script does, and
writes its artifact to a temporary directory under ``.perfbench_tmp/``.
Unit i of a run passes ``--seed`` = N + i. Units run one at a time from
this process, with the BLAS and OpenMP pools pinned to one thread. Every
unit's exit status and artifact are checked; a unit that fails any check
counts in ``failed``.

``--trace 0`` times units until ``--seconds`` would be exceeded and reports
the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median time from spawning an interpreter until
  ``spherelab.cli`` is imported, measured in every unit interpreter, and in
  import-only interpreters after the last unit until there are at least
  five samples;
* ``report_s``: median unit wall time, from spawn to exit;
* ``peak_rss_mb``: the largest max-RSS of any unit interpreter.

The fail ratio (failed / attempted units) is the result's ``failed`` and
``attempted``. It is not an end-to-end metric: those are bounded by a share
of the parent's median, which a metric that is 0 on a correct program
cannot have.

``--trace 1`` is a separate run with fixed work that reports the per-layer
metrics: one untimed-by-tracing unit, the same unit twice under
``tracer.py`` (whose counts must agree exactly), ``-X importtime`` of
``spherelab.cli``, and the fixed-size kernel probes of ``probes.py``.
Layer times include the tracer's cost; ``trace.overhead_ratio`` gives it.

``--steadiness`` runs every workload ten times with seeds N, N+1, ...
and prints each end-to-end metric's run-to-run spread (interquartile
range over median) next to its bound. ``--smoke`` runs every workload at
tiny sizes in both modes and checks only the shape of each result.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

# Both write the monotonic time at which ``spherelab.cli`` is imported to the
# file named by their first argument; a unit then runs the CLI on the rest.
IMPORTED = "open(sys.argv[1], 'w').write(repr(time.monotonic()))"
UNIT_CODE = ("import sys, time; from spherelab.cli import main; "
             f"{IMPORTED}; sys.exit(main(sys.argv[2:]))")
SETUP_CODE = f"import sys, time; import spherelab.cli; {IMPORTED}"
MIN_SETUP_SAMPLES = 5
STEADINESS_REPEATS = 10

# ---------------------------------------------------------------------------
# workloads: the CLI calls of one unit, and the checks on their artifacts
# ---------------------------------------------------------------------------

# Expected outputs at the full (README) and smoke sizes, as spherelab 0.1.0
# writes them for every seed.
COMPARE_ROWS = {False: 5347, True: 397}
IDENTITY_ROWS = 59
HARDY_GRID = {False: "0:90:19", True: "0:90:3"}
SWEEP_COUNT = {False: 100_000, True: 100}
MC_TRIALS = {False: 100_000_000, True: 100_000}
MC_ANGLES_DEG = (0.0, 0.0, 120.0, 0.0)
MC_WORKERS = 2
SWEEP_HEADER = "t_a,t_a_prime,t_b,t_b_prime,value,bound"
HARDY_HEADER = "theta,residual_norm,solved,failing,alpha,beta,gamma,delta,eta,rho,nu"


@dataclass(frozen=True)
class Workload:
    # (seed, artifact dir, smoke) -> argv of each CLI call, one interpreter each
    calls: Callable[[int, Path, bool], list]
    # (artifact dir, smoke) -> errors found in the artifacts
    check: Callable[[Path, bool], list]


def _report(path: Path):
    from spherelab.lrmodel import ComparisonReport

    return ComparisonReport.from_json(path.read_text())


def _gated(report, rows: int) -> list:
    errors = []
    if len(report.rows) != rows:
        errors.append(f"{len(report.rows)} rows, expected {rows}")
    bad = report.mismatches()
    if bad:
        errors.append(f"{len(bad)} gated mismatches, first {bad[0].label}")
    return errors


def _only_first_certified(solved: list) -> list:
    expected = [True] + [False] * (len(solved) - 1)
    return [] if solved == expected else [f"hardy solved pattern {solved}, expected {expected}"]


def _compare_check(out: Path, smoke: bool) -> list:
    report = _report(out / "compare.json")
    solver = report.meta["hardy"]["solver"]
    solved = [solver[key]["solved"] for key in sorted(solver, key=float)]
    return _gated(report, COMPARE_ROWS[smoke]) + _only_first_certified(solved)


def _identities_check(out: Path, smoke: bool) -> list:
    return _gated(_report(out / "identities.json"), IDENTITY_ROWS)


def _hardy_check(out: Path, smoke: bool) -> list:
    lines = (out / "scan.csv").read_text().splitlines()
    points = int(HARDY_GRID[smoke].rsplit(":", 1)[1])
    errors = [] if lines[0] == HARDY_HEADER else [f"hardy header {lines[0]!r}"]
    if len(lines) != points + 1:
        return errors + [f"{len(lines)} hardy lines, expected {points + 1}"]
    return errors + _only_first_certified([line.split(",")[2] == "True" for line in lines[1:]])


def _sweep_check(out: Path, smoke: bool) -> list:
    errors = []
    with open(out / "sweep.csv") as fh:
        header = fh.readline().rstrip("\n")
        lines = 1 + sum(1 for _ in fh)
    if header != SWEEP_HEADER:
        errors.append(f"sweep header {header!r}")
    if lines != SWEEP_COUNT[smoke] + 1:
        errors.append(f"{lines} sweep lines, expected {SWEEP_COUNT[smoke] + 1}")
    ensemble = json.loads((out / "ensemble.json").read_text())
    t1, p1, t2, p2 = (math.radians(v) for v in MC_ANGLES_DEG)
    a = (math.sin(t1) * math.cos(p1), math.sin(t1) * math.sin(p1), math.cos(t1))
    b = (math.sin(t2) * math.cos(p2), math.sin(t2) * math.sin(p2), math.cos(t2))
    expected = -sum(x * y for x, y in zip(a, b))
    if abs(ensemble["scalar_mean"] - expected) > 1e-12:
        errors.append(f"scalar_mean {ensemble['scalar_mean']!r}, expected -a.b = {expected!r}")
    if ensemble["trials"] != MC_TRIALS[smoke]:
        errors.append(f"{ensemble['trials']} trials, expected {MC_TRIALS[smoke]}")
    return errors


WORKLOADS = {
    "compare_all": Workload(
        lambda seed, out, smoke: [[
            "compare", "--state", "all", "--samples", "5" if smoke else "500",
            "--seed", str(seed), "--format", "json", "--out", str(out / "compare.json")]],
        _compare_check,
    ),
    "identities": Workload(
        lambda seed, out, smoke: [[
            "identities", "--samples", "200" if smoke else "10000", "--table", "all",
            "--seed", str(seed), "--format", "json", "--out", str(out / "identities.json")]],
        _identities_check,
    ),
    "hardy_scan": Workload(
        lambda seed, out, smoke: [[
            "solve-hardy", "--theta-grid", HARDY_GRID[smoke], "--unit", "deg",
            "--seed", str(seed), "--format", "csv", "--out", str(out / "scan.csv")]],
        _hardy_check,
    ),
    "sweep_io": Workload(
        lambda seed, out, smoke: [
            ["scan-chsh", "--count", str(SWEEP_COUNT[smoke]), "--seed", str(seed),
             "--out", str(out / "sweep.csv")],
            ["mc", "--experiment", "singlet", "--angles", ",".join(f"{v:g}" for v in MC_ANGLES_DEG),
             "--unit", "deg", "--trials", str(MC_TRIALS[smoke]), "--workers", str(MC_WORKERS),
             "--seed", str(seed), "--format", "json", "--out", str(out / "ensemble.json")],
        ],
        _sweep_check,
    ),
}

# ---------------------------------------------------------------------------
# running interpreters
# ---------------------------------------------------------------------------


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("SPHERELAB_OUTDIR", None)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(tmp),
    )
    return env


def _spawn(cmd: list, log: Path, env: dict):
    """Run cmd to completion; (exit code, wall seconds, max RSS in MB, start),
    with start on the time.monotonic() clock."""
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, start


def _import_s(stamp: Path, start: float) -> list:
    """Spawn to ``spherelab.cli`` imported, from the stamp a child wrote."""
    try:
        return [float(stamp.read_text()) - start]
    except (OSError, ValueError):
        return []


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


@dataclass
class Unit:
    wall_s: float
    peak_rss_mb: float
    errors: list
    setup_s: list  # spawn to import done, one per untraced interpreter
    summary: dict | None = None  # merged span summary of a traced unit


def run_unit(workload: Workload, seed: int, smoke: bool, tmp: Path, env: dict,
             traced: bool = False) -> Unit:
    out = Path(tempfile.mkdtemp(dir=tmp))
    try:
        errors, rss, wall, spans, setups = [], 0.0, 0.0, [], []
        for i, argv in enumerate(workload.calls(seed, out, smoke)):
            stamp = out / f"imported{i}"
            if traced:
                spans.append(out / f"spans{i}.json")
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans[-1]), *argv]
            else:
                cmd = [sys.executable, "-c", UNIT_CODE, str(stamp), *argv]
            code, seconds, mb, start = _spawn(cmd, out / f"log{i}.txt", env)
            wall, rss = wall + seconds, max(rss, mb)
            setups += [] if traced else _import_s(stamp, start)
            if code != 0:
                errors.append(f"{argv[0]} exited {code}: {_tail(out / f'log{i}.txt')}")
        if not errors:
            try:
                errors = workload.check(out, smoke)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errors = [f"artifact check raised {exc!r}"]
        summary = None
        if traced and not errors:
            summary = tracer.merge(
                tracer.summarize(json.loads(path.read_text())["spans"]) for path in spans)
        return Unit(wall, rss, errors, setups, summary)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def setup_probe(tmp: Path, env: dict) -> tuple[list, list]:
    log, stamp = tmp / "setup.log", tmp / "imported"
    stamp.unlink(missing_ok=True)
    code, _, _, start = _spawn([sys.executable, "-c", SETUP_CODE, str(stamp)], log, env)
    if code != 0:
        return [], [f"import spherelab.cli exited {code}: {_tail(log)}"]
    return _import_s(stamp, start), []


def import_times(env: dict) -> tuple[dict, list]:
    """import.spherelab_s: cumulative import of the spherelab package;
    import.scipy_s: self time of every scipy module it pulls in."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spherelab.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return {}, [f"import spherelab.cli exited {proc.returncode}"]
    spherelab_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "spherelab":
            spherelab_us = int(fields[1])
        if name.split(".")[0] == "scipy":
            scipy_us += int(fields[0])
    return {"import.spherelab_s": spherelab_us * 1e-6, "import.scipy_s": scipy_us * 1e-6}, []


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(workload, seed, seconds, smoke, tmp, env):
    """Units until the next, and the setup samples still missing after it,
    would end past `seconds`; end-to-end metrics.

    Every unit interpreter gives a setup sample; separate import-only
    interpreters make up the samples missing after the last unit.
    """
    units, setups, errors = [], [], []
    start = time.monotonic()
    while True:
        units.append(run_unit(workload, seed + len(units), smoke, tmp, env))
        setups += units[-1].setup_s
        elapsed = time.monotonic() - start
        per_unit = elapsed / len(units)
        missing = MIN_SETUP_SAMPLES - len(setups) * (len(units) + 1) // len(units)
        if elapsed + per_unit + max(0, missing) * statistics.median(setups or [0]) > seconds:
            break
    for _ in range(MIN_SETUP_SAMPLES - len(setups)):
        samples, problems = setup_probe(tmp, env)
        setups += samples
        errors += problems
    if not setups:
        errors.append("no interpreter reported its import time")
    walls = [u.wall_s for u in units]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "report_s": statistics.median(walls),
        "peak_rss_mb": max(u.peak_rss_mb for u in units),
    }
    failed = sum(1 for u in units if u.errors)
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls[0],) * 3
    print(f"  setup_s      median {metrics['setup_s']:.4f} s over {len(setups)} interpreters")
    print(f"  report_s     median {metrics['report_s']:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
          f"{len(units)} units")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio   {failed}/{len(units)} = {failed / len(units):g}")
    errors += [e for u in units for e in u.errors]
    return metrics, len(units), failed, errors


# Per-layer metrics named <span>.<field>, except these two.
ALIASES = {"cli.self_s": ("cli.main", "self_s"), "lrmodel.lsq.starts": ("lrmodel.lsq", "calls")}
SPAN_FIELDS = {"calls", "s", "self_s", "rows", "bytes", "nfev", "raised"}
TIME_FIELDS = {"s", "self_s"}


def _span_field(metric: str) -> tuple[str, str]:
    span, field = ALIASES.get(metric) or metric.rsplit(".", 1)
    if span not in {t[2] for t in tracer.TRACED} or field not in SPAN_FIELDS:
        raise ValueError(f"per-layer metric {metric!r} names no traced span field")
    return span, field


def traced_run(workload, seed, smoke, tmp, env, names):
    """One plain unit, the same unit twice traced, import times and probes.

    A metric that could not be measured reads 0, and the run is incorrect.
    """
    values, errors = import_times(env)
    plain = run_unit(workload, seed, smoke, tmp, env)
    traced = [run_unit(workload, seed, smoke, tmp, env, traced=True) for _ in range(2)]
    units = [plain] + traced
    for unit in units:
        errors += unit.errors

    probe = subprocess.run(
        [sys.executable, str(HERE / "probes.py"), str(seed)] + (["--smoke"] if smoke else []),
        env=env, cwd=ROOT, capture_output=True, text=True)
    if probe.returncode == 0:
        result = json.loads(probe.stdout.strip().splitlines()[-1])
        values.update(result["metrics"])
        probe_errors = [f"probe {e}" for e in result["errors"]]
    else:
        probe_errors = [f"probes exited {probe.returncode}: {probe.stderr.strip()[-300:]}"]
    errors += probe_errors

    values["trace.overhead_ratio"] = statistics.median(u.wall_s for u in traced) / plain.wall_s
    summaries = [u.summary or {} for u in traced]
    counts = [{(name, key): value for name, entry in s.items()
               for key, value in entry.items() if key not in TIME_FIELDS} for s in summaries]
    if counts[0] != counts[1]:
        errors.append("traced counts differ between two runs at one seed")
    for metric in names:
        if metric not in values and metric.split(".")[0] not in ("import", "probe"):
            span, field = _span_field(metric)
            found = [s.get(span, {}).get(field, 0) for s in summaries]
            values[metric] = statistics.median(found) if field in TIME_FIELDS else found[0]
    missing = [m for m in names if m not in values]
    if missing:
        errors.append(f"no value for {missing}")
    print(f"  traced/untraced unit wall {values['trace.overhead_ratio']:.3f} "
          f"({plain.wall_s:.3f} s untraced)")
    failed = sum(1 for u in units if u.errors) + bool(probe_errors)
    return {m: values.get(m, 0) for m in names}, len(units) + 1, failed, errors


def environment() -> dict:
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), platform.processor())
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def load_program():
    """Import spherelab from this checkout's src/ (which also compiles its
    bytecode before timing); exit non-zero if the checkout has no program."""
    if not (SRC / "spherelab" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'spherelab'} not found; run from a spherelab checkout")
    sys.path.insert(0, str(SRC))
    import spherelab.cli

    if Path(spherelab.cli.__file__).resolve().parent != SRC / "spherelab":
        sys.exit(f"error: imported spherelab from {spherelab.cli.__file__}, not {SRC}")


def single_run(args, bench) -> int:
    # On SIGTERM, unwind so that _spawn kills the running unit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_program()
    TMP_ROOT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    # One run at a time per checkout, so traced and timed runs never overlap.
    with open(TMP_ROOT / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
        try:
            env = _child_env(tmp)
            print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}"
                  f"{', smoke sizes' if args.smoke else ''}")
            for argv in workload.calls(args.seed, Path("ARTIFACT_DIR"), args.smoke):
                print("  argv: spherelab " + " ".join(argv))
            print(f"  env: {json.dumps(environment(), sort_keys=True)}")
            if args.trace:
                section = "per_layer"
                names = [m["name"] for m in bench[section]]
                metrics, attempted, failed, errors = traced_run(
                    workload, args.seed, args.smoke, tmp, env, names)
            else:
                section = "end_to_end"
                metrics, attempted, failed, errors = timed_run(
                    workload, args.seed, args.seconds, args.smoke, tmp, env)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    for error in errors[:20]:
        print(f"  FAIL {error}")
    units = {m["name"]: m["unit"] for m in bench[section]}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _self_run(workload, seed, seconds, trace, smoke) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steadiness(args, bench) -> int:
    """Repeat each workload and print each end-to-end metric's spread."""
    status = 0
    for name in WORKLOADS:
        runs = []
        for i in range(STEADINESS_REPEATS):
            runs.append(_self_run(name, args.seed + i, args.seconds, 0, False))
            print(f"{name} seed {args.seed + i}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in runs[-1]["metrics"].items())
                + ("" if runs[-1]["correct"] else "  INCORRECT"), flush=True)
        failed = sum(r["failed"] for r in runs)
        print(f"{name}: {failed}/{sum(r['attempted'] for r in runs)} units failed")
        status |= bool(failed) or not all(r["correct"] for r in runs)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO NOISY")
            if spread > metric["bound"]:
                status = 1
            print(f"  {metric['name']:12} median {median:10.4f} {metric['unit']:5} "
                  f"q1 {q1:.4f} q3 {q3:.4f} spread {spread:.4f} bound {metric['bound']} "
                  f"{verdict}", flush=True)
    return status


def smoke(bench) -> int:
    """Every workload at tiny sizes in both modes; checks the result shape."""
    problems = []
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = _self_run(name, 0, 1, trace, True)
            except (RuntimeError, ValueError, IndexError) as exc:
                problems.append(f"{name} trace {trace}: {exc}")
                continue
            expected = {m["name"]: m["unit"] for m in bench[section]}
            got = result.get("metrics", {})
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{name} trace {trace}: not correct")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: attempted {result.get('attempted')!r}")
            if set(got) != set(expected):
                problems.append(f"{name} trace {trace}: metrics differ by "
                                f"{sorted(set(got) ^ set(expected))}")
            for metric, entry in got.items():
                value = entry.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
                    problems.append(f"{name} trace {trace}: {metric} = {value!r}")
                if entry.get("unit") != expected.get(metric):
                    problems.append(f"{name} trace {trace}: {metric} unit {entry.get('unit')!r}")
            print(f"{name} trace {trace}: {len(got)} metrics, "
                  f"{result.get('attempted')} attempted, {result.get('failed')} failed", flush=True)
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, check every workload's output shape")
    parser.add_argument("--steadiness", action="store_true",
                        help=f"run every workload {STEADINESS_REPEATS} times and print each "
                        "metric's spread")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args, bench)
    if args.smoke and not args.workload:
        return smoke(bench)
    if not args.workload:
        parser.error("give a --workload")
    return single_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
