"""Command-line front end checks: exit codes, artifact determinism,
atomic writes, unit handling, config merging."""

import argparse
import ast
import json
import os
import stat
import subprocess
import sys

import pytest

from spherelab import cli, compare, lrmodel, mcsim
from spherelab.lrmodel import ComparisonReport


def run_cli(*argv):
    return cli.main(list(argv))


def test_compare_singlet_exits_zero(tmp_path, capsys):
    out = tmp_path / "singlet.json"
    code = run_cli("compare", "--state", "singlet", "--samples", "1000", "--seed", "7",
                   "--out", str(out))
    assert code == 0
    report = ComparisonReport.from_json(out.read_text())
    assert len(report.rows) == 1000
    assert report.max_abs_residual() < 1e-12


def test_compare_artifact_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("compare", "--state", "ghz4", "--samples", "20", "--seed", "3", "--out", str(out1))
    run_cli("compare", "--state", "ghz4", "--samples", "20", "--seed", "3", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_strict_table_gates(tmp_path):
    relaxed = run_cli("compare", "--state", "ghz4", "--samples", "10", "--seed", "3",
                      "--out", str(tmp_path / "r.json"))
    strict = run_cli("compare", "--state", "ghz4", "--samples", "10", "--seed", "3",
                     "--strict-table", "--out", str(tmp_path / "s.json"))
    assert relaxed == 0
    assert strict == 1  # table mode does not reproduce pinned-Z values
    assert (tmp_path / "s.json").exists()  # report still written on exit 1


def test_strict_table_uses_the_algebraic_tolerance_in_effect(tmp_path):
    # The table-vs-pinned gaps are 0.03-0.2; a loosened algebraic class
    # must let them pass under --strict-table.
    out = tmp_path / "loose.json"
    code = run_cli("compare", "--state", "ghz4", "--samples", "3", "--seed", "7",
                   "--strict-table", "--tolerance", "algebraic=1", "--out", str(out))
    assert code == 0
    report = ComparisonReport.from_json(out.read_text())
    gaps = [abs(r.residual) for r in report.rows if "table_vs_pinned_z" in r.label]
    assert gaps and 1e-12 < max(gaps) < 1.0


def test_qm_missing_angles_file_exits_two(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = run_cli("qm", "--state", "ghz4", "--angles-file", str(tmp_path / "missing.json"),
                   "--unit", "deg", "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_qm_hardy_amplitude_table(tmp_path):
    out = tmp_path / "hardy.csv"
    code = run_cli("qm", "--state", "hardy", "--theta", "45", "--unit", "deg",
                   "--out", str(out), "--format", "csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label,model,oracle,residual,tolerance,verdict"
    assert len(lines) == 17  # 16 amplitude rows


def test_qm_requires_unit_for_angles():
    code = run_cli("qm", "--state", "singlet", "--angles", "0,0,90,0")
    assert code == 2


def test_qm_singlet_with_angles(tmp_path):
    code = run_cli("qm", "--state", "singlet", "--angles", "0,0,90,0", "--unit", "deg")
    assert code == 0


def test_model_chsh(tmp_path):
    out = tmp_path / "chsh.json"
    code = run_cli("model", "--which", "chsh", "--angles", "0,90,225,135", "--unit", "deg",
                   "--out", str(out))
    assert code == 0
    report = ComparisonReport.from_json(out.read_text())
    model_row = next(r for r in report.rows if r.label == "chsh.model")
    assert model_row.model == pytest.approx(2 * 2**0.5, abs=1e-12)


def test_model_ghz4_table_mode_nongating(tmp_path):
    argv = ["model", "--which", "ghz4", "--mode", "table",
            "--angles", "30,10,70,20,110,30,150,40", "--unit", "deg"]
    assert run_cli(*argv) == 0
    assert run_cli(*argv, "--strict-table") == 1


def test_model_hardy_solved_and_unsolved(tmp_path):
    assert run_cli("model", "--which", "hardy", "--theta", "0", "--unit", "rad") == 0
    # Infeasible theta: informational rows, exit 0, failing equations in meta.
    out = tmp_path / "h.json"
    assert run_cli("model", "--which", "hardy", "--theta", "45", "--unit", "deg",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["failing"]


def test_solve_hardy_grid(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_cli("solve-hardy", "--theta-grid", "0:90:5", "--unit", "deg",
                   "--out", str(out), "--format", "csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("theta,residual_norm,solved,failing,alpha")
    assert len(lines) == 6
    json_out = tmp_path / "scan.json"
    assert run_cli("solve-hardy", "--theta-grid", "0:90:3", "--unit", "deg",
                   "--out", str(json_out)) == 0
    doc = json.loads(json_out.read_text())
    assert len(doc["rows"]) == 3
    assert doc["rows"][0]["solved"] is True


def test_solve_hardy_bad_grid():
    assert run_cli("solve-hardy", "--theta-grid", "0:90", "--unit", "deg") == 2
    assert run_cli("solve-hardy", "--theta-grid", "0:90:3") == 2  # no unit


def test_scan_chsh_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("scan-chsh", "--count", "500", "--seed", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_a,t_a_prime,t_b,t_b_prime,value,bound"
    assert len(lines) == 501


def test_mc_command(tmp_path):
    out = tmp_path / "mc.json"
    code = run_cli("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
                   "--trials", "1000", "--seed", "5", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 1000
    assert doc["scalar_mean"] == pytest.approx(0.5, abs=1e-12)
    # determinism across workers through the CLI
    out2 = tmp_path / "mc2.json"
    run_cli("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
            "--trials", "1000", "--seed", "5", "--workers", "3", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_mc_ghz3_requires_alpha_delta():
    assert run_cli("mc", "--experiment", "ghz3", "--angles", "0,0,90,0,45,0",
                   "--unit", "deg", "--trials", "10") == 2


def test_identities_command(tmp_path):
    out = tmp_path / "identities.json"
    code = run_cli("identities", "--samples", "500", "--seed", "1", "--table", "cyclic-124",
                   "--out", str(out))
    assert code == 0
    report = ComparisonReport.from_json(out.read_text())
    labels = {r.label for r in report.rows}
    assert "ga3.associativity" in labels
    assert any(l.startswith("s7.lagrange_identity") for l in labels)


def test_identities_small_sample_count(tmp_path):
    out = tmp_path / "identities.json"
    assert run_cli("identities", "--samples", "5", "--table", "cyclic-124",
                   "--out", str(out)) == 0
    report = ComparisonReport.from_json(out.read_text())
    assert report.meta["samples"] == 5


@pytest.mark.parametrize("argv", [
    ("compare", "--state", "singlet", "--samples", "0"),
    ("compare", "--state", "singlet", "--samples", "-2"),
    ("identities", "--samples", "0"),
    ("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
     "--trials", "10", "--workers", "0"),
    ("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
     "--trials", "10", "--workers", "-3"),
])
def test_count_options_below_one_exit_two(argv, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    (("compare", "--state", "singlet"), {"samples": 0}),
    (("compare", "--state", "singlet"), {"samples": "abc"}),
    (("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
      "--trials", "10"), {"workers": -3}),
])
def test_count_options_from_config_are_validated(command, config, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "never.json"
    assert run_cli(*command, "--config", str(path), "--out", str(out)) == 2
    assert not out.exists()


def test_config_file_merge(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"state": "singlet", "samples": 25, "seed": 9}))
    out = tmp_path / "from_config.json"
    code = run_cli("compare", "--config", str(config), "--out", str(out), "--samples", "10")
    assert code == 0
    report = ComparisonReport.from_json(out.read_text())
    assert len(report.rows) == 10  # flag overrides config
    assert report.meta["seed"] == 9  # config fills the rest
    assert run_cli("compare", "--config", str(tmp_path / "nope.json")) == 2


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "artifacts"))
    code = run_cli("compare", "--state", "singlet", "--samples", "5", "--seed", "1",
                   "--out", "nested/report.json")
    assert code == 0
    assert (tmp_path / "artifacts" / "nested" / "report.json").exists()


def test_write_report_handles_all_types(tmp_path):
    empty = ComparisonReport([])
    path = cli.write_report(empty, tmp_path / "empty.csv", "csv")
    assert path.read_text() == "label,model,oracle,residual,tolerance,verdict\n"
    report = mcsim.run_ensemble(
        mcsim.EnsembleConfig(
            mcsim.SingletExperiment([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]), trials=10, seed=1
        )
    )
    cli.write_report(report, tmp_path / "mc.csv", "csv")
    assert (tmp_path / "mc.csv").read_text().startswith("field,value\n")
    with pytest.raises(cli.UsageError):
        cli.write_report(empty, tmp_path / "x.yaml", "yaml")


def test_comparison_json_round_trip_through_disk(tmp_path):
    report = compare.compare_singlet(samples=5, seed=1)
    path = cli.write_report(report, tmp_path / "round.json", "json")
    back = ComparisonReport.from_json(path.read_text())
    assert back.rows == report.rows and back.meta == report.meta


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spherelab.cli", "compare", "--state", "singlet",
         "--samples", "5", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gated mismatches: 0" in proc.stdout


def test_tolerance_override_flag(tmp_path):
    # Loosening the algebraic class must keep exit 0; an absurdly tight
    # override must trip the gate.
    assert run_cli("compare", "--state", "singlet", "--samples", "20", "--seed", "1",
                   "--tolerance", "algebraic=1e-6") == 0
    assert run_cli("compare", "--state", "singlet", "--samples", "20", "--seed", "1",
                   "--tolerance", "algebraic=1e-30") == 1
    assert run_cli("compare", "--state", "singlet", "--samples", "5",
                   "--tolerance", "bogus=1") == 2
    assert run_cli("compare", "--state", "singlet", "--samples", "5",
                   "--tolerance", "algebraic=abc") == 2


def test_atomic_write_leaves_no_temp_files(tmp_path):
    run_cli("compare", "--state", "singlet", "--samples", "5", "--seed", "1",
            "--out", str(tmp_path / "r.json"))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert (tmp_path / "r.json").exists()


@pytest.mark.parametrize("config, flag", [
    ({"seed": "x"}, "--seed"),
    ({"seed": True}, "--seed"),
    ({"seed": 1.5}, "--seed"),
    ({"format": "xml"}, "--format"),
    ({"strict-table": "yes"}, "--strict-table"),
    ({"out": 5}, "--out"),
    ({"tolerance": "algebraic=1e-6"}, "--tolerance"),
])
def test_config_values_are_type_checked(config, flag, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("compare", "--state", "singlet", "--samples", "3", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_config_values_of_the_right_type_are_used(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, "strict-table": False, "format": "csv",
                                "tolerance": ["algebraic=1e-6"]}))
    out = tmp_path / "r.csv"
    assert run_cli("compare", "--state", "singlet", "--samples", "3", "--config", str(path),
                   "--out", str(out)) == 0
    assert out.read_text().startswith("label,")
    path.write_text(json.dumps({"weight-plus": 1, "angles": [0, 0, 120, 0]}))
    assert run_cli("mc", "--experiment", "singlet", "--unit", "deg", "--trials", "10",
                   "--config", str(path)) == 0


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_tolerance_rejects_nan_and_negative(value, capsys):
    assert run_cli("compare", "--state", "singlet", "--samples", "3",
                   "--tolerance", f"algebraic={value}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tolerance") and err.count("\n") == 1


def test_tolerance_accepts_inf():
    assert run_cli("compare", "--state", "singlet", "--samples", "3",
                   "--tolerance", "algebraic=inf") == 0


def test_artifact_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        run_cli("compare", "--state", "singlet", "--samples", "3", "--out", str(tmp_path / "r.json"))
        os.umask(0o077)
        run_cli("compare", "--state", "singlet", "--samples", "3", "--out", str(tmp_path / "p.json"))
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "r.json").stat().st_mode) == 0o644
    assert stat.S_IMODE((tmp_path / "p.json").stat().st_mode) == 0o600


def test_scan_chsh_prints_plain_floats(capsys):
    assert run_cli("scan-chsh", "--count", "50", "--seed", "1") == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("max |value|"))
    argmax = ast.literal_eval(line.split(" at ", 1)[1])
    assert len(argmax) == 4 and all(type(t) is float for t in argmax)


def test_importing_the_cli_does_not_import_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spherelab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_module_entry_point_runs_without_runtime_warning():
    proc = subprocess.run([sys.executable, "-m", "spherelab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("config, key", [
    ({"sample": 3, "state": "singlet"}, "sample"),
    ({"state": "singlet", "samples": 3, "which": "chsh"}, "which"),
])
def test_unknown_config_keys_are_rejected(config, key, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "never.json"
    assert run_cli("compare", "--config", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("content", [
    {"theta": 0.1},                              # no "angles" key
    [0, 90, 225, 135],                           # a top-level list
    {"angles": [0, 90, 225, 135], "theta": "x"},  # a non-numeric theta
    {"angles": "0,90,225,135"},                  # "angles" not a list
    {"angles": [0, 90, "225", 135]},             # a non-numeric angle
])
def test_malformed_angles_file_exits_two(content, tmp_path, capsys):
    path = tmp_path / "angles.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "never.json"
    assert run_cli("model", "--which", "chsh", "--angles-file", str(path), "--unit", "deg",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: angles file") and err.count("\n") == 1
    assert not out.exists()


def test_angles_file_with_numbers_is_used(tmp_path):
    path = tmp_path / "angles.json"
    path.write_text(json.dumps({"angles": [0, 90, 225, 135]}))
    assert run_cli("model", "--which", "chsh", "--angles-file", str(path), "--unit", "deg") == 0


def test_solve_hardy_json_rows_carry_diverged_count(tmp_path):
    out = tmp_path / "scan.json"
    assert run_cli("solve-hardy", "--theta-grid", "0:90:3", "--unit", "deg",
                   "--starts", "8", "--out", str(out)) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["diverged"] for r in rows] == [0, 0, 0]


GHZ3_ANGLES = ("--angles", "30,10,70,20,110,30", "--unit", "deg")


@pytest.mark.parametrize("argv, flag", [
    (("model", "--which", "hardy", "--theta", "nan", "--unit", "rad"), "--theta"),
    (("qm", "--state", "hardy", "--theta", "inf", "--unit", "deg"), "--theta"),
    (("model", "--which", "ghz3", "--alpha", "nan", "--delta", "40") + GHZ3_ANGLES, "--alpha"),
    (("qm", "--state", "ghz3", "--alpha", "20", "--delta=-inf") + GHZ3_ANGLES, "--delta"),
    (("mc", "--experiment", "ghz3", "--alpha", "nan", "--delta", "40", "--trials", "10")
     + GHZ3_ANGLES, "--alpha"),
    (("model", "--which", "chsh", "--angles", "0,90,45,inf", "--unit", "deg"), "--angles"),
    (("mc", "--experiment", "singlet", "--angles", "0,0,nan,0", "--unit", "deg",
      "--trials", "10"), "--angles"),
])
def test_non_finite_angles_exit_two(argv, flag, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("content, flag", [
    ('{"angles": [0, 90, NaN, 135]}', "--angles-file"),
    ('{"angles": [0, 90, 225, Infinity]}', "--angles-file"),
])
def test_non_finite_angles_file_exits_two(content, flag, tmp_path, capsys):
    path = tmp_path / "angles.json"
    path.write_text(content)
    assert run_cli("model", "--which", "chsh", "--angles-file", str(path), "--unit", "deg") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_non_finite_angle_from_config_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"theta": NaN}')
    assert run_cli("model", "--which", "hardy", "--unit", "rad", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --theta ") and err.count("\n") == 1


def _row(label, residual, tolerance):
    verdict = "match" if abs(residual) <= tolerance else "mismatch"
    return lrmodel.ComparisonRow(label, residual, 0.0, residual, tolerance, verdict)


def _emit(rows, strict_table=False, tolerances=compare.DEFAULT_TOLERANCES):
    args = argparse.Namespace(out=None, format=None, strict_table=strict_table)
    return cli._emit(args, ComparisonReport(rows), tolerances)


def test_a_finite_tolerance_mismatch_gates(capsys):
    assert _emit([_row("a", 1e-14, 1e-12), _row("b", 1e-9, 1e-12)]) == 1
    out = capsys.readouterr().out
    assert "gated mismatches: 1" in out and "MISMATCH b:" in out


def test_infinite_tolerance_rows_never_gate(capsys):
    rows = [_row("a", 1e-14, 1e-12), _row("x.measured", float("nan"), float("inf")),
            _row("y.measured", 5.0, float("inf"))]
    assert rows[1].verdict == "mismatch"
    assert _emit(rows) == 0
    # The summary reports the gated rows, not the measurements.
    assert "max gated |residual| = 1.000e-14 (a), gated mismatches: 0" in capsys.readouterr().out


def test_nan_residual_in_a_gated_row_gates(capsys):
    assert _emit([_row("a", 1e-14, 1e-12), _row("b", float("nan"), 1e-12)]) == 1
    assert "max gated |residual| = nan (b)" in capsys.readouterr().out


def test_strict_table_gates_the_table_vs_pinned_rows(capsys):
    rows = [_row("ghz4.pinned_z_vs_oracle[0]", 1e-16, 1e-12),
            _row("ghz4.table_vs_pinned_z[0]", 0.2, float("inf"))]
    assert _emit(rows) == 0
    assert _emit(rows, strict_table=True) == 1
    assert "MISMATCH ghz4.table_vs_pinned_z[0]:" in capsys.readouterr().out
    loose = dict(compare.DEFAULT_TOLERANCES, algebraic=1.0)
    assert _emit(rows, strict_table=True, tolerances=loose) == 0


def test_summary_reports_the_largest_gated_residual(capsys):
    # The Jacobiator norm (about 10) is a measurement; the summary skips it.
    assert run_cli("identities", "--samples", "5", "--table", "cyclic-124") == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert "max gated |residual| = " in line and "jacobiator" not in line
    assert line.endswith("gated mismatches: 0")
