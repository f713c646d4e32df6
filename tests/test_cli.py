"""Command-line front end checks: exit codes, artifact determinism,
atomic writes, unit handling, config merging."""

import argparse
import ast
import ctypes
import errno
import glob
import hashlib
import json
import math
import os
import platform
import stat
import subprocess
import sys
import time
from collections.abc import Iterator

import numpy as np
import pytest

import spherelab.report
from spherelab import cli, compare, identities, lrmodel, mcsim
from spherelab.report import CHUNK_ROWS, ComparisonReport, ComparisonRow


def run_cli(*argv):
    return cli.main(list(argv))


def test_compare_singlet_exits_zero(tmp_path, capsys):
    out = tmp_path / "singlet.json"
    code = run_cli("compare", "--state", "singlet", "--samples", "1000", "--seed", "7",
                   "--out", str(out))
    assert code == 0
    report = ComparisonReport.from_json(out.read_text())
    assert len(report.rows) == 1000
    assert max(abs(row.residual) for row in report.rows) < 1e-12


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
    # The failing equations are the scan row's, worst first.
    assert run_cli("model", "--which", "hardy", "--theta", "30", "--unit", "deg",
                   "--out", str(out)) == 0
    failing = [(f["label"], f["residual"]) for f in json.loads(out.read_text())["meta"]["failing"]]
    assert failing == list(lrmodel.scan_hardy([math.pi / 6])[0].failing)


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


def test_loosened_tolerance_names_a_worst_equation_on_every_flagged_row(tmp_path, capsys):
    # At 0.3, theta = 30 and 60 deg (norms 0.41 and 0.37) stay uncertified
    # although every residual there is below the tolerance.
    out = tmp_path / "scan.json"
    assert run_cli("solve-hardy", "--theta-grid", "0:90:7", "--unit", "deg",
                   "--tolerance", "solver_residual=0.3", "--out", str(out)) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["solved"] for row in rows] == [True, True] + [False] * 5
    assert all(bool(row["failing"]) != row["solved"] for row in rows)
    flagged = [line for line in capsys.readouterr().out.splitlines() if "FLAGGED" in line]
    assert len(flagged) == 5 and all(" worst=" in line for line in flagged)


def test_solve_hardy_bad_grid(capsys):
    assert run_cli("solve-hardy", "--theta-grid", "0:90", "--unit", "deg") == 2
    assert run_cli("solve-hardy", "--theta-grid", "0:90:3") == 2  # no unit
    capsys.readouterr()
    # Finite bounds whose span overflows: np.linspace would give NaN, with warnings.
    assert run_cli("solve-hardy", "--theta-grid", "1e308:-1e308:2", "--unit", "rad") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("qm", "--state", "hardy", "--theta", "100", "--unit", "deg"),
     "--theta must lie in [0, 90] deg, got 100.0"),
    (("qm", "--state", "hardy", "--theta", "-0.5", "--unit", "rad"),
     "--theta must lie in [0, pi/2] rad, got -0.5"),
    (("model", "--which", "hardy", "--theta", "90.5", "--unit", "deg"),
     "--theta must lie in [0, 90] deg, got 90.5"),
    # The grid's thetas have the domain of qm --state hardy.
    (("solve-hardy", "--theta-grid", "100:200:2", "--unit", "deg"),
     "--theta-grid must lie in [0, 90] deg, got '100:200:2'"),
    (("solve-hardy", "--theta-grid", "0:2:3", "--unit", "rad"),
     "--theta-grid must lie in [0, pi/2] rad, got '0:2:3'"),
])
def test_a_hardy_theta_off_its_domain_is_named_in_its_unit(argv, message, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_scan_chsh_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("scan-chsh", "--count", "500", "--seed", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_a,t_a_prime,t_b,t_b_prime,value,bound"
    assert len(lines) == 501


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_scan_chsh_rejects_json_format(from_config, tmp_path, capsys):
    out = tmp_path / "x.json"
    if from_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "json"}))
        extra = ("--config", str(config))
    else:
        extra = ("--format", "json")
    assert run_cli("scan-chsh", "--count", "4", "--out", str(out), *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--format json" in err
    assert not out.exists()
    assert run_cli("scan-chsh", "--count", "4", "--format", "csv", "--out", str(out)) == 0


def test_compare_hardy_certifies_theta_zero_at_seed_41065(tmp_path):
    # At this seed theta = 0's own Sobol' starts miss the root; the scan's
    # continuation from the next theta finds it.
    out = tmp_path / "hardy.json"
    assert run_cli("compare", "--state", "hardy", "--seed", "41065", "--out", str(out)) == 0
    labels = [row.label for row in ComparisonReport.from_json(out.read_text()).rows]
    assert sum(label.startswith("hardy_model[0.000000,") for label in labels) == 4
    assert not any(label.startswith("hardy_model.unsolved[0.000000]") for label in labels)


def _traced_peak(*argv) -> int:
    """The tracemalloc peak, in bytes, of one CLI call that exits 0."""
    import tracemalloc

    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_chsh_writes_its_csv_without_holding_the_text(tmp_path):
    # The CSV goes to the file chunk by chunk: writing it must cost less
    # memory than the text itself would take.
    out = tmp_path / "sweep.csv"
    assert run_cli("scan-chsh", "--count", "100", "--out", str(out)) == 0
    writing = (_traced_peak("scan-chsh", "--count", "40000", "--out", str(out))
               - _traced_peak("scan-chsh", "--count", "40000"))
    assert writing < out.stat().st_size


def test_scan_chsh_memory_does_not_grow_with_the_count(tmp_path):
    # The sweep is computed, folded and written block by block: ten times
    # the rows must not raise the peak by as much as 1 MB.
    out = tmp_path / "sweep.csv"
    assert run_cli("scan-chsh", "--count", "100", "--out", str(out)) == 0
    growth = (_traced_peak("scan-chsh", "--count", "400000", "--out", str(out))
              - _traced_peak("scan-chsh", "--count", "40000", "--out", str(out)))
    assert growth < 1_000_000


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


def _whole_sweep(count, seed):
    """The scan-chsh CSV and its two summary lines, from the sweep as one
    array: the four optimal quadruples, then one uniform(0, 2 pi,
    (count - 4, 4)) draw; the CSV as repr(float(x)) per value, row by row,
    and the summary from statistics of the whole columns. Also returns
    those statistics as lrmodel.scan_chsh names them."""
    rng = np.random.default_rng(seed)
    t = np.vstack([np.array(lrmodel.OPTIMAL_CHSH_QUADRUPLES),
                   rng.uniform(0.0, 2 * np.pi, (count - 4, 4))])
    ta, tap, tb, tbp = t.T
    values = -np.cos(tb - ta) - np.cos(tbp - ta) - np.cos(tb - tap) + np.cos(tbp - tap)
    bounds = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - np.sin(tap - ta) * np.sin(tb - tbp)))
    lines = ["t_a,t_a_prime,t_b,t_b_prime,value,bound"]
    for row in np.column_stack((t, values, bounds)):
        lines.append(",".join(repr(float(x)) for x in row))
    imax = int(np.argmax(np.abs(values)))
    excess = np.abs(values) - bounds
    stats = {"max_abs_value": float(np.abs(values[imax])), "argmax": t[imax].tolist(),
             "bound_violation_fraction": float(np.mean(excess > 1e-9)),
             "max_bound_violation": float(np.max(excess)),
             "bound_min": float(np.min(bounds)), "bound_max": float(np.max(bounds))}
    summary = [f"max |value| = {stats['max_abs_value']!r} at {stats['argmax']}",
               f"bound violations: fraction={stats['bound_violation_fraction']:.4f} "
               f"max={stats['max_bound_violation']:.6f}"]
    return "\n".join(lines) + "\n", summary, stats


@pytest.mark.parametrize("count", (4, 5, 4095, 4096, 4097, 8193, 10_000, 12289))
def test_scan_chsh_csv_equals_the_per_row_formatter(count, tmp_path, capsys):
    # The block edges fall inside, at and just past CHUNK_ROWS-row blocks.
    text, summary, stats = _whole_sweep(count, 3)
    out = tmp_path / "sweep.csv"
    assert run_cli("scan-chsh", "--count", str(count), "--seed", "3", "--out", str(out)) == 0
    assert out.read_text() == text
    assert capsys.readouterr().out.splitlines()[1:] == summary
    sweep = lrmodel.scan_chsh(count, 3)
    assert {**sweep, "argmax": sweep["argmax"].tolist()} == stats


@pytest.mark.parametrize("count", (4, 4095, 4097, 8193, 12289, 100_000))
def test_scan_chsh_csv_is_the_same_serial_and_split(count, tmp_path, monkeypatch):
    # The sweep computed as one block and as CHUNK_ROWS-row blocks gives the
    # same bytes.
    expected = _whole_sweep(count, 3)[0]
    for chunk_rows in (count, CHUNK_ROWS):
        monkeypatch.setattr(spherelab.report, "CHUNK_ROWS", chunk_rows)
        out = tmp_path / f"sweep{chunk_rows}.csv"
        assert run_cli("scan-chsh", "--count", str(count), "--seed", "3", "--out", str(out)) == 0
        assert out.read_text() == expected


class _DiskFullAfter:
    """A text file whose writelines fails with ENOSPC after `chunks` chunks."""

    def __init__(self, fh, chunks):
        self.fh, self.chunks = fh, chunks

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, text):
        for i, chunk in enumerate(text):
            if i == self.chunks:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.fh.write(chunk)


def test_a_failing_csv_writer_exits_two_without_an_artifact(tmp_path, monkeypatch, capsys):
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _DiskFullAfter(fdopen(fd, mode), 3))
    out = tmp_path / "sweep.csv"
    assert run_cli("scan-chsh", "--count", "100000", "--out", str(out)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no artifact and no .tmp file


def test_a_huge_count_streams_into_a_full_disk_and_exits_two(tmp_path, monkeypatch, capsys):
    # Nothing of the sweep's length is allocated up front, so a count of
    # 10**13 rows writes its first blocks and stops at the full disk.
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _DiskFullAfter(fdopen(fd, mode), 3))
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    assert run_cli("scan-chsh", "--count", str(10**13), "--out", str(out)) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []  # no artifact and no .tmp file


def test_a_failing_write_closes_the_stream_at_once(tmp_path, monkeypatch):
    closed = []

    def stream():
        try:
            yield from ("a", "b", "c")
        finally:
            closed.append(True)

    text = stream()  # still referenced here, so only close() can finish it
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _DiskFullAfter(fdopen(fd, mode), 1))
    with pytest.raises(OSError):
        cli._atomic_write(tmp_path / "r.csv", text)
    assert closed == [True]
    assert list(tmp_path.iterdir()) == []


# SHA-256 of artifacts as written before the integer-threshold draws and the
# chunked CSV formatter; both changes must leave every byte as it was. The
# Hardy-solver pins (compare, model hardy, solve-hardy) were re-taken with the
# analytic-Jacobian kernel, whose iterates stop at points of equal norm. The
# compare JSON and uncertified model-hardy pins were re-taken once more when
# every failing list became the scan row's: judged against the residual norm,
# worst first. The S^7, GHZ and Hardy-oracle pins (mc ghz3 and ghz4, compare,
# identities, model ghz4, the two 30 degree model-hardy pins and qm hardy)
# were re-taken when those kernels began to add their dot products and cross
# terms in a fixed order: values moved by at most 1.1e-15.
SINGLET_MC = ("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
              "--trials", "1000003", "--seed", "0")
PINNED_ARTIFACTS = [
    (("scan-chsh", "--count", "10000", "--seed", "0"), "sweep.csv",
     "8647e09c8d0af4a0aafd559be5ba5a3f838d8752e6a28c88d91bccb737cdd0d7"),
    (SINGLET_MC + ("--workers", "1"), "mc.json",
     "62e6e70c3cde56d6703e33d06bee779f42a35aace8e27bb76b833f5423b27b57"),
    (SINGLET_MC + ("--workers", "2"), "mc.json",
     "62e6e70c3cde56d6703e33d06bee779f42a35aace8e27bb76b833f5423b27b57"),
    (("mc", "--experiment", "ghz3", "--angles", "30,10,70,20,110,30", "--alpha", "20",
      "--delta", "40", "--unit", "deg", "--trials", "200001", "--weight-plus", "0.3",
      "--seed", "5", "--format", "csv"), "ghz3.csv",
     "5917e164612f7d6f63384d639f7649b040ae63150ca929d2bc7d63c107423927"),
    # Comparison reports as written by the dataclasses.asdict / json.dumps and
    # per-row csv.writer route, before the column-backed report and its
    # template writer.
    (("compare", "--state", "all", "--samples", "20", "--seed", "7"), "compare.json",
     "4efbf804252dfd3d8b4b12beb0fabaaa35d595ff25fa23202621a508392d164e"),
    (("compare", "--state", "all", "--samples", "20", "--seed", "7", "--format", "csv"),
     "compare.csv", "c2c77ad5bb262a23f6c012ce5bf4ba5d8e68e2175c990a538d771419850521d4"),
    (("identities", "--samples", "200"), "identities.json",
     "44758e1e8ba451a2482a31c6120a063ebc3e0a1f715d73f085582e8e3fe93205"),
    (("model", "--which", "ghz4", "--mode", "table", "--table", "cyclic-124",
      "--angles", "30,10,70,20,110,30,150,40", "--unit", "deg"), "ghz4.json",
     "1190a1ee5d3cbb016e19f7fbebcc781eb73bb72d23b4e345522f968b05e63ff4"),
    # theta = 30 deg does not certify, so this is the .info rewrite.
    (("model", "--which", "hardy", "--theta", "30", "--unit", "deg"), "hardy.json",
     "536d9488899e7ca6cc71de8b413b7affba1a56ab0a1f00620afdfd7aabc7ff1c"),
    (("qm", "--state", "hardy", "--theta", "45", "--unit", "deg", "--format", "csv"),
     "hardy_amplitudes.csv", "aedcd6e43b44c14bddde2206aaae9ea09d12a5652208c951ee1a6ef16d2e8f41"),
    # qm, model and mc artifacts of every setting, as written while each
    # command kept its own per-kind parser, before the one setting registry.
    (("qm", "--state", "singlet", "--angles", "0,0,120,0", "--unit", "deg"), "qm_singlet.json",
     "a7868739c4e0da552930edaca99135090397a2631a927c8ada819649bea61778"),
    (("qm", "--state", "ghz3", "--angles", "30,10,70,20,110,30", "--alpha", "20", "--delta", "40",
      "--unit", "deg"), "qm_ghz3.json",
     "e524cda0fc22f92940048e469c8efa281db77c88d4923ad484204f1d2123a48b"),
    (("qm", "--state", "ghz4", "--angles", "30,10,70,20,110,30,150,40", "--unit", "deg"),
     "qm_ghz4.json", "af963009441077b145f8c9d972ee9f35f66f73334d969e702f51e48dd28e90f6"),
    (("model", "--which", "singlet", "--angles", "0,0,120,0", "--unit", "deg"),
     "model_singlet.json", "096354514427c32f5348d16ce05a0237f933af680de77e1b6fd01d2de09d0b30"),
    (("model", "--which", "chsh", "--angles", "0,90,225,135", "--unit", "deg"),
     "model_chsh.json", "5ff2c162b091c4a4cb5353280635f8cd9e00db46e7ce9c39488515c473ec37b8"),
    (("model", "--which", "ghz3", "--mode", "table", "--table", "cyclic-124-mirror",
      "--angles", "30,10,70,20,110,30", "--alpha", "20", "--delta", "40", "--unit", "deg"),
     "model_ghz3.json", "88b623d01bd3a95c674da89a96554c750e390307a8dee1352c3b5e51bec3037c"),
    # theta = 0 certifies at the default seed, so no row is rewritten.
    (("model", "--which", "hardy", "--theta", "0", "--unit", "deg"), "hardy0.json",
     "b91d73f4253be8e6f9f3f669e54e91915125b410eee0df65f68f238f6f1bbbf7"),
    (("model", "--which", "hardy", "--theta", "30", "--unit", "deg", "--unswapped-b-minus"),
     "hardy30u.json", "7316ca7db681920e4d4377d6c6e4012f82ef06a4f4b3bf32c39a91a87b5c0f1d"),
    (("mc", "--experiment", "chsh", "--angles", "0,90,45,135", "--unit", "deg",
      "--trials", "100001", "--seed", "3"), "mc_chsh.json",
     "befd755a892c94e4a3f1a523c84c4fbd57c63c7b76e9095d7d51afc65eb07c6d"),
    (("mc", "--experiment", "ghz4", "--angles", "30,10,70,20,110,30,150,40",
      "--table", "cyclic-124-swap12", "--unit", "deg", "--trials", "100001",
      "--weight-plus", "0.4", "--seed", "9", "--format", "csv"), "mc_ghz4.csv",
     "f0391562e04f770d1104ea06e26e7abad6a33ed386d7eac829d07dbc4bd46de7"),
    # solve-hardy, mc CSV and identities CSV artifacts, as written while the
    # CLI still laid out the solve-hardy and mc ones itself.
    (("solve-hardy", "--theta-grid", "0:90:7", "--unit", "deg", "--seed", "5"),
     "solve_hardy.json", "7b5d92b762ee394e40a81ee92737cde3c19108c39ad7e0edb3c931df1b9d3154"),
    (("solve-hardy", "--theta-grid", "0:90:7", "--unit", "deg", "--seed", "5", "--format", "csv"),
     "solve_hardy.csv", "083a5e280570895b02fae0eb4c95deb75871dd790cae6b5da0a28d8e3ebedc61"),
    (SINGLET_MC + ("--format", "csv"), "mc.csv",
     "1b63eefef346875649ab3f12ebd43855d55309e76911eeceda2add3b27a01719"),
    (("identities", "--samples", "200", "--format", "csv"), "identities.csv",
     "8f9eb506cdf9243bcc0db81876d093ec7c931d87ef3a06209ba73e026bf892d7"),
]


@pytest.mark.parametrize("argv, name, digest", PINNED_ARTIFACTS)
def test_sweep_artifacts_keep_their_bytes(argv, name, digest, tmp_path):
    out = tmp_path / name
    assert run_cli(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The pinned artifacts that pass neither through the Hardy solver's LAPACK
# solve nor through the S^3 correlations' np.dot: identities, the GHZ qm,
# model and mc ones, and the Hardy oracle. No BLAS call makes their bits.
BLAS_FREE_PINS = ("identities.json", "identities.csv", "qm_ghz3.json", "qm_ghz4.json",
                  "hardy_amplitudes.csv", "ghz4.json", "model_ghz3.json", "ghz3.csv",
                  "mc_ghz4.csv")

# Writes each pinned argv's artifact and prints the OpenBLAS core in use and
# the artifacts' SHA-256 digests as one JSON line.
_CORE_RUN = """
import contextlib, ctypes, hashlib, io, json, os, sys, tempfile
from spherelab import cli
lib, symbol, argvs = json.loads(sys.argv[1])
corename = getattr(ctypes.CDLL(lib), symbol)
corename.restype = ctypes.c_char_p
digests = []
with tempfile.TemporaryDirectory() as tmp:
    for argv in argvs:
        out = os.path.join(tmp, "artifact")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--out", out]) == 0
        with open(out, "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
print(json.dumps([corename().decode(), digests]))
"""


def _openblas_corename():
    """(library path, symbol) of the OpenBLAS core-name query of numpy's own
    OpenBLAS, or a pytest skip when OPENBLAS_CORETYPE cannot pick its kernel."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the forced OpenBLAS cores are x86-64 kernels")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is not an OpenBLAS built DYNAMIC_ARCH, so its kernel is fixed")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "lib*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            if hasattr(ctypes.CDLL(lib), symbol):
                return lib, symbol
    pytest.skip("numpy's bundled OpenBLAS library and its core-name query were not found")


def test_blas_free_artifacts_keep_their_bytes_on_every_blas_core():
    lib, symbol = _openblas_corename()
    pins = {name: (list(argv), digest) for argv, name, digest in PINNED_ARTIFACTS}
    argvs = [pins[name][0] for name in BLAS_FREE_PINS]
    runs = {}
    for core in ("default", "Haswell", "Sandybridge", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if core != "default":
            env["OPENBLAS_CORETYPE"] = core
        child = subprocess.run([sys.executable, "-c", _CORE_RUN, json.dumps([lib, symbol, argvs])],
                               env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        runs[core] = json.loads(child.stdout)
    # A forced core that did not take would leave every child on one kernel.
    assert len({runs[core][0] for core in ("Haswell", "Sandybridge", "Prescott")}) == 3, runs
    for core, (name, digests) in runs.items():
        assert dict(zip(BLAS_FREE_PINS, digests)) == {n: pins[n][1] for n in BLAS_FREE_PINS}, (
            core, name)


def test_mc_trials_above_the_counter_range_exit_two(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an ensemble past 2**64 trials must not start")

    monkeypatch.setattr(mcsim, "run_ensemble", never)
    assert run_cli("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
                   "--trials", str(2**64 + 1)) == 2
    assert capsys.readouterr().err == (f"error: --trials must be an integer <= {2**64}, "
                                       f"got {2**64 + 1}\n")


@pytest.mark.parametrize("extra, message", [
    (("--weight-plus", "2"), "--weight-plus must be a number <= 1.0, got 2.0"),
    (("--weight-plus", "nan"), "--weight-plus must be a number >= 0.0, got nan"),
    (("--weight-plus", "-0.5"), "--weight-plus must be a number >= 0.0, got -0.5"),
    ({"weight_plus": 2}, "--weight-plus must be a number <= 1.0, got 2"),
], ids=["above", "nan", "below", "config"])
def test_mc_weight_plus_off_zero_to_one_names_the_flag(extra, message, tmp_path, capsys):
    if isinstance(extra, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(extra))
        extra = ("--config", str(config))
    out = tmp_path / "never.json"
    assert run_cli("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
                   "--trials", "10", *extra, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_mc_ghz3_requires_alpha_delta():
    assert run_cli("mc", "--experiment", "ghz3", "--angles", "0,0,90,0,45,0",
                   "--unit", "deg", "--trials", "10") == 2


MC_SETTINGS = {
    "singlet": ("--angles", "0,0,120,0"),
    "chsh": ("--angles", "0,90,45,135"),
    "ghz3": ("--angles", "30,10,70,20,110,30", "--alpha", "20", "--delta", "40"),
    "ghz4": ("--angles", "30,10,70,20,110,30,150,40"),
}


@pytest.mark.parametrize("kind", MC_SETTINGS)
def test_mc_unknown_table_exits_two_for_every_kind(kind, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run_cli("mc", "--experiment", kind, *MC_SETTINGS[kind], "--unit", "deg",
                   "--trials", "10", "--table", "bogus", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown cross table 'bogus'") and err.count("\n") == 1
    assert not out.exists()


MODEL_SETTINGS = {**MC_SETTINGS, "hardy": ("--theta", "30")}


@pytest.mark.parametrize("kind", MODEL_SETTINGS)
def test_model_unknown_table_exits_two_for_every_kind(kind, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run_cli("model", "--which", kind, *MODEL_SETTINGS[kind], "--unit", "deg",
                   "--table", "bogus", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown cross table 'bogus'") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", (("qm", "--state", "hardy"), ("model", "--which", "hardy")))
def test_hardy_theta_comes_from_the_angles_file(command, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"angles": [], "theta": 30}))
    written = {}
    for name, argv in (("file", ("--angles-file", str(path))), ("flag", ("--theta", "30")),
                       ("both", ("--angles-file", str(path), "--theta", "45")),
                       ("flag45", ("--theta", "45"))):
        out = tmp_path / f"{name}.json"
        assert run_cli(*command, *argv, "--unit", "deg", "--out", str(out)) == 0
        written[name] = out.read_bytes()
    assert written["file"] == written["flag"]
    assert written["both"] == written["flag45"] != written["flag"]  # the flag wins


@pytest.mark.parametrize("command", (("qm", "--state", "hardy"), ("model", "--which", "hardy")),
                         ids=("qm", "model"))
def test_hardy_angles_file_needs_no_angles_list(command, tmp_path, capsys):
    # The hardy setting takes no directions, so a file holding only theta does.
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"theta": 30}))
    written = []
    for argv in (("--angles-file", str(path)), ("--theta", "30")):
        out = tmp_path / f"{len(written)}.json"
        assert run_cli(*command, *argv, "--unit", "deg", "--out", str(out)) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    # A file with neither key gives no theta.
    path.write_text("{}")
    capsys.readouterr()
    out = tmp_path / "never.json"
    assert run_cli(*command, "--angles-file", str(path), "--unit", "deg", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --theta required") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("state", ("singlet", "chsh", "hardy", "ghz3", "ghz4", "all"))
@pytest.mark.parametrize("strict", ((), ("--strict-table",)), ids=("relaxed", "strict"))
def test_compare_unknown_table_exits_two_before_any_build(state, strict, tmp_path, monkeypatch,
                                                          capsys):
    def never(*args, **kwargs):
        raise AssertionError("no comparison may be built for an unknown table")

    for name in compare.BUILDERS:
        monkeypatch.setitem(compare.BUILDERS, name, never)
    out = tmp_path / "never.json"
    assert run_cli("compare", "--state", state, "--samples", "5", "--table", "bogus", *strict,
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown cross table 'bogus'") and err.count("\n") == 1
    assert not out.exists()


def test_identities_unknown_table_exits_two_before_any_build(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("no identity suite may run for an unknown table")

    for name in ("ga3_identity_report", "sphere7_identity_report", "chsh_sweep_report"):
        monkeypatch.setattr(identities, name, never)
    out = tmp_path / "never.json"
    assert run_cli("identities", "--samples", "5", "--table", "bogus", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown cross table 'bogus'") and err.count("\n") == 1
    assert not out.exists()


def test_solve_hardy_unparsable_grid_names_the_flag(capsys):
    assert run_cli("solve-hardy", "--theta-grid", "0:90:x", "--unit", "deg") == 2
    err = capsys.readouterr().err
    assert err == "error: grid must be start:stop:count, got '0:90:x'\n"


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
    ("solve-hardy", "--theta-grid", "0:90:3", "--unit", "deg", "--starts", "0"),
    ("solve-hardy", "--theta-grid", "0:90:3", "--unit", "deg", "--starts", "-1"),
    ("model", "--which", "hardy", "--theta", "30", "--unit", "deg", "--starts", "0"),
    ("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
     "--trials", "0"),
    ("scan-chsh", "--count", "3"),  # a sweep holds the 4 optimal quadruples
])
def test_count_options_below_one_exit_two(argv, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-2]} must be an integer >= ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    (("compare", "--state", "singlet"), {"samples": 0}),
    (("compare", "--state", "singlet"), {"samples": "abc"}),
    (("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg",
      "--trials", "10"), {"workers": -3}),
    (("solve-hardy", "--theta-grid", "0:90:3", "--unit", "deg"), {"starts": 0}),
    (("model", "--which", "hardy", "--theta", "30", "--unit", "deg"), {"starts": 0}),
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


def test_comparison_reports_stream_to_the_atomic_writer(tmp_path, monkeypatch):
    handed, write = [], cli._atomic_write

    def spy(path, text):
        handed.append(text)
        return write(path, text)

    monkeypatch.setattr(cli, "_atomic_write", spy)
    report = compare.compare_singlet(samples=5, seed=1)
    for fmt in ("json", "csv"):
        path = cli.write_report(report, tmp_path / f"r.{fmt}", fmt)
        want = "".join(report.json_chunks()) + "\n" if fmt == "json" else "".join(report.chunks("csv"))
        assert path.read_text() == want
    assert len(handed) == 2
    assert all(isinstance(text, Iterator) and not isinstance(text, str) for text in handed)


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_a_failing_stream_leaves_no_partial_artifact(fmt, tmp_path, monkeypatch):
    def broken(self):
        yield "label,"
        raise RuntimeError("formatting failed mid-stream")

    monkeypatch.setattr(ComparisonReport, f"{fmt}_chunks", broken)
    report = compare.compare_singlet(samples=5, seed=1)
    fresh, kept = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
    kept.write_text("previous artifact")
    for path in (fresh, kept):
        with pytest.raises(RuntimeError):
            cli.write_report(report, path, fmt)
    assert sorted(p.name for p in tmp_path.iterdir()) == [kept.name]
    assert kept.read_text() == "previous artifact"


def test_uncertified_hardy_info_rows_take_their_verdict_from_the_columns(tmp_path, monkeypatch):
    # A NaN .info row is a mismatch, like every other NaN row; being a
    # measurement (infinite tolerance), it still never gates.
    nan = float("nan")
    monkeypatch.setattr(lrmodel, "scan_hardy", lambda thetas, **_: [lrmodel.HardyScanRow(
        thetas[0], lrmodel.HardyAngles(thetas[0], *[nan] * 7, residual_norm=nan), False, ())])
    out = tmp_path / "h.json"
    assert run_cli("model", "--which", "hardy", "--theta", "30", "--unit", "deg",
                   "--out", str(out)) == 0
    info = [r for r in ComparisonReport.from_json(out.read_text()).rows
            if r.label.endswith(".info")]
    assert len(info) == 16
    assert all(r.tolerance == float("inf") and r.verdict == "mismatch" for r in info)


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


@pytest.mark.parametrize("argv", [
    ("compare", "--state", "singlet", "--samples", "3", "--bogus"),
    ("compare", "--state", "bogus"),
    ("model", "--theta", "30", "--unit", "deg"),
], ids=("unknown-flag", "bad-state-choice", "missing-which"))
def test_parse_errors_return_two_with_one_line(argv, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, config, message", [
    (("model", "--which", "chsh", "--angles", "0,90,225,135", "--unit", "deg", "--starts", "5",
      "--unswapped-b-minus", "--theta", "3"), None, "--theta is read only for --which hardy"),
    (("model", "--which", "hardy", "--theta", "30", "--unit", "deg", "--strict-table",
      "--mode", "table"), None, "--mode is read only for --which ghz3 or ghz4"),
    (("model", "--which", "chsh", "--angles", "0,90,225,135", "--unit", "deg"), {"starts": 32},
     "--starts is read only for --which hardy"),
    (("model", "--which", "ghz4", "--angles", "30,10,70,20,110,30,150,40", "--unit", "deg"),
     {"alpha": 20}, "--alpha is read only for --which ghz3"),
    (("model", "--which", "chsh", "--angles", "0,90,225,135", "--unit", "deg", "--table",
      "cyclic-124"), None, "--table is read only for --which ghz3 or ghz4, not chsh"),
    (("model", "--which", "hardy", "--theta", "30", "--unit", "deg"), {"table": "cyclic-124"},
     "--table is read only for --which ghz3 or ghz4, not hardy"),
], ids=("hardy-flags-for-chsh", "ghz-flags-for-hardy", "config-starts", "config-alpha",
        "table-for-chsh", "config-table-for-hardy"))
def test_model_flags_that_do_not_fit_which_exit_two(argv, config, message, tmp_path, capsys):
    _check_exits_two(argv, config, message, tmp_path, capsys)


def _check_exits_two(argv, config, message, tmp_path, capsys):
    """argv, with config as a --config file, exits 2 with one line starting
    `error: message` and writes no artifact."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ("--config", str(path))
    out = tmp_path / "never.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


SINGLET_ANGLES = ("--angles", "0,0,120,0", "--unit", "deg")


@pytest.mark.parametrize("argv, config, message", [
    (("mc", "--experiment", "singlet", *SINGLET_ANGLES, "--trials", "1000", "--alpha", "20",
      "--delta", "3", "--table", "cyclic-124-mirror"), None,
     "--table is read only for --experiment ghz3 or ghz4, not singlet"),
    (("mc", "--experiment", "chsh", "--angles", "0,90,225,135", "--unit", "deg", "--trials", "10",
      "--alpha", "5"), None, "--alpha is read only for --experiment ghz3, not chsh"),
    (("mc", "--experiment", "singlet", *SINGLET_ANGLES, "--trials", "10"), {"alpha": 3},
     "--alpha is read only for --experiment ghz3, not singlet"),
    (("qm", "--state", "singlet", *SINGLET_ANGLES, "--alpha", "20", "--theta", "7"), None,
     "--theta is read only for --state hardy, not singlet"),
    (("qm", "--state", "hardy", "--theta", "30", "--unit", "deg", "--angles", "1,2,3"), None,
     "--angles is read only for --state singlet or ghz3 or ghz4, not hardy"),
    (("qm", "--state", "ghz4", "--angles", "30,10,70,20,110,30,150,40", "--unit", "deg",
      "--theta", "4"), None, "--theta is read only for --state hardy, not ghz4"),
    (("qm", "--state", "ghz4", "--angles", "30,10,70,20,110,30,150,40", "--unit", "deg"),
     {"delta": 4}, "--delta is read only for --state ghz3, not ghz4"),
], ids=("mc-table-for-singlet", "mc-alpha-for-chsh", "mc-config-alpha", "qm-theta-for-singlet",
        "qm-angles-for-hardy", "qm-theta-for-ghz4", "qm-config-delta"))
def test_qm_and_mc_flags_that_do_not_fit_the_setting_exit_two(argv, config, message, tmp_path,
                                                              capsys):
    _check_exits_two(argv, config, message, tmp_path, capsys)


@pytest.mark.parametrize("argv, content, message", [
    (("model", "--which", "singlet"), {"angles": [0, 0, 120, 0], "alpha": 3, "theta": 5},
     "'alpha' is read only for --which ghz3, not singlet"),
    (("model", "--which", "chsh"), {"angles": [0, 90, 225, 135], "theta": 5},
     "'theta' is read only for --which hardy, not chsh"),
    (("model", "--which", "hardy"), {"angles": [1, 2], "theta": 30},
     "'angles' is read only for --which singlet or chsh or ghz3 or ghz4, not hardy"),
    (("qm", "--state", "hardy"), {"theta": 30, "delta": 3},
     "'delta' is read only for --state ghz3, not hardy"),
    (("mc", "--experiment", "singlet", "--trials", "10"), {"angles": [0, 0, 120, 0], "theta": 5},
     "'theta' is not read by mc"),
], ids=("model-alpha-for-singlet", "model-theta-for-chsh", "model-angles-for-hardy",
        "qm-delta-for-hardy", "mc-theta"))
def test_angles_file_keys_the_setting_does_not_read_exit_two(argv, content, message, tmp_path,
                                                             capsys):
    path = tmp_path / "angles.json"
    path.write_text(json.dumps(content))
    _check_exits_two(argv + ("--angles-file", str(path), "--unit", "deg"), None,
                     f"angles file: {message}", tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ("identities", "--samples", "50", "--tolerance", "bogus=3"),
    ("scan-chsh", "--count", "10", "--tolerance", "bogus=3"),
    ("mc", "--experiment", "singlet", "--angles", "0,0,120,0", "--unit", "deg", "--trials", "10",
     "--tolerance", "algebraic=x"),
    ("qm", "--state", "singlet", "--angles", "0,0,120,0", "--unit", "deg", "--seed", "3"),
], ids=("identities-tolerance", "scan-chsh-tolerance", "mc-tolerance", "qm-seed"))
def test_flags_a_subcommand_does_not_read_are_rejected(argv, tmp_path, capsys):
    flag, value = argv[-2:]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
    # A config key for the flag is not an option either.
    key = flag.lstrip("-")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: [value] if key == "tolerance" else int(value)}))
    assert run_cli(*argv[:-2], "--config", str(path)) == 2
    assert capsys.readouterr().err == f"error: config key {key!r} is not an option of {argv[0]}\n"


def test_every_flag_of_every_subcommand_is_its_options_entry():
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    assert set(subparsers) == {command for opt in cli.OPTIONS.values() for command in opt.commands}
    for command, parser in subparsers.items():
        flags = {a.dest: a.option_strings for a in parser._actions if a.dest != "help"}
        entries = {dest: [cli._flag(dest)] for dest, opt in cli.OPTIONS.items()
                   if command in opt.commands}
        assert flags == entries, command


def test_every_default_passes_its_options_own_checks():
    for dest, opt in cli.OPTIONS.items():
        for command, default in opt.commands.items():
            if default is not None:
                cli._check_config_value(command, dest, default)
                assert opt.minimum is None or default >= opt.minimum, (command, dest)
                assert opt.maximum is None or default <= opt.maximum, (command, dest)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: spherelab {command}")


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


def test_importing_the_cli_does_not_import_orjson():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spherelab.cli; print(sorted(m for m in sys.modules if m.startswith('orjson')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_compare_and_solve_hardy_load_no_scipy(tmp_path):
    script = (
        "import sys\n"
        "from spherelab import cli\n"
        "out = sys.argv[1]\n"
        "assert cli.main(['compare', '--state', 'all', '--samples', '5',"
        " '--out', out + '/compare.json']) == 0\n"
        "assert cli.main(['solve-hardy', '--theta-grid', '0:90:3', '--unit', 'deg',"
        " '--out', out + '/scan.csv', '--format', 'csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["[]", "[]"]
    assert (tmp_path / "compare.json").exists() and (tmp_path / "scan.csv").exists()


def test_internal_error_exits_three_with_one_line(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(cli, "cmd_scan_chsh", boom)
    assert run_cli("scan-chsh", "--count", "50") == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: kernel fault\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_scan_chsh", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli("scan-chsh", "--count", "50")


def test_module_entry_point_runs_without_runtime_warning():
    proc = subprocess.run([sys.executable, "-m", "spherelab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("config, key", [
    ({"sample": 3, "state": "singlet"}, "sample"),
    ({"state": "singlet", "samples": 3, "which": "chsh"}, "which"),
    ({"state": "singlet", "samples": 3, "help": True}, "help"),
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
    {"angles": [0, 90, 225, 135], "foo": 1},     # an unknown key
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
    return ComparisonRow(label, residual, 0.0, residual, tolerance, verdict)


def _emit(rows):
    return cli._emit(argparse.Namespace(out=None, format=None), ComparisonReport(rows))


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


def test_strict_table_gates_the_table_vs_pinned_rows(tmp_path):
    # --strict-table is written into the artifact, whose finite-tolerance
    # mismatches alone give the exit status.
    out = tmp_path / "s.json"
    for tolerance, held, verdict in (((), 1e-12, "mismatch"),
                                     (("--tolerance", "algebraic=1"), 1.0, "match")):
        code = run_cli("compare", "--state", "ghz4", "--samples", "10", "--seed", "3",
                       "--strict-table", *tolerance, "--out", str(out))
        rows = ComparisonReport.from_json(out.read_text()).rows
        table = [r for r in rows if "table_vs_pinned_z" in r.label]
        assert len(table) == 10
        assert all(r.tolerance == held and r.verdict == verdict for r in table)
        gated = any(r.verdict == "mismatch" and math.isfinite(r.tolerance) for r in rows)
        assert code == int(gated) == int(verdict == "mismatch")


def test_summary_reports_the_largest_gated_residual(capsys):
    # The Jacobiator norm (about 10) is a measurement; the summary skips it.
    assert run_cli("identities", "--samples", "5", "--table", "cyclic-124") == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert "max gated |residual| = " in line and "jacobiator" not in line
    assert line.endswith("gated mismatches: 0")
