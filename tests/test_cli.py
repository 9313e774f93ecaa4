import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spectralbranch import (
    Contour,
    HermitianFamily,
    estimate_derivative_bound,
    make_family,
    parse_config,
    run,
    sorted_eigenvalues,
    spectral_cluster,
    track_branches,
)
from spectralbranch.cli import main
from spectralbranch.util import multiset_distance

TRACK_CFG = """\
[run]
command = track
t_range = -1.0, 1.0
grid_size = 101

[family]
name = expr
dim = 2
row0 = 0, t
row1 = t, 0
"""

PROJECT_CFG = """\
[run]
command = project
t = 0.0

[family]
name = expr
dim = 3
row0 = 1, 0, 0
row1 = 0, 2, 0
row2 = 0, 0, 5

[contour]
center = 1.5
radius = 1.0
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def test_track_end_to_end(tmp_path):
    cfg = write(tmp_path / "run.cfg", TRACK_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    csv = tmp_path / "branches.csv"
    report = tmp_path / "branches.report.txt"
    assert csv.exists() and report.exists()

    raw = csv.read_bytes()
    assert b"\r" not in raw  # LF only
    lines = raw.decode().splitlines()
    assert lines[0] == "t,branch_0,branch_1,dbranch_0,dbranch_1"
    assert len(lines) == 102

    # 17 significant digits: every data cell uses the .16e exponent format
    cell = lines[1].split(",")[1]
    assert "e" in cell and len(cell.split("e")[0].replace("-", "").replace(".", "")) == 17

    # values reload to the exact doubles the tracker produced
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    fam = HermitianFamily(name="x", dim=2,
                          matrix=lambda t: np.array([[0, t], [t, 0]], dtype=complex))
    bs = track_branches(fam, (-1.0, 1.0), 101)
    assert np.array_equal(data[:, 1:3], bs.values)

    text = report.read_text()
    assert "crossings: 1" in text
    assert "gronwall screen" in text and "PASS" in text
    assert "graph norm" in text


def test_track_csv_multiset_recheck(tmp_path):
    cfg = write(tmp_path / "run.cfg", TRACK_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "branches.csv", delimiter=",", skiprows=1)
    fam = HermitianFamily(name="x", dim=2,
                          matrix=lambda t: np.array([[0, t], [t, 0]], dtype=complex))
    for row in data:
        w = sorted_eigenvalues(fam, row[0])
        assert multiset_distance(row[1:3], w) <= 1e-8


def test_project_end_to_end(tmp_path):
    cfg = write(tmp_path / "run.cfg", PROJECT_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "cluster.csv", delimiter=",", skiprows=1, ndmin=2)
    fam = HermitianFamily(name="x", dim=3,
                          matrix=lambda t: np.diag([1.0, 2.0, 5.0]).astype(complex))
    cl = spectral_cluster(fam, 0.0, Contour(center=1.5, radius=1.0))
    assert np.allclose(data[:, 1], cl.eigenvalues, atol=1e-12)
    assert "enclosed rank: 2" in (tmp_path / "cluster.report.txt").read_text()


def test_output_override(tmp_path):
    cfg = write(tmp_path / "run.cfg", TRACK_CFG.replace(
        "grid_size = 101", "grid_size = 11\noutput = custom.csv"))
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "custom.csv").exists()
    assert (tmp_path / "custom.report.txt").exists()


def test_exit_2_missing_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_2_bad_key(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", TRACK_CFG + "bogus = 1\n")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_exit_2_bad_expression(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", TRACK_CFG.replace("row0 = 0, t", "row0 = 0, 2*i"))
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unknown identifier" in err


def test_exit_3_contour_on_spectrum(tmp_path, capsys):
    bad = PROJECT_CFG.replace("radius = 1.0", "radius = 0.5")
    cfg = write(tmp_path / "run.cfg", bad)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_run_rejects_unknown_command(tmp_path, capsys):
    cfg = parse_config(TRACK_CFG)
    bad = type(cfg)(**{**cfg.__dict__, "command": "track"})
    # force an unknown command through the dataclass, bypassing parse_config
    import dataclasses
    bad = dataclasses.replace(cfg, command="warp")
    assert run(bad, out_dir=str(tmp_path)) == 2
    assert "unknown command" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    cfg = write(tmp_path / "run.cfg", TRACK_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "branches.csv").read_bytes() == (out2 / "branches.csv").read_bytes()
    assert (out1 / "branches.report.txt").read_bytes() == (out2 / "branches.report.txt").read_bytes()


def test_verbose_echoes_report(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", TRACK_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "crossings: 1" in out and "wrote" in out


def test_holder_command(tmp_path):
    cfg = write(tmp_path / "run.cfg",
                "[run]\ncommand = counterexample-holder\n[holder]\nn_values = 5, 6\nalpha = 0.25\n")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "holder.csv", delimiter=",", skiprows=1)
    assert data.shape == (2, 5)
    # closed_form column for n=6, alpha=0.25 is exactly 2
    assert data[1, 2] == pytest.approx(2.0, rel=1e-12)
    assert np.all(data[:, 4] <= 1e-6)


def test_resolvent_command(tmp_path):
    cfg = write(tmp_path / "run.cfg",
                "[run]\ncommand = counterexample-resolvent\n[resolvent]\nm = 60\nn_max = 20\n")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "resolvent.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 0]) < 0)  # t strictly descending
    report = (tmp_path / "resolvent.report.txt").read_text()
    assert "OK" in report


def test_extend_command(tmp_path):
    cfg = write(tmp_path / "run.cfg", TRACK_CFG.replace("command = track", "command = extend")
                + "\n[extend]\ngiven = 1\n")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "extension.csv", delimiter=",", skiprows=1)
    assert data.shape == (101, 3)
    for row in data:
        assert multiset_distance(row[1:], np.array([-row[0], row[0]])) <= 1e-9


def test_schrodinger_command(tmp_path):
    cfg = write(tmp_path / "run.cfg", """\
[run]
command = schrodinger
t_range = 0.0, 1.0
grid_size = 11

[family]
name = schrodinger
m = 9
potential = t*x
""")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "branches.csv", delimiter=",", skiprows=1)
    assert data.shape == (11, 19)


def test_schrodinger_steep_potential_runs_quietly(tmp_path, capsys):
    # a = 2165: the Gronwall growth overflows to +inf on far pairs, which
    # pass; the run exits 0 with nothing on stderr
    cfg = write(tmp_path / "run.cfg", """\
[run]
command = schrodinger
t_range = 0.0, 1.0
grid_size = 101

[family]
name = schrodinger
m = 99
potential = 3000*exp(-((x-0.5)/0.03)^2) + 3000*(t-0.5)*x
""")
    assert run(parse_config(Path(cfg).read_text()), tmp_path / "out") == 0
    assert capsys.readouterr().err == ""
    report = (tmp_path / "out" / "branches.report.txt").read_text()
    assert "gronwall screen: a = 2165.09" in report and "PASS" in report


@pytest.mark.parametrize("family, key", [
    ("name = schrodinger\nm = 2", "m=2"),
    ("name = curve-lemma\nn_max = 1", "n_max"),
    ("name = resolvent-example\nm = 0", "m must be positive"),
], ids=["schrodinger-m-2", "curve-lemma-n_max-1", "resolvent-example-m-0"])
def test_exit_2_family_refuses_value(family, key, tmp_path, capsys):
    command = "schrodinger" if "schrodinger" in family else "track"
    cfg = write(tmp_path / "run.cfg", f"[run]\ncommand = {command}\nt_range = 3, 3.5\n"
                                      f"grid_size = 5\n[family]\n{family}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 7: ") and key in err
    assert not (tmp_path / "out").exists()


def test_exit_2_small_t_count_past_underflow(tmp_path, capsys):
    # 2^-1075 rounds to 0.0, where the difference quotient has no value;
    # 2^-1074 is the least positive double
    text = "[run]\ncommand = counterexample-resolvent\n[resolvent]\nsmall_t_count = 1100\n"
    parse_config(text.replace("1100", "1074"))
    cfg = write(tmp_path / "run.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 4: ") and "small_t_count" in err
    assert not (tmp_path / "out").exists()


def test_exit_3_holder_window_out_of_range(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg",
                "[run]\ncommand = counterexample-holder\n[holder]\nn_values = 3, 30\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "UnderflowGuardError" in err and "n=30 at alpha=0.25" in err
    assert not (tmp_path / "out").exists()


def test_failure_after_tracking_writes_nothing(tmp_path, capsys):
    # the branches track on the 5-point grid, then the Gronwall rate's
    # 201-point grid reaches (0.12, 0.14), where the entry fails: no CSV is
    # left without its report
    cfg = write(tmp_path / "run.cfg", TRACK_CFG.replace("-1.0, 1.0", "0.0, 1.0").replace(
        "101", "5").replace("row0 = 0, t\nrow1 = t, 0",
                            "row0 = sqrt(abs(t - 0.13) - 0.01), 1\nrow1 = 1, 0"))
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'row0' entry" in err and "failed: math domain error" in err
    assert not (tmp_path / "out").exists()


def test_gronwall_rate_stays_inside_t_range(tmp_path):
    # sqrt(t) exists only from t = 0: the estimate's differences at the ends
    # of [0, 1] are one-sided, pointing into the range
    cfg = write(tmp_path / "run.cfg", TRACK_CFG.replace("-1.0, 1.0", "0.0, 1.0").replace(
        "row0 = 0, t\nrow1 = t, 0", "row0 = sqrt(t), 1\nrow1 = 1, 0"))
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    assert "gronwall screen: a = " in (tmp_path / "branches.report.txt").read_text()


def test_tolerances_section_sets_the_gronwall_rate(tmp_path):
    # the [tolerances] override reaches the estimate through the family alone
    config = parse_config(TRACK_CFG.replace("row0 = 0, t\nrow1 = t, 0",
                                            "row0 = sin(2*t), 1\nrow1 = 1, 0")
                          + "\n[tolerances]\nh_fd = 0.01\n")
    tol = config.tolerances
    assert run(config, out_dir=tmp_path) == 0
    est_grid = np.linspace(-1.0, 1.0, 201)
    a = 1.01 * estimate_derivative_bound(make_family(config.family, tol), est_grid)
    assert a != 1.01 * estimate_derivative_bound(make_family(config.family), est_grid)
    assert f"gronwall screen: a = {a!r}, " in (tmp_path / "branches.report.txt").read_text()


@pytest.mark.parametrize("family, named", [
    ("name = expr\ndim = 2\nrow0 = sqrt(t - 2), 1\nrow1 = 1, 0", "'row0' entry 'sqrt(t - 2)'"),
    ("name = schrodinger\nm = 9\npotential = sqrt(t - 2)*x", "'potential' 'sqrt(t - 2)*x'"),
], ids=["expr-row", "schrodinger-potential"])
def test_exit_2_evaluation_failure_names_entry(family, named, tmp_path, capsys):
    # the entry parses, so only evaluating it fails, inside run(): the
    # message names the entry as a parse error would, with no line number
    command = "schrodinger" if "schrodinger" in family else "track"
    cfg = write(tmp_path / "run.cfg", f"[run]\ncommand = {command}\nt_range = 0.0, 1.0\n"
                                      f"grid_size = 5\n[family]\n{family}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {named}: sqrt(-2.0) failed: math domain error (position 0)\n")


def test_package_import_leaves_scipy_optimize_unloaded():
    # a fresh interpreter: the tests themselves import scipy.optimize
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, spectralbranch, spectralbranch.cli; "
            "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_schrodinger_report_path_stays_quadratic_in_m(tmp_path):
    # the shipped schrodinger config at m = 200 through run(), spot check and
    # Gronwall screen included: the traced peak stays a few dozen m x m
    # matrices, so any O(m^3) transient fails
    shipped = Path(__file__).resolve().parents[1] / "configs" / "schrodinger.cfg"
    text = shipped.read_text()
    assert "m = 99\n" in text
    config = parse_config(text.replace("m = 99\n", "m = 200\n"))
    tracemalloc.start()
    try:
        assert run(config, tmp_path / "out") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "branches.report.txt").exists()
    assert peak < 16 * 2**20
