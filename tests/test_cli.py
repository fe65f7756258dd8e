"""Command-line interface: subcommands, exit codes, artifacts, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fieldtriple import cli as cli_module
from fieldtriple import grid as grid_module
from fieldtriple.cli import main, read_field_csv, write_field_csv, write_momentum_csv
from fieldtriple.errors import (
    ExprSyntaxError,
    InvalidInputError,
    InvalidParameterError,
)
from fieldtriple.expr import parse_expr
from fieldtriple.grid import Grid, GridField, GridMomentum, discrete_action
from fieldtriple.models import get_lagrangian


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_args(out, bc=("x*y",), model="harmonic", grid="9x9", extra=()):
    argv = ["solve", "--model", model, "--grid", grid, "--out", str(out)]
    for e in bc:
        argv += ["--bc", e]
    argv += list(extra)
    return argv


# ---------------------------------------------------------------------------
# solve


def test_solve_harmonic_saddle(tmp_path, capsys):
    out = tmp_path / "saddle.csv"
    code, stdout, _ = run(capsys, *solve_args(
        out, bc=("x^2 - y^2",), grid="33x33"))
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    assert report["stop_reason"] == "converged"
    assert report["final_residual"] <= 1e-10
    assert report["action"] == 1.3330078125
    # the saddle is discretely stationary: the solve keeps the start field
    assert report["max_error"] <= 1e-9
    assert out.exists()
    assert (tmp_path / "saddle.momenta.csv").exists()
    assert (tmp_path / "saddle.report.json").exists()
    on_disk = json.loads((tmp_path / "saddle.report.json").read_text())
    assert on_disk == report


def test_solve_report_written_before_stdout_has_sorted_keys(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, stdout, _ = run(capsys, *solve_args(out))
    assert code == 0
    keys = list(json.loads(stdout))
    assert keys == sorted(keys)


def test_solve_runs_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a" / "sol.csv"
    out_b = tmp_path / "b" / "sol.csv"
    out_a.parent.mkdir()
    out_b.parent.mkdir()
    bc = ("x", "y", "1e-3*x*y", "0")
    code_a, stdout_a, _ = run(capsys, *solve_args(
        out_a, bc=bc, model="nambu", grid="17x17"))
    code_b, stdout_b, _ = run(capsys, *solve_args(
        out_b, bc=bc, model="nambu", grid="17x17"))
    assert code_a == code_b == 0
    assert stdout_a == stdout_b
    assert out_a.read_bytes() == out_b.read_bytes()
    assert ((tmp_path / "a" / "sol.momenta.csv").read_bytes()
            == (tmp_path / "b" / "sol.momenta.csv").read_bytes())
    assert ((tmp_path / "a" / "sol.report.json").read_bytes()
            == (tmp_path / "b" / "sol.report.json").read_bytes())


def test_solve_disc_domain(tmp_path, capsys):
    out = tmp_path / "disc.csv"
    code, stdout, _ = run(capsys, *solve_args(
        out, bc=("x^2 - y^2",), grid="17x17", extra=("--domain", "disc-mask")))
    assert code == 0
    f = read_field_csv(str(out), Grid.disc_mask(17, 17), m=1)
    assert np.all(np.isnan(f.values[f.grid.mask == 0]))
    assert np.all(np.isfinite(f.values[f.grid.mask > 0]))


def test_solve_stall_exits_3_but_writes_artifacts(tmp_path, capsys):
    # The same off-solution string solve stops at the cap with 4 steps and
    # stalls in the line search after 26 steps with 50 allowed.
    stops = {"4": ("iteration cap 4 reached", 4),
             "50": ("line search stalled: no step decreased the residual", 26)}
    for max_iter, (reason, steps) in stops.items():
        out = tmp_path / f"stall{max_iter}.csv"
        code, stdout, stderr = run(capsys, *solve_args(
            out, bc=("x", "y", "0.1*x*y", "0"), model="nambu", grid="9x9",
            extra=("--max-iter", max_iter)))
        assert code == 3
        report = json.loads(stdout)
        assert report["pass"] is False
        assert report["stop_reason"] == reason
        assert report["iterations"] == steps
        assert stderr.strip().endswith(f"report did not pass: {reason}")
        assert out.exists()
        on_disk = json.loads((tmp_path / f"stall{max_iter}.report.json").read_text())
        assert on_disk == report


def test_solve_residual_passes(tmp_path, capsys, monkeypatch):
    # Gradient passes and plain passes of L over the cells per solve.  The
    # start's residual is one gradient pass with no plain pass to screen it
    # (a screen would make the plain counts 29 and 3); each line-search trial
    # is a plain screen, then a gradient pass unless the screen refuses it.
    counts = {}
    for name in ("discrete_action_gradient", "_cell_values"):
        def counted(*args, inner=getattr(grid_module, name), name=name):
            counts[name] += 1
            return inner(*args)
        monkeypatch.setattr(grid_module, name, counted)
    cases = ((("x", "y", "0.1*x*y", "0"), "nambu", "9x9", ("--max-iter", "4"), 24, 28),
             (("sin(3*x)*cosh(y) + x^2*y",), "harmonic", "21x17", (), 2, 2))
    for bc, model, grid, extra, gradients, plain in cases:
        counts.update(discrete_action_gradient=0, _cell_values=0)
        run(capsys, *solve_args(tmp_path / "f.csv", bc=bc, model=model,
                                grid=grid, extra=extra))
        assert counts == {"discrete_action_gradient": gradients,
                          "_cell_values": plain}


# ---------------------------------------------------------------------------
# other subcommands


def test_check_maps(capsys):
    code, stdout, _ = run(capsys, "check-maps", "--points", "50", "--seed", "7")
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    assert report["dims"] == [1, 2, 4]
    assert report["alpha_pairing_max"] <= 1e-12
    assert report["omega2_pairing_max"] <= 1e-12
    assert report["beta_tilde_equal"] is True


def test_check_maps_single_dimension(capsys):
    code, stdout, _ = run(capsys, "check-maps", "--points", "20", "--m", "3")
    assert code == 0
    assert json.loads(stdout)["dims"] == [3]


def test_legendre_roundtrip_all_models(capsys):
    for model in ("harmonic", "sigma", "nambu"):
        code, stdout, _ = run(capsys, "legendre", "--model", model,
                              "--points", "30")
        assert code == 0
        report = json.loads(stdout)
        assert report["pass"] is True, model


def test_phase_check(capsys):
    code, stdout, _ = run(capsys, "phase-check", "--model", "nambu",
                          "--points", "30")
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    # Round-off residuals fail a tolerance of 1e-300; only solves carry a
    # stop reason.
    code, stdout, stderr = run(capsys, "phase-check", "--model", "nambu",
                               "--points", "30", "--tol", "1e-300")
    assert code == 3
    assert json.loads(stdout)["pass"] is False
    assert stderr == "fieldtriple: numerical failure: report did not pass\n"


def test_action_of_written_field(tmp_path, capsys):
    grid = Grid.square(33, 33)
    f = GridField.from_function(grid, lambda x, y: np.array([x * x - y * y]), 1)
    path = tmp_path / "saddle_field.csv"
    write_field_csv(str(path), f)
    code, stdout, _ = run(capsys, "action", "--model", "harmonic",
                          "--grid", "33x33", "--field", str(path))
    assert code == 0
    report = json.loads(stdout)
    assert report["action"] == 1.3330078125
    assert report["action"] == discrete_action(get_lagrangian("harmonic"), f)


@pytest.mark.parametrize("argv,exit_code", [
    (["legendre", "--model", "sigma", "--m", "3", "--points", "20"], 0),
    (["phase-check", "--model", "nambu", "--points", "20"], 0),
    (["phase-check", "--model", "nambu", "--points", "20",
      "--tol", "1e-300"], 3),
    (["check-maps", "--points", "20", "--seed", "5"], 0),
    (["action", "--model", "harmonic", "--grid", "33x33"], 0),
])
def test_non_solve_out_holds_the_stdout_report(tmp_path, capsys, argv,
                                               exit_code):
    """``--out`` on a verb other than solve writes the report it prints,
    byte for byte, also when the report does not pass."""
    if argv[0] == "action":
        field = tmp_path / "field.csv"
        write_field_csv(str(field), GridField.from_function(
            Grid.square(33, 33), lambda x, y: np.array([x * x - y * y]), 1))
        argv = argv + ["--field", str(field)]
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert code == exit_code
    assert json.loads(stdout)["pass"] is (exit_code == 0)
    assert out.read_bytes() == stdout.encode("utf-8")


# ---------------------------------------------------------------------------
# pointwise stdout pinned to bytes


# sha256 of stdout, taken from the per-point draw loops that ``draw_points``
# replaced (numpy 2.4, x86-64): the draws, the build of the points and every
# reduction after them must keep each byte.
STDOUT_SHA256 = [
    (("legendre", "--model", "nambu"), 0,
     "b35a80b08db1c97904fd5bb0f56e06e4551680627df32a6eac4f272027a2a8d7"),
    (("legendre", "--model", "harmonic"), 0,
     "e5207c35429a3400eeb4b39eb03d660e25d5ee670a9e842ebdb55408333f8103"),
    (("legendre", "--model", "sigma", "--m", "3"), 0,
     "f54ecdc02d70dbc3869906b1d24fe64d281bea37b8dcc5ce1de0713dd597a70b"),
    (("phase-check", "--model", "nambu"), 0,
     "a6afeeed2b07b014501557aef36afd898778f33fc60bc562a94577693358f448"),
    (("phase-check", "--model", "harmonic"), 0,
     "d40e101894e6413ea833afeef760c7f68256dacad89195dc8cc0d812551c89dc"),
    (("phase-check", "--model", "sigma", "--m", "3"), 0,
     "48e9d14bf75672a0b626a1eacfe82f313e81f394e02799cea22a78bae1aac107"),
    (("check-maps",), 0,
     "0d55f78e389bdd6907041aaeda0964ec5c7beb7e5015d7cd8172317b2fa5107e"),
    (("check-maps", "--m", "3"), 0,
     "4ad726ebc21e49e743afb99ff0963c848261b5ea2204f205374a54faa9d27038"),
    (("legendre", "--model", "nambu"), 7,
     "ade3284f12090cdd0f3270d4308c0f6c4b76e21d71eda96909a5afb46491038e"),
    (("legendre", "--model", "harmonic"), 7,
     "f1cccd61fa90747f4b512f1f70a5346c5e8492589319cdfa164d4703f7c39df2"),
    (("legendre", "--model", "sigma", "--m", "3"), 7,
     "0ac94fe5b14a95a9eca9168907859e6884bdf67786ab3b518bad21ca49e9edc3"),
    (("phase-check", "--model", "nambu"), 7,
     "84588021c4eb46d4e9bdc285934be4a3458edd9d6a0d4802ecc43f12faccf45c"),
    (("phase-check", "--model", "harmonic"), 7,
     "bf2b639cf95106d35e74f50861b3d048e49f54782552244cce8ce6b9d49ca20b"),
    (("phase-check", "--model", "sigma", "--m", "3"), 7,
     "fd3b966a797d17b07637d96dcf3d706d67f534f660ef2710c11cc73e62bda462"),
    (("check-maps",), 7,
     "5fc66e35bc6b131b49c19edd516a9eaaed63a84ca3acf67c93128b5fa8882766"),
    (("check-maps", "--m", "3"), 7,
     "58e04076b44c73a17b2e07f9cb074837a6dd03d893cdb56cb88aad325e51dfba"),
]


@pytest.mark.parametrize("argv,seed,digest", STDOUT_SHA256, ids=[
    " ".join(argv) + f" --seed {seed}" for argv, seed, _ in STDOUT_SHA256])
def test_pointwise_stdout_is_pinned(capsys, argv, seed, digest):
    code, stdout, _ = run(capsys, *argv, "--seed", str(seed), "--points", "50")
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


# sha256 of the field CSV, the momenta CSV, the report and stdout of four
# solves (numpy 2.4.6, scipy 1.17.1, x86-64): a one-step harmonic solve kept
# by the definite trial, a harmonic m=3 solve whose Newton matrix splits into
# six decoupled blocks, a sigma solve on a disc mask, and a string solve
# stopped by its iteration cap after pivoting fallbacks and plan fills.  The
# report is written as it is printed, so stdout shares its digest.
SOLVE_SHA256 = [
    ("harmonic", "21x17", ("sin(3*x)*cosh(y) + x^2*y",), (), 0,
     ("810d35ef8ad6fe5cc949cbbdb136bc99050ebaa6fbab89fdae4c783c53651910",
      "ba4f4a4fe6c49276b7fd96a07ae2cd9b573f313283cfc08ec7438c2c2f11438a",
      "ba824e0c84260572f8c97fa3f8d55accd257aed93b9062cd67788a247f841120")),
    ("harmonic", "33x33", ("sin(2*x)*cosh(y)", "x^2*y - y^3", "exp(x*y)"),
     ("--m", "3"), 0,
     ("72eb949e670214ac5ad407f8fe627b8ab909392fcc62402bcb1e189fe13227d3",
      "1bef111d2ebc1ba8a08328dacb81fb23a6f5905b45a39e7473acae424898d99b",
      "1cac016eafa43092a4f7a3aab115a1b31e65cceacc70fd058f49e25000dd9ea2")),
    ("sigma", "21x21", ("x*y", "x-y^2"), ("--m", "2", "--domain", "disc-mask"), 0,
     ("c087d59f5a44aeadb87a5d68af89eea3bf39ebf31885494dfd09772cf2f57118",
      "225745f1055d8767d58ebee5e3792f1059348ff6edb456a04539be3f1a773c42",
      "e57c681e373cc2625ae591b1ef7e65bfd1061f62e064e57ec0630b42bbb2a7f0")),
    ("nambu", "9x9", ("x", "y", "0.1*x*y", "0"), ("--max-iter", "4"), 3,
     ("4a726610d05d719018922c0589e0309cecc31e724a23bf1b36f957d0d7f50ad9",
      "df258e698d616799a4557db29af033fc62af2eee994289faed3deaf220bad34f",
      "de7f20f24d25c0f95d7b0a875e889d7fbc20bd9a26a41d5067fc9b0bf86833ed")),
]


@pytest.mark.parametrize("model,grid,bc,extra,exit_code,digests", SOLVE_SHA256,
                         ids=["harmonic", "harmonic-m3", "sigma", "nambu"])
def test_solve_artifacts_are_pinned(tmp_path, capsys, model, grid, bc, extra,
                                    exit_code, digests):
    out = tmp_path / "sol.csv"
    code, stdout, _ = run(capsys, *solve_args(out, bc=bc, model=model,
                                              grid=grid, extra=extra))
    assert code == exit_code
    field, momenta, report = digests
    files = [out, tmp_path / "sol.momenta.csv", tmp_path / "sol.report.json"]
    assert [hashlib.sha256(f.read_bytes()).hexdigest() for f in files] == [
        field, momenta, report]
    assert hashlib.sha256(stdout.encode()).hexdigest() == report


def test_action_of_the_pinned_harmonic_solve_is_pinned(tmp_path, capsys):
    # The benchmark's second verb: the action verb reads the field CSV of the
    # pinned harmonic 21x17 solve.
    out = tmp_path / "sol.csv"
    model, grid, bc, extra, _, (field, _, _) = SOLVE_SHA256[0]
    assert run(capsys, *solve_args(out, bc=bc, model=model, grid=grid,
                                   extra=extra))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == field
    code, stdout, _ = run(capsys, "action", "--model", model, "--grid", grid,
                          "--field", str(out))
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "2d58ea46609fe78ba367e828f33cb7c297e9a83be83dcea36f1097e50d5452eb")


# ---------------------------------------------------------------------------
# CSV round trip


def test_field_csv_round_trip_is_bit_exact(tmp_path):
    grid = Grid.square(9, 9)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((9, 9, 2))
    f = GridField(grid, values)
    path = tmp_path / "field.csv"
    write_field_csv(str(path), f)
    g = read_field_csv(str(path), grid, m=2)
    assert np.array_equal(g.values, values)


_FINITE_EXTREMES = np.array([-0.0, 5e-324, 1.7976931348623157e308,
                             -1.7976931348623157e308, 0.1, -2.5e-310, 1e22])


def _reference_rows(rows):
    return "".join(",".join(f if isinstance(f, str) else "%.17g" % f for f in row)
                   + "\n" for row in rows).encode("utf-8")


def test_csv_writers_match_per_value_reference(tmp_path):
    grid = Grid.disc_mask(21, 17)
    values = np.resize(_FINITE_EXTREMES, (grid.nx, grid.ny, 2))
    values[grid.mask == 0] = np.nan
    x, y = grid.node_coords()
    path = tmp_path / "field.csv"
    write_field_csv(str(path), GridField(grid, values))
    want = _reference_rows(
        [["x,y,comp0,comp1"]]
        + [[x[i, j], y[i, j], *values[i, j]]
           for i in range(grid.nx) for j in range(grid.ny)])
    assert path.read_bytes() == want
    assert b"nan" in want and b"-0," in want and b"4.9406564584124654e-324" in want

    shape = (grid.nx - 1, grid.ny - 1, 2)
    p1 = np.resize(_FINITE_EXTREMES[::-1], shape)
    p2 = np.resize(_FINITE_EXTREMES[2:], shape)
    cells = grid.active_cells
    path = tmp_path / "momenta.csv"
    write_momentum_csv(str(path), GridMomentum(grid, p1, p2))
    want = _reference_rows(
        [["cell_i,cell_j,p1_0,p1_1,p2_0,p2_1"]]
        + [[str(ci), str(cj), *p1[ci, cj], *p2[ci, cj]] for ci, cj in cells])
    assert path.read_bytes() == want
    assert b"\n10,12," in want and b"-1.7976931348623157e+308" in want


def _read_with_float(text, grid, m):
    """Reference reader: one float() per value, outside nodes set to nan."""
    rows = [ln for ln in text.splitlines()[1:] if ln]
    values = np.array([[float(p) for p in row.split(",")[2:]] for row in rows])
    values = values.reshape(grid.nx, grid.ny, m)
    values[grid.mask == 0] = np.nan
    return values


def test_field_csv_reader_matches_per_value_reference(tmp_path):
    grid = Grid.disc_mask(21, 17)
    values = np.resize(_FINITE_EXTREMES, (grid.nx, grid.ny, 2))
    values[grid.mask == 0] = np.nan
    path = tmp_path / "field.csv"
    write_field_csv(str(path), GridField(grid, values))
    lines = path.read_text().splitlines()
    # Blank lines anywhere after the header are skipped.
    text = "\n".join(lines[:5] + [""] + lines[5:] + ["", ""]) + "\n"
    path.write_text(text)
    got = read_field_csv(str(path), grid, m=2).values
    want = _read_with_float(text, grid, 2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), values.view(np.uint64))
    assert all(v in text for v in ("nan", "-0,", "4.9406564584124654e-324",
                                   "-2.5000000000000171e-310",
                                   "1.7976931348623157e+308",
                                   "-1.7976931348623157e+308"))


def test_field_csv_reader_accepts_what_float_accepts(tmp_path):
    # np.loadtxt rejects digit separators; the row-by-row parse takes them
    # as float() does.
    grid = Grid.square(3, 3)
    path = tmp_path / "field.csv"
    text = "x,y,comp0\n" + "0,0,1_0\n" * 9
    path.write_text(text)
    got = read_field_csv(str(path), grid, m=1).values
    assert np.array_equal(got, _read_with_float(text, grid, 1))
    assert got[1, 1, 0] == 10.0


def _field_csv_text(grid, m, edit=None):
    rows = ["x,y," + ",".join(f"comp{k}" for k in range(m))]
    rows += [",".join(["0.5"] * (2 + m))] * (grid.nx * grid.ny)
    if edit is not None:
        edit(rows)
    return "\n".join(rows) + "\n"


def _assert_rejected(tmp_path, text, grid, m, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as exc:
        read_field_csv(str(path), grid, m=m)
    assert message in str(exc.value)


def test_field_csv_rejects_wrong_header(tmp_path):
    grid = Grid.square(3, 3)
    text = _field_csv_text(grid, 2, lambda rows: rows.__setitem__(0, "x,y,comp0"))
    _assert_rejected(tmp_path, text, grid, 2, "header mismatch")
    _assert_rejected(tmp_path, "", grid, 2, "header mismatch")


def test_field_csv_rejects_wrong_row_count(tmp_path):
    grid = Grid.square(3, 3)
    text = _field_csv_text(grid, 1, lambda rows: rows.pop())
    _assert_rejected(tmp_path, text, grid, 1, "has 8 rows, expected 9")


@pytest.mark.parametrize("row", ["0.5,0.5", "0.5,0.5,0.5,0.5", " "])
def test_field_csv_rejects_wrong_column_count(tmp_path, row):
    # A blank line before the faulty row does not count as a row.
    grid = Grid.square(3, 3)

    def edit(rows):
        rows[4] = row
        rows.insert(2, "")

    columns = len(row.split(","))
    _assert_rejected(tmp_path, _field_csv_text(grid, 1, edit), grid, 1,
                     f"row 5 has {columns} columns, expected 3")


def test_field_csv_rejects_non_numeric_value(tmp_path):
    grid = Grid.square(3, 3)
    text = _field_csv_text(grid, 2,
                           lambda rows: rows.__setitem__(7, "0.5,0.5,0.5,abc"))
    _assert_rejected(tmp_path, text, grid, 2, "row 8 has a non-numeric value")


def test_field_csv_rejects_malformed_input(tmp_path):
    grid = Grid.square(9, 9)
    path = tmp_path / "bad.csv"
    path.write_text("x,y,comp0\n0,0,1\n")
    from fieldtriple.errors import InvalidInputError

    with pytest.raises(InvalidInputError):
        read_field_csv(str(path), grid, m=1)


# ---------------------------------------------------------------------------
# configuration


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "command": "solve",
        "model": "harmonic",
        "grid": "9x9",
        "bc": ["x^2 - y^2"],
        "out": str(tmp_path / "from_file.csv"),
    }))
    code, stdout, _ = run(capsys, "solve", "--config", str(cfg),
                          "--grid", "17x17")
    assert code == 0
    report = json.loads(stdout)
    assert report["grid"] == "17x17"
    assert (tmp_path / "from_file.csv").exists()


def test_config_file_command_mismatch_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "action"}))
    code, _, stderr = run(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert stderr != ""


# ---------------------------------------------------------------------------
# exit code 2: invalid requests


@pytest.mark.parametrize("argv", [
    ["solve", "--model", "harmonic", "--grid", "9x9", "--bc", "x",
     "--bc", "y"],                                        # bc count != m
    ["solve", "--model", "harmonic", "--grid", "9x9"],    # no bc at all
    ["solve", "--model", "harmonic", "--grid", "2x9", "--bc", "x"],
    ["solve", "--model", "harmonic", "--grid", "9", "--bc", "x"],
    ["solve", "--model", "harmonic", "--grid", "9x9", "--bc", "x +"],
    ["solve", "--model", "harmonic", "--grid", "9x9", "--bc", "tan(x)"],
    ["solve", "--model", "harmonic", "--grid", "9x9", "--bc", "é"],
    ["solve", "--model", "nambu", "--m", "3", "--grid", "9x9", "--bc", "x"],
    ["check-maps", "--points", "0"],
    ["legendre", "--model", "nambu", "--tol", "-1"],
    ["action", "--model", "harmonic", "--grid", "9x9"],   # missing --field
])
def test_invalid_requests_exit_2(tmp_path, capsys, argv):
    if argv[0] == "solve" and "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "o.csv")]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr != ""


@pytest.mark.parametrize("argv,config,message", [
    # the list grid and the string bc are accepted; the missing --out is not
    (["solve", "--model", "harmonic"], {"grid": [9, 9], "bc": "x"},
     "solve requires --out"),
    (["solve", "--bc", "x", "--max-iter", "0"], None,
     "max_iter must be >= 1, got 0"),
    (["legendre", "--m", "0"], None, "m must be >= 1, got 0"),
    (["action"], {"domain": "hexagon"},
     "domain must be one of ('square', 'disc-mask'), got 'hexagon'"),
    (["legendre"], [1, 2], "config JSON must be an object"),
    (["solve"], {"grid": [9]}, "grid must be 'NXxNY' or [nx, ny], got [9]"),
    (["solve"], {"bc": [1]}, "bc must be a list of expression strings"),
    (["legendre"], {"seed": 1.5}, "seed must be an integer, got 1.5"),
    (["legendre"], {"tol": "small"}, "tol must be a number, got 'small'"),
    (["legendre"], {"model": 5}, "model must be a string, got 5"),
    (["solve"], {"grid": [True, 17]},
     "grid must be 'NXxNY' or [nx, ny], got [True, 17]"),
    # a config file holds only its own verb's keys
    (["legendre"], {"bc": ["x"]}, "legendre takes no config key 'bc'"),
    (["check-maps"], {"model": "nambu"},
     "check-maps takes no config key 'model'"),
    (["action"], {"points": 5}, "action takes no config key 'points'"),
    (["solve"], {"points": 5}, "solve takes no config key 'points'"),
    (["action", "--grid", "²x3", "--field", "f.csv"], None,
     "grid must look like '33x33', got '²x3'"),
    (["legendre"], b'{"seed": 1}\xff',
     "cannot read {path}: 'utf-8' codec can't decode byte 0xff in "
     "position 11: invalid start byte"),
    # a count past six digits, as in --grid, and an int past int's limit
    (["action", "--field", "f.csv"], {"grid": [10 ** 30, 3]},
     f"grid must be 'NXxNY' or [nx, ny], got [{10 ** 30}, 3]"),
    (["legendre"], b'{"seed": ' + b"9" * 4400 + b"}",
     "malformed config JSON: Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 4400 digits; use "
     "sys.set_int_max_str_digits() to increase the limit"),
])
def test_invalid_configs_exit_2_with_message(tmp_path, capsys, argv, config,
                                             message):
    path = tmp_path / "c.json"
    if config is not None:
        path.write_bytes(config if isinstance(config, bytes)
                         else json.dumps(config).encode())
        argv = argv + ["--config", str(path)]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr == f"fieldtriple: error: {message.format(path=path)}\n"


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, stderr = run(capsys, "legendre", "--config", str(missing))
    assert code == 2
    assert stderr == (f"fieldtriple: error: cannot read {missing}: "
                      "No such file or directory\n")


def test_zero_threads_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FIELD_TRIPLE_THREADS", "0")
    code, _, stderr = run(capsys, "check-maps", "--points", "1")
    assert code == 2
    assert stderr == "fieldtriple: error: FIELD_TRIPLE_THREADS must be >= 1, got 0\n"


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fieldtriple", "check-maps", "--points", "0"])
    assert main() == 2
    assert capsys.readouterr().err == "fieldtriple: error: points must be >= 1, got 0\n"


def test_run_config_rejects_unknown_command():
    with pytest.raises(InvalidParameterError, match="^unknown command 'bogus'$"):
        cli_module.RunConfig(command="bogus")


@pytest.mark.parametrize("argv,config", [
    (["legendre", "--seed", "-1"], None),
    (["check-maps", "--seed", "-5"], None),
    (["phase-check"], {"seed": -3}),
])
def test_negative_seed_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("fieldtriple: error: seed must be >= 0")


def test_unreadable_field_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, _, stderr = run(capsys, "action", "--model", "harmonic", "--grid",
                          "9x9", "--field", str(missing))
    assert code == 2
    assert stderr == (f"fieldtriple: error: cannot read {missing}: "
                      "No such file or directory\n")
    # a field file that is not UTF-8
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"x,y,comp0\n\xff\n")
    code, _, stderr = run(capsys, "action", "--model", "harmonic", "--grid",
                          "9x9", "--field", str(latin))
    assert code == 2
    assert stderr == (f"fieldtriple: error: cannot read {latin}: 'utf-8' "
                      "codec can't decode byte 0xff in position 10: "
                      "invalid start byte\n")


def test_out_in_missing_directory_exits_2_before_solving(tmp_path, capsys,
                                                         monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli_module, "solve_dirichlet", no_solve)
    out = tmp_path / "no-such-dir" / "o.csv"
    code, stdout, stderr = run(capsys, *solve_args(out))
    assert code == 2
    assert stdout == ""
    assert stderr == (f"fieldtriple: error: cannot write {out}: "
                      f"no directory {out.parent}\n")
    assert not out.parent.exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    code, stdout, stderr = run(capsys, "legendre", "--points", "2",
                               "--out", str(tmp_path))
    assert code == 2
    assert json.loads(stdout)["pass"] is True
    assert stderr.startswith(f"fieldtriple: error: cannot write {tmp_path}: ")
    assert "Traceback" not in stderr


def test_malformed_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, stderr = run(capsys, "solve", "--config", str(bad))
    assert code == 2
    assert stderr != ""


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "solve", "mode": "fast"}))
    code, _, stderr = run(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert "mode" in stderr


def test_bad_threads_variable_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FIELD_TRIPLE_THREADS", "many")
    code, _, stderr = run(capsys, "check-maps", "--points", "1")
    assert code == 2
    assert "FIELD_TRIPLE_THREADS" in stderr


def test_valid_threads_variable_accepted(capsys, monkeypatch):
    monkeypatch.setenv("FIELD_TRIPLE_THREADS", "2")
    code, _, _ = run(capsys, "check-maps", "--points", "1")
    assert code == 0


@pytest.mark.parametrize("bc", ["sin(1e400)", "x*1e200*1e200", "1e400"])
def test_non_finite_boundary_value_exits_3(tmp_path, capsys, bc):
    code, _, stderr = run(capsys, *solve_args(tmp_path / "o.csv", bc=(bc,)))
    assert code == 3
    assert stderr.startswith("fieldtriple: numerical failure:")
    assert "Traceback" not in stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_start_residual_exits_3(tmp_path, capsys):
    """Finite boundary data whose start residual overflows to nan."""
    code, _, stderr = run(capsys, *solve_args(tmp_path / "o.csv", bc=("1e160*x*y",)))
    assert code == 3
    assert stderr == ("fieldtriple: numerical failure: residual at the "
                      "starting point is not finite (nan)\n")


def test_expression_error_reports_offset(tmp_path, capsys):
    code, _, stderr = run(capsys, *solve_args(
        tmp_path / "o.csv", bc=("x +",)))
    assert code == 2
    assert "3" in stderr


@pytest.mark.parametrize("bc,code,message", [
    ("(" * 400 + "x" + ")" * 400, 2,
     "expression nested too deeply (at offset 100)"),
    ("+".join(["x"] * 1201), 2, "expression too deep (at offset 1199)"),
    ("+".join(["x"] * 500), 0, None),
], ids=["400-parentheses", "1201-term-sum", "500-term-sum"])
def test_deep_boundary_expressions_exit_without_a_traceback(tmp_path, capsys, bc,
                                                             code, message):
    got, _, stderr = run(capsys, *solve_args(tmp_path / "o.csv", bc=(bc,)))
    assert got == code
    assert stderr == ("" if message is None else f"fieldtriple: error: {message}\n")


def test_grid_count_past_six_digits_exits_2(tmp_path, capsys):
    text = "9" * 4400 + "x3"
    code, stdout, stderr = run(capsys, "action", "--grid", text,
                               "--field", str(tmp_path / "f.csv"))
    assert (code, stdout) == (2, "")
    assert stderr == f"fieldtriple: error: grid must look like '33x33', got {text!r}\n"
    assert cli_module._parse_grid("100000x999999") == (100000, 999999)
    with pytest.raises(InvalidParameterError):
        cli_module._parse_grid("1000000x3")


def test_grid_that_cannot_be_allocated_exits_2(tmp_path, capsys, monkeypatch):
    """numpy's refusal of a huge array becomes exit 2 naming the grid.  The
    allocation is refused by a stand-in, so the test allocates nothing
    large even where memory would allow it."""
    full = np.full

    def refusing_full(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e8:
            raise MemoryError("Unable to allocate 9.31 GiB")
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", refusing_full)
    code, stdout, stderr = run(capsys, *solve_args(tmp_path / "o.csv",
                                                   grid="100000x100000"))
    assert (code, stdout) == (2, "")
    assert stderr == "fieldtriple: error: not enough memory for grid 100000x100000\n"
    assert not (tmp_path / "o.csv").exists()


@given(st.text())
@example("é")
@example("²x3")
def test_any_text_parses_or_raises_the_typed_error(text):
    """--bc and --grid text either parses or raises the one error the CLI
    maps to exit 2, and an expression is ASCII up to its error offset."""
    try:
        parse_expr(text)
        scanned = len(text)
    except ExprSyntaxError as exc:
        scanned = exc.offset
    assert text[:scanned].isascii()
    try:
        cli_module._parse_grid(text)
    except InvalidParameterError:
        pass


def test_repeated_calls_share_one_parser_and_print_the_same(capsys):
    """The parser is built once per process; a second round of calls, help
    and an argument error included, prints what the first round printed."""
    argvs = [["legendre", "--model", "nambu", "--points", "20", "--seed", "3"],
             ["phase-check", "--model", "harmonic", "--points", "20"],
             ["solve", "--model", "no-such-model"],
             ["solve", "--help"]]
    first = [run(capsys, *argv) for argv in argvs]
    second = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 0, 2, 0]
    assert "usage: fieldtriple solve" in first[3][1]
    assert "invalid choice: 'no-such-model'" in first[2][2]
    assert second == first
    assert cli_module._build_parser() is cli_module._build_parser()


# ---------------------------------------------------------------------------
# what a fresh process imports

_IMPORT_PROBE = """
import contextlib, io, json, sys
from fieldtriple.cli import main, write_field_csv
from fieldtriple.grid import Grid, GridField

tmp = sys.argv[1]
write_field_csv(tmp + "/field.csv", GridField.from_function(
    Grid.square(9, 9), lambda x, y: [x * y], 1))
pointwise = [
    ["legendre", "--model", "nambu", "--points", "5"],
    ["legendre", "--model", "sigma", "--m", "3", "--points", "5"],
    ["phase-check", "--model", "nambu", "--points", "5"],
    ["phase-check", "--model", "harmonic", "--points", "5"],
    ["check-maps", "--points", "5"],
    ["action", "--model", "harmonic", "--grid", "9x9",
     "--field", tmp + "/field.csv"],
    ["--help"],
    ["legendre", "--model", "no-such-model"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in pointwise]
    before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    solve = main(["solve", "--model", "harmonic", "--grid", "9x9",
                  "--bc", "x^2*y", "--out", tmp + "/solved.csv"])
print(json.dumps({"codes": codes, "before": before, "solve": solve,
                  "after": "scipy.sparse.linalg" in sys.modules}))
"""


def test_pointwise_verbs_never_import_scipy(tmp_path):
    """scipy is loaded by the first Newton step, not by importing the CLI
    or by the verbs that never factor a matrix.  The check needs a fresh
    interpreter: this test process has imported scipy already."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0, 0, 0, 2]
    assert result["before"] == []
    assert result["solve"] == 0
    assert result["after"] is True
