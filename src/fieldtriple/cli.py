"""Command-line front end: config handling, dispatch, CSV/JSON emission.

Verbs
-----
solve        Dirichlet boundary-value solve of the discrete field equations;
             writes the solution field as CSV, the per-cell momenta as a
             sibling ``.momenta.csv``, and a JSON report as a sibling
             ``.report.json`` (the report is also printed to stdout).
check-maps   Canonical-map identity suite (the alpha/kappa pairing, the exact
             beta agreement, the two-form pairing) over seeded random points.
legendre     Forward/inverse Legendre round trips for a catalog model.
phase-check  Velocity-side vs momentum-side phase residual agreement on
             members generated from either side.
action       Evaluate the discrete action of a field read from CSV.

Configuration is accepted both as command-line flags and as a single JSON
file (``--config``); explicit flags override file values.  A config file
holds only its verb's flags as keys (``max_iter`` for ``--max-iter``), each
of the flag's type, and an optional ``command`` naming the verb.  Only
check-maps, legendre and phase-check draw random numbers, all from
``numpy.random.default_rng(seed)``, so only they take ``--seed``.
Identical configurations produce byte-identical outputs.

File formats
------------
Field CSV: header ``x,y,comp0..comp{m-1}``, one row per grid node in
row-major order, every float printed with 17 significant digits; nodes
outside a masked domain carry ``nan`` values so the file stays rectangular.
Momentum CSV: header ``cell_i,cell_j,p1_0..p1_{m-1},p2_0..p2_{m-1}``, one row
per active cell in row-major order.  JSON reports are emitted with sorted
keys.  All file I/O is UTF-8; an input file that is not is refused as one
that cannot be read.

Exit codes: 0 success, 2 configuration/validation failure (a path that
cannot be read or written included), 3 numerical failure (non-convergence
or a domain violation).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .bundles import (
    Jet,
    JetTangent,
    Phase,
    PhaseJet,
    PhaseTangent,
    alpha,
    beta,
    beta_tilde,
    kappa,
    omega2_pair,
    pair_covector,
    pair_jet,
    pair_phase_covector,
    project_to_jet,
    project_to_phase,
)
from .errors import (
    DomainError,
    ExprSyntaxError,
    FieldTripleError,
    InvalidInputError,
    InvalidParameterError,
    NoConvergenceError,
    SingularJacobianError,
    _max_norm,
)
from .expr import evaluate, parse_expr
from .grid import (
    Grid,
    GridField,
    OUTSIDE,
    boundary_momentum,
    discrete_action,
    solve_dirichlet,
)
from .hamiltonian import dH, ham_dynamics_member, ham_phase_residual
from .lagrangian import (
    legendre,
    phase_dynamics_member,
    phase_relation_residual,
)
from .models import (
    MODEL_NAMES,
    STRING_JET,
    draw_points,
    get_hamiltonian,
    get_lagrangian,
    sample_admissible_string_jet,
    sample_admissible_string_phase,
)

__all__ = ["RunConfig", "run", "main"]

_DOMAINS = ("square", "disc-mask")


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved command invocation.

    ``tol`` is the command's acceptance tolerance (Newton tolerance for
    solve); None selects the per-command default.  ``bc`` holds one
    expression string per field component for solve.  ``field`` is the input
    CSV path for the action command.
    """

    command: str
    model: str = "harmonic"
    m: int | None = None
    grid: tuple[int, int] = (17, 17)
    domain: str = "square"
    bc: tuple[str, ...] = ()
    tol: float | None = None
    max_iter: int = 50
    seed: int = 0
    points: int = 1000
    out: str | None = None
    field: str | None = None

    def __post_init__(self):
        if self.command not in _VERBS:
            raise InvalidParameterError(f"unknown command {self.command!r}")
        if self.domain not in _DOMAINS:
            raise InvalidParameterError(
                f"domain must be one of {_DOMAINS}, got {self.domain!r}")
        nx, ny = self.grid
        if nx < 3 or ny < 3:
            raise InvalidParameterError(f"grid must be at least 3x3, got {nx}x{ny}")
        if self.tol is not None and not self.tol > 0.0:
            raise InvalidParameterError(f"tol must be positive, got {self.tol}")
        if self.tol == math.inf:
            raise InvalidParameterError(f"tol must be finite, got {self.tol}")
        for name, option in _OPTIONS.items():
            least, value = option.get("least"), getattr(self, name)
            if least is not None and value is not None and value < least:
                raise InvalidParameterError(
                    f"{name} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# Formatting helpers


def _grid_str(grid: Grid) -> str:
    return f"{grid.nx}x{grid.ny}"


def _parse_grid(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"([0-9]{1,6})x([0-9]{1,6})", text.lower())
    if match is None:
        raise InvalidParameterError(
            f"grid must look like '33x33', got {text!r}")
    return int(match[1]), int(match[2])


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``; an ``OSError`` or a byte that is not
    UTF-8 becomes an ``InvalidParameterError`` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(
            f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _open(path: str):
    """``path`` opened for writing UTF-8 text; an ``OSError`` becomes an
    ``InvalidParameterError`` naming the path."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InvalidParameterError(
            f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(path: str, text: str) -> None:
    with _open(path) as fh:
        fh.write(text)


_TABLE_CHUNK = 4096


def _write_table(path: str, header: str, lead: list[str],
                 table: np.ndarray) -> None:
    """Write a header line, then per table row its leading columns, already
    formatted and ending in a comma, and the row of ``table`` in ``%.17g``.
    Each chunk of rows is formatted by one ``%`` from Python floats, which
    keeps peak memory flat; the leading columns are numbers, so they hold
    no ``%`` of their own."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with _open(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _TABLE_CHUNK):
            stop = start + _TABLE_CHUNK
            fh.write((row.join(lead[start:stop]) + row)
                     % tuple(table[start:stop].ravel().tolist()))


def write_field_csv(path: str, fld: GridField) -> None:
    """Field CSV: x,y,comp0.. rows over all nodes in row-major order; each
    grid line's coordinate is formatted once."""
    m = fld.values.shape[2]
    x, y = fld.grid.node_coords()
    xs = ["%.17g," % v for v in x[:, 0].tolist()]
    ys = ["%.17g," % v for v in y[0].tolist()]
    _write_table(path, "x,y," + ",".join(f"comp{k}" for k in range(m)),
                 [a + b for a in xs for b in ys], fld.values.reshape(-1, m))


def read_field_csv(path: str, grid: Grid, m: int) -> GridField:
    """Read a field CSV produced by write_field_csv back onto a grid.

    Blank lines are skipped; the x, y columns are not read.  The value
    columns are parsed in one ``np.loadtxt`` call, which accepts a subset of
    what ``float`` does and gives the same values.  When it fails, or the
    comma count shows a row with extra columns, the rows are parsed one by
    one with ``float``, which names the first faulty row.
    """
    text = _read_text(path)
    lines = text.splitlines()
    expect_header = "x,y," + ",".join(f"comp{k}" for k in range(m))
    if not lines or lines[0] != expect_header:
        raise InvalidInputError(
            f"field CSV header mismatch: expected {expect_header!r}")
    rows = list(filter(None, lines[1:]))
    if len(rows) != grid.nx * grid.ny:
        raise InvalidInputError(
            f"field CSV has {len(rows)} rows, expected {grid.nx * grid.ny}")
    try:
        # Every row has at least 2 + m columns once this succeeds, so the
        # comma count below leaves exactly 2 + m in each.
        table = np.loadtxt(rows, delimiter=",", comments=None,
                           usecols=range(2, 2 + m), ndmin=2)
    except ValueError:
        table = None
    if table is None or text.count(",") != (len(rows) + 1) * (m + 1):
        table = _parse_rows(rows, m)
    values = table.reshape(grid.nx, grid.ny, m)
    values[grid.mask == OUTSIDE] = np.nan
    return GridField(grid, values)


def _parse_rows(rows: list[str], m: int) -> np.ndarray:
    """The value columns of field CSV rows, one ``float`` per value; raises
    ``InvalidInputError`` naming the first row (counted from the header as
    row 1) with a wrong column count or a non-numeric value."""
    table = np.empty((len(rows), m))
    for k, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 2 + m:
            raise InvalidInputError(
                f"field CSV row {k + 2} has {len(parts)} columns, expected {2 + m}")
        try:
            table[k] = [float(p) for p in parts[2:]]
        except ValueError:
            raise InvalidInputError(
                f"field CSV row {k + 2} has a non-numeric value") from None
    return table


def write_momentum_csv(path: str, grid: Grid, momenta: Phase) -> None:
    """Momentum CSV: cell_i,cell_j,p1_*,p2_* rows over the active cells of
    ``grid``, one per point of ``momenta`` (as ``boundary_momentum`` returns
    them); each cell index is formatted once."""
    m = momenta.m
    label = [f"{k}," for k in range(max(grid.nx, grid.ny))]
    header = ("cell_i,cell_j,"
              + ",".join(f"p1_{k}" for k in range(m)) + ","
              + ",".join(f"p2_{k}" for k in range(m)))
    ci, cj = grid.active_cells.T
    lead = [label[i] + label[j] for i, j in zip(ci.tolist(), cj.tolist())]
    _write_table(path, header, lead, momenta.p.reshape(2 * m, -1).T)


def _sibling(path: str, suffix: str) -> str:
    return os.path.splitext(path)[0] + suffix


def _make_grid(cfg: RunConfig) -> Grid:
    nx, ny = cfg.grid
    if cfg.domain == "disc-mask":
        return Grid.disc_mask(nx, ny)
    return Grid.square(nx, ny)


# ---------------------------------------------------------------------------
# Commands


def _run_solve(cfg: RunConfig) -> dict:
    model = get_lagrangian(cfg.model, cfg.m)
    if len(cfg.bc) != model.m:
        raise InvalidParameterError(
            f"model {model.name!r} has m={model.m} components but "
            f"{len(cfg.bc)} boundary expressions were given")
    if cfg.out is None:
        raise InvalidParameterError("solve requires --out")
    exprs = [parse_expr(src) for src in cfg.bc]
    grid = _make_grid(cfg)
    inside = grid.mask != OUTSIDE
    initial = GridField.from_function(
        grid, lambda x, y: [evaluate(e, x, y) for e in exprs], model.m)

    solution, rep = solve_dirichlet(model, initial, tol=cfg.tol, max_iter=cfg.max_iter)
    momenta, _ = boundary_momentum(model, solution)

    max_error = float(np.max(np.abs(solution.values[inside] - initial.values[inside])))

    write_field_csv(cfg.out, solution)
    write_momentum_csv(_sibling(cfg.out, ".momenta.csv"), grid, momenta)
    report = {
        "command": cfg.command,
        "model": model.name,
        "grid": _grid_str(grid),
        "iterations": rep.iterations,
        "final_residual": rep.final_residual,
        "action": rep.action,
        "max_error": max_error,
        "pass": bool(rep.converged),
        "stop_reason": rep.message or "converged",
    }
    _write_text(_sibling(cfg.out, ".report.json"), _report_json(report))
    return report


def _run_check_maps(cfg: RunConfig) -> dict:
    dims = (cfg.m,) if cfg.m is not None else (1, 2, 4)
    rng = np.random.default_rng(cfg.seed)
    alpha_max = 0.0
    omega_max = 0.0
    beta_equal = True
    for m in dims:
        # Per point 15 draws of m normals: a phase jet's q and p, then
        # (qdot[j], pdot[j, 0], pdot[j, 1]) for each direction j, a jet
        # tangent's dq and dqdot, and a phase tangent's dq and dp.
        x = rng.standard_normal((cfg.points, 15, m)).transpose(1, 2, 0)
        d = x[3:9].reshape((2, 3) + x.shape[1:])
        w = PhaseJet(Phase(x[0], x[1:3]), d[:, 0], d[:, 1:])
        v = JetTangent(project_to_jet(w), x[9], x[10:12])
        u = PhaseTangent(project_to_phase(w), x[12], x[13:15])
        gap = pair_covector(alpha(w), v) - pair_jet(w, kappa(v))
        alpha_max = max(alpha_max, _max_norm(gap))
        gap2 = pair_phase_covector(beta(w), u) - omega2_pair(w, u)
        omega_max = max(omega_max, _max_norm(gap2))
        beta_equal = beta_equal and beta(w) == beta_tilde(w)
    passed = beta_equal and alpha_max <= cfg.tol and omega_max <= cfg.tol
    return {
        "command": cfg.command,
        "dims": list(dims),
        "points": cfg.points,
        "seed": cfg.seed,
        "alpha_pairing_max": alpha_max,
        "beta_tilde_equal": beta_equal,
        "omega2_pairing_max": omega_max,
        "tol": cfg.tol,
        "pass": bool(passed),
    }


def _layout(model) -> tuple:
    """What one point of ``model`` draws: a string jet's draws, or the 3m
    normals of q and the two direction blocks."""
    return STRING_JET if model.name == "nambu" else ((3, model.m),)


def _points(model, cls, draws):
    """One ``cls``, Jet or Phase, holding the points that ``draws``, the
    arrays ``draw_points`` gave for ``_layout(model)``, hold."""
    if model.name != "nambu":
        x = np.moveaxis(draws[0], 0, -1)
        return cls(x[0], x[1:])
    if cls is Jet:
        return sample_admissible_string_jet(draws=draws)
    return sample_admissible_string_phase(draws=draws)


def _joined(a, b):
    """One batch of ``a``'s points followed by ``b``'s, for two Phases or
    two PhaseJets: each block joined along its last, the point, axis.
    Every pass over the batch is elementwise per point, so each point
    rounds as it does in its own batch."""
    if isinstance(a, Phase):
        return Phase(np.concatenate([a.q, b.q], axis=-1),
                     np.concatenate([a.p, b.p], axis=-1))
    return PhaseJet(_joined(a.base, b.base),
                    np.concatenate([a.qdot, b.qdot], axis=-1),
                    np.concatenate([a.pdot, b.pdot], axis=-1))


def _run_legendre(cfg: RunConfig) -> dict:
    lag = get_lagrangian(cfg.model, cfg.m)
    ham = get_hamiltonian(cfg.model, cfg.m)
    k = len(_layout(lag))
    draws = draw_points(np.random.default_rng(cfg.seed), cfg.points,
                        _layout(lag) + _layout(ham))
    j, ph0 = _points(lag, Jet, draws[:k]), _points(ham, Phase, draws[k:])
    # One dH pass over the forward images, then the drawn phase points.
    psi = dH(ham, _joined(legendre(lag, j), ph0)).psi
    fwd_max = _max_norm(psi[..., :cfg.points] - j.qdot)
    ph1 = legendre(lag, Jet(ph0.q, psi[..., cfg.points:]))
    inv_max = _max_norm(ph1.p - ph0.p)
    passed = fwd_max <= cfg.tol and inv_max <= cfg.tol
    return {
        "command": cfg.command,
        "model": lag.name,
        "points": cfg.points,
        "seed": cfg.seed,
        "forward_roundtrip_max": fwd_max,
        "inverse_roundtrip_max": inv_max,
        "tol": cfg.tol,
        "pass": bool(passed),
    }


def _run_phase_check(cfg: RunConfig) -> dict:
    lag = get_lagrangian(cfg.model, cfg.m)
    ham = get_hamiltonian(cfg.model, cfg.m)
    # Per point a jet, a member's free parameters, a phase point and the
    # other member's free parameters.
    k = len(_layout(lag))
    free = ((3, lag.m),)
    draws = draw_points(np.random.default_rng(cfg.seed), cfg.points,
                        _layout(lag) + free + _layout(ham) + free)
    w_l = phase_dynamics_member(lag, _points(lag, Jet, draws[:k]),
                                np.moveaxis(draws[k], 0, -1))
    w_h = ham_dynamics_member(ham, _points(ham, Phase, draws[k + 1:-1]),
                              np.moveaxis(draws[-1], 0, -1))
    # Each residual is one pass over both members.
    w = _joined(w_l, w_h)
    rl = phase_relation_residual(lag, w)
    rh = ham_phase_residual(ham, w)
    lag_max = _max_norm(rl)
    ham_max = _max_norm(rh)
    agree_max = _max_norm(rl - rh)
    passed = lag_max <= cfg.tol and ham_max <= cfg.tol and agree_max <= cfg.tol
    return {
        "command": cfg.command,
        "model": lag.name,
        "points": cfg.points,
        "seed": cfg.seed,
        "lagrangian_residual_max": lag_max,
        "hamiltonian_residual_max": ham_max,
        "agreement_max": agree_max,
        "tol": cfg.tol,
        "pass": bool(passed),
    }


def _run_action(cfg: RunConfig) -> dict:
    model = get_lagrangian(cfg.model, cfg.m)
    if cfg.field is None:
        raise InvalidParameterError("action requires --field (input CSV)")
    grid = _make_grid(cfg)
    fld = read_field_csv(cfg.field, grid, model.m)
    value = discrete_action(model, fld)
    return {
        "command": cfg.command,
        "model": model.name,
        "grid": _grid_str(grid),
        "action": value,
        "pass": True,
    }


class _Verb(NamedTuple):
    help: str
    tol: float | None  # the default tol
    options: tuple[str, ...]  # beyond --config, --m and --out
    run: Callable[[RunConfig], dict]

    @property
    def keys(self) -> tuple[str, ...]:  # its flags' names and config keys
        return ("m",) + self.options + ("out",)


_VERBS = {
    "solve": _Verb("Dirichlet boundary-value solve", 1e-10,
                   ("model", "grid", "domain", "bc", "tol", "max_iter"),
                   _run_solve),
    "check-maps": _Verb("canonical-map identity suite", 1e-12,
                        ("tol", "points", "seed"), _run_check_maps),
    "legendre": _Verb("Legendre round-trip report", 1e-9,
                      ("model", "tol", "points", "seed"), _run_legendre),
    "phase-check": _Verb("velocity-side vs momentum-side residuals", 1e-8,
                         ("model", "tol", "points", "seed"),
                         _run_phase_check),
    "action": _Verb("discrete action of a field CSV", None,
                    ("model", "grid", "domain", "field"), _run_action),
}


def run(cfg: RunConfig) -> dict:
    """Dispatch a resolved config; returns the JSON report as a dict.

    Raises the package's typed errors on failure; exit-code mapping is the
    caller's job (main maps validation to 2 and numerics to 3).  An ``out``
    in a missing directory is refused before the command runs.
    """
    if cfg.out is not None:
        folder = os.path.dirname(cfg.out) or "."
        if not os.path.isdir(folder):
            raise InvalidParameterError(
                f"cannot write {cfg.out}: no directory {folder}")
    verb = _VERBS[cfg.command]
    if cfg.tol is None:
        cfg = replace(cfg, tol=verb.tol)
    return verb.run(cfg)


# ---------------------------------------------------------------------------
# Argument and config-file handling

# Each option's argparse keyword arguments, and its least value if it has
# one.  A config value must be of the flag's type, except that grid and bc
# also take their list forms.
_OPTIONS = {
    "model": {"type": str, "choices": MODEL_NAMES},
    "m": {"type": int, "least": 1, "help": "number of field components"},
    "grid": {"type": str, "metavar": "NXxNY"},
    "domain": {"type": str, "choices": _DOMAINS},
    "bc": {"type": str, "action": "append", "metavar": "EXPR",
           "help": "boundary expression in x,y (repeat per component)"},
    "tol": {"type": float},
    "max_iter": {"type": int, "least": 1},
    "points": {"type": int, "least": 1},
    "seed": {"type": int, "least": 0},
    "out": {"type": str, "metavar": "PATH"},
    "field": {"type": str, "metavar": "PATH", "help": "input field CSV"},
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: nothing changes it
    after construction, and parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="fieldtriple",
        description="Canonical maps, phase dynamics, and variational grid "
                    "solves for fields on two-parameter domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, verb in _VERBS.items():
        p = sub.add_parser(command, help=verb.help)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file; explicit flags override it")
        for name in verb.keys:
            kwargs = {k: v for k, v in _OPTIONS[name].items() if k != "least"}
            p.add_argument("--" + name.replace("_", "-"), dest=name, **kwargs)
    return parser


def _load_config_file(path: str, command: str) -> dict:
    """The checked values of a JSON config file for ``command``."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past int's digit limit
        raise InvalidParameterError(f"malformed config JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidParameterError("config JSON must be an object")
    keys = _VERBS[command].keys
    for key in data:
        if key != "command" and key not in keys:
            raise InvalidParameterError(
                f"{command} takes no config key {key!r}")
    other = data.pop("command", command)
    if other != command:
        raise InvalidParameterError(
            f"config file is for command {other!r}, not {command!r}")
    return {key: _coerce(key, value) for key, value in data.items()}


def _coerce(name: str, value):
    """A flag or config value of option ``name``, checked for its type."""
    if name == "grid" and isinstance(value, str):
        return _parse_grid(value)
    if name == "grid":
        if not (isinstance(value, list) and len(value) == 2
                and all(type(v) is int and v < 10 ** 6 for v in value)):
            raise InvalidParameterError(
                f"grid must be 'NXxNY' or [nx, ny], got {value!r}")
        return tuple(value)
    if name == "bc":
        value = [value] if isinstance(value, str) else value
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise InvalidParameterError("bc must be a list of expression strings")
        return tuple(value)
    kind = _OPTIONS[name]["type"]
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise InvalidParameterError(
            f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


def build_config(argv: list[str]) -> RunConfig:
    """Resolve argv (+ optional JSON config file) into a RunConfig."""
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config")
    merged = ({} if config_path is None
              else _load_config_file(config_path, command))
    for key, value in args.items():
        if value is not None:
            merged[key] = _coerce(key, value)
    return RunConfig(command=command, **merged)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = build_config(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (InvalidInputError, InvalidParameterError, ExprSyntaxError) as exc:
        print(f"fieldtriple: error: {exc}", file=sys.stderr)
        return 2

    try:
        # Every numerical failure reaches exit 3 as an exception, so numpy's
        # warnings would only repeat it on stderr.
        with np.errstate(all="ignore"):
            report = run(cfg)
        text = _report_json(report)
        sys.stdout.write(text)
        if cfg.out is not None and cfg.command != "solve":
            _write_text(cfg.out, text)
    except (DomainError, NoConvergenceError, SingularJacobianError) as exc:
        print(f"fieldtriple: numerical failure: {exc}", file=sys.stderr)
        return 3
    except FieldTripleError as exc:
        print(f"fieldtriple: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        size = (f"grid {cfg.grid[0]}x{cfg.grid[1]}"
                if "grid" in _VERBS[cfg.command].options else f"--points {cfg.points}")
        print(f"fieldtriple: error: not enough memory for {size}", file=sys.stderr)
        return 2

    if not report["pass"]:
        why = report.get("stop_reason")
        print("fieldtriple: numerical failure: report did not pass"
              + (f": {why}" if why else ""), file=sys.stderr)
        return 3
    return 0
