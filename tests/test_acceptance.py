"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS line with its measured figures.  Tolerances here are contractual; do
not loosen them."""

import json
import time

import numpy as np
import pytest

from fieldtriple import autodiff
from fieldtriple.bundles import (
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
from fieldtriple.cli import main
from fieldtriple.grid import (
    Grid,
    GridField,
    boundary_momentum,
    discrete_action,
    discrete_action_gradient,
    momentum_divergence,
    solve_dirichlet,
)
from fieldtriple.hamiltonian import (
    ham_dynamics_member,
    ham_phase_residual,
    hamiltonian_from_lagrangian,
    legendre_invert,
)
from fieldtriple.lagrangian import (
    legendre,
    phase_dynamics_member,
    phase_relation_residual,
)
from fieldtriple.models import (
    MODEL_NAMES,
    get_lagrangian,
    nambu_hamiltonian,
    nambu_lagrangian,
    nambu_legendre_closed_form,
    nambu_legendre_inverse_closed_form,
    sample_admissible_string_jet,
    sample_admissible_string_phase,
    _gram,
)

from support import fd_grad, random_jet_tangent, random_phase_jet, random_phase_tangent


def report(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------


def _per_point_gaps(rng, m, points):
    """The alpha and omega pairing gaps of ``points`` random points, one
    point at a time, drawing 15 blocks of m normals per point."""
    alpha_gaps, omega_gaps = [], []
    for _ in range(points):
        w = random_phase_jet(rng, m)
        v = random_jet_tangent(rng, m, jet=project_to_jet(w))
        u = random_phase_tangent(rng, project_to_phase(w))
        alpha_gaps.append(pair_covector(alpha(w), v) - pair_jet(w, kappa(v)))
        omega_gaps.append(pair_phase_covector(beta(w), u) - omega2_pair(w, u))
    return np.array(alpha_gaps), np.array(omega_gaps)


def test_criterion_1_canonical_map_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    alpha_max = 0.0
    omega_max = 0.0
    gaps = []
    for m in (1, 2, 4):
        # Per point 15 draws of m normals: a phase jet's q and p, then
        # (qdot[j], pdot[j, 0], pdot[j, 1]) for each direction j, a jet
        # tangent's dq and dqdot, and a phase tangent's dq and dp.
        x = rng.standard_normal((1000, 15, m)).transpose(1, 2, 0)
        d = x[3:9].reshape((2, 3) + x.shape[1:])
        w = PhaseJet(Phase(x[0], x[1:3]), d[:, 0], d[:, 1:])
        v = JetTangent(project_to_jet(w), x[9], x[10:12])
        u = PhaseTangent(project_to_phase(w), x[12], x[13:15])
        alpha_gap = pair_covector(alpha(w), v) - pair_jet(w, kappa(v))
        omega_gap = pair_phase_covector(beta(w), u) - omega2_pair(w, u)
        assert beta(w) == beta_tilde(w)
        alpha_max = max(alpha_max, float(np.max(np.abs(alpha_gap))))
        omega_max = max(omega_max, float(np.max(np.abs(omega_gap))))
        gaps.append((m, alpha_gap, omega_gap))
    elapsed = time.perf_counter() - t0
    assert alpha_max <= 1e-12
    assert omega_max <= 1e-12
    assert elapsed < 1.0
    # Untimed: the first 50 points of each dimension give the per-point
    # loop's gaps bit for bit.
    rng = np.random.default_rng(0)
    for m, alpha_gap, omega_gap in gaps:
        alpha_ref, omega_ref = _per_point_gaps(rng, m, 50)
        rng.standard_normal((950, 15, m))
        assert np.array_equal(alpha_gap[:50].view(np.int64), alpha_ref.view(np.int64))
        assert np.array_equal(omega_gap[:50].view(np.int64), omega_ref.view(np.int64))
    report(f"CRITERION 1 PASS: canonical map identities on 3000 points, "
           f"alpha gap {alpha_max:.3e}, omega gap {omega_max:.3e}, "
           f"both constructions of the momentum-side map identical "
           f"({elapsed:.2f}s)")


def test_criterion_2_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for name in MODEL_NAMES:
        model = get_lagrangian(name, 2 if name == "sigma" else None)
        for _ in range(100):
            if name == "nambu":
                j = sample_admissible_string_jet(rng)
                flat = np.concatenate([j.q, *j.qdot])
            else:
                flat = rng.standard_normal(3 * model.m)
            g = autodiff.grad(model.L, flat)
            fg = fd_grad(model.L, flat)
            worst = max(worst, float(np.max(np.abs(g - fg))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 1.0
    report(f"CRITERION 2 PASS: dual-number derivatives vs central "
           f"differences on every catalog model, max gap {worst:.3e} "
           f"({elapsed:.2f}s)")


def test_criterion_3_string_legendre_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    model = nambu_lagrangian()
    ham = nambu_hamiltonian()

    round_trip = 0.0
    momenta_gap = 0.0
    for _ in range(1000):
        j = sample_admissible_string_jet(rng)
        ad = legendre(model, j)
        cf = nambu_legendre_closed_form(j)
        momenta_gap = max(momenta_gap,
                          float(np.max(np.abs(ad.p[0] - cf.p[0]))),
                          float(np.max(np.abs(ad.p[1] - cf.p[1]))))
        rec = nambu_legendre_inverse_closed_form(cf)
        round_trip = max(round_trip,
                         float(np.max(np.abs(rec.qdot[0] - j.qdot[0]))),
                         float(np.max(np.abs(rec.qdot[1] - j.qdot[1]))))
    assert momenta_gap <= 1e-10
    assert round_trip <= 1e-9

    # Legendre transform of L equals the closed-form H = +sqrt(-det gd);
    # H is the positive root since p1.v1 + p2.v2 = 2L > 0 on admissible
    # sheets, and H^2 + det gd = 0 pins the square.
    def invert(mdl, ph):
        return legendre_invert(mdl, ph, nambu_legendre_inverse_closed_form(ph))

    lt = hamiltonian_from_lagrangian(model, invert=invert)
    lt_gap = 0.0
    square_gap = 0.0
    residual_gap = 0.0
    for _ in range(200):
        ph = sample_admissible_string_phase(rng)
        flat = np.concatenate([ph.q, *ph.p])
        h_lt = lt.H.eval(flat)
        h_cf = ham.H.eval(flat)
        lt_gap = max(lt_gap, abs(h_lt - h_cf))
        det = _gram(*ph.p)[3]
        square_gap = max(square_gap, abs(h_cf * h_cf + det))
        assert h_cf > 0.0

        w = ham_dynamics_member(ham, ph, free=rng.standard_normal((3, 4)))
        residual_gap = max(residual_gap, phase_relation_residual(model, w))
        j = sample_admissible_string_jet(rng)
        wl = phase_dynamics_member(model, j, free=rng.standard_normal((3, 4)))
        residual_gap = max(residual_gap, ham_phase_residual(ham, wl))
    elapsed = time.perf_counter() - t0
    assert lt_gap <= 1e-9
    assert square_gap <= 1e-9
    assert residual_gap <= 1e-8
    assert elapsed < 5.0
    report(f"CRITERION 3 PASS: string Legendre closed forms (momenta gap "
           f"{momenta_gap:.3e}, round trip {round_trip:.3e}), Legendre "
           f"transform vs positive-root H ({lt_gap:.3e}), dynamics agree "
           f"both ways ({residual_gap:.3e}) ({elapsed:.2f}s)")


def test_criterion_4_discrete_variation_is_exact_gradient():
    t0 = time.perf_counter()
    g5 = Grid.square(5, 5)
    cases = [
        (get_lagrangian("harmonic"),
         GridField.from_function(g5, lambda x, y:
                                 np.array([np.sin(2 * x) + y * y]), 1)),
        (get_lagrangian("nambu"),
         GridField.from_function(g5, lambda x, y:
                                 (x, y, 0.3 * x * y, 0.0), 4)),
    ]
    worst = 0.0
    for model, f in cases:
        grad = discrete_action_gradient(model, f)
        scale = max(1.0, float(np.nanmax(np.abs(grad))))
        h = 1e-6
        for i in range(5):
            for j in range(5):
                for k in range(model.m):
                    vp = f.values.copy()
                    vm = f.values.copy()
                    vp[i, j, k] += h
                    vm[i, j, k] -= h
                    fd = (discrete_action(model, GridField(grid=g5, values=vp))
                          - discrete_action(model, GridField(grid=g5, values=vm))
                          ) / (2 * h)
                    worst = max(worst, abs(grad[i, j, k] - fd) / scale)
    assert worst <= 1e-6

    split_gap = 0.0
    for grid in (Grid.square(9, 9), Grid.disc_mask(17, 17)):
        model = get_lagrangian("harmonic")
        f = GridField.from_function(
            grid, lambda x, y: np.array([np.exp(x) * np.cos(y) + x * y]), 1)
        grad = discrete_action_gradient(model, f)
        _, pairing = boundary_momentum(model, f)
        rng = np.random.default_rng(3)
        for _ in range(5):
            delta = rng.standard_normal((grid.nx, grid.ny, 1))
            delta[grid.mask == 0] = 0.0
            full = float(np.sum(grad[grid.mask > 0] * delta[grid.mask > 0]))
            interior = float(np.sum(grad[grid.mask == 2] * delta[grid.mask == 2]))
            split_gap = max(split_gap, abs(full - interior - pairing(delta)))
    elapsed = time.perf_counter() - t0
    assert split_gap <= 1e-12
    assert elapsed < 5.0
    report(f"CRITERION 4 PASS: action gradient vs finite differences "
           f"(rel gap {worst:.3e}), interior+boundary split of the first "
           f"variation exact to {split_gap:.3e} ({elapsed:.2f}s)")


def test_criterion_5_harmonic_dirichlet_solver():
    t0 = time.perf_counter()
    model = get_lagrangian("harmonic")

    g = Grid.square(33, 33)
    saddle = GridField.from_function(
        g, lambda x, y: np.array([x * x - y * y]), 1)
    b = g.boundary_nodes
    start = np.zeros_like(saddle.values)
    start[b[:, 0], b[:, 1]] = saddle.values[b[:, 0], b[:, 1]]
    sol, rep = solve_dirichlet(model, GridField(grid=g, values=start))
    saddle_err = float(np.max(np.abs(sol.values - saddle.values)))
    assert rep.converged
    assert saddle_err <= 1e-9

    errs = []
    for n in (17, 33, 65):
        gn = Grid.square(n, n)
        exact = GridField.from_function(
            gn, lambda x, y: np.array([np.sin(x) * np.sinh(y)]), 1)
        bn = gn.boundary_nodes
        init = np.zeros_like(exact.values)
        init[bn[:, 0], bn[:, 1]] = exact.values[bn[:, 0], bn[:, 1]]
        sn, rn = solve_dirichlet(model, GridField(grid=gn, values=init))
        assert rn.converged
        errs.append(float(np.max(np.abs(sn.values - exact.values))))
    orders = [float(np.log2(errs[k] / errs[k + 1])) for k in range(2)]
    elapsed = time.perf_counter() - t0
    assert min(orders) >= 1.8
    assert elapsed < 30.0
    report(f"CRITERION 5 PASS: polynomial boundary data reproduced to "
           f"{saddle_err:.3e}, smooth-data convergence orders "
           f"{orders[0]:.3f}/{orders[1]:.3f} ({elapsed:.2f}s)")


def test_criterion_6_string_boundary_value_problem():
    t0 = time.perf_counter()
    model = get_lagrangian("nambu")
    g = Grid.square(17, 17)
    f = GridField.from_function(
        g, lambda x, y: (x, y, 1e-3 * x * y, 0.0), 4)
    sol, rep = solve_dirichlet(model, f, tol=1e-10, max_iter=50)
    momenta, _ = boundary_momentum(model, sol)
    div, _ = momentum_divergence(g, momenta)
    conservation = float(np.max(np.abs(div)))
    elapsed = time.perf_counter() - t0
    assert rep.converged
    assert rep.final_residual <= 1e-10
    assert conservation <= 1e-8
    assert elapsed < 60.0
    report(f"CRITERION 6 PASS: near-flat string boundary-value problem "
           f"converged (residual {rep.final_residual:.3e}, momentum "
           f"conservation {conservation:.3e}) ({elapsed:.2f}s)")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        out = d / "sol.csv"
        code = main(["solve", "--model", "nambu", "--grid", "17x17",
                     "--bc", "x", "--bc", "y", "--bc", "1e-3*x*y",
                     "--bc", "0", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        outputs.append((stdout, out.read_bytes(),
                        (d / "sol.momenta.csv").read_bytes(),
                        (d / "sol.report.json").read_bytes()))
    assert outputs[0] == outputs[1]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["solve", "--config", str(bad)])
    capsys.readouterr()
    assert code == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        report(f"\nCRITERION 7 PASS: repeated solves byte-identical across "
               f"artifacts and stdout, malformed configuration rejected "
               f"with exit code 2 ({elapsed:.2f}s)")


def test_acceptance_report_lines(capsys):
    """Re-print the criterion summaries so a plain pytest run shows one
    line per criterion even with output capture enabled."""
    with capsys.disabled():
        print("\nacceptance: 7 criteria checked by the tests above "
              "(map identities, derivatives, string Legendre structure, "
              "discrete variation, harmonic solver, string solver, CLI "
              "determinism)")
