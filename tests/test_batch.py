"""Batched evaluation: a batch of points along trailing axes gives, bit for
bit, what one call per point gives, and single-point operations refuse
batches."""

import json

import numpy as np
import pytest

from fieldtriple import autodiff
from fieldtriple.bundles import (
    Jet,
    JetCovector,
    JetTangent,
    Phase,
    PhaseJet,
    PhaseTangent,
    alpha,
    beta,
    beta_m,
    kappa,
    omega2_pair,
    pair_covector,
    pair_jet,
    pair_phase_covector,
)
from fieldtriple.cli import _sample_jet, _sample_phase, _stack, main
from fieldtriple.errors import DomainError, InvalidInputError
from fieldtriple.hamiltonian import (
    dH,
    ham_dynamics_member,
    ham_phase_residual,
    hamiltonian_from_lagrangian,
)
from fieldtriple.lagrangian import (
    dL,
    legendre,
    phase_dynamics_member,
    phase_relation_residual,
)
from fieldtriple.models import get_hamiltonian, get_lagrangian, harmonic_lagrangian

MODELS = [("nambu", None), ("harmonic", 3), ("sigma", 3)]
N = 40


def point(x, k):
    """Point k of a batched Jet or Phase."""
    names = ("q", "qdot1", "qdot2") if isinstance(x, Jet) else ("q", "p1", "p2")
    return type(x)(*(getattr(x, n)[:, k] for n in names))


def draws(name, m, seed=11):
    """N admissible jets, N admissible phases and two (3, m, N) free arrays."""
    lag, ham = get_lagrangian(name, m), get_hamiltonian(name, m)
    rng = np.random.default_rng(seed)
    jets = [_sample_jet(lag, rng) for _ in range(N)]
    phases = [_sample_phase(ham, rng) for _ in range(N)]
    free_l = rng.standard_normal((3, lag.m, N))
    free_h = rng.standard_normal((3, ham.m, N))
    return lag, ham, _stack(jets), _stack(phases), free_l, free_h


def same_blocks(batched, singles, names):
    for n in names:
        ref = np.stack([getattr(s, n) for s in singles], axis=-1)
        assert np.array_equal(getattr(batched, n), ref), n


@pytest.mark.parametrize("name,m", MODELS)
def test_batched_grad_matches_per_point_bitwise(name, m):
    lag, ham, j, ph, _, _ = draws(name, m)
    for f, x in ((lag.L, np.concatenate([j.q, j.qdot1, j.qdot2])),
                 (ham.H, np.concatenate([ph.q, ph.p1, ph.p2]))):
        g = autodiff.grad(f, x)
        assert g.shape == x.shape
        ref = np.stack([autodiff.grad(f, x[:, k]) for k in range(N)], axis=-1)
        assert np.array_equal(g, ref)


def test_batched_grad_keeps_every_batch_axis():
    lag = get_lagrangian("sigma", 3)
    x = np.random.default_rng(3).standard_normal((9, 4, 5))
    g = autodiff.grad(lag.L, x)
    assert g.shape == (9, 4, 5)
    assert np.array_equal(g[:, 2, 3], autodiff.grad(lag.L, x[:, 2, 3]))


@pytest.mark.parametrize("name,m", MODELS)
def test_batched_differentials_match_per_point_bitwise(name, m):
    lag, ham, j, ph, _, _ = draws(name, m)
    same_blocks(dL(lag, j), [dL(lag, point(j, k)) for k in range(N)], ("a", "b1", "b2"))
    same_blocks(legendre(lag, j), [legendre(lag, point(j, k)) for k in range(N)],
                ("q", "p1", "p2"))
    same_blocks(dH(ham, ph), [dH(ham, point(ph, k)) for k in range(N)],
                ("phi", "psi1", "psi2"))


@pytest.mark.parametrize("name,m", MODELS)
def test_batched_members_and_residuals_match_per_point_bitwise(name, m):
    lag, ham, j, ph, free_l, free_h = draws(name, m)
    w_l = phase_dynamics_member(lag, j, free_l)
    w_h = ham_dynamics_member(ham, ph, free_h)
    singles_l = [phase_dynamics_member(lag, point(j, k), free_l[..., k]) for k in range(N)]
    singles_h = [ham_dynamics_member(ham, point(ph, k), free_h[..., k]) for k in range(N)]
    blocks = ("qdot1", "p1dot1", "p2dot1", "qdot2", "p1dot2", "p2dot2")
    same_blocks(w_l, singles_l, blocks)
    same_blocks(w_h, singles_h, blocks)
    same_blocks(w_l.base, [w.base for w in singles_l], ("q", "p1", "p2"))
    for w, singles in ((w_l, singles_l), (w_h, singles_h)):
        for residual, model in ((phase_relation_residual, lag), (ham_phase_residual, ham)):
            r = residual(model, w)
            assert isinstance(r, np.ndarray) and r.shape == (N,)
            ref = [residual(model, s) for s in singles]
            assert all(type(x) is float for x in ref)
            assert np.array_equal(r, ref)


def test_default_member_is_canonical_for_a_batch():
    lag, ham, j, ph, _, _ = draws("nambu", None)
    w = phase_dynamics_member(lag, j)
    assert np.array_equal(w.p1dot1, dL(lag, j).a)
    assert not np.any(w.p2dot2) and not np.any(w.p2dot1) and not np.any(w.p1dot2)
    w = ham_dynamics_member(ham, ph)
    assert np.array_equal(w.p1dot1, -dH(ham, ph).phi)


def test_member_free_parameters_must_match_the_points():
    lag, ham, j, ph, free_l, free_h = draws("harmonic", 3)
    with pytest.raises(InvalidInputError):
        phase_dynamics_member(lag, j, free_l[..., :-1])
    with pytest.raises(InvalidInputError):
        ham_dynamics_member(ham, point(ph, 0), free_h)


def test_one_inadmissible_point_fails_the_batch():
    lag, ham, j, ph, _, _ = draws("nambu", None)
    qdot2 = j.qdot2.copy()
    qdot2[:, 7] = j.qdot1[:, 7]  # parallel tangents: det g = 0
    with pytest.raises(DomainError):
        dL(lag, Jet(j.q, j.qdot1, qdot2))
    p2 = ph.p2.copy()
    p2[:, 5] = 2.0 * ph.p1[:, 5]
    assert ham.admissible(ph) and not ham.admissible(Phase(ph.q, ph.p1, p2))
    assert lag.admissible(j) and not lag.admissible(Jet(j.q, j.qdot1, qdot2))
    with pytest.raises(DomainError):
        dH(ham, Phase(ph.q, ph.p1, p2))


# ---------------------------------------------------------------------------
# single-point operations refuse batches


def test_mismatched_batch_shapes_raise():
    a, b = np.zeros((2, 3)), np.zeros((2, 4))
    with pytest.raises(InvalidInputError):
        Jet(a, a, b)
    with pytest.raises(InvalidInputError):
        Phase(a, a, np.zeros(2))
    base = Phase(a, a, a)
    with pytest.raises(InvalidInputError):
        PhaseJet(base, *([np.zeros(2)] * 6))
    with pytest.raises(InvalidInputError):
        JetCovector(Jet(a, a, a), b, b, b)
    with pytest.raises(InvalidInputError):
        Jet(np.float64(1.0), np.float64(1.0), np.float64(1.0))


def test_pairings_reject_batched_blocks():
    rng = np.random.default_rng(9)
    blk = lambda: rng.standard_normal((2, 3))  # noqa: E731
    jet = Jet(blk(), blk(), blk())
    phase = Phase(blk(), blk(), blk())
    w = PhaseJet(Phase(jet.q, blk(), blk()), jet.qdot1, blk(), blk(), jet.qdot2,
                 blk(), blk())
    v = JetTangent(jet, blk(), blk(), blk())
    u = PhaseTangent(w.base, blk(), blk(), blk())
    assert alpha(w).a.shape == (2, 3)  # the maps themselves take batches
    with pytest.raises(InvalidInputError):
        pair_jet(w, kappa(v))
    with pytest.raises(InvalidInputError):
        pair_covector(alpha(w), v)
    with pytest.raises(InvalidInputError):
        pair_phase_covector(beta(w), u)
    with pytest.raises(InvalidInputError):
        omega2_pair(w, u)
    with pytest.raises(InvalidInputError):
        beta_m(phase.q, phase.p1, blk(), blk())


def test_transformed_hamiltonian_rejects_batches():
    # With the identity metric the velocities equal the momenta; that
    # strategy would take a batch, the Newton default would not.
    ph = Phase(np.zeros((2, 3)), np.ones((2, 3)), np.ones((2, 3)))
    for invert in (None, lambda model, ph: Jet(ph.q, ph.p1, ph.p2)):
        ham = hamiltonian_from_lagrangian(harmonic_lagrangian(2), invert)
        with pytest.raises(InvalidInputError):
            dH(ham, ph)
        single = dH(ham, Phase(np.zeros(2), np.ones(2), np.ones(2)))
        assert np.allclose(single.psi1, 1.0)


def test_hessian_stays_single_point():
    lag = get_lagrangian("harmonic", 1)
    with pytest.raises(InvalidInputError):
        autodiff.hessian(lag.L, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# the pointwise verbs against the per-point loops they replace


def per_point_legendre(model, m, points, seed):
    lag, ham = get_lagrangian(model, m), get_hamiltonian(model, m)
    rng = np.random.default_rng(seed)
    fwd_max = inv_max = 0.0
    for _ in range(points):
        j = _sample_jet(lag, rng)
        ph = legendre(lag, j)
        cov = dH(ham, ph)
        fwd_max = max(fwd_max,
                      float(np.max(np.abs(cov.psi1 - j.qdot1))),
                      float(np.max(np.abs(cov.psi2 - j.qdot2))))
        ph0 = _sample_phase(ham, rng)
        cov0 = dH(ham, ph0)
        ph1 = legendre(lag, Jet(ph0.q, cov0.psi1, cov0.psi2))
        inv_max = max(inv_max,
                      float(np.max(np.abs(ph1.p1 - ph0.p1))),
                      float(np.max(np.abs(ph1.p2 - ph0.p2))))
    return {"command": "legendre", "model": lag.name, "points": points,
            "seed": seed, "forward_roundtrip_max": fwd_max,
            "inverse_roundtrip_max": inv_max, "tol": 1e-9,
            "pass": fwd_max <= 1e-9 and inv_max <= 1e-9}


def per_point_phase_check(model, m, points, seed):
    lag, ham = get_lagrangian(model, m), get_hamiltonian(model, m)
    rng = np.random.default_rng(seed)

    def free(k):
        # three draws of k normals per member, as the verb made before it
        # drew one (3, k) array
        return np.stack([rng.standard_normal(k) for _ in range(3)])

    lag_max = ham_max = agree_max = 0.0
    for _ in range(points):
        w_l = phase_dynamics_member(lag, _sample_jet(lag, rng), free(lag.m))
        w_h = ham_dynamics_member(ham, _sample_phase(ham, rng), free(ham.m))
        for w in (w_l, w_h):
            rl = phase_relation_residual(lag, w)
            rh = ham_phase_residual(ham, w)
            lag_max = max(lag_max, rl)
            ham_max = max(ham_max, rh)
            agree_max = max(agree_max, abs(rl - rh))
    return {"command": "phase-check", "model": lag.name, "points": points,
            "seed": seed, "lagrangian_residual_max": lag_max,
            "hamiltonian_residual_max": ham_max, "agreement_max": agree_max,
            "tol": 1e-8,
            "pass": lag_max <= 1e-8 and ham_max <= 1e-8 and agree_max <= 1e-8}


@pytest.mark.parametrize("verb,reference", [("legendre", per_point_legendre),
                                            ("phase-check", per_point_phase_check)])
@pytest.mark.parametrize("model,m", [("harmonic", 1), ("harmonic", 3), ("sigma", 2),
                                     ("sigma", 3), ("nambu", None)])
def test_pointwise_verbs_match_per_point_loop_bytewise(capsys, verb, reference,
                                                       model, m):
    for seed in (0, 1, 12345):
        for points in (1, 300):
            argv = [verb, "--model", model, "--seed", str(seed),
                    "--points", str(points)]
            if m is not None:
                argv += ["--m", str(m)]
            assert main(argv) == 0
            out = capsys.readouterr().out
            expected = reference(model, m, points, seed)
            assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
