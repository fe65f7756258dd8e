"""Batched evaluation: a batch of points along trailing axes gives, bit for
bit, what one call per point gives, and the few single-point operations
refuse batches.

The per-point samplers, the string closed form and the per-point verb loops
that the batched code replaced are frozen here as private copies, so the
batched code keeps being compared with the old code, not with itself."""

import json
from dataclasses import fields

import numpy as np
import pytest

from fieldtriple import autodiff
from fieldtriple.bundles import (
    Jet,
    JetCovector,
    JetTangent,
    JetVariation,
    Phase,
    PhaseJet,
    PhaseTangent,
    alpha,
    beta,
    beta_m,
    beta_tilde,
    kappa,
    omega2_pair,
    pair_covector,
    pair_jet,
    pair_phase_covector,
    project_to_jet,
    project_to_phase,
    random_jet,
    random_jet_tangent,
    random_phase,
    random_phase_jet,
    random_phase_tangent,
)
from fieldtriple.cli import main
from fieldtriple.errors import DomainError, IncompatiblePointsError, InvalidInputError
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
from fieldtriple.models import (
    MINKOWSKI,
    STRING_JET,
    GramMatrix,
    Uniform,
    draw_points,
    get_hamiltonian,
    get_lagrangian,
    harmonic_lagrangian,
    sample_admissible_string_jet,
    sample_admissible_string_phase,
)

MODELS = [("nambu", None), ("harmonic", 3), ("sigma", 3)]
N = 40


# ---------------------------------------------------------------------------
# the per-point code the batched code replaced, frozen


def _string_jet(rng):
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    v1 = np.concatenate([[1.0], 0.5 * u])
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    v2 = np.concatenate([[0.0], rng.uniform(0.5, 2.0) * d])
    return Jet(q=rng.standard_normal(4), qdot=[v1, v2])


def _string_closed_form(j):
    v1, v2 = j.qdot
    A = float(MINKOWSKI.inner(v1, v1))
    B = float(MINKOWSKI.inner(v1, v2))
    C = float(MINKOWSKI.inner(v2, v2))
    s = np.sqrt(-(A * C - B * B))
    w1 = MINKOWSKI.signs * v1
    w2 = MINKOWSKI.signs * v2
    return Phase(q=j.q, p=[(B * w2 - C * w1) / s, (B * w1 - A * w2) / s])


def _sample_jet(model, rng):
    if model.name == "nambu":
        return _string_jet(rng)
    return random_jet(rng, model.m)


def _sample_phase(model, rng):
    if model.name == "nambu":
        return _string_closed_form(_string_jet(rng))
    return random_phase(rng, model.m)


def _stack(objs):
    """One bundle object holding ``objs`` along a trailing batch axis,
    anchors included."""
    first = objs[0]
    return type(first)(*(
        np.stack([getattr(o, f.name) for o in objs], axis=-1)
        if isinstance(getattr(first, f.name), np.ndarray)
        else _stack([getattr(o, f.name) for o in objs]) for f in fields(first)))


def point(x, k):
    """Point k of a batched Jet or Phase."""
    return type(x)(*(getattr(x, f.name)[..., k] for f in fields(x)))


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
    for f, x in ((lag.L, np.concatenate([j.q, *j.qdot])),
                 (ham.H, np.concatenate([ph.q, *ph.p]))):
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
    same_blocks(dL(lag, j), [dL(lag, point(j, k)) for k in range(N)], ("a", "b"))
    same_blocks(legendre(lag, j), [legendre(lag, point(j, k)) for k in range(N)],
                ("q", "p"))
    same_blocks(dH(ham, ph), [dH(ham, point(ph, k)) for k in range(N)],
                ("phi", "psi"))


@pytest.mark.parametrize("name,m", MODELS)
def test_batched_members_and_residuals_match_per_point_bitwise(name, m):
    lag, ham, j, ph, free_l, free_h = draws(name, m)
    w_l = phase_dynamics_member(lag, j, free_l)
    w_h = ham_dynamics_member(ham, ph, free_h)
    singles_l = [phase_dynamics_member(lag, point(j, k), free_l[..., k]) for k in range(N)]
    singles_h = [ham_dynamics_member(ham, point(ph, k), free_h[..., k]) for k in range(N)]
    blocks = ("qdot", "pdot")
    same_blocks(w_l, singles_l, blocks)
    same_blocks(w_h, singles_h, blocks)
    same_blocks(w_l.base, [w.base for w in singles_l], ("q", "p"))
    for w, singles in ((w_l, singles_l), (w_h, singles_h)):
        for residual, model in ((phase_relation_residual, lag), (ham_phase_residual, ham)):
            r = residual(model, w)
            assert isinstance(r, np.ndarray) and r.shape == (N,)
            ref = [residual(model, s) for s in singles]
            assert all(type(x) is float for x in ref)
            assert np.array_equal(r, ref)


@pytest.mark.parametrize("name,m", MODELS)
def test_free_parameters_move_only_pdot(name, m):
    """Two members over the same points with different ``free`` agree in
    every block but pdot, both lie on both relations, and each pdot is the
    canonical member's moved by exactly its free parameters."""
    lag, ham, j, ph, free_l, free_h = draws(name, m)
    for member, model, x, free in ((phase_dynamics_member, lag, j, free_l),
                                   (ham_dynamics_member, ham, ph, free_h)):
        other = 2.5 * free[::-1] + 1.0
        w0 = member(model, x)
        pair = [member(model, x, f) for f in (free, other)]
        a, b = pair
        assert a.base == b.base == w0.base
        assert np.array_equal(a.qdot, b.qdot) and np.array_equal(a.qdot, w0.qdot)
        assert np.all(a.pdot != b.pdot)
        for w, (split, cross0, cross1) in zip(pair, (free, other)):
            assert np.array_equal(w.pdot[0, 0], w0.pdot[0, 0] - split)
            assert np.array_equal(w.pdot[1, 1], split)
            assert np.array_equal(w.pdot[0, 1], cross0)
            assert np.array_equal(w.pdot[1, 0], cross1)
            assert np.max(phase_relation_residual(lag, w)) <= 1e-12
            assert np.max(ham_phase_residual(ham, w)) <= 1e-12


def test_default_member_is_canonical_for_a_batch():
    lag, ham, j, ph, _, _ = draws("nambu", None)
    w = phase_dynamics_member(lag, j)
    assert np.array_equal(w.pdot[0, 0], dL(lag, j).a)
    assert not np.any(w.pdot[1, 1]) and not np.any(w.pdot[0, 1]) and not np.any(w.pdot[1, 0])
    w = ham_dynamics_member(ham, ph)
    assert np.array_equal(w.pdot[0, 0], -dH(ham, ph).phi)


def test_member_free_parameters_must_match_the_points():
    lag, ham, j, ph, free_l, free_h = draws("harmonic", 3)
    with pytest.raises(InvalidInputError):
        phase_dynamics_member(lag, j, free_l[..., :-1])
    with pytest.raises(InvalidInputError):
        ham_dynamics_member(ham, point(ph, 0), free_h)


def test_one_inadmissible_point_fails_the_batch():
    lag, ham, j, ph, _, _ = draws("nambu", None)
    qdot = j.qdot.copy()
    qdot[1, :, 7] = j.qdot[0, :, 7]  # parallel tangents: det g = 0
    with pytest.raises(DomainError):
        dL(lag, Jet(j.q, qdot))
    p = ph.p.copy()
    p[1, :, 5] = 2.0 * ph.p[0, :, 5]
    dual = GramMatrix.from_momenta(MINKOWSKI, p).det
    assert np.all(np.delete(dual, 5) < -1e-8) and dual[5] == 0.0
    primal = GramMatrix.from_velocities(MINKOWSKI, qdot).det
    assert np.all(np.delete(primal, 7) < 0.0) and primal[7] == 0.0
    with pytest.raises(DomainError):
        dH(ham, Phase(ph.q, p))


# ---------------------------------------------------------------------------
# batch shapes and the pairings


def test_mismatched_batch_shapes_raise():
    a, b = np.zeros((2, 3)), np.zeros((2, 4))
    aa, bb = np.stack([a, a]), np.stack([b, b])
    with pytest.raises(InvalidInputError, match="block qdot "):
        Jet(a, bb)
    with pytest.raises(InvalidInputError, match="block p "):
        Phase(a, np.zeros((2, 2)))
    base = Phase(a, aa)
    with pytest.raises(InvalidInputError, match="block qdot "):
        PhaseJet(base, np.zeros((2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(InvalidInputError, match="block a "):
        JetCovector(Jet(a, aa), b, bb)
    with pytest.raises(InvalidInputError, match="block q "):
        Jet(np.float64(1.0), np.zeros(2))


def _frozen_pairings(w, v, u):
    """The four single-point pairings of w with v and u, as the bundles
    computed them: one np.dot per block pair, summed left to right."""
    a = w.pdot[0, 0] + w.pdot[1, 1]
    p, qdot, dqdot, dp = w.base.p, w.qdot, v.dqdot, u.dp
    jet = float(np.dot(a, v.dq) + np.dot(p[0], dqdot[0]) + np.dot(p[1], dqdot[1]))
    phase = float(np.dot(-a, u.dq) + np.dot(qdot[0], dp[0]) + np.dot(qdot[1], dp[1]))
    omega = float(np.dot(qdot[0], dp[0]) + np.dot(qdot[1], dp[1]) - np.dot(a, u.dq))
    return {pair_jet: jet, pair_covector: jet, pair_phase_covector: phase,
            omega2_pair: omega}


def test_batched_pairings_match_per_point_bitwise():
    for m in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(9 + m)
        ws = [random_phase_jet(rng, m) for _ in range(N)]
        vs = [random_jet_tangent(rng, m, jet=project_to_jet(w)) for w in ws]
        us = [random_phase_tangent(rng, project_to_phase(w)) for w in ws]
        w, v, u = _stack(ws), _stack(vs), _stack(us)
        frozen = [_frozen_pairings(*x) for x in zip(ws, vs, us)]
        cases = ((pair_jet, lambda x, y: (x, kappa(y)), v, vs),
                 (pair_covector, lambda x, y: (alpha(x), y), v, vs),
                 (pair_phase_covector, lambda x, y: (beta(x), y), u, us),
                 (omega2_pair, lambda x, y: (x, y), u, us))
        for pairing, args, b, bs in cases:
            batched = pairing(*args(w, b))
            assert isinstance(batched, np.ndarray) and batched.shape == (N,)
            singles = [pairing(*args(x, y)) for x, y in zip(ws, bs)]
            assert all(type(x) is float for x in singles)
            assert np.array_equal(batched, singles), pairing.__name__
            assert singles == [f[pairing] for f in frozen], pairing.__name__
        for i in (0, 1):
            batched = beta_m(w.base.q, w.base.p[i], w.qdot[0], w.pdot[i, i])
            singles = [beta_m(x.base.q, x.base.p[i], x.qdot[0], x.pdot[i, i])
                       for x in ws]
            for b, block in zip(batched, zip(*singles)):
                assert np.array_equal(b, np.stack(block, axis=-1))
        assert beta_tilde(w) == _stack([beta_tilde(x) for x in ws]) == beta(w)


def test_batched_pairings_check_every_anchor_and_the_batch_shape():
    rng = np.random.default_rng(21)
    batch = lambda *lead: rng.standard_normal(lead + (3, 5))  # noqa: E731
    w = PhaseJet(Phase(batch(), batch(2)), batch(2), batch(2, 2))
    v = JetTangent(project_to_jet(w), batch(), batch(2))
    u = PhaseTangent(w.base, batch(), batch(2))
    # one point of the anchor moved by one ulp
    q = w.base.q.copy()
    q[1, 3] = np.nextafter(q[1, 3], np.inf)
    moved_jet = Jet(q, w.qdot)
    moved_phase = Phase(q, w.base.p)
    with pytest.raises(IncompatiblePointsError):
        pair_jet(w, JetVariation(moved_jet, v.dq, v.dqdot))
    with pytest.raises(IncompatiblePointsError):
        pair_covector(alpha(w), JetTangent(moved_jet, v.dq, v.dqdot))
    with pytest.raises(IncompatiblePointsError):
        pair_phase_covector(beta(w), PhaseTangent(moved_phase, u.dq, u.dp))
    with pytest.raises(IncompatiblePointsError):
        omega2_pair(w, PhaseTangent(moved_phase, u.dq, u.dp))
    # the first four points of the same batch
    head = lambda x: x[..., :4]  # noqa: E731
    jet4 = Jet(head(w.base.q), head(w.qdot))
    phase4 = Phase(head(w.base.q), head(w.base.p))
    with pytest.raises(InvalidInputError):
        pair_jet(w, JetVariation(jet4, head(v.dq), head(v.dqdot)))
    with pytest.raises(InvalidInputError):
        pair_covector(alpha(w), JetTangent(jet4, head(v.dq), head(v.dqdot)))
    with pytest.raises(InvalidInputError):
        pair_phase_covector(beta(w), PhaseTangent(phase4, head(u.dq), head(u.dp)))
    with pytest.raises(InvalidInputError):
        omega2_pair(w, PhaseTangent(phase4, head(u.dq), head(u.dp)))
    with pytest.raises(InvalidInputError):
        beta_m(w.base.q, w.base.p[0], head(w.qdot[0]), head(w.pdot[0, 0]))


# ---------------------------------------------------------------------------
# the sample points: one draw per run of normals, one build per batch


def _draw_per_point(rng, n, layout):
    """``draw_points`` as one RNG call per item of each point."""
    rows = [[rng.uniform(it.lo, it.hi) if isinstance(it, Uniform)
             else rng.standard_normal(it) for it in layout] for _ in range(n)]
    return [np.array(column) for column in zip(*rows)]


class _CountingRng:
    """The two generator methods ``draw_points`` uses, with call counts."""

    def __init__(self, rng):
        self.rng = rng
        self.normal_calls = self.uniform_calls = 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.standard_normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self.rng.uniform(*args, **kwargs)


LAYOUTS = [
    STRING_JET,
    STRING_JET + ((3, 4),) + STRING_JET + ((3, 4),),   # phase-check, nambu
    ((3, 2), (3, 2)),                                   # no uniform
    (Uniform(0.5, 2.0), (4,)),                          # starts with one
    ((2,), Uniform(-1.0, 1.0)),                         # ends with one
    ((3,), Uniform(0.0, 1.0), Uniform(2.0, 5.0), (2, 2)),  # two adjacent
    (Uniform(0.0, 1.0),),                               # only a uniform
]


@pytest.mark.parametrize("n", [1, N])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_draw_points_matches_per_point_loop_bitwise(layout, n):
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    counting = _CountingRng(rng)
    got = draw_points(counting, n, layout)
    ref = _draw_per_point(ref_rng, n, layout)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(got) == len(layout)
    for a, b, it in zip(got, ref, layout):
        shape = (n,) if isinstance(it, Uniform) else (n,) + it
        assert a.shape == b.shape == shape
        assert np.array_equal(a, b)
    # one call per uniform, and one per run of normals between them
    uniforms = sum(isinstance(it, Uniform) for it in layout)
    flat = "".join("u" if isinstance(it, Uniform) else "n" for it in layout)
    runs = len([run for run in (flat * n).split("u") if run])
    assert counting.uniform_calls == n * uniforms
    assert counting.normal_calls == runs


@pytest.mark.parametrize("seed", [0, 3, 12345])
def test_string_build_matches_frozen_per_point_samples_bitwise(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = draw_points(rng, N, STRING_JET)
    kept = [a.copy() for a in draws]
    state = rng.bit_generator.state
    jets = sample_admissible_string_jet(draws=draws)
    phases = sample_admissible_string_phase(draws=draws)
    assert rng.bit_generator.state == state  # the build draws nothing
    assert all(np.array_equal(a, b) for a, b in zip(draws, kept))
    ref = [_string_jet(ref_rng) for _ in range(N)]
    assert ref_rng.bit_generator.state == state  # the draws make the old calls
    assert jets == _stack(ref)
    assert phases == _stack([_string_closed_form(j) for j in ref])
    # one point drawn from a generator has batch shape ()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    one = sample_admissible_string_jet(rng)
    assert one.q.shape == (4,) and one == _string_jet(ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# single-point operations refuse batches


def test_transformed_hamiltonian_rejects_batches():
    # With the identity metric the velocities equal the momenta; that
    # strategy would take a batch, the Newton default would not.
    ph = Phase(np.zeros((2, 3)), np.ones((2, 2, 3)))
    for invert in (None, lambda model, ph: Jet(ph.q, ph.p)):
        ham = hamiltonian_from_lagrangian(harmonic_lagrangian(2), invert)
        with pytest.raises(InvalidInputError):
            dH(ham, ph)
        single = dH(ham, Phase(np.zeros(2), np.ones((2, 2))))
        assert np.allclose(single.psi[0], 1.0)


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
                      float(np.max(np.abs(cov.psi[0] - j.qdot[0]))),
                      float(np.max(np.abs(cov.psi[1] - j.qdot[1]))))
        ph0 = _sample_phase(ham, rng)
        cov0 = dH(ham, ph0)
        ph1 = legendre(lag, Jet(ph0.q, cov0.psi))
        inv_max = max(inv_max,
                      float(np.max(np.abs(ph1.p[0] - ph0.p[0]))),
                      float(np.max(np.abs(ph1.p[1] - ph0.p[1]))))
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


def per_point_check_maps(m, points, seed):
    dims = (m,) if m is not None else (1, 2, 4)
    rng = np.random.default_rng(seed)
    alpha_max = omega_max = 0.0
    beta_equal = True
    for mm in dims:
        for _ in range(points):
            w = random_phase_jet(rng, mm)
            v = random_jet_tangent(rng, mm, jet=project_to_jet(w))
            u = random_phase_tangent(rng, project_to_phase(w))
            f = _frozen_pairings(w, v, u)
            alpha_max = max(alpha_max, abs(f[pair_covector] - f[pair_jet]))
            omega_max = max(omega_max, abs(f[pair_phase_covector] - f[omega2_pair]))
            # beta against beta_tilde: -(d_1 p_1 + d_2 p_2) against the
            # glued -d_1 p_1 + -d_2 p_2; the other blocks are the same arrays
            beta_equal = beta_equal and np.array_equal(-(w.pdot[0, 0] + w.pdot[1, 1]),
                                                       -w.pdot[0, 0] + -w.pdot[1, 1])
    return {"command": "check-maps", "dims": list(dims), "points": points,
            "seed": seed, "alpha_pairing_max": alpha_max,
            "beta_tilde_equal": beta_equal, "omega2_pairing_max": omega_max,
            "tol": 1e-12,
            "pass": beta_equal and alpha_max <= 1e-12 and omega_max <= 1e-12}


@pytest.mark.parametrize("m", [None, 3])
def test_check_maps_matches_per_point_loop_bytewise(capsys, m):
    for seed in (0, 1, 12345):
        for points in (1, 300):
            argv = ["check-maps", "--seed", str(seed), "--points", str(points)]
            if m is not None:
                argv += ["--m", str(m)]
            assert main(argv) == 0
            out = capsys.readouterr().out
            expected = per_point_check_maps(m, points, seed)
            assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


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
