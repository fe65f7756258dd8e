"""Canonical maps on the jet and phase bundles.

The defining identities tested here pin every sign in the package:

* kappa is a pure block permutation (exact, bit for bit),
* alpha is characterized by <alpha(w), v> = <<w, kappa(v)>>,
* beta agrees exactly with its factor-map construction beta_tilde,
* <beta(w), u> reproduces the two-form pairing omega2_pair.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldtriple.bundles import (
    Jet,
    JetCovector,
    JetTangent,
    JetVariation,
    Phase,
    PhaseCovector,
    PhaseJet,
    PhaseTangent,
    alpha,
    beta,
    beta_m,
    beta_tilde,
    kappa,
    kappa_inv,
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
from fieldtriple.errors import IncompatiblePointsError, InvalidInputError
from fieldtriple.lagrangian import SecondJet


def phase_jet_m1(q, p1, p2, qd1, p1d1, p2d1, qd2, p1d2, p2d2):
    """The m = 1 phase jet with p = (p1, p2), qdot = (qd1, qd2) and
    pdot[j, i] = d_j p_i, written pidj."""
    return PhaseJet(Phase([q], [[p1], [p2]]), [[qd1], [qd2]],
                    [[[p1d1], [p2d1]], [[p1d2], [p2d2]]])


# ---------------------------------------------------------------------------
# Strategies: blocks of modest, exactly representable-ish floats


def blocks(m, lo=-2.0, hi=2.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        min_size=m, max_size=m)


def phase_jets(m):
    b = blocks(m)
    return st.builds(
        lambda q, p1, p2, qd1, p1d1, p2d1, qd2, p1d2, p2d2: PhaseJet(
            Phase(q, [p1, p2]), [qd1, qd2], [[p1d1, p2d1], [p1d2, p2d2]]),
        b, b, b, b, b, b, b, b, b)


dims = st.sampled_from([1, 2, 4])


# ---------------------------------------------------------------------------
# kappa and its inverse


def test_kappa_block_permutation_hand_case():
    v = JetTangent(Jet([1.0], [[2.0], [3.0]]), [4.0], [[5.0], [6.0]])
    out = kappa(v)
    assert isinstance(out, JetVariation)
    assert out.flat().tolist() == [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]
    assert v.flat().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_kappa_zero_maps_to_zero():
    z = JetTangent(Jet([0.0], [[0.0], [0.0]]), [0.0], [[0.0], [0.0]])
    out = kappa(z)
    assert out.flat().tolist() == [0.0] * 6


def test_kappa_inv_is_exact_inverse_on_hand_case():
    v = JetTangent(Jet([1.0], [[2.0], [3.0]]), [4.0], [[5.0], [6.0]])
    assert kappa_inv(kappa(v)) == v
    w = JetVariation(Jet([1.0], [[2.0], [3.0]]), [4.0], [[5.0], [6.0]])
    assert kappa(kappa_inv(w)) == w


def test_kappa_round_trip_bitwise_on_random_points():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        v = random_jet_tangent(rng, m)
        out = kappa(v)
        # zero-ULP requirement: the permutation must not touch the values
        for src, dst in (("dq", "dq"), ("dqdot", "dqdot")):
            assert np.array_equal(getattr(out, dst), getattr(v, src))
        assert out.jet == v.jet
        assert kappa_inv(out) == v


@given(dims.flatmap(lambda m: st.tuples(st.just(m), blocks(m), blocks(m),
                                        blocks(m), blocks(m), blocks(m),
                                        blocks(m))))
def test_kappa_values_unchanged_property(args):
    m, q, qd1, qd2, dq, dqd1, dqd2 = args
    v = JetTangent(Jet(q, [qd1, qd2]), dq, [dqd1, dqd2])
    out = kappa(v)
    assert np.array_equal(out.jet.q, v.jet.q)
    assert np.array_equal(out.dq, v.dq)
    assert np.array_equal(out.dqdot[0], v.dqdot[0])
    assert np.array_equal(out.dqdot[1], v.dqdot[1])
    assert kappa_inv(out) == v


# Every constructor with its anchor and, per block, the number of direction
# axes in front of the block's (m,) + batch.
M, BATCH = 3, (5,)
_JET = Jet(np.zeros((M,) + BATCH), np.zeros((2, M) + BATCH))
_PHASE = Phase(np.zeros((M,) + BATCH), np.zeros((2, M) + BATCH))
CONSTRUCTORS = [
    (Jet, (), {"q": 0, "qdot": 1}),
    (Phase, (), {"q": 0, "p": 1}),
    (PhaseJet, (_PHASE,), {"qdot": 1, "pdot": 2}),
    (JetTangent, (_JET,), {"dq": 0, "dqdot": 1}),
    (JetVariation, (_JET,), {"dq": 0, "dqdot": 1}),
    (JetCovector, (_JET,), {"a": 0, "b": 1}),
    (PhaseCovector, (_PHASE,), {"phi": 0, "psi": 1}),
    (PhaseTangent, (_PHASE,), {"dq": 0, "dp": 1}),
    (SecondJet, (_JET,), {"d": 2}),
]


def _bad_shapes(k):
    """Wrong shapes for a block with k direction axes: each direction axis
    of length 1 or 3, one direction axis too few (a pdot of shape
    (2, m) + batch), another batch than the anchor's, another m."""
    good = (2,) * k + (M,) + BATCH
    for t in range(k):
        for n in (1, 3):
            yield good[:t] + (n,) + good[t + 1:]
    if k:
        yield good[1:]
    yield (2,) * k + (M, 4)
    yield (2,) * k + (M + 1,) + BATCH


BAD_BLOCKS = [(cls, anchor, blocks, name, shape)
              for cls, anchor, blocks in CONSTRUCTORS
              for name, k in blocks.items() if name != "q"
              for shape in _bad_shapes(k)]


@pytest.mark.parametrize(
    "cls,anchor,blocks,name,shape", BAD_BLOCKS,
    ids=[f"{c.__name__}-{n}-{'x'.join(map(str, s))}" for c, _, _, n, s in BAD_BLOCKS])
def test_constructors_name_the_block_of_a_wrong_shape(cls, anchor, blocks, name, shape):
    arrays = {n: np.zeros((2,) * k + (M,) + BATCH) for n, k in blocks.items()}
    obj = cls(*anchor, **arrays)
    assert obj.m == M
    assert all(getattr(obj, n).shape == a.shape for n, a in arrays.items())
    arrays[name] = np.zeros(shape)
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"block {name} has shape {shape}, expected")):
        cls(*anchor, **arrays)


def test_block_length_mismatch_raises():
    with pytest.raises(InvalidInputError):
        JetTangent(Jet([1.0], [[2.0], [3.0]]), [4.0, 5.0], [[5.0], [6.0]])
    with pytest.raises(InvalidInputError, match="block qdot has shape"):
        Jet([1.0], [[2.0, 3.0], [3.0, 4.0]])
    with pytest.raises(InvalidInputError, match="block qdot is not a rectangular"):
        Jet([1.0], [[2.0, 3.0], [3.0]])
    with pytest.raises(InvalidInputError, match="jet must be a Jet"):
        JetTangent(Phase([1.0], [[2.0], [3.0]]), [4.0], [[5.0], [6.0]])


# ---------------------------------------------------------------------------
# pair_jet


def test_pair_jet_hand_case():
    w = phase_jet_m1(0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 4.0)
    dv = JetVariation(Jet([0.0], [[0.0], [0.0]]), [1.0], [[1.0], [1.0]])
    assert pair_jet(w, dv) == pytest.approx(10.0, abs=0.0)


def test_pair_jet_zero_variation():
    w = phase_jet_m1(0.5, 1.0, 2.0, 0.25, 3.0, 1.0, -1.0, 2.0, 4.0)
    dv = JetVariation(project_to_jet(w), [0.0], [[0.0], [0.0]])
    assert pair_jet(w, dv) == 0.0


def test_pair_jet_linearity():
    rng = np.random.default_rng(5)
    for m in (1, 2, 4):
        w = random_phase_jet(rng, m)
        j = project_to_jet(w)
        a = rng.standard_normal(m)
        b = rng.standard_normal(m)
        c = rng.standard_normal(m)
        a2 = rng.standard_normal(m)
        b2 = rng.standard_normal(m)
        c2 = rng.standard_normal(m)
        dv = JetVariation(j, a, [b, c])
        dv2 = JetVariation(j, a2, [b2, c2])
        dvsum = JetVariation(j, a + a2, [b + b2, c + c2])
        lhs = pair_jet(w, dvsum)
        rhs = pair_jet(w, dv) + pair_jet(w, dv2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_pair_jet_mismatched_projection_raises():
    w = phase_jet_m1(0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 4.0)
    dv = JetVariation(Jet([9.0], [[0.0], [0.0]]), [1.0], [[1.0], [1.0]])
    with pytest.raises(IncompatiblePointsError):
        pair_jet(w, dv)


# ---------------------------------------------------------------------------
# alpha


def test_alpha_hand_case():
    w = phase_jet_m1(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
    c = alpha(w)
    assert isinstance(c, JetCovector)
    assert c.jet == Jet([1.0], [[4.0], [7.0]])
    assert c.a.tolist() == [14.0]
    assert c.b[0].tolist() == [2.0]
    assert c.b[1].tolist() == [3.0]


def test_alpha_zero():
    w = phase_jet_m1(*([0.0] * 9))
    c = alpha(w)
    assert c.a.tolist() == [0.0]
    assert c.b[0].tolist() == [0.0]
    assert c.b[1].tolist() == [0.0]


def test_alpha_defining_pairing_on_random_points():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        w = random_phase_jet(rng, m)
        v = random_jet_tangent(rng, m, jet=project_to_jet(w))
        lhs = pair_covector(alpha(w), v)
        rhs = pair_jet(w, kappa(v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(dims.flatmap(lambda m: st.tuples(phase_jets(m),
                                        blocks(m), blocks(m), blocks(m))))
def test_alpha_defining_pairing_property(args):
    w, dq, dqd1, dqd2 = args
    v = JetTangent(project_to_jet(w), dq, [dqd1, dqd2])
    lhs = pair_covector(alpha(w), v)
    rhs = pair_jet(w, kappa(v))
    assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# beta, beta_tilde, beta_m


def test_beta_hand_case():
    w = phase_jet_m1(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
    c = beta(w)
    assert isinstance(c, PhaseCovector)
    assert c.phase == Phase([1.0], [[2.0], [3.0]])
    assert c.phi.tolist() == [-14.0]
    assert c.psi[0].tolist() == [4.0]
    assert c.psi[1].tolist() == [7.0]


def test_beta_zero():
    w = phase_jet_m1(*([0.0] * 9))
    c = beta(w)
    assert c.phi.tolist() == [0.0]
    assert c.psi[0].tolist() == [0.0]
    assert c.psi[1].tolist() == [0.0]


def test_beta_tilde_hand_case_matches_beta():
    w = phase_jet_m1(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
    assert beta_tilde(w) == beta(w)


def test_beta_equals_beta_tilde_exactly_on_1000_points():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        w = random_phase_jet(rng, m)
        assert beta(w) == beta_tilde(w)


@given(dims.flatmap(phase_jets))
def test_beta_equals_beta_tilde_property(w):
    assert beta(w) == beta_tilde(w)


def test_beta_m_hand_case():
    q, p, a, b = beta_m([0.0], [0.0], [1.0], [1.0])
    assert a.tolist() == [-1.0]
    assert b.tolist() == [1.0]


def test_beta_m_zero():
    q, p, a, b = beta_m([0.0], [0.0], [0.0], [0.0])
    assert a.tolist() == [0.0] and b.tolist() == [0.0]


@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(blocks(m), blocks(m), blocks(m), blocks(m),
                        blocks(m), blocks(m))))
def test_beta_m_pairing_antisymmetric(args):
    q, p, dqv, dpv, dqw, dpw = args
    dqv, dpv = np.asarray(dqv), np.asarray(dpv)
    dqw, dpw = np.asarray(dqw), np.asarray(dpw)

    def pairing(dq1, dp1, dq2, dp2):
        _, _, a, b = beta_m(q, p, dq1, dp1)
        return float(a @ dq2 + b @ dp2)

    s = pairing(dqv, dpv, dqw, dpw) + pairing(dqw, dpw, dqv, dpv)
    assert abs(s) <= 1e-12


# ---------------------------------------------------------------------------
# omega2_pair


def test_omega2_hand_case():
    w = phase_jet_m1(0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 3.0)
    u = PhaseTangent(project_to_phase(w), [1.0], [[5.0], [0.0]])
    assert omega2_pair(w, u) == pytest.approx(0.0, abs=0.0)


def test_omega2_zero_tangent():
    rng = np.random.default_rng(9)
    w = random_phase_jet(rng, 3)
    u = PhaseTangent(project_to_phase(w), [0.0] * 3, [[0.0] * 3, [0.0] * 3])
    assert omega2_pair(w, u) == 0.0


def test_omega2_matches_beta_pairing_on_random_points():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        w = random_phase_jet(rng, m)
        u = random_phase_tangent(rng, project_to_phase(w))
        lhs = pair_phase_covector(beta(w), u)
        rhs = omega2_pair(w, u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(dims.flatmap(lambda m: st.tuples(phase_jets(m),
                                        blocks(m), blocks(m), blocks(m))))
def test_omega2_matches_beta_pairing_property(args):
    w, dq, dp1, dp2 = args
    u = PhaseTangent(project_to_phase(w), dq, [dp1, dp2])
    assert abs(pair_phase_covector(beta(w), u) - omega2_pair(w, u)) <= 1e-12


def test_omega2_mismatched_base_raises():
    rng = np.random.default_rng(3)
    w = random_phase_jet(rng, 2)
    other = PhaseTangent(Phase([9.0, 9.0], [[0.0, 0.0], [0.0, 0.0]]),
                         [1.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(IncompatiblePointsError):
        omega2_pair(w, other)


# ---------------------------------------------------------------------------
# projections and diagram commutation


def test_projections_of_hand_case():
    w = phase_jet_m1(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
    assert project_to_jet(alpha(w)) == Jet([1.0], [[4.0], [7.0]])
    assert project_to_phase(beta(w)) == Phase([1.0], [[2.0], [3.0]])


def test_projection_zero():
    w = phase_jet_m1(*([0.0] * 9))
    assert project_to_jet(w) == Jet([0.0], [[0.0], [0.0]])
    assert project_to_phase(w) == Phase([0.0], [[0.0], [0.0]])


def test_projections_reject_other_types():
    with pytest.raises(InvalidInputError, match="^cannot project Phase to a Jet$"):
        project_to_jet(Phase([0.0], [[0.0], [0.0]]))
    with pytest.raises(InvalidInputError, match="^cannot project Jet to a Phase$"):
        project_to_phase(Jet([0.0], [[0.0], [0.0]]))


def test_diagram_commutation_on_random_points():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        w = random_phase_jet(rng, m)
        cov = alpha(w)
        assert project_to_jet(cov) == project_to_jet(w)
        assert np.array_equal(cov.b[0], w.base.p[0])
        assert np.array_equal(cov.b[1], w.base.p[1])
        assert project_to_phase(beta(w)) == w.base


def test_phase_covector_projects_to_jet():
    # the covector (q, phi, psi) projects to the jet (q, psi)
    c = PhaseCovector(Phase([1.0], [[2.0], [3.0]]), [-14.0], [[4.0], [7.0]])
    assert project_to_jet(c) == Jet([1.0], [[4.0], [7.0]])


# ---------------------------------------------------------------------------
# fiber linearity


def _phase_jet_from_blocks(q, qd1, qd2, p1, p2, p1d1, p2d1, p1d2, p2d2):
    return PhaseJet(Phase(q, [p1, p2]), [qd1, qd2], [[p1d1, p2d1], [p1d2, p2d2]])


def test_alpha_fiber_linearity():
    rng = np.random.default_rng(31)
    for m in (1, 2, 4):
        q, qd1, qd2 = (rng.standard_normal(m) for _ in range(3))
        fib = [rng.standard_normal(m) for _ in range(6)]
        fib2 = [rng.standard_normal(m) for _ in range(6)]
        lam = 2.5
        w_a = _phase_jet_from_blocks(q, qd1, qd2, *fib)
        w_b = _phase_jet_from_blocks(q, qd1, qd2, *fib2)
        w_sum = _phase_jet_from_blocks(
            q, qd1, qd2, *[x + y for x, y in zip(fib, fib2)])
        w_scaled = _phase_jet_from_blocks(q, qd1, qd2, *[lam * x for x in fib])
        for block in ("a", "b"):
            got = getattr(alpha(w_sum), block)
            want = getattr(alpha(w_a), block) + getattr(alpha(w_b), block)
            assert np.max(np.abs(got - want)) <= 1e-12
            got = getattr(alpha(w_scaled), block)
            want = lam * getattr(alpha(w_a), block)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_beta_fiber_linearity():
    rng = np.random.default_rng(37)
    for m in (1, 2, 4):
        q, p1, p2 = (rng.standard_normal(m) for _ in range(3))
        vel = [rng.standard_normal(m) for _ in range(6)]
        vel2 = [rng.standard_normal(m) for _ in range(6)]
        lam = -1.5

        def build(v):
            qd1, p1d1, p2d1, qd2, p1d2, p2d2 = v
            return PhaseJet(Phase(q, [p1, p2]), [qd1, qd2],
                            [[p1d1, p2d1], [p1d2, p2d2]])

        w_a, w_b = build(vel), build(vel2)
        w_sum = build([x + y for x, y in zip(vel, vel2)])
        w_scaled = build([lam * x for x in vel])
        for block in ("phi", "psi"):
            got = getattr(beta(w_sum), block)
            want = getattr(beta(w_a), block) + getattr(beta(w_b), block)
            assert np.max(np.abs(got - want)) <= 1e-12
            got = getattr(beta(w_scaled), block)
            want = lam * getattr(beta(w_a), block)
            assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# value semantics


def test_bundle_equality_is_exact_and_typed():
    j = Jet([1.0], [[2.0], [3.0]])
    assert j == Jet([1.0], [[2.0], [3.0]])
    assert j != Jet([1.0], [[2.0], [np.nextafter(3.0, 4.0)]])  # adjacent float
    assert j != Jet([1.0], [[2.0], [3.0000001]])
    assert (j == Phase([1.0], [[2.0], [3.0]])) is False
    # tangents over different jets differ
    assert (JetTangent(j, [0.0], [[0.0], [0.0]])
            != JetTangent(Jet([1.5], [[2.0], [3.0]]), [0.0], [[0.0], [0.0]]))


def test_random_helpers_draw_one_normal_vector_per_block():
    """At a fixed seed each helper draws what one ``standard_normal(m)``
    call per block drew, in block order: q first, then the direction
    blocks, a phase jet's direction-major (qdot_j, d_j p_1, d_j p_2)."""
    m = 3
    rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)

    def blocks(k):
        return [ref.standard_normal(m) for _ in range(k)]

    q, qd1, qd2 = blocks(3)
    jet = random_jet(rng, m)
    assert jet == Jet(q, [qd1, qd2])
    q, p1, p2 = blocks(3)
    phase = random_phase(rng, m)
    assert phase == Phase(q, [p1, p2])
    qd1, p1d1, p2d1, qd2, p1d2, p2d2 = blocks(6)
    assert random_phase_jet(rng, m, base=phase) == PhaseJet(
        phase, [qd1, qd2], [[p1d1, p2d1], [p1d2, p2d2]])
    q, p1, p2, qd1, p1d1, p2d1, qd2, p1d2, p2d2 = blocks(9)
    assert random_phase_jet(rng, m) == PhaseJet(
        Phase(q, [p1, p2]), [qd1, qd2], [[p1d1, p2d1], [p1d2, p2d2]])
    dq, dqd1, dqd2 = blocks(3)
    assert random_jet_tangent(rng, m, jet=jet) == JetTangent(jet, dq, [dqd1, dqd2])
    q, qd1, qd2, dq, dqd1, dqd2 = blocks(6)
    assert random_jet_tangent(rng, m) == JetTangent(Jet(q, [qd1, qd2]), dq, [dqd1, dqd2])
    dq, dp1, dp2 = blocks(3)
    assert random_phase_tangent(rng, phase) == PhaseTangent(phase, dq, [dp1, dp2])
    assert rng.bit_generator.state == ref.bit_generator.state


def test_random_generators_are_seed_deterministic():
    a = random_jet(np.random.default_rng(123), 3)
    b = random_jet(np.random.default_rng(123), 3)
    assert a == b
